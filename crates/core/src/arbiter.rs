//! The fleet scheduler: incremental, hierarchical arbitration with
//! dirty-app queues, per-pod arbiters and a global coordinator.
//!
//! [`HierarchicalController`] is the one engine that decides, every
//! sampling interval, which tenants run in the network and on which
//! device (§9.1, §9.4). [`FleetController`] is the same type under the
//! name the rigs use: built from a bare [`FleetControllerConfig`], it
//! arbitrates incrementally with no rate dead band. The economics it
//! prices with (hysteresis, stickiness, migration debits, weighted-DRF
//! fairness) are described on the [`fleet`](crate::fleet) module.
//!
//! Re-scoring every (app × device) pair from scratch each interval is
//! fine for a rack and ruinous for a datacenter. Gray's *Distributed
//! Computing Economics* points the way out: only re-decide when the
//! economics actually change. Each tick is an event-driven pipeline:
//!
//! 1. **Measure & hold** — each app's measured rate updates its *held*
//!    scoring rate only when it moves by more than
//!    [`ArbiterConfig::rate_deadband`] (relative). All scoring, streaks
//!    and gates are computed from held rates, so an app whose load
//!    wobbles inside the band is *economically unchanged*.
//! 2. **Dirty queue** — an app is enqueued (at most once per interval)
//!    when its held rate moved, a hysteresis or starvation gate flipped,
//!    its placement changed last tick, or the occupancy of a device in
//!    its pod changed. Everything else is provably unchanged and is not
//!    re-scored.
//! 3. **Per-pod arbiters** — each pod whose state is dirty re-solves the
//!    greedy benefit-per-capacity knapsack for the apps homed in it,
//!    using one priority heap per device keyed by the knapsack score
//!    (ties broken by app index, hop distance, device index). Clean pods
//!    keep last tick's selection verbatim. Candidate pruning follows the
//!    [`Topology`](inc_hw::Topology) tiers: a pod arbiter only considers
//!    its own pod's devices.
//! 4. **Global coordinator** — handles only what crosses pods: spilling
//!    apps their home pod cannot place, moving (or repatriating)
//!    cross-pod residents, and weighted-DRF fairness claims over the
//!    whole fabric.
//!
//! [`ArbitrationMode::FullRescore`] runs the same pipeline with every
//! pod forced dirty every tick; because both modes share held-rate
//! semantics, an incremental run must produce the *identical* shift
//! sequence — the equivalence property CI pins across proptest seeds.
//!
//! The pod split gives the scheduler two cross-pod rules (see
//! `ARCHITECTURE.md`, "Cross-pod semantics"):
//!
//! * a **cross-pod spill holds tenure against raw scores**: it can be
//!   displaced only by its own sustained low-benefit eviction or by a
//!   fairness claim, never preempted by a host-pod local's raw score;
//! * a **settled home resident migrates only within its pod** — leaving
//!   the pod happens by spilling (no room at home) or by a fairness
//!   hand-over, so the coordinator's cross-pod work stays proportional
//!   to the spill set, not the fleet.
//!
//! [`FleetController`]: crate::fleet::FleetController

use std::collections::BinaryHeap;

use inc_hw::{DeviceFabric, DeviceId, Placement};
use inc_sim::Nanos;

use crate::fleet::{
    sane_rate, AdmissionDecision, ClaimPlan, EntitlementPolicy, FleetApp, FleetControllerConfig,
    FleetSample, FleetScheduler, FleetShift, PriceRule, ShiftReason, TenureEstimator, TenurePolicy,
};

/// How the hierarchical pipeline schedules re-scoring work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbitrationMode {
    /// Every pod is solved every tick: the reference the incremental
    /// mode is tested against, and the baseline for measuring its
    /// speed-up.
    FullRescore,
    /// Only pods with a dirty app or a capacity change are solved; clean
    /// pods reuse their previous selection unchanged.
    Incremental,
}

/// Configuration of the [`HierarchicalController`]: the scheduling
/// economics plus the incremental machinery's knobs.
#[derive(Clone, Copy, Debug)]
pub struct ArbiterConfig {
    /// The scheduling economics (floors, hysteresis, stickiness,
    /// fairness, migration cost).
    pub fleet: FleetControllerConfig,
    /// Full re-score or incremental dirty-queue scheduling.
    pub mode: ArbitrationMode,
    /// Relative dead band on measured rates: the held scoring rate
    /// updates only when `|measured − held| > rate_deadband × max(|held|,
    /// 1 pps)` (strictly greater — a wobble landing *exactly* on the band
    /// does not re-score). `0.0` holds nothing: any change dirties.
    pub rate_deadband: f64,
}

impl ArbiterConfig {
    /// Incremental arbitration over the standard fleet economics with a
    /// 5 % rate dead band.
    pub fn standard(interval: Nanos) -> Self {
        ArbiterConfig {
            fleet: FleetControllerConfig::standard(interval),
            mode: ArbitrationMode::Incremental,
            rate_deadband: 0.05,
        }
    }
}

impl From<FleetControllerConfig> for ArbiterConfig {
    /// The [`FleetController`](crate::fleet::FleetController) form:
    /// incremental arbitration with no rate dead band, so every measured
    /// change is priced.
    fn from(fleet: FleetControllerConfig) -> Self {
        ArbiterConfig {
            fleet,
            mode: ArbitrationMode::Incremental,
            rate_deadband: 0.0,
        }
    }
}

/// Work counters of the hierarchical pipeline: the deterministic
/// evidence that incremental scheduling does less scoring than a full
/// re-score (wall-clock speed-ups are measured by the `mega_fabric`
/// bench; these counters are what CI asserts on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Sampling intervals processed.
    pub ticks: u64,
    /// Apps enqueued on the dirty queue (each at most once per tick).
    pub dirty_enqueued: u64,
    /// Pod-arbiter solves (a full re-score solves `pods × ticks`).
    pub pods_solved: u64,
    /// Ticks on which the global coordinator ran.
    pub coordinator_runs: u64,
    /// Candidate score evaluations across pod arbiters and coordinator.
    pub candidates_scored: u64,
}

/// One per-device candidate in a pod arbiter's priority heap, ordered
/// like the coordinator's candidate sort: score descending, then app
/// index, hop distance and device index ascending.
#[derive(Debug)]
struct Cand {
    score: f64,
    app: usize,
    dist: u32,
    dev: DeviceId,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // A max-heap pops the highest score first; lower app/dist/device
        // indices win ties, so those comparisons are reversed.
        self.score
            .total_cmp(&other.score)
            .then(other.app.cmp(&self.app))
            .then(other.dist.cmp(&self.dist))
            .then(other.dev.cmp(&self.dev))
    }
}

/// The multi-application on-demand scheduler over a device fabric (see
/// the module docs for the pipeline, and the [`fleet`](crate::fleet)
/// module for the economics).
#[derive(Clone, Debug)]
pub struct HierarchicalController {
    config: ArbiterConfig,
    fabric: DeviceFabric,
    apps: Vec<FleetApp>,
    /// Home pod of each app (cached partition key).
    home_pod: Vec<u16>,
    /// Apps homed in each pod, ascending — the pod arbiter's work list.
    apps_by_pod: Vec<Vec<usize>>,
    pods: usize,
    placements: Vec<Placement>,
    up_streaks: Vec<u32>,
    down_streaks: Vec<u32>,
    /// Consecutive samples each app has spent queued (software-placed
    /// with a sustained profitable demand but no capacity).
    starved_streaks: Vec<u32>,
    /// Cumulative queued samples per app over the controller's lifetime
    /// (the back-pressure metric surfaced through the fleet timeline).
    queued_intervals: Vec<u64>,
    /// Whether each resident app holds fair-share tenure (it was placed
    /// by a fairness claim and contention persists).
    fair_hold: Vec<bool>,
    /// Up-front admission verdict: demand unfit on every device.
    rejected: Vec<bool>,
    shifts: Vec<FleetShift>,
    /// Held scoring rate per app; NaN until the first sample arrives.
    held_rates: Vec<f64>,
    /// The §8 raw benefit at the held rate, priced by the configured
    /// [`Objective`](crate::fleet::Objective) (plain watts under
    /// `Joules`), cached so a clean tick never re-runs the energy model
    /// (it only changes when the held rate does).
    held_raw_w: Vec<f64>,
    /// Per-app online tenure estimators, fed by the shift log whatever
    /// the policy and priced only under [`TenurePolicy::Learned`].
    tenures: Vec<TenureEstimator>,
    /// Per-app starvation threshold (a pure function of config and the
    /// app's weight, so computed once).
    thresholds: Vec<u32>,
    /// Apps flagged for re-scoring next tick by end-of-tick events
    /// (placement changes, queue membership changes, claims coming due).
    pending_dirty: Vec<bool>,
    /// Devices whose occupancy changed last tick (or were marked via
    /// [`HierarchicalController::mark_device_dirty`]).
    pending_device_dirty: Vec<bool>,
    /// This tick's dirty marks (rebuilt each tick; kept for dedup).
    dirty: Vec<bool>,
    /// The dirty queue drained by the last tick, sorted by app index
    /// (test/analysis introspection).
    last_dirty: Vec<usize>,
    stats: ArbiterStats,
}

impl HierarchicalController {
    /// Creates a scheduler with every app starting in software placement.
    /// A bare [`FleetControllerConfig`] converts to the
    /// [`FleetController`](crate::fleet::FleetController) form
    /// (incremental, no rate dead band).
    ///
    /// Tenants whose demand fits no device in the fabric even when empty
    /// are rejected up front (see
    /// [`HierarchicalController::admission_decision`]): they are never
    /// candidates and never queue.
    ///
    /// # Panics
    ///
    /// Panics if an app's home device is not in the fabric, if a weight
    /// is not finite and positive, if the economics are unusable (see
    /// [`FleetControllerConfig`]), or if `rate_deadband` is negative or
    /// not finite.
    pub fn new(
        config: impl Into<ArbiterConfig>,
        fabric: DeviceFabric,
        apps: Vec<FleetApp>,
    ) -> Self {
        let config = config.into();
        for app in &apps {
            assert!(
                app.home.index() < fabric.device_count(),
                "app {:?} is homed at {} but the fabric has {} devices",
                app.name,
                app.home,
                fabric.device_count()
            );
            assert!(
                app.weight.is_finite() && app.weight > 0.0,
                "app {:?} has a non-positive weight {}",
                app.name,
                app.weight
            );
        }
        config.fleet.validate();
        assert!(
            config.rate_deadband.is_finite() && config.rate_deadband >= 0.0,
            "rate_deadband {} must be finite and non-negative",
            config.rate_deadband
        );
        let rejected: Vec<bool> = apps
            .iter()
            .map(|app| {
                fabric
                    .device_ids()
                    .all(|d| fabric.device(d).budget().admit(&app.demand).is_err())
            })
            .collect();
        let thresholds: Vec<u32> = apps
            .iter()
            .map(|a| config.fleet.starvation_threshold(a.weight))
            .collect();
        let home_pod: Vec<u16> = apps.iter().map(|a| fabric.pod(a.home)).collect();
        let pods = fabric.pod_count();
        let mut apps_by_pod: Vec<Vec<usize>> = vec![Vec::new(); pods];
        for (i, &p) in home_pod.iter().enumerate() {
            apps_by_pod[p as usize].push(i);
        }
        let devices = fabric.device_count();
        let n = apps.len();
        HierarchicalController {
            config,
            fabric,
            apps,
            home_pod,
            apps_by_pod,
            pods,
            placements: vec![Placement::Software; n],
            up_streaks: vec![0; n],
            down_streaks: vec![0; n],
            starved_streaks: vec![0; n],
            queued_intervals: vec![0; n],
            fair_hold: vec![false; n],
            rejected,
            shifts: Vec::new(),
            held_rates: vec![f64::NAN; n],
            held_raw_w: vec![f64::NAN; n],
            tenures: vec![TenureEstimator::new(); n],
            thresholds,
            pending_dirty: vec![false; n],
            pending_device_dirty: vec![false; devices],
            dirty: vec![false; n],
            last_dirty: Vec::new(),
            stats: ArbiterStats::default(),
        }
    }

    /// Adopts pre-existing placements (e.g. a static deployment the
    /// controller takes over, or a pinned configuration when
    /// `sustain_samples` is `u32::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if the device-resident subset does not fit its devices
    /// (`placements` must be feasible) or its length differs from the
    /// number of apps.
    pub fn with_initial_placements(mut self, placements: &[Placement]) -> Self {
        assert_eq!(placements.len(), self.apps.len());
        self.fabric.clear();
        for (i, &p) in placements.iter().enumerate() {
            if let Placement::Device(d) = p {
                self.fabric
                    .admit(d, i as u64, self.apps[i].demand)
                    .expect("initial placements must fit the fabric");
            }
        }
        self.placements = placements.to_vec();
        self
    }

    /// Current per-app placements, indexed like the `apps` vector.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The scheduled applications.
    pub fn apps(&self) -> &[FleetApp] {
        &self.apps
    }

    /// The device fabric (its ledgers reflect the current placements).
    pub fn fabric(&self) -> &DeviceFabric {
        &self.fabric
    }

    /// The configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// The decision log.
    pub fn shifts(&self) -> &[FleetShift] {
        &self.shifts
    }

    /// The pipeline's cumulative work counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// The dirty queue drained by the most recent tick, sorted by app
    /// index. Each app appears at most once however many dirty events it
    /// raised that interval.
    pub fn last_dirty(&self) -> &[usize] {
        &self.last_dirty
    }

    /// The held scoring rate of `app` (NaN before its first sample).
    pub fn held_rate(&self, app: usize) -> f64 {
        self.held_rates[app]
    }

    /// The current admission verdict for `app`: [`AdmissionDecision::Reject`]
    /// when its demand fits no device even empty (decided up front and
    /// permanent for a fixed fabric), [`AdmissionDecision::Queue`] while
    /// it sustains a profitable demand in software without receiving
    /// capacity, [`AdmissionDecision::Admit`] otherwise.
    pub fn admission_decision(&self, app: usize) -> AdmissionDecision {
        if self.rejected[app] {
            AdmissionDecision::Reject
        } else if self.starved_streaks[app] > 0 {
            AdmissionDecision::Queue
        } else {
            AdmissionDecision::Admit
        }
    }

    /// Consecutive samples `app` has currently spent queued.
    pub fn starved_streak(&self, app: usize) -> u32 {
        self.starved_streaks[app]
    }

    /// Cumulative queued samples per app over the run — the back-pressure
    /// each tenant has absorbed, indexed like the `apps` vector.
    pub fn queued_intervals(&self) -> &[u64] {
        &self.queued_intervals
    }

    /// Queued samples after which `app` files a fairness claim: the
    /// configured starvation window scaled down by the app's weight,
    /// floored by the sustain window (shares must never change faster
    /// than ordinary hysteresis allows).
    pub fn starvation_threshold(&self, app: usize) -> u32 {
        self.thresholds[app]
    }

    /// The weighted-DRF entitlement of `app`: its weight over the summed
    /// weights of every tenant currently contending for the fabric
    /// (resident or queued), itself always included. 1.0 when it would
    /// contend alone.
    pub fn entitlement(&self, app: usize) -> f64 {
        self.apps[app].weight / self.contending_weight(app, |i| self.placements[i].is_offloaded())
    }

    /// The dominant share `app` currently holds on its device (0.0 in
    /// software): the quantity fairness compares against
    /// [`HierarchicalController::entitlement`].
    pub fn dominant_share(&self, app: usize) -> f64 {
        self.fabric.dominant_share(app as u64)
    }

    /// The fairness hand-over plans available to `app` against the
    /// **current** placements, given one trusted rate per app: every
    /// device where its penalty-adjusted benefit clears the floor and a
    /// clip sequence of over-entitled incumbents frees enough room, with
    /// the forfeited benefit and migration debits of each. Unordered;
    /// rank with the configured policy's rule ([`ClaimPlan::total_cost_w`]
    /// ascending for min-cost, [`ClaimPlan::score`] descending for
    /// best-score). What a claim would see if it fired this instant —
    /// exposed for analysis and property tests.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the number of apps.
    pub fn claim_plans(&self, app: usize, rates: &[f64]) -> Vec<ClaimPlan> {
        assert_eq!(rates.len(), self.apps.len(), "one rate per app");
        self.plan_handovers(|j| self.placements[j].device(), |_| false, app, rates)
    }

    /// Estimated power saved by offloading `app` at `rate_pps` (§8 dynamic
    /// terms): software watts minus network watts, before any locality
    /// penalty. Negative when software is cheaper. Always watts — the
    /// configured objective prices this into decision units.
    pub fn benefit_w(&self, app: usize, rate_pps: f64) -> f64 {
        let (sw, hw) = self.apps[app].analysis.energy_per_second(rate_pps);
        sw - hw
    }

    /// The objective value of placing `app` on `device` at `rate_pps`:
    /// the objective-priced raw benefit scaled by the topology's
    /// locality factor (1.0 at home, the hop tier's haircut elsewhere),
    /// minus the objective-priced detour cost at that rate. Under the
    /// default [`Objective::Joules`](crate::fleet::Objective::Joules)
    /// this is watts.
    pub fn effective_benefit_w(&self, app: usize, device: DeviceId, rate_pps: f64) -> f64 {
        self.effective_value_of(app, device, self.raw_value(app, rate_pps), rate_pps)
    }

    /// The amortised switchover debit at the configured tenure, watts:
    /// the migration cost spread over
    /// [`FleetControllerConfig::expected_tenure_samples`].
    pub fn migration_w(&self) -> f64 {
        self.amortised_w(f64::from(self.config.fleet.expected_tenure_samples.max(1)))
    }

    /// The tenure a new placement of `app` is expected to hold, in
    /// sampling intervals: the config constant under
    /// [`TenurePolicy::Fixed`], the app's own EWMA estimate (with the
    /// config constant as fallback) under [`TenurePolicy::Learned`].
    pub fn expected_tenure_samples(&self, app: usize) -> f64 {
        match self.config.fleet.tenure {
            TenurePolicy::Fixed => f64::from(self.config.fleet.expected_tenure_samples.max(1)),
            TenurePolicy::Learned { .. } => {
                self.tenures[app].expected_samples(self.config.fleet.expected_tenure_samples)
            }
        }
    }

    /// The online tenure estimator of `app` (its EWMA state advances on
    /// every recorded shift whatever the [`TenurePolicy`]).
    pub fn tenure_estimator(&self, app: usize) -> &TenureEstimator {
        &self.tenures[app]
    }

    /// The objective-priced switchover debit charged to a move of `app`:
    /// its migration cost amortised over [`Self::expected_tenure_samples`]
    /// and pushed through the objective. Equals [`Self::migration_w`]
    /// under the default fixed-tenure joule pricing.
    pub fn app_migration_w(&self, app: usize) -> f64 {
        let watts = self.amortised_w(self.expected_tenure_samples(app));
        self.config.fleet.objective.value_of_w(watts)
    }

    /// The value of *moving* `app` from its current device to `device`:
    /// the effective value there, debited by the objective-priced
    /// amortised switchover cost. This is what a device-to-device
    /// candidate must clear the floor with and is scored by.
    pub fn move_benefit_w(&self, app: usize, device: DeviceId, rate_pps: f64) -> f64 {
        self.effective_benefit_w(app, device, rate_pps) - self.app_migration_w(app)
    }

    /// Benefit per capacity unit of placing `app` on `device`: the
    /// knapsack ranking key. The cost is floored so a degenerate
    /// zero-demand app yields an (enormous) finite score rather than a
    /// NaN from 0/0.
    pub fn score(&self, app: usize, device: DeviceId, rate_pps: f64) -> f64 {
        self.per_capacity(app, device, self.effective_benefit_w(app, device, rate_pps))
    }

    /// Flags a device whose capacity changed outside the scheduler's own
    /// decisions (an operator resizing a budget, a device draining for
    /// maintenance): next tick, every resident of that device's pod and
    /// every queued candidate homed there is re-scored.
    pub fn mark_device_dirty(&mut self, device: DeviceId) {
        self.pending_device_dirty[device.index()] = true;
    }

    /// Marks a fabric device alive or dead (the chaos suite's
    /// device-kill / ToR-partition lever). Tenants of a dead device are
    /// force-evicted to software on the next
    /// [`HierarchicalController::sample`] as [`ShiftReason::DeviceLoss`]
    /// shifts; the death raises a capacity event, so the device's pod
    /// re-arbitrates the same tick, and the device is skipped as a
    /// candidate until revived (which raises another capacity event).
    pub fn set_device_online(&mut self, id: DeviceId, online: bool) {
        self.fabric.set_online(id, online);
        self.pending_device_dirty[id.index()] = true;
    }

    /// Re-targets the offload floor
    /// ([`FleetControllerConfig::min_benefit_w`]) mid-run — the
    /// power-budget knob the chaos suite flaps. A higher floor demands
    /// more §8 savings per offload (a tighter budget); existing tenants
    /// re-justify themselves against it through the ordinary eviction
    /// hysteresis, so a flap shorter than the sustain window moves
    /// nothing. Every app is marked dirty: the floor gates every score,
    /// so incremental mode must re-arbitrate the whole fleet against the
    /// new budget.
    ///
    /// # Panics
    ///
    /// Panics if `floor_w` is not finite and non-negative.
    pub fn set_min_benefit_w(&mut self, floor_w: f64) {
        assert!(
            floor_w.is_finite() && floor_w >= 0.0,
            "offload floor must be finite and non-negative"
        );
        self.config.fleet.min_benefit_w = floor_w;
        for p in self.pending_dirty.iter_mut() {
            *p = true;
        }
    }

    /// The objective-priced raw benefit of `app` at `rate_pps`: the §8
    /// watts pushed through [`PriceRule::value_of_w`].
    fn raw_value(&self, app: usize, rate_pps: f64) -> f64 {
        self.config
            .fleet
            .objective
            .value_of_w(self.benefit_w(app, rate_pps))
    }

    /// The objective value of a seat of `app` at `at` whose
    /// objective-priced raw benefit is `raw_value`: the raw value behind
    /// the locality haircut, minus the objective-priced detour cost.
    /// Split from [`Self::effective_benefit_w`] so the measure step can
    /// price a cached raw value without re-running the energy model.
    fn effective_value_of(&self, app: usize, at: DeviceId, raw_value: f64, rate_pps: f64) -> f64 {
        let home = self.apps[app].home;
        raw_value * self.fabric.benefit_factor(home, at)
            - self
                .config
                .fleet
                .objective
                .detour_value(&self.fabric, home, at, rate_pps)
    }

    /// The objective-priced offload floor: what a candidate's effective
    /// value must clear ([`FleetControllerConfig::min_benefit_w`] under
    /// the default joule objective).
    fn floor(&self) -> f64 {
        self.config
            .fleet
            .objective
            .value_of_w(self.config.fleet.min_benefit_w)
    }

    /// The migration cost amortised over `tenure_samples` sampling
    /// intervals, watts.
    fn amortised_w(&self, tenure_samples: f64) -> f64 {
        let config = &self.config.fleet;
        if config.migration_cost_j <= 0.0 {
            return 0.0;
        }
        config.migration_cost_j / (tenure_samples.max(1.0) * config.interval.as_secs_f64())
    }

    /// `benefit_w` per capacity unit of `app`'s demand on `device`, with
    /// the cost floored so a zero-demand app yields an enormous finite
    /// score rather than a 0/0 NaN.
    fn per_capacity(&self, app: usize, device: DeviceId, benefit_w: f64) -> f64 {
        let cost = self
            .fabric
            .device(device)
            .cost_units(&self.apps[app].demand)
            .max(f64::MIN_POSITIVE);
        benefit_w / cost
    }

    /// Summed weights of the tenants contending for the fabric: those
    /// `resident` under the given view — the current placements when
    /// reporting, the in-progress assignment mid-decision — or currently
    /// queued, with `include` always counted. The one definition behind
    /// both [`Self::entitlement`] and the fairness pass, so the
    /// entitlement a claim clips against is the one the accessor reports.
    fn contending_weight(&self, include: usize, resident: impl Fn(usize) -> bool) -> f64 {
        (0..self.apps.len())
            .filter(|&j| j == include || resident(j) || self.starved_streaks[j] > 0)
            .map(|j| self.apps[j].weight)
            .sum()
    }

    /// Plans a fairness hand-over for `app` on every feasible device of
    /// the assignment described by the fabric ledgers and `resident_on`:
    /// devices where the claimant's penalty-adjusted benefit clears the
    /// floor and enough over-entitled, unprotected capacity exists.
    /// `protected` marks incumbents a claim may not clip (tenants placed
    /// by a claim in the same decision pass).
    fn plan_handovers(
        &self,
        resident_on: impl Fn(usize) -> Option<DeviceId>,
        protected: impl Fn(usize) -> bool,
        app: usize,
        rates: &[f64],
    ) -> Vec<ClaimPlan> {
        let config = &self.config.fleet;
        let apps = &self.apps;
        let total_w = self.contending_weight(app, |j| resident_on(j).is_some());
        let floor = self.floor();
        let mut plans = Vec::new();
        for d in self.fabric.device_ids() {
            if !self.fabric.is_online(d) {
                continue;
            }
            let claimant_w = self.effective_benefit_w(app, d, rates[app]);
            if claimant_w < floor {
                continue;
            }
            // The share a seat counts for against its entitlement. Under
            // tier-weighted entitlements a remote seat is discounted by
            // the locality factor of its distance — a cross-core seat
            // "occupies" less of the fleet than a home-rack one, so far
            // incumbents are clipped later and claimants must starve
            // longer to displace them.
            let seat_share = |j: usize| -> f64 {
                let share = self.fabric.device(d).dominant_share(j as u64);
                match config.entitlement {
                    EntitlementPolicy::Uniform => share,
                    EntitlementPolicy::TierWeighted => {
                        share * self.fabric.benefit_factor(apps[j].home, d)
                    }
                }
            };
            // Simulate the clip sequence on a scratch ledger: release the
            // most over-weighted over-entitled incumbents until the
            // claimant fits (or the clippable set runs out).
            let mut ledger = self.fabric.device(d).clone();
            let mut clips: Vec<usize> = Vec::new();
            if ledger.admit(app as u64, apps[app].demand).is_err() {
                let mut over: Vec<usize> = (0..apps.len())
                    .filter(|&j| {
                        resident_on(j) == Some(d)
                            && !protected(j)
                            && seat_share(j) > apps[j].weight / total_w
                    })
                    .collect();
                over.sort_by(|&a, &b| {
                    let sa = seat_share(a) / apps[a].weight;
                    let sb = seat_share(b) / apps[b].weight;
                    sb.total_cmp(&sa).then(a.cmp(&b))
                });
                let mut fits = false;
                for j in over {
                    ledger.release(j as u64);
                    clips.push(j);
                    if ledger.admit(app as u64, apps[app].demand).is_ok() {
                        fits = true;
                        break;
                    }
                }
                if !fits {
                    continue;
                }
            }
            let clipped_benefit_w = clips
                .iter()
                .map(|&j| self.effective_benefit_w(j, d, rates[j]))
                .sum();
            // Under the fixed policy every debit is the same, so the sum
            // is kept as a multiply; per-app estimates must genuinely be
            // summed.
            let migration_w = match config.tenure {
                TenurePolicy::Fixed => {
                    config.objective.value_of_w(self.migration_w()) * (clips.len() + 1) as f64
                }
                TenurePolicy::Learned { .. } => {
                    clips.iter().map(|&j| self.app_migration_w(j)).sum::<f64>()
                        + self.app_migration_w(app)
                }
            };
            plans.push(ClaimPlan {
                device: d,
                migration_w,
                clips,
                clipped_benefit_w,
                score: self.per_capacity(app, d, claimant_w),
            });
        }
        plans
    }

    /// Marks `i` dirty, deduplicating: at most one enqueue per interval.
    fn mark(dirty: &mut [bool], queue: &mut Vec<usize>, stats: &mut ArbiterStats, i: usize) {
        if !dirty[i] {
            dirty[i] = true;
            queue.push(i);
            stats.dirty_enqueued += 1;
        }
    }

    /// Feeds one sample per app; returns the placement changes to
    /// execute (empty most intervals — and, in incremental mode, most
    /// intervals do almost no work deciding that).
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the number of apps.
    pub fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)> {
        assert_eq!(samples.len(), self.apps.len(), "one sample per app");
        let n = self.apps.len();
        let sustain = self.config.fleet.sustain_samples;
        let floor = self.floor();
        self.stats.ticks += 1;

        // Failure response precedes everything else: tenants of an
        // offline device cannot wait out hysteresis, so they are
        // force-evicted to software with their streaks reset, and the
        // death feeds the dirty-app queue — the evictee is marked dirty
        // and the dead device raises a capacity event, so its whole pod
        // re-arbitrates this very tick. Re-offload onto a live device
        // goes back through the ordinary sustain machinery, which bounds
        // recovery by one sustain window. The shift is recorded at the
        // rate measured on the (dead) device, priced as the raw software
        // value.
        let mut evicted: Vec<(usize, Placement)> = Vec::new();
        for (i, sample) in samples.iter().enumerate() {
            if let Placement::Device(d) = self.placements[i] {
                if !self.fabric.is_online(d) {
                    let measured = sane_rate(sample.trusted_rate(self.placements[i]));
                    self.fabric.release(i as u64);
                    self.placements[i] = Placement::Software;
                    self.up_streaks[i] = 0;
                    self.down_streaks[i] = 0;
                    self.starved_streaks[i] = 0;
                    self.fair_hold[i] = false;
                    self.pending_dirty[i] = true;
                    self.pending_device_dirty[d.index()] = true;
                    self.tenures[i].observe_shift(
                        now,
                        self.config.fleet.interval,
                        self.config.fleet.tenure.ewma_alpha(),
                    );
                    self.shifts.push(FleetShift {
                        at: now,
                        app: i,
                        to: Placement::Software,
                        rate_pps: measured,
                        benefit_w: self.raw_value(i, measured),
                        reason: ShiftReason::DeviceLoss,
                    });
                    evicted.push((i, Placement::Software));
                }
            }
        }

        // --- Phase 0+1: measure, hold, account streaks, build the dirty
        // queue. Every gate consulted by the solve is derived from held
        // rates, so any input change to a pod's sub-problem raises a
        // dirty event here (or was flagged at the end of last tick).
        // `last_dirty` is exactly the set of flags raised last tick, so
        // clearing is O(dirty), not O(n).
        let mut dirty = std::mem::take(&mut self.dirty);
        for &i in &self.last_dirty {
            dirty[i] = false;
        }
        let mut queue: Vec<usize> = Vec::new();

        // (a) Capacity events: a changed device dirties its whole pod —
        // every resident on the pod's devices plus every queued candidate
        // homed there (their admission odds just changed).
        let mut cap_pods = vec![false; self.pods];
        let mut any_cap = false;
        for d in 0..self.pending_device_dirty.len() {
            if self.pending_device_dirty[d] {
                self.pending_device_dirty[d] = false;
                cap_pods[self.fabric.pod(DeviceId(d as u16)) as usize] = true;
                any_cap = true;
            }
        }
        // (b) One pass per app: events carried over from the previous tick
        // (placement changes, queue membership changes, claims coming
        // due), capacity fallout, then the rate dead band and hysteresis
        // gates. `mark` deduplicates and the queue is sorted afterwards,
        // so folding the sources into one loop changes no outcome.
        let deadband = self.config.rate_deadband;
        let evict_w = floor * self.config.fleet.evict_fraction;
        for i in 0..n {
            if self.pending_dirty[i] {
                self.pending_dirty[i] = false;
                Self::mark(&mut dirty, &mut queue, &mut self.stats, i);
            }
            if any_cap {
                let touched = match self.placements[i] {
                    Placement::Device(d) => cap_pods[self.fabric.pod(d) as usize],
                    Placement::Software => {
                        self.starved_streaks[i] > 0 && cap_pods[self.home_pod[i] as usize]
                    }
                };
                if touched {
                    Self::mark(&mut dirty, &mut queue, &mut self.stats, i);
                }
            }
            let measured = samples[i].trusted_rate(self.placements[i]);
            let held = self.held_rates[i];
            // A NaN `held` (first sample) fails the in-band comparison,
            // so initialisation and a genuine crossing share one branch —
            // the negated `<=` is load-bearing, not a misspelt `>`. A
            // NaN or infinite reading never compares in band either, so
            // broken meters are priced as 0 pps here, off the quiet path
            // (a check on every app every tick measurably slows a
            // 1000-tenant fleet). That is exact: a negative reading
            // inside the band is as close to `held` as 0 pps would be. A
            // broken reading that sanitises to `held` still re-scores the
            // app, which changes no decision.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !((measured - held).abs() <= deadband * held.abs().max(1.0)) {
                let measured = sane_rate(measured);
                self.held_rates[i] = measured;
                self.held_raw_w[i] = self.raw_value(i, measured);
                Self::mark(&mut dirty, &mut queue, &mut self.stats, i);
            }
            // The cached raw value makes a clean tick free of energy-
            // model evaluations.
            let raw = self.held_raw_w[i];
            // Cold software tenants (no benefit, no streaks) are the bulk
            // of a fleet; their gates provably cannot move, so skip the
            // streak accounting entirely.
            if raw < floor
                && self.up_streaks[i] == 0
                && matches!(self.placements[i], Placement::Software)
            {
                continue;
            }
            // The up-streak — consecutive samples of raw value above the
            // floor since the app's last placement change — gates
            // *entering* a device: a software app's first offload and,
            // equally, a resident's move to another device. A resident is
            // additionally judged by the value it actually delivers where
            // it runs (haircut included) for the eviction streak.
            let up_was = self.up_streaks[i] >= sustain;
            self.up_streaks[i] = if raw >= floor {
                self.up_streaks[i].saturating_add(1)
            } else {
                0
            };
            if up_was != (self.up_streaks[i] >= sustain) {
                Self::mark(&mut dirty, &mut queue, &mut self.stats, i);
            }
            let down_was = self.down_streaks[i] >= sustain;
            match self.placements[i] {
                Placement::Software => self.down_streaks[i] = 0,
                Placement::Device(d) => {
                    let delivered = self.effective_value_of(i, d, raw, self.held_rates[i]);
                    if delivered < evict_w {
                        self.down_streaks[i] = self.down_streaks[i].saturating_add(1);
                    } else {
                        self.down_streaks[i] = 0;
                    }
                }
            }
            if down_was != (self.down_streaks[i] >= sustain) {
                Self::mark(&mut dirty, &mut queue, &mut self.stats, i);
            }
        }

        // Dirty apps dirty their home pod and (if different) the pod
        // where they are resident; capacity events dirty their pod
        // outright.
        let mut pods_dirty = vec![false; self.pods];
        for &i in &queue {
            pods_dirty[self.home_pod[i] as usize] = true;
            if let Placement::Device(d) = self.placements[i] {
                pods_dirty[self.fabric.pod(d) as usize] = true;
            }
        }
        for (p, &c) in cap_pods.iter().enumerate() {
            pods_dirty[p] |= c;
        }
        if self.config.mode == ArbitrationMode::FullRescore {
            pods_dirty.iter_mut().for_each(|p| *p = true);
        }
        queue.sort_unstable();
        self.last_dirty = queue;
        self.dirty = dirty;

        let decisions = if pods_dirty.iter().any(|&p| p) {
            self.solve(now, &pods_dirty)
        } else {
            Vec::new()
        };

        // --- Queue accounting (post-decision): a tenant is queued when it
        // sustains a profitable demand in software but received no
        // capacity this interval. Entering or leaving the queue changes
        // DRF contention, and crossing the starvation threshold arms a
        // claim, so both raise dirty events for next tick.
        for i in 0..n {
            let queued = !self.rejected[i]
                && self.placements[i] == Placement::Software
                && self.up_streaks[i] >= sustain;
            if queued {
                let was = self.starved_streaks[i];
                self.starved_streaks[i] = was.saturating_add(1);
                self.queued_intervals[i] += 1;
                let threshold = self.thresholds[i];
                if was == 0 || (was < threshold && self.starved_streaks[i] >= threshold) {
                    self.pending_dirty[i] = true;
                }
            } else if self.starved_streaks[i] > 0 {
                self.starved_streaks[i] = 0;
                self.pending_dirty[i] = true;
            }
        }
        if evicted.is_empty() {
            decisions
        } else {
            evicted.extend(decisions);
            evicted
        }
    }

    /// Re-solves the dirty pods and runs the global coordinator, then
    /// executes the diff against the current placements.
    fn solve(&mut self, now: Nanos, pods_dirty: &[bool]) -> Vec<(usize, Placement)> {
        let n = self.apps.len();
        let sustain = self.config.fleet.sustain_samples;

        // Seats kept ahead of any score: fairness tenure, cross-pod
        // spills (coordinator-owned; a host pod's locals cannot preempt
        // them), and every incumbent of a *clean* pod (whose sub-problem
        // is unchanged — the incremental reuse). Fairness tenure turns
        // raw-score preemption into claim-based hand-over: a rival cannot
        // undo a fair-share hand-over three samples after it happened,
        // it must starve and claim like everyone else. Everyone else is
        // up for re-decision, so their seats are released and the fabric
        // is rebuilt *in place* — every score is allocation-independent
        // (benefit is topology-priced, capacity cost is a budget
        // fraction), so mutating mid-solve cannot skew a later score, and
        // releasing only the contested seats is what keeps a solve's cost
        // proportional to the dirty pods rather than to the fleet.
        let mut selected: Vec<Option<DeviceId>> = vec![None; n];
        for (i, seat) in selected.iter_mut().enumerate() {
            if let Placement::Device(d) = self.placements[i] {
                let host_pod = self.fabric.pod(d) as usize;
                let cross_pod = self.fabric.pod(d) != self.home_pod[i];
                let keep = self.down_streaks[i] < sustain
                    && (self.fair_hold[i] || cross_pod || !pods_dirty[host_pod]);
                if keep {
                    *seat = Some(d);
                } else {
                    // Eviction due, or an incumbent of a dirty pod that
                    // must re-compete on equal footing.
                    self.fabric.release(i as u64);
                }
            }
        }

        for (p, &is_dirty) in pods_dirty.iter().enumerate() {
            if is_dirty {
                self.stats.pods_solved += 1;
                self.solve_pod(p as u16, &mut selected);
            }
        }
        self.stats.coordinator_runs += 1;
        let (fair_placed, fair_clipped) = self.coordinate(&mut selected);

        // --- Execute the diff. A cross-device move is a single decision
        // (the executor tears down one residency and programs the other).
        let mut decisions = Vec::new();
        let want_of = |s: Option<DeviceId>| match s {
            Some(d) => Placement::Device(d),
            None => Placement::Software,
        };
        // Snapshots exist only for reason tagging; most intervals decide
        // nothing and should not pay the two allocations.
        let changed = (0..n).any(|i| want_of(selected[i]) != self.placements[i]);
        let prev_placements = if changed {
            self.placements.clone()
        } else {
            Vec::new()
        };
        let prev_down = if changed {
            self.down_streaks.clone()
        } else {
            Vec::new()
        };
        for i in 0..n {
            let want = want_of(selected[i]);
            if want != self.placements[i] {
                let reason = if fair_placed[i] || fair_clipped[i] {
                    ShiftReason::FairShare
                } else if let (Placement::Device(d), true) = (want, self.starved_streaks[i] > 0) {
                    // A queued tenant entering capacity that freed up on
                    // its own (no incumbent displaced except by its
                    // sustained low-benefit eviction) is the admission
                    // queue draining; displacing a healthy incumbent by
                    // raw score is still a benefit decision.
                    let preempted = (0..n).any(|j| {
                        j != i
                            && prev_placements[j] == Placement::Device(d)
                            && selected[j] != Some(d)
                            && prev_down[j] < sustain
                    });
                    if preempted {
                        ShiftReason::Benefit
                    } else {
                        ShiftReason::Admission
                    }
                } else {
                    ShiftReason::Benefit
                };
                // Occupancy changed on both ends of the move: their pods
                // re-arbitrate next tick, and so does the moved app.
                if let Placement::Device(d) = self.placements[i] {
                    self.pending_device_dirty[d.index()] = true;
                }
                if let Placement::Device(d) = want {
                    self.pending_device_dirty[d.index()] = true;
                }
                self.pending_dirty[i] = true;
                self.placements[i] = want;
                self.up_streaks[i] = 0;
                self.down_streaks[i] = 0;
                self.starved_streaks[i] = 0;
                self.fair_hold[i] = fair_placed[i];
                self.tenures[i].observe_shift(
                    now,
                    self.config.fleet.interval,
                    self.config.fleet.tenure.ewma_alpha(),
                );
                let rate = self.held_rates[i];
                let benefit_w = match want {
                    Placement::Device(d) => self.effective_benefit_w(i, d, rate),
                    Placement::Software => self.raw_value(i, rate),
                };
                self.shifts.push(FleetShift {
                    at: now,
                    app: i,
                    to: want,
                    rate_pps: rate,
                    benefit_w,
                    reason,
                });
                decisions.push((i, want));
            }
        }
        decisions
    }

    /// The pod arbiter: re-solves the greedy knapsack for apps homed in
    /// `pod` over the pod's own devices, merging one priority heap per
    /// device in knapsack order.
    ///
    /// Residents keep competing until their eviction condition sustains
    /// (even through transient dips — that is the hysteresis), on their
    /// current device with the stickiness premium; newcomers, and
    /// residents eyeing another device, join only after their benefit
    /// sustains, and a move is priced net of the amortised switchover
    /// debit. Rejected tenants are never candidates.
    fn solve_pod(&mut self, pod: u16, selected: &mut [Option<DeviceId>]) {
        let sustain = self.config.fleet.sustain_samples;
        let stickiness = self.config.fleet.stickiness;
        let floor = self.floor();
        let devices: Vec<DeviceId> = self
            .fabric
            .pod_devices(pod)
            .filter(|&d| self.fabric.is_online(d))
            .collect();
        let mut heaps: Vec<BinaryHeap<Cand>> = devices.iter().map(|_| BinaryHeap::new()).collect();
        let push = |heaps: &mut Vec<BinaryHeap<Cand>>, k: usize, score: f64, app: usize| {
            let dev = devices[k];
            let dist = self.fabric.distance(self.apps[app].home, dev);
            heaps[k].push(Cand {
                score,
                app,
                dist,
                dev,
            });
        };
        for &i in &self.apps_by_pod[pod as usize] {
            if self.rejected[i] || selected[i].is_some() {
                continue;
            }
            let rate = self.held_rates[i];
            match self.placements[i] {
                Placement::Device(cur) if self.fabric.pod(cur) == pod => {
                    if self.down_streaks[i] >= sustain {
                        continue;
                    }
                    for (k, &d) in devices.iter().enumerate() {
                        if d == cur {
                            self.stats.candidates_scored += 1;
                            push(&mut heaps, k, self.score(i, d, rate) * stickiness, i);
                        } else if self.up_streaks[i] >= sustain {
                            self.stats.candidates_scored += 1;
                            let mb = self.move_benefit_w(i, d, rate);
                            if mb >= floor {
                                push(&mut heaps, k, self.per_capacity(i, d, mb), i);
                            }
                        }
                    }
                }
                // Cross-pod residents are coordinator-owned (their seat
                // was pre-kept or their eviction is due).
                Placement::Device(_) => {}
                Placement::Software => {
                    if self.up_streaks[i] >= sustain {
                        for (k, &d) in devices.iter().enumerate() {
                            self.stats.candidates_scored += 1;
                            let eff = self.effective_benefit_w(i, d, rate);
                            if eff >= floor {
                                push(&mut heaps, k, self.per_capacity(i, d, eff), i);
                            }
                        }
                    }
                }
            }
        }
        // Merge the per-device heaps: repeatedly admit the best
        // candidate left in the pod.
        loop {
            let mut best: Option<usize> = None;
            for (k, heap) in heaps.iter().enumerate() {
                if let Some(top) = heap.peek() {
                    let better = match best {
                        None => true,
                        Some(b) => top > heaps[b].peek().expect("best heap is non-empty"),
                    };
                    if better {
                        best = Some(k);
                    }
                }
            }
            let Some(k) = best else { break };
            let cand = heaps[k].pop().expect("peeked heap pops");
            if selected[cand.app].is_some() {
                continue; // already seated by a better candidate
            }
            if self
                .fabric
                .admit(cand.dev, cand.app as u64, self.apps[cand.app].demand)
                .is_ok()
            {
                selected[cand.app] = Some(cand.dev);
            }
        }
    }

    /// The global coordinator: cross-pod spills and moves, then the
    /// weighted-DRF fairness pass over the whole fabric. Returns the
    /// (fair_placed, fair_clipped) marks for reason tagging.
    fn coordinate(&mut self, selected: &mut [Option<DeviceId>]) -> (Vec<bool>, Vec<bool>) {
        let n = self.apps.len();
        let sustain = self.config.fleet.sustain_samples;
        let floor = self.floor();

        // (a) Cross-pod candidates, gated by the same sustain and floor
        // rules as the pod arbiters' move candidates. A seated cross-pod
        // resident may move anywhere (home included) that beats its own
        // sticky score where it sits; an app its home pod could not place
        // — preempted at home, or waiting in software — spills out of
        // the pod. Residents pay the switchover debit.
        let mut cands: Vec<(f64, usize, DeviceId)> = Vec::new();
        for (i, &seat) in selected.iter().enumerate() {
            if self.rejected[i] || self.up_streaks[i] < sustain {
                continue;
            }
            let rate = self.held_rates[i];
            let home_pod = self.home_pod[i];
            // (the device the app leaves, if resident; the sticky score a
            // mover must beat, if it is a seated cross-pod resident)
            let (from, sticky) = match (self.placements[i], seat) {
                (Placement::Device(_), _) if self.down_streaks[i] >= sustain => continue,
                (Placement::Device(cur), Some(kept))
                    if kept == cur && self.fabric.pod(cur) != home_pod =>
                {
                    let sticky = self.score(i, cur, rate) * self.config.fleet.stickiness;
                    (Some(cur), Some(sticky))
                }
                (Placement::Device(cur), None) if self.fabric.pod(cur) == home_pod => {
                    (Some(cur), None)
                }
                (Placement::Software, None) => (None, None),
                _ => continue,
            };
            // `x - 0.0` is `x` bit for bit, so software apps pay nothing.
            let debit = if from.is_some() {
                self.app_migration_w(i)
            } else {
                0.0
            };
            for d in self.fabric.device_ids() {
                let target = match sticky {
                    Some(_) => Some(d) != from,
                    None => self.fabric.pod(d) != home_pod,
                };
                if !target || !self.fabric.is_online(d) {
                    continue;
                }
                self.stats.candidates_scored += 1;
                let value = self.effective_benefit_w(i, d, rate) - debit;
                if value >= floor {
                    let score = self.per_capacity(i, d, value);
                    if sticky.is_none_or(|s| score > s) {
                        cands.push((score, i, d));
                    }
                }
            }
        }
        // Best score first. Ties break on the lower app index, then the
        // *nearer* device (an exact score tie between two remote racks —
        // identical budgets behind identical tier factors — must not hand
        // the spill to the far one just because it has a lower index),
        // then the lower device index.
        cands.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then_with(|| {
                    let da = self.fabric.distance(self.apps[a.1].home, a.2);
                    let db = self.fabric.distance(self.apps[b.1].home, b.2);
                    da.cmp(&db)
                })
                .then(a.2.cmp(&b.2))
        });
        let mut moved = vec![false; n];
        for &(_, i, d) in &cands {
            if moved[i] {
                continue;
            }
            match selected[i] {
                Some(cur) if cur == d => {}
                // A cross-pod resident moving: `admit` releases the old
                // seat atomically (a program moves, it is not copied).
                Some(_) | None => {
                    if self.fabric.admit(d, i as u64, self.apps[i].demand).is_ok() {
                        selected[i] = Some(d);
                        moved[i] = true;
                    }
                }
            }
        }

        // (b) Weighted-DRF fairness pass over the whole fabric: tenants
        // starved past their weighted window claim capacity by clipping
        // over-entitled incumbents (dominant share above weight/Σweights
        // over the contending tenants), most over-weighted-share first.
        // The hand-over is planned on every feasible device and executed
        // where the configured claim policy prefers. Clipped incumbents
        // fall back to software this interval and re-enter through the
        // ordinary sustain machinery.
        let mut fair_placed = vec![false; n];
        let mut fair_clipped = vec![false; n];
        let mut claimants: Vec<usize> = (0..n)
            .filter(|&i| {
                !self.rejected[i]
                    && selected[i].is_none()
                    && self.starved_streaks[i] >= self.thresholds[i]
            })
            .collect();
        if !claimants.is_empty() {
            // Largest weighted starvation deficit first.
            claimants.sort_by(|&a, &b| {
                let da = self.starved_streaks[a] as f64 * self.apps[a].weight;
                let db = self.starved_streaks[b] as f64 * self.apps[b].weight;
                db.total_cmp(&da).then(a.cmp(&b))
            });
            for &i in &claimants {
                if selected[i].is_some() {
                    continue;
                }
                let mut plans =
                    self.plan_handovers(|j| selected[j], |j| fair_placed[j], i, &self.held_rates);
                self.stats.candidates_scored += plans.len() as u64;
                self.config.fleet.claim_policy.order(&mut plans);
                // No plan: no feasible device has enough over-entitled
                // capacity — the claim stays pending and the starvation
                // streak keeps accruing.
                if let Some(plan) = plans.first() {
                    for &e in &plan.clips {
                        self.fabric.release(e as u64);
                        selected[e] = None;
                        fair_clipped[e] = true;
                    }
                    self.fabric
                        .admit(plan.device, i as u64, self.apps[i].demand)
                        .expect("a planned hand-over fits by construction");
                    selected[i] = Some(plan.device);
                    fair_placed[i] = true;
                }
            }
        }
        (fair_placed, fair_clipped)
    }
}

impl FleetScheduler for HierarchicalController {
    fn interval(&self) -> Nanos {
        self.config().fleet.interval
    }
    fn app_count(&self) -> usize {
        self.apps().len()
    }
    fn placements(&self) -> &[Placement] {
        HierarchicalController::placements(self)
    }
    fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)> {
        HierarchicalController::sample(self, now, samples)
    }
    fn admission_decision(&self, app: usize) -> AdmissionDecision {
        HierarchicalController::admission_decision(self, app)
    }
    fn queued_intervals(&self) -> &[u64] {
        HierarchicalController::queued_intervals(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSample;
    use crate::PlacementAnalysis;
    use inc_hw::{PipelineBudget, ProgramResources, TierCost, Topology};
    use inc_power::EnergyParams;

    fn analysis(slope_w_per_kpps: f64, unpark_w: f64) -> PlacementAnalysis {
        PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_w_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 50.0 + unpark_w,
                sleep_w: 0.0,
                active_w: 50.0 + unpark_w + 0.1,
                peak_rate_pps: 10_000_000.0,
            },
        }
    }

    fn app_homed(name: &str, stages: u32, slope: f64, unpark: f64, home: DeviceId) -> FleetApp {
        FleetApp {
            name: name.into(),
            demand: ProgramResources {
                stages,
                sram_bytes: 1 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slope, unpark),
            home,
            weight: 1.0,
        }
    }

    fn app(name: &str, stages: u32, slope: f64, unpark: f64) -> FleetApp {
        app_homed(name, stages, slope, unpark, DeviceId::LOCAL)
    }

    fn sample(offered: f64, hw_rate: f64) -> FleetSample {
        FleetSample {
            host: HostSample {
                rapl_w: 50.0,
                app_cpu_util: 0.5,
                hw_app_rate: hw_rate,
            },
            offered_pps: offered,
        }
    }

    fn t(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    fn cfg() -> FleetControllerConfig {
        FleetControllerConfig::standard(Nanos::from_secs(1))
    }

    /// Two 12-stage ToRs per pod, two pods: the smallest fabric where
    /// the coordinator has real cross-pod work.
    fn two_pods() -> DeviceFabric {
        DeviceFabric::homogeneous(
            4,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                2,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        )
    }

    fn shift_key(s: &FleetShift) -> (Nanos, usize, Placement, ShiftReason, u64, u64) {
        (
            s.at,
            s.app,
            s.to,
            s.reason,
            s.rate_pps.to_bits(),
            s.benefit_w.to_bits(),
        )
    }

    /// Incremental scheduling and a full re-score make the same decisions
    /// on a multi-pod trace — while solving far fewer pod problems.
    #[test]
    fn incremental_matches_full_rescore_across_pods() {
        let apps = || {
            vec![
                app_homed("a", 7, 0.08, 2.0, DeviceId(0)),
                app_homed("b", 6, 0.14, 2.0, DeviceId(0)),
                app_homed("c", 7, 0.10, 2.0, DeviceId(2)),
                app_homed("d", 5, 0.09, 2.0, DeviceId(3)),
            ]
        };
        let build = |mode| {
            HierarchicalController::new(
                ArbiterConfig {
                    fleet: cfg(),
                    mode,
                    rate_deadband: 0.05,
                },
                two_pods(),
                apps(),
            )
        };
        let mut full = build(ArbitrationMode::FullRescore);
        let mut inc = build(ArbitrationMode::Incremental);
        let rate_of = |step: u64, i: usize| -> f64 {
            match (i, step) {
                (0, _) => 100_000.0 + (step % 3) as f64, // wobbles inside the band
                (1, 0..=10) => 120_000.0,
                (1, _) => 800.0, // collapses
                (2, _) => 95_000.0,
                (3, 0..=6) => 400.0,
                (3, _) => 70_000.0, // heats up
                _ => unreachable!(),
            }
        };
        for step in 1..=30 {
            let s: Vec<FleetSample> = (0..4)
                .map(|i| {
                    let r = rate_of(step, i);
                    sample(r, r)
                })
                .collect();
            let df = full.sample(t(step), &s);
            let di = inc.sample(t(step), &s);
            assert_eq!(df, di, "decisions diverged at step {step}");
            assert_eq!(full.placements(), inc.placements(), "step {step}");
        }
        assert_eq!(full.shifts().len(), inc.shifts().len());
        for (f, i) in full.shifts().iter().zip(inc.shifts()) {
            assert_eq!(shift_key(f), shift_key(i));
        }
        assert!(!full.shifts().is_empty(), "the trace must exercise shifts");
        let (sf, si) = (full.stats(), inc.stats());
        assert_eq!(
            sf.pods_solved,
            2 * sf.ticks,
            "full re-score solves all pods"
        );
        assert!(
            si.pods_solved < sf.pods_solved / 2,
            "incremental solved {} of {} pod problems",
            si.pods_solved,
            sf.pods_solved
        );
        assert!(si.candidates_scored < sf.candidates_scored);
    }

    /// An app flapping *exactly* on the dead band never re-enters the
    /// dirty queue (the band is strict), and a genuine crossing enqueues
    /// it exactly once per interval however many events it raises.
    #[test]
    fn deadband_flap_enqueues_at_most_once_per_interval() {
        // 0.25 is exact in binary, so `deadband × held` is exactly
        // 25 000 pps and the band-edge equality below is not at the
        // mercy of rounding.
        let mut ctl = HierarchicalController::new(
            ArbiterConfig {
                fleet: cfg(),
                mode: ArbitrationMode::Incremental,
                rate_deadband: 0.25,
            },
            DeviceFabric::single(PipelineBudget::tofino_like()),
            // Unprofitable at every rate in the trace (raw benefit stays
            // under the 1 W floor), so the hysteresis gates never flip and
            // the only dirty events are rate-band crossings.
            vec![app("a", 7, 0.005, 2.0)],
        );
        // First sample seeds the held rate: one enqueue.
        let base = 100_000.0;
        ctl.sample(t(1), &[sample(base, base)]);
        assert_eq!(ctl.last_dirty(), &[0]);
        assert_eq!(ctl.held_rate(0), base);
        // Flap exactly on the band edge, alternating sides: |m - h| ==
        // deadband * h is NOT a crossing (strictly greater required).
        for step in 2..=7 {
            let m = if step % 2 == 0 {
                base * 1.25
            } else {
                base * 0.75
            };
            ctl.sample(t(step), &[sample(m, m)]);
            assert!(
                !ctl.last_dirty().contains(&0),
                "on-band flap re-scored at step {step}: {:?}",
                ctl.last_dirty()
            );
            assert_eq!(ctl.held_rate(0), base, "held rate moved at step {step}");
        }
        // A real crossing: held moves, the app is enqueued exactly once
        // even though the rate event and (possibly) gate events coincide.
        let burst = base * 2.0;
        ctl.sample(t(8), &[sample(burst, burst)]);
        assert_eq!(ctl.last_dirty(), &[0]);
        assert_eq!(ctl.held_rate(0), burst);
        let enqueued = ctl.stats().dirty_enqueued;
        assert_eq!(enqueued, 2, "the seed and the one genuine crossing");
        // Quiet tail: no further enqueues at all.
        for step in 9..=13 {
            ctl.sample(t(step), &[sample(burst, burst)]);
            assert!(ctl.last_dirty().is_empty(), "step {step}");
        }
        assert_eq!(ctl.stats().dirty_enqueued, enqueued);
    }

    /// A capacity event on one device re-scores every resident of that
    /// device's pod and every queued candidate homed there — and nobody
    /// in other pods.
    #[test]
    fn capacity_change_dirties_pod_residents_and_queued_candidates() {
        // Pod 0: a resident (a) and a starved candidate (b) that cannot
        // co-reside with it. Pod 1: a settled resident (c).
        let apps = vec![
            app_homed("a", 7, 0.14, 2.0, DeviceId(0)),
            app_homed("b", 6, 0.08, 2.0, DeviceId(0)),
            app_homed("c", 7, 0.10, 2.0, DeviceId(1)),
        ];
        // One 12-stage device per pod so pod 0 genuinely starves b, and
        // an inter-pod haircut harsh enough that b will not spill to pod
        // 1 (0.08 slope × 0.05 at 100 kpps is far under the 1 W floor).
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                2,
                1,
                TierCost::standard_intra_pod(),
                TierCost {
                    extra_latency: Nanos::from_micros(6),
                    benefit_factor: 0.05,
                    link_energy_nj: 0.0,
                },
            ),
        );
        let mut ctl = HierarchicalController::new(
            ArbiterConfig {
                fleet: cfg(),
                mode: ArbitrationMode::Incremental,
                rate_deadband: 0.05,
            },
            fabric,
            apps,
        );
        let s = [
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
        ];
        for step in 1..=8 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.placements()[2], Placement::Device(DeviceId(1)));
        assert_eq!(ctl.placements()[1], Placement::Software);
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Queue);
        // Settle: a quiet tick with an empty dirty queue.
        ctl.sample(t(9), &s);
        assert_eq!(ctl.last_dirty(), &[] as &[usize]);
        // A capacity event on pod 0's device dirties its resident (a) and
        // the starved candidate homed there (b) — but not pod 1's c.
        ctl.mark_device_dirty(DeviceId(0));
        ctl.sample(t(10), &s);
        assert_eq!(ctl.last_dirty(), &[0, 1]);
        // And the event is consumed: the next tick is clean again.
        ctl.sample(t(11), &s);
        assert_eq!(ctl.last_dirty(), &[] as &[usize]);
    }

    /// Quiet ticks in incremental mode skip the solve entirely: no pod
    /// problems, no coordinator run, no candidate scoring.
    #[test]
    fn quiet_ticks_do_no_arbitration_work() {
        let mut ctl = HierarchicalController::new(
            ArbiterConfig::standard(Nanos::from_secs(1)),
            two_pods(),
            vec![
                app_homed("a", 7, 0.08, 2.0, DeviceId(0)),
                app_homed("c", 7, 0.10, 2.0, DeviceId(2)),
            ],
        );
        let s = [sample(100_000.0, 100_000.0), sample(95_000.0, 95_000.0)];
        for step in 1..=6 {
            ctl.sample(t(step), &s);
        }
        let settled = ctl.stats();
        for step in 7..=20 {
            ctl.sample(t(step), &s);
        }
        let after = ctl.stats();
        assert_eq!(after.pods_solved, settled.pods_solved);
        assert_eq!(after.coordinator_runs, settled.coordinator_runs);
        assert_eq!(after.candidates_scored, settled.candidates_scored);
        assert_eq!(after.dirty_enqueued, settled.dirty_enqueued);
        assert_eq!(after.ticks, 20);
    }

    /// A non-finite or negative measured rate reads as 0 pps: no NaN or
    /// infinity reaches a score, a streak gate or the shift log.
    #[test]
    fn non_finite_and_negative_rates_read_as_zero() {
        // One 12-stage device: a 7-stage resident worth ~12 W and a
        // 6-stage rival worth ~3 W waiting behind it; they cannot
        // co-reside. The 5 % dead band is on.
        let mut ctl = HierarchicalController::new(
            ArbiterConfig::standard(Nanos::from_secs(1)),
            DeviceFabric::single(PipelineBudget::tofino_like()),
            vec![app("metered", 7, 0.14, 2.0), app("rival", 6, 0.05, 2.0)],
        );
        let hot = sample(100_000.0, 100_000.0);
        for step in 1..=3 {
            ctl.sample(t(step), &[hot, hot]);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        // The resident's network meter turns NaN while the rival goes
        // quiet. The NaN reads as an idle device, so the resident's
        // eviction streak builds and completes after the sustain window.
        let sustain = ctl.config().fleet.sustain_samples;
        let bad_meter = sample(100_000.0, f64::NAN);
        let quiet = sample(1_000.0, 1_000.0);
        let mut evicted_after = None;
        for k in 1..=sustain {
            let d = ctl.sample(t(3 + u64::from(k)), &[bad_meter, quiet]);
            assert_eq!(ctl.held_rate(0), 0.0);
            if d.contains(&(0, Placement::Software)) {
                evicted_after = Some(k);
            }
        }
        assert_eq!(evicted_after, Some(sustain));
        let eviction = ctl.shifts().last().filter(|s| s.app == 0).unwrap();
        assert_eq!(eviction.reason, ShiftReason::Benefit);
        assert_eq!(eviction.rate_pps, 0.0);
        // Every other kind of bad reading, on both sides of the §9.1
        // feedback rule: real offered load for one tenant at a time,
        // garbage in every other meter.
        let garbage = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -250_000.0];
        let before = ctl.shifts().len();
        for step in 0..40u64 {
            let bad = garbage[(step % 5) as usize];
            let (a, b) = if (step / 10) % 2 == 0 {
                (100_000.0, bad)
            } else {
                (bad, 100_000.0)
            };
            ctl.sample(t(10 + step), &[sample(a, bad), sample(b, bad)]);
        }
        assert!(ctl.shifts().len() > before + 4, "{:?}", ctl.shifts());
        for s in ctl.shifts() {
            assert!(
                s.rate_pps.is_finite() && s.rate_pps >= 0.0 && s.benefit_w.is_finite(),
                "{s:?}"
            );
        }
        // A single infinite reading must not freeze the held rate under
        // the dead band: the next finite sample moves it again.
        ctl.sample(t(60), &[sample(f64::INFINITY, f64::INFINITY), hot]);
        assert_eq!(ctl.held_rate(0), 0.0);
        ctl.sample(t(61), &[sample(70_000.0, 70_000.0), hot]);
        assert_eq!(ctl.held_rate(0), 70_000.0);
    }
}
