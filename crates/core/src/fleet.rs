//! Multi-application on-demand scheduling over a fabric of devices.
//!
//! §9 evaluates each application with the programmable device to itself;
//! at production scale devices are shared, capacity-bounded resources —
//! and §9.4 widens the view from one card to a rack, where every ToR
//! hosts its own device and the controller decides *where* a program
//! runs, not just *whether* it is offloaded. The fleet scheduler extends
//! the single-app [`HostController`] design to that fleet: every sampling
//! interval it reads one [`FleetSample`] per application, prices each
//! app's offload benefit with its §8 [`PlacementAnalysis`] at the
//! measured rate, applies the [`DeviceFabric`]'s locality haircut for
//! placements away from the app's home ToR, and places programs by a
//! greedy benefit-per-capacity-unit knapsack over the **(app × device)**
//! candidate set.
//!
//! This module is the scheduler's vocabulary — apps, samples, shifts,
//! the configuration and the [`Objective`] prices. The engine is
//! [`HierarchicalController`] in [`arbiter`](crate::arbiter), which
//! re-solves the knapsack only where the economics moved;
//! [`FleetController`] is its name when built from a bare
//! [`FleetControllerConfig`].
//!
//! The anti-flapping machinery is the [`HostController`]'s, generalised:
//!
//! * a *sustain window* — an app must stay profitable for
//!   [`FleetControllerConfig::sustain_samples`] consecutive samples before
//!   it may be offloaded ("avoiding harsh decisions based on spikes and
//!   outliers"), and must stay *un*profitable as long before it is pulled
//!   back;
//! * *asymmetric thresholds* — offload starts above
//!   [`FleetControllerConfig::min_benefit_w`] but eviction only below
//!   `min_benefit_w * evict_fraction`, leaving a dead band;
//! * *stickiness* — a resident app competes in the knapsack with its score
//!   **on its current device** multiplied by
//!   [`FleetControllerConfig::stickiness`], so a marginal newcomer cannot
//!   displace an incumbent of nearly equal value — and, equally, an app
//!   cannot ping-pong between ToRs: a move to another device is priced
//!   like a fresh offload and must beat the app's own sticky incumbent
//!   score. A clearly better alternative still wins: arbitration, not
//!   tenure;
//! * an explicit *migration cost* — reprogramming a device is not free
//!   (§9.2: reconfiguration halts the dataplane, and a moved program
//!   re-warms its state), so any move **between devices** is charged
//!   [`FleetControllerConfig::migration_cost_j`] amortised over the
//!   expected tenure of the new placement
//!   ([`FleetControllerConfig::expected_tenure_samples`] sampling
//!   intervals): the candidate's benefit is debited by
//!   `migration_cost_j / (tenure × interval)` watts. A hop that is worth
//!   less per interval than the switchover it triggers never happens,
//!   which suppresses the rack-to-rack ping-pong that stickiness alone
//!   cannot price (stickiness is a ratio; the debit is absolute joules).
//!
//! Rate feedback follows §9.1: while an app runs in software its offered
//! rate is measured at the host ([`FleetSample::offered_pps`]); once it is
//! hardware-resident the controller trusts only the network-measured rate
//! ([`HostSample::hw_app_rate`]), "otherwise, the shift may be
//! inefficient, or cause a workload to bounce back and forth". A reading
//! that is not finite, or is negative, counts as 0 pps.
//!
//! # Fair sharing and admission control
//!
//! A pure benefit-maximising knapsack lets one high-benefit tenant hold a
//! contended device forever while an also-profitable rival waits — at
//! production scale the switch is a shared resource, and (following Gray's
//! *Distributed Computing Economics*) placement must be arbitrated by
//! explicit share accounting, not raw throughput. The controller layers
//! **weighted dominant-resource fairness** over the knapsack:
//!
//! * every [`FleetApp`] carries a fair-share [`FleetApp::weight`]; a
//!   tenant's *dominant share* is the largest budget fraction its program
//!   occupies on its device (see `inc_hw::ResourceShares`), and its
//!   *entitlement* is `weight / Σ weights` over the currently contending
//!   tenants;
//! * a software tenant whose benefit stays above the floor but who gets
//!   no capacity is **queued** ([`AdmissionDecision::Queue`]); once it has
//!   been queued for its weighted starvation window
//!   (`starvation_window / weight` samples, floored by the sustain
//!   window) it files a *claim*: the scheduler plans a hand-over on every
//!   feasible device, **clipping** over-entitled incumbents (dominant
//!   share above entitlement) — most over-weighted-share first — until
//!   the claimant fits, then executes the plan the configured
//!   [`ClaimPolicy`] prefers. The standard policy is **min-cost**: the
//!   device minimising the total clipped-incumbent benefit plus the
//!   migration debits of everyone who must move — fairness buys the
//!   claimant its entitlement at the smallest energy price, instead of
//!   evicting whoever happens to hold the claimant's own favourite
//!   device ([`ClaimPolicy::BestScore`], kept for comparison);
//! * a fairness-placed tenant holds *tenure* until it leaves its device:
//!   it cannot be displaced by a raw-score preemption, only by a rival's
//!   own sustained claim or by its own low-benefit eviction (tenure
//!   converts preemption into claim-based hand-over). Because device
//!   programs are all-or-nothing, fair shares are realised **in time**:
//!   two claimants alternating at their weighted windows converge to
//!   device-time shares proportional to their weights;
//! * a tenant whose demand fits *no* device even empty (`cost_units > 1`
//!   or an unparseable header depth on every ToR) is rejected up front
//!   ([`AdmissionDecision::Reject`]): it never enters the candidate set,
//!   never queues, and never causes a shift — back-pressure is surfaced
//!   through [`FleetTimeline`](crate::system::FleetTimeline) instead of
//!   being discovered by thrash.
//!
//! Every recorded [`FleetShift`] carries a [`ShiftReason`] so timeline
//! analysis can tell benefit-driven moves from fairness-driven ones.
//!
//! [`HostController`]: crate::host::HostController

use inc_hw::{DeviceFabric, DeviceId, Placement, ProgramResources};
use inc_sim::Nanos;

use crate::arbiter::HierarchicalController;
use crate::decision::PlacementAnalysis;
use crate::host::HostSample;

/// One schedulable application sharing the device fabric.
#[derive(Clone, Debug)]
pub struct FleetApp {
    /// Human-readable name (timelines, logs).
    pub name: String,
    /// Device resources the app's dataplane program occupies when
    /// offloaded (its capacity claim — the same on every device).
    pub demand: ProgramResources,
    /// The §8 energy analysis used to price the offload benefit at a
    /// given rate.
    pub analysis: PlacementAnalysis,
    /// The device on the app's own ToR: placements elsewhere pay the
    /// fabric's cross-ToR penalty.
    pub home: DeviceId,
    /// Fair-share weight (must be finite and positive; 1.0 = an equal
    /// tenant). Weight does **not** scale the knapsack score — benefit
    /// still decides *who wins uncontended capacity* — it scales the
    /// tenant's DRF entitlement and shortens its starvation window
    /// (`starvation_window / weight`), so a weight-2 tenant reclaims a
    /// contended device twice as fast and converges to twice the
    /// device-time share of a weight-1 rival.
    pub weight: f64,
}

/// The controller's verdict on a tenant's capacity demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Resident on a device, or free to compete for one.
    Admit,
    /// Wants capacity (sustained profitable demand in software) but must
    /// wait for room: the back-pressure state.
    Queue,
    /// The demand fits no device in the fabric even when empty; the
    /// tenant will never be placed and never queues.
    Reject,
}

/// How a fairness claim chooses among feasible hand-over devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimPolicy {
    /// The claimant takes its own best-scoring feasible device,
    /// regardless of what must be clipped there (the original policy;
    /// kept as the baseline the min-cost policy is measured against).
    BestScore,
    /// The claimant takes the feasible device whose hand-over forfeits
    /// the least: total clipped-incumbent benefit plus the migration
    /// debit of every program that must move (clips + the claimant).
    /// Ties break on the claimant's higher score, then the lower device
    /// index.
    ///
    /// The objective deliberately prices only what the hand-over *takes
    /// away* — it does not net out the claimant's own per-device benefit
    /// differences (that enters only as the tie-break), so when the
    /// claimant's delivered benefit varies across devices by more than
    /// the clip totals do, a fleet-net-optimal device can lose to a
    /// cheaper-clip one. Keeping the objective one-sided is what makes
    /// the policy's guarantee simple and testable: a min-cost claim
    /// never clips more incumbent benefit than a best-score claim would
    /// on the same state.
    MinCost,
}

impl ClaimPolicy {
    /// Orders hand-over plans by this policy; the first entry is the one
    /// a claim executes.
    pub(crate) fn order(self, plans: &mut [ClaimPlan]) {
        match self {
            ClaimPolicy::BestScore => {
                plans.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.device.cmp(&b.device)))
            }
            ClaimPolicy::MinCost => plans.sort_by(|a, b| {
                a.total_cost_w()
                    .total_cmp(&b.total_cost_w())
                    .then(b.score.total_cmp(&a.score))
                    .then(a.device.cmp(&b.device))
            }),
        }
    }
}

/// One feasible fairness hand-over: where a claimant could be placed,
/// whom that would clip, and what the move forfeits.
#[derive(Clone, Debug)]
pub struct ClaimPlan {
    /// The device the claimant would land on.
    pub device: DeviceId,
    /// Incumbents that must be clipped to software to make room, in clip
    /// order (most over-weighted dominant share first). Empty when the
    /// device already has room.
    pub clips: Vec<usize>,
    /// Summed benefit the clipped incumbents currently deliver on this
    /// device, in objective units (watts under [`Objective::Joules`]):
    /// what the fleet forfeits until they re-place.
    pub clipped_benefit_w: f64,
    /// Amortised switchover debit of the hand-over, in objective units:
    /// one migration charge per clipped incumbent plus one for the
    /// claimant (each tenant's own estimated tenure under
    /// [`TenurePolicy::Learned`]).
    pub migration_w: f64,
    /// The claimant's own knapsack score on this device (the
    /// [`ClaimPolicy::BestScore`] ranking key).
    pub score: f64,
}

impl ClaimPlan {
    /// The hand-over's total price, watts: what [`ClaimPolicy::MinCost`]
    /// minimises.
    pub fn total_cost_w(&self) -> f64 {
        self.clipped_benefit_w + self.migration_w
    }
}

/// Why a recorded placement decision fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShiftReason {
    /// The benefit-per-capacity knapsack: a profitable offload into free
    /// capacity, a raw-score preemption, or a low-benefit eviction.
    Benefit,
    /// Weighted-DRF arbitration: a starved tenant claimed capacity, or
    /// an over-entitled incumbent was clipped to make room for one.
    FairShare,
    /// Admission control: a queued tenant entered capacity that freed up
    /// (the back-pressure queue draining).
    Admission,
    /// Failure response: the hosting device went offline and its tenants
    /// were force-evicted to software (§ the chaos suite's device-kill
    /// scenario). Unlike every other reason, this shift ignores
    /// hysteresis — a dead device's tenants cannot wait out a sustain
    /// window.
    DeviceLoss,
}

/// Per-application controller inputs for one sampling interval.
///
/// The scheduler reads one rate from each sample (§9.1): the
/// network-measured [`HostSample::hw_app_rate`] while the app is
/// offloaded, [`FleetSample::offered_pps`] while it runs in software. A
/// reading that is not finite, or is negative, is taken as 0 pps — a
/// broken meter looks like an idle tenant, so it can neither win a
/// score with a NaN nor freeze the held rate with an infinity.
#[derive(Clone, Copy, Debug)]
pub struct FleetSample {
    /// The host-side signals (RAPL, CPU share, network rate feedback).
    /// The current benefit-priced policy consults only
    /// [`HostSample::hw_app_rate`] (the §9.1 shift-back feedback); the
    /// RAPL and CPU fields are carried for parity with [`HostController`]
    /// and for threshold-style policies layered on top.
    ///
    /// [`HostController`]: crate::host::HostController
    pub host: HostSample,
    /// Offered application rate measured at the host, packets/second.
    /// Authoritative while the app is software-resident; ignored in favour
    /// of [`HostSample::hw_app_rate`] once it is offloaded.
    pub offered_pps: f64,
}

impl FleetSample {
    /// The reading the scheduler trusts for an app at `placement`: the
    /// side of the §9.1 feedback rule that can see its load, as read
    /// (the scheduler prices it through `sane_rate`).
    pub(crate) fn trusted_rate(&self, placement: Placement) -> f64 {
        if placement.is_offloaded() {
            self.host.hw_app_rate
        } else {
            self.offered_pps
        }
    }
}

/// A measured rate as the scheduler prices it: a reading that is not
/// finite, or is negative, is taken as 0 pps.
pub(crate) fn sane_rate(rate: f64) -> f64 {
    if rate.is_finite() && rate >= 0.0 {
        rate
    } else {
        0.0
    }
}

/// The pricing rule behind an [`Objective`]: how the raw §8 watts of an
/// offload and the link power of a placement detour translate into the
/// units the scheduler actually optimises. Factored as a trait so
/// analysis code can price placements under any rule; the scheduler
/// consumes it through the [`Objective`] enum carried by
/// [`FleetControllerConfig::objective`].
pub trait PriceRule {
    /// Price `watts` of host-side §8 saving (or debit) in objective
    /// units per second. Applied to raw benefits, the offload floor and
    /// migration debits, so scale-only rules degenerate cleanly.
    fn value_of_w(&self, watts: f64) -> f64;

    /// The objective-priced cost of the detour a seat at `at` pays for
    /// an app homed at `home` running `rate_pps` packets/second (zero at
    /// home). Subtracted from the haircut benefit to form the effective
    /// value of a placement.
    fn detour_value(
        &self,
        fabric: &DeviceFabric,
        home: DeviceId,
        at: DeviceId,
        rate_pps: f64,
    ) -> f64;
}

/// What a placement is worth: the currency the fleet scheduler's
/// knapsack, hysteresis floors, migration debits and fairness hand-over
/// prices are all denominated in. Gray's *Distributed Computing
/// Economics* argues placement is a price question, and the price is
/// not always energy — the objective makes the currency pluggable: every
/// score, floor and debit the scheduler compares passes through it.
///
/// [`Objective::Joules`] is the default and reproduces the historical
/// watts-denominated behaviour bit for bit. A [`Objective::Dollar`]
/// rule with `per_joule > 0` and `per_gb_moved = 0` is a uniform
/// rescaling of every compared quantity, so it makes identical
/// decisions to `Joules`; the economics only diverge when moved bytes
/// are priced ([`Objective::Dollar::per_gb_moved`]) or carbon
/// intensity differs across tiers ([`Objective::Carbon`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Maximise estimated energy saving: values are watts (the paper's
    /// §8 objective, the default).
    Joules,
    /// Maximise dollars: energy priced per joule, plus an egress-style
    /// price on every gigabyte a placement detour moves through the
    /// fabric (Gray: "put the computation near the data").
    Dollar {
        /// Dollars per joule of host-side energy (and of detour link
        /// energy). Must be finite and positive.
        per_joule: f64,
        /// Dollars per gigabyte of traffic a remote seat detours
        /// through the fabric. Must be finite and non-negative.
        per_gb_moved: f64,
    },
    /// Minimise carbon: energy priced by the grid intensity of the
    /// power domain it is drawn in, indexed by hop tier.
    Carbon {
        /// Carbon intensity per joule by [`Topology::distance`]
        /// (`[home, intra-pod, inter-pod]`): index 0 prices host-side
        /// power, the seat's tier prices its detour link power. All
        /// entries must be finite and positive.
        ///
        /// [`Topology::distance`]: inc_hw::Topology::distance
        per_joule_by_tier: [f64; 3],
    },
}

impl Objective {
    /// Bytes per detoured packet used to convert a seat's packet rate
    /// into moved gigabytes (the paper's §9.4 1500 B query size).
    pub const DETOUR_PACKET_BYTES: f64 = 1500.0;

    /// Panics unless every price in the rule is usable (finite;
    /// positive where a zero would make the floor degenerate).
    fn validate(&self) {
        match *self {
            Objective::Joules => {}
            Objective::Dollar {
                per_joule,
                per_gb_moved,
            } => {
                assert!(
                    per_joule.is_finite() && per_joule > 0.0,
                    "Dollar per_joule {per_joule} must be finite and positive"
                );
                assert!(
                    per_gb_moved.is_finite() && per_gb_moved >= 0.0,
                    "Dollar per_gb_moved {per_gb_moved} must be finite and non-negative"
                );
            }
            Objective::Carbon { per_joule_by_tier } => {
                for (tier, &p) in per_joule_by_tier.iter().enumerate() {
                    assert!(
                        p.is_finite() && p > 0.0,
                        "Carbon per_joule_by_tier[{tier}] {p} must be finite and positive"
                    );
                }
            }
        }
    }
}

impl PriceRule for Objective {
    fn value_of_w(&self, watts: f64) -> f64 {
        match *self {
            // The identity must literally return its input — no `1.0 ×`
            // — so Joules pricing is the historical arithmetic bit for
            // bit (pinned by the equivalence proptests).
            Objective::Joules => watts,
            Objective::Dollar { per_joule, .. } => per_joule * watts,
            Objective::Carbon { per_joule_by_tier } => per_joule_by_tier[0] * watts,
        }
    }

    fn detour_value(
        &self,
        fabric: &DeviceFabric,
        home: DeviceId,
        at: DeviceId,
        rate_pps: f64,
    ) -> f64 {
        let link_w = fabric.link_energy_w(home, at, rate_pps);
        match *self {
            Objective::Joules => link_w,
            Objective::Dollar {
                per_joule,
                per_gb_moved,
            } => {
                // Request + response cross the detour once each, so a
                // remote seat moves 2 × 1500 B × rate through the fabric
                // per tier it is away from home.
                let gb_per_s = f64::from(fabric.distance(home, at))
                    * 2.0
                    * Objective::DETOUR_PACKET_BYTES
                    * 1e-9
                    * rate_pps;
                per_joule * link_w + per_gb_moved * gb_per_s
            }
            Objective::Carbon { per_joule_by_tier } => {
                per_joule_by_tier[fabric.distance(home, at) as usize] * link_w
            }
        }
    }
}

/// How the scheduler amortises [`FleetControllerConfig::migration_cost_j`]:
/// over a fixed configured tenure, or over each app's own observed
/// placement tenure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenurePolicy {
    /// Every move is amortised over
    /// [`FleetControllerConfig::expected_tenure_samples`] (the default,
    /// the historical behaviour).
    Fixed,
    /// Each app's tenure is estimated online from its own shift history
    /// (an EWMA of inter-shift gaps, see [`TenureEstimator`]), falling
    /// back to the config constant until a first gap is observed. Sticky
    /// tenants migrate cheaply; flappy ones are debited honestly.
    Learned {
        /// EWMA gain in `(0, 1]`: the weight of the newest inter-shift
        /// gap.
        alpha: f64,
    },
}

impl TenurePolicy {
    /// EWMA gain used to fold observed inter-shift gaps: the configured
    /// gain under [`TenurePolicy::Learned`]; a default 0.3 under
    /// [`TenurePolicy::Fixed`], where the estimate is maintained for
    /// observability but never priced.
    pub fn ewma_alpha(self) -> f64 {
        match self {
            TenurePolicy::Fixed => 0.3,
            TenurePolicy::Learned { alpha } => alpha,
        }
    }
}

/// How a seat's dominant share is counted against its fair-share
/// entitlement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntitlementPolicy {
    /// A seat's dominant share counts at face value wherever it is
    /// placed (the default, the historical behaviour).
    Uniform,
    /// A seat's dominant share is scaled by the locality factor of its
    /// placement (`Topology::benefit_factor`, a function of
    /// `Topology::distance`): a cross-core seat counts for less of the
    /// fleet than a home-rack one, so tenants parked far from home are
    /// clipped later than tenants hogging their own rack.
    TierWeighted,
}

/// Online estimate of one app's placement tenure: an EWMA of the gaps
/// between its recorded [`FleetShift`]s, in sampling intervals. Feeds
/// [`TenurePolicy::Learned`] migration pricing; deterministic — the
/// estimate is a pure fold over the app's shift times, so replaying a
/// trace replays the estimates.
///
/// # Examples
///
/// ```
/// use inc_ondemand::TenureEstimator;
/// use inc_sim::Nanos;
///
/// let mut est = TenureEstimator::new();
/// // No history yet: the config fallback applies.
/// assert_eq!(est.expected_samples(20), 20.0);
/// let interval = Nanos::from_secs(1);
/// est.observe_shift(Nanos::from_secs(5), interval, 0.3);
/// // A single shift has no gap yet — still the fallback.
/// assert_eq!(est.expected_samples(20), 20.0);
/// est.observe_shift(Nanos::from_secs(13), interval, 0.3);
/// // One observed gap of 8 samples seeds the estimate.
/// assert_eq!(est.expected_samples(20), 8.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenureEstimator {
    /// When the app last shifted (`None` before its first shift).
    last_shift_at: Option<Nanos>,
    /// EWMA of inter-shift gaps in samples (`None` before the first
    /// observed gap).
    ewma_samples: Option<f64>,
}

impl TenureEstimator {
    /// An estimator with no history (the fallback applies).
    pub fn new() -> Self {
        TenureEstimator::default()
    }

    /// Folds a placement shift at `now` into the estimate: the gap since
    /// the previous shift, in `interval`s, enters the EWMA with gain
    /// `alpha`. The first shift only anchors the clock.
    pub fn observe_shift(&mut self, now: Nanos, interval: Nanos, alpha: f64) {
        if let Some(prev) = self.last_shift_at {
            let gap = (now.as_secs_f64() - prev.as_secs_f64()) / interval.as_secs_f64();
            self.ewma_samples = Some(match self.ewma_samples {
                Some(e) => e + alpha * (gap - e),
                None => gap,
            });
        }
        self.last_shift_at = Some(now);
    }

    /// The tenure a new placement of this app is expected to hold, in
    /// sampling intervals: the EWMA estimate clamped to at least one
    /// sample, or `fallback` (the config constant) before any gap has
    /// been observed.
    pub fn expected_samples(&self, fallback: u32) -> f64 {
        match self.ewma_samples {
            Some(e) => e.max(1.0),
            None => f64::from(fallback.max(1)),
        }
    }

    /// The raw EWMA estimate, if any gap has been observed yet.
    pub fn observed_samples(&self) -> Option<f64> {
        self.ewma_samples
    }
}

/// Configuration of the fleet scheduler.
#[derive(Clone, Copy, Debug)]
pub struct FleetControllerConfig {
    /// Sampling interval.
    pub interval: Nanos,
    /// Consecutive samples a condition must hold before a shift.
    pub sustain_samples: u32,
    /// Minimum estimated power saving (watts) for an app to become an
    /// offload candidate on a device (after the locality haircut).
    pub min_benefit_w: f64,
    /// An offloaded app is evicted only when its benefit falls below
    /// `min_benefit_w * evict_fraction` (the hysteresis dead band),
    /// sustained over the window. In `[0, 1]`.
    pub evict_fraction: f64,
    /// Score multiplier for a resident app on its current device
    /// (≥ 1.0). A newcomer — or the same app eyeing a different ToR —
    /// must beat the incumbent score by this factor to displace it.
    pub stickiness: f64,
    /// Consecutive queued samples after which a weight-1 tenant files a
    /// fairness claim (per-tenant windows are `starvation_window /
    /// weight`, floored by `sustain_samples`). The window is the
    /// fairness analogue of the sustain window: long enough that shares
    /// change by deliberate hand-over, not flapping. `u32::MAX` disables
    /// fairness entirely (pure benefit-maximising scheduling).
    pub starvation_window: u32,
    /// The switchover price of reprogramming a device, joules: the §9.2
    /// reconfiguration halt plus the moved program's state re-warm.
    /// Charged — amortised over [`Self::expected_tenure_samples`] — as a
    /// benefit debit on every candidate that would move a *resident* app
    /// to a different device, and as a per-move term in the fairness
    /// claim cost. `0.0` disables migration pricing (moves fight only
    /// the stickiness ratio, the pre-migration-cost behaviour).
    pub migration_cost_j: f64,
    /// Sampling intervals a new placement is expected to hold: the
    /// amortisation horizon of [`Self::migration_cost_j`]. The per-sample
    /// debit is `migration_cost_j / (expected_tenure_samples ×
    /// interval)` watts — a move must be worth at least its switchover
    /// spread over the tenure it buys.
    pub expected_tenure_samples: u32,
    /// How fairness claims choose among feasible hand-over devices.
    pub claim_policy: ClaimPolicy,
    /// The currency every decision is priced in: raw benefits, the
    /// offload floor, detour costs and migration debits all pass
    /// through this rule. [`Objective::Joules`] (the default) is the
    /// historical watts-denominated behaviour bit for bit.
    pub objective: Objective,
    /// How [`Self::migration_cost_j`] is amortised: over the fixed
    /// [`Self::expected_tenure_samples`] (default) or over each app's
    /// own learned tenure estimate.
    pub tenure: TenurePolicy,
    /// How a seat's dominant share is counted against its fair-share
    /// entitlement (uniform by default; optionally discounted by
    /// placement tier).
    pub entitlement: EntitlementPolicy,
}

impl FleetControllerConfig {
    /// A reasonable default: 3-sample sustain (the Figure 6 choice), a
    /// 1 W offload floor, a 2× dead band, 25 % incumbency advantage, a
    /// 20-sample starvation window (fairness as a backstop: transient
    /// contention resolves by benefit, only sustained starvation forces
    /// a fair-share hand-over), a 5 J switchover debit amortised over a
    /// 20-sample tenure, and min-cost hand-overs — priced in
    /// [`Objective::Joules`] with a fixed tenure and uniform
    /// entitlements (the historical behaviour, bit for bit).
    ///
    /// # Examples
    ///
    /// ```
    /// use inc_ondemand::{ClaimPolicy, FleetControllerConfig};
    /// use inc_sim::Nanos;
    ///
    /// let cfg = FleetControllerConfig::standard(Nanos::from_secs(1));
    /// assert_eq!(cfg.sustain_samples, 3);
    /// assert_eq!(cfg.claim_policy, ClaimPolicy::MinCost);
    /// // The eviction threshold sits below the offload floor: the
    /// // hysteresis dead band that keeps marginal tenants from flapping.
    /// assert!(cfg.min_benefit_w * cfg.evict_fraction < cfg.min_benefit_w);
    /// // One interval of tenure must be worth the amortised switchover:
    /// // 5 J over 20 one-second samples is a 0.25 W debit per move.
    /// let debit_w = cfg.migration_cost_j
    ///     / (cfg.expected_tenure_samples as f64 * cfg.interval.as_secs_f64());
    /// assert!((debit_w - 0.25).abs() < 1e-12);
    /// ```
    pub fn standard(interval: Nanos) -> Self {
        FleetControllerConfig {
            interval,
            sustain_samples: 3,
            min_benefit_w: 1.0,
            evict_fraction: 0.5,
            stickiness: 1.25,
            starvation_window: 20,
            migration_cost_j: 5.0,
            expected_tenure_samples: 20,
            claim_policy: ClaimPolicy::MinCost,
            objective: Objective::Joules,
            tenure: TenurePolicy::Fixed,
            entitlement: EntitlementPolicy::Uniform,
        }
    }

    /// Panics unless the economic knobs are usable: a finite
    /// non-negative migration cost, valid objective prices, and a
    /// learned-tenure gain in `(0, 1]`. The scheduler calls this at
    /// construction so a bad price fails loudly instead of silently
    /// mis-ranking every candidate.
    pub(crate) fn validate(&self) {
        assert!(
            self.migration_cost_j.is_finite() && self.migration_cost_j >= 0.0,
            "migration_cost_j {} must be finite and non-negative",
            self.migration_cost_j
        );
        self.objective.validate();
        if let TenurePolicy::Learned { alpha } = self.tenure {
            assert!(
                alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
                "learned-tenure alpha {alpha} must be in (0, 1]"
            );
        }
    }

    /// Queued samples after which a tenant of `weight` files a fairness
    /// claim: the starvation window scaled down by the weight, floored
    /// by the sustain window.
    pub(crate) fn starvation_threshold(&self, weight: f64) -> u32 {
        let window = self.starvation_window;
        if window == u32::MAX {
            return u32::MAX;
        }
        let scaled = (f64::from(window) / weight).ceil();
        let scaled = if scaled >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            scaled as u32
        };
        scaled.max(self.sustain_samples).max(1)
    }
}

/// A record of one fleet placement decision.
#[derive(Clone, Copy, Debug)]
pub struct FleetShift {
    /// When the decision fired.
    pub at: Nanos,
    /// Index of the app that moved.
    pub app: usize,
    /// The new placement.
    pub to: Placement,
    /// The rate estimate that priced the decision, packets/second.
    pub rate_pps: f64,
    /// The estimated benefit at that rate, in objective units (watts
    /// under the default [`Objective::Joules`]) — penalty-adjusted for
    /// the target device when the shift is an offload.
    pub benefit_w: f64,
    /// What drove the decision: raw benefit, a fair-share claim/clip, or
    /// admission control draining its queue.
    pub reason: ShiftReason,
}

/// The fleet scheduler under the name the rigs use: the one incremental
/// pipeline, [`HierarchicalController`], which [`FleetController::new`]
/// builds from a bare [`FleetControllerConfig`] with no rate dead band
/// (see [`ArbiterConfig`]'s `From` conversion).
///
/// [`ArbiterConfig`]: crate::arbiter::ArbiterConfig
///
/// # Examples
///
/// ```
/// use inc_hw::{DeviceFabric, DeviceId, Placement, PipelineBudget, ProgramResources};
/// use inc_ondemand::{
///     dns_analysis, kvs_analysis, FleetApp, FleetController, FleetControllerConfig,
/// };
/// use inc_sim::Nanos;
///
/// let fabric = DeviceFabric::single(PipelineBudget::tofino_like());
/// let apps = vec![
///     FleetApp {
///         name: "kvs".into(),
///         demand: ProgramResources { stages: 7, sram_bytes: 40 << 20, parse_depth_bytes: 96 },
///         analysis: kvs_analysis(),
///         home: DeviceId::LOCAL,
///         weight: 1.0,
///     },
///     FleetApp {
///         name: "dns".into(),
///         demand: ProgramResources { stages: 6, sram_bytes: 20 << 20, parse_depth_bytes: 128 },
///         analysis: dns_analysis(),
///         home: DeviceId::LOCAL,
///         weight: 1.0,
///     },
/// ];
/// let ctl = FleetController::new(
///     FleetControllerConfig::standard(Nanos::from_secs(1)),
///     fabric,
///     apps,
/// );
/// assert_eq!(ctl.placements(), &[Placement::Software, Placement::Software]);
/// ```
pub type FleetController = HierarchicalController;

/// The scheduling surface the fleet harness drives.
///
/// [`run_fleet_controlled`] only needs the sample/apply loop: feed one
/// [`FleetSample`] per app per interval, execute the returned placement
/// changes, and read the admission book-keeping at the end.
/// [`HierarchicalController`] implements it; the harness is generic over
/// the trait so a wrapper (a tracing or recording adapter) can stand in
/// for the scheduler without the harness knowing.
///
/// [`run_fleet_controlled`]: crate::system::run_fleet_controlled
pub trait FleetScheduler {
    /// The sampling interval the harness steps by.
    fn interval(&self) -> Nanos;
    /// Number of scheduled applications (one [`FleetSample`] each).
    fn app_count(&self) -> usize;
    /// Current per-app placements, indexed like the app vector.
    fn placements(&self) -> &[Placement];
    /// Feeds one sample per app; returns the placement changes to
    /// execute.
    fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)>;
    /// The admission verdict for `app`.
    fn admission_decision(&self, app: usize) -> AdmissionDecision;
    /// Cumulative queued samples per app over the run.
    fn queued_intervals(&self) -> &[u64];
}

#[cfg(test)]
mod tests {
    use super::*;
    use inc_hw::{PipelineBudget, TierCost, Topology};
    use inc_power::EnergyParams;

    /// A synthetic analysis with software dynamic slope `slope_w_per_pps`
    /// and a flat hardware curve: benefit(r) ≈ slope * r - unpark_w.
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

    fn app(name: &str, stages: u32, slope: f64, unpark: f64) -> FleetApp {
        app_homed(name, stages, slope, unpark, DeviceId::LOCAL)
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

    /// Single device with 12 stages: a 7-stage and a 6-stage app cannot
    /// co-reside.
    fn contended() -> DeviceFabric {
        DeviceFabric::single(PipelineBudget::tofino_like())
    }

    /// Two 12-stage ToRs in one pod with the standard intra-pod cost.
    fn two_tors() -> DeviceFabric {
        DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        )
    }

    /// A one-pod pair of ToRs with a custom haircut and no link energy.
    fn haircut_pair(benefit_factor: f64) -> Topology {
        Topology::rack_pairs(
            1,
            TierCost {
                extra_latency: Nanos::from_micros(2),
                benefit_factor,
                link_energy_nj: 0.0,
            },
            TierCost::standard_inter_pod(),
        )
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

    #[test]
    fn offloads_higher_score_app_when_only_one_fits() {
        // Both apps profitable and sustained; app 1 has double the
        // benefit per stage.
        let apps = vec![
            app("a", 7, 0.08, 2.0), // at 100 kpps: 6 W over 7 stages
            app("b", 6, 0.14, 2.0), // at 100 kpps: 12 W over 6 stages
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        // hw_app_rate mirrors the offered rate so the network feedback
        // agrees with the host measurement once an app is resident.
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=2 {
            assert!(ctl.sample(t(step), &s).is_empty(), "sustain not yet met");
        }
        let d = ctl.sample(t(3), &s);
        assert_eq!(d, vec![(1, Placement::HARDWARE)]);
        // App 0 stays software: it no longer fits (7 + 6 > 12 stages).
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        // And it stays that way while both loads hold (no flapping).
        for step in 4..=20 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
        assert_eq!(ctl.shifts().len(), 1);
    }

    #[test]
    fn eviction_frees_capacity_for_the_waiting_app() {
        let apps = vec![app("a", 7, 0.08, 2.0), app("b", 6, 0.14, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let both_hot = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &both_hot);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        // App b's demand dies; the network-side rate feedback reports the
        // collapse (offered is ignored for the resident app).
        let b_idle = [sample(100_000.0, 100_000.0), sample(100_000.0, 1_000.0)];
        let mut decisions = Vec::new();
        for step in 4..=10 {
            decisions.extend(ctl.sample(t(step), &b_idle));
            if !decisions.is_empty() {
                break;
            }
        }
        // One interval: b evicted after the sustain window AND a admitted
        // in its place.
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert!(decisions.contains(&(1, Placement::Software)));
        assert!(decisions.contains(&(0, Placement::HARDWARE)));
        // Reasons: a displaced b by score while b's collapsed sticky
        // score could no longer defend the slot — a benefit preemption
        // on both sides of the swap, not a fairness or admission event.
        for s in ctl.shifts() {
            assert_eq!(s.reason, ShiftReason::Benefit, "{s:?}");
        }
    }

    #[test]
    fn queued_tenant_entering_freed_capacity_is_tagged_admission() {
        // b: a tiny 1-stage program with strong economics — its sticky
        // score stays above a's even while its delivered benefit sits in
        // the eviction dead band, so a cannot preempt it; a: a
        // full-device 12-stage program that queues behind it.
        let apps = vec![
            app("a", 12, 0.05, 2.0), // 3 W at 100 kpps, score 3
            app("b", 1, 0.50, 2.0),  // 8 W at 20 kpps, score 96
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let hot = [sample(100_000.0, 100_000.0), sample(20_000.0, 20_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &hot);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        assert_eq!(ctl.admission_decision(0), AdmissionDecision::Queue);
        // b's rate decays to 4.8 kpps: delivered benefit 0.4 W — inside
        // the eviction band (< 0.5 W) but its sticky score (0.4 × 12 ×
        // 1.25 = 6) still out-ranks a's 3, so b leaves only when its
        // eviction window completes, and a's entry drains the queue.
        let dip = [sample(100_000.0, 100_000.0), sample(20_000.0, 4_800.0)];
        let mut decisions = Vec::new();
        for step in 4..=10 {
            decisions.extend(ctl.sample(t(step), &dip));
            if !decisions.is_empty() {
                break;
            }
        }
        assert!(decisions.contains(&(1, Placement::Software)));
        assert!(decisions.contains(&(0, Placement::HARDWARE)));
        let a_in = ctl
            .shifts()
            .iter()
            .find(|s| s.app == 0 && s.to.is_offloaded())
            .unwrap();
        assert_eq!(a_in.reason, ShiftReason::Admission);
    }

    #[test]
    fn transient_dip_does_not_evict() {
        let apps = vec![app("a", 7, 0.08, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let hot = [sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &hot);
        }
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
        // Two idle samples (below sustain), then hot again: no eviction.
        let idle = [sample(0.0, 0.0)];
        assert!(ctl.sample(t(4), &idle).is_empty());
        assert!(ctl.sample(t(5), &idle).is_empty());
        assert!(ctl.sample(t(6), &hot).is_empty());
        assert!(ctl.sample(t(7), &idle).is_empty());
        assert!(ctl.sample(t(8), &idle).is_empty());
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
        // A third consecutive idle sample completes the window.
        let d = ctl.sample(t(9), &idle);
        assert_eq!(d, vec![(0, Placement::Software)]);
    }

    #[test]
    fn marginal_newcomer_does_not_preempt_but_clear_winner_does() {
        let apps = vec![
            app("incumbent", 7, 0.10, 2.0),
            app("rival", 7, 0.10, 2.0), // same program, same economics
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let warm = [sample(100_000.0, 100_000.0), sample(0.0, 0.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &warm);
        }
        assert_eq!(ctl.placements()[0], Placement::HARDWARE);
        // The rival reaches a slightly higher rate — within the 25 %
        // stickiness band, so the incumbent holds.
        let marginal = [sample(100_000.0, 100_000.0), sample(110_000.0, 0.0)];
        for step in 4..=12 {
            assert!(ctl.sample(t(step), &marginal).is_empty());
        }
        // The rival's load becomes decisively higher: preemption.
        let decisive = [sample(100_000.0, 100_000.0), sample(400_000.0, 0.0)];
        let mut moved = Vec::new();
        for step in 13..=20 {
            moved.extend(ctl.sample(t(step), &decisive));
            if !moved.is_empty() {
                break;
            }
        }
        assert!(moved.contains(&(0, Placement::Software)));
        assert!(moved.contains(&(1, Placement::HARDWARE)));
    }

    #[test]
    fn unprofitable_apps_never_offload() {
        // Benefit never reaches the floor: slope gives 0.8 W at the
        // offered rate against a 2 W unpark cost.
        let apps = vec![app("cold", 4, 0.008, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let s = [sample(100_000.0, 0.0)];
        for step in 1..=50 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
        assert_eq!(ctl.placements(), &[Placement::Software]);
    }

    #[test]
    fn pinned_configuration_never_moves() {
        let apps = vec![app("a", 7, 0.10, 2.0), app("b", 6, 0.14, 2.0)];
        let pinned = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..cfg()
        };
        let mut ctl = FleetController::new(pinned, contended(), apps)
            .with_initial_placements(&[Placement::HARDWARE, Placement::Software]);
        assert!(ctl.fabric().is_resident(0));
        for step in 1..=30 {
            // Wildly varying load in both directions.
            let r = if step % 2 == 0 { 500_000.0 } else { 0.0 };
            assert!(ctl
                .sample(t(step), &[sample(r, r), sample(r, r)])
                .is_empty());
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert!(ctl.shifts().is_empty());
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn infeasible_initial_placements_rejected() {
        let apps = vec![app("a", 7, 0.1, 2.0), app("b", 6, 0.1, 2.0)];
        let _ = FleetController::new(cfg(), contended(), apps)
            .with_initial_placements(&[Placement::HARDWARE, Placement::HARDWARE]);
    }

    #[test]
    #[should_panic(expected = "homed")]
    fn out_of_fabric_home_rejected() {
        let apps = vec![app_homed("lost", 4, 0.1, 2.0, DeviceId(3))];
        let _ = FleetController::new(cfg(), contended(), apps);
    }

    // --- Fabric-specific behaviour. ---

    #[test]
    fn oversubscribed_home_spills_to_the_remote_tor() {
        // Two apps homed on ToR 0, together too big for one device; the
        // second-best spills to ToR 1 because its penalty-adjusted
        // benefit still clears the floor.
        let apps = vec![
            app_homed("big", 7, 0.14, 2.0, DeviceId(0)),
            app_homed("spill", 6, 0.10, 2.0, DeviceId(0)),
        ];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(
            ctl.placements(),
            &[
                Placement::Device(DeviceId(0)),
                Placement::Device(DeviceId(1))
            ]
        );
        // The spilled app's recorded benefit carries the haircut.
        let spill = ctl.shifts().iter().find(|s| s.app == 1).unwrap();
        let raw = ctl.benefit_w(1, 100_000.0);
        let haircut = TierCost::standard_intra_pod().benefit_factor;
        assert!((spill.benefit_w - raw * haircut).abs() < 1e-9);
        // Stable thereafter: no ping-pong between the ToRs.
        for step in 4..=30 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
    }

    #[test]
    fn remote_placement_requires_the_haircut_benefit_to_clear_the_floor() {
        // Raw benefit 1.1 W clears the 1 W floor at home, but the 0.85×
        // haircut (0.935 W) does not — so when home is full the app stays
        // in software rather than spilling at a loss.
        let apps = vec![
            app_homed("hog", 12, 0.14, 2.0, DeviceId(0)), // fills ToR 0
            app_homed("meek", 6, 0.031, 2.0, DeviceId(0)), // 3.1-2 = 1.1 W
        ];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=10 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.placements()[1], Placement::Software);
    }

    #[test]
    fn app_returns_home_when_capacity_frees_only_if_decisively_better() {
        // The spilled app sits on ToR 1. When the hog on its home ToR
        // leaves, the app comes home only if its un-haircut home score
        // beats its sticky remote score — use a deep 0.5 haircut so
        // home is decisively (2× > 1.25×) better.
        let fabric = DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.5));
        let apps = vec![
            app_homed("hog", 7, 0.30, 2.0, DeviceId(0)),
            app_homed("mover", 6, 0.10, 2.0, DeviceId(0)),
        ];
        let mut ctl = FleetController::new(cfg(), fabric, apps);
        let both = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &both);
        }
        assert_eq!(
            ctl.placements(),
            &[
                Placement::Device(DeviceId(0)),
                Placement::Device(DeviceId(1))
            ]
        );
        // The hog's traffic dies; after its eviction window the mover
        // comes home in the same decision pass.
        let hog_idle = [sample(100_000.0, 500.0), sample(100_000.0, 100_000.0)];
        let mut moved = Vec::new();
        for step in 4..=10 {
            moved.extend(ctl.sample(t(step), &hog_idle));
            if !moved.is_empty() {
                break;
            }
        }
        assert!(moved.contains(&(0, Placement::Software)), "{moved:?}");
        assert!(
            moved.contains(&(1, Placement::Device(DeviceId(0)))),
            "{moved:?}"
        );
        // One decision for the move, not an evict+offload pair.
        assert_eq!(
            ctl.shifts().iter().filter(|s| s.app == 1).count(),
            2,
            "{:?}",
            ctl.shifts()
        );
    }

    // --- Fair sharing and admission control. ---

    /// `app` with an explicit fair-share weight.
    fn weighted(name: &str, stages: u32, slope: f64, weight: f64) -> FleetApp {
        FleetApp {
            weight,
            ..app(name, stages, slope, 2.0)
        }
    }

    /// Both tenants hot forever; the device fits only one. Under pure
    /// benefit the higher-score tenant holds it indefinitely.
    fn contended_pair(weight_hog: f64, weight_meek: f64) -> Vec<FleetApp> {
        vec![
            // 7 stages, benefit 12 W at 100 kpps: the clear score winner.
            weighted("hog", 7, 0.14, weight_hog),
            // 7 stages, benefit 3 W at 100 kpps: profitable but outscored.
            weighted("meek", 7, 0.05, weight_meek),
        ]
    }

    fn fair_cfg(starvation_window: u32) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window,
            ..cfg()
        }
    }

    #[test]
    fn pure_benefit_starves_the_outscored_tenant() {
        let mut ctl = FleetController::new(
            fair_cfg(u32::MAX), // fairness disabled
            contended(),
            contended_pair(1.0, 1.0),
        );
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=60 {
            ctl.sample(t(step), &s);
        }
        // The meek tenant never got the device — and the controller knows
        // it is queued, not merely idle.
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Queue);
        assert!(ctl.queued_intervals()[1] > 50);
        assert_eq!(ctl.shifts().len(), 1);
    }

    #[test]
    fn starved_tenant_claims_its_fair_share_and_the_device_alternates() {
        let window = 6;
        let mut ctl = FleetController::new(fair_cfg(window), contended(), contended_pair(1.0, 1.0));
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        let mut resident = [0u32; 2];
        for step in 1..=100 {
            ctl.sample(t(step), &s);
            for (i, r) in resident.iter_mut().enumerate() {
                if ctl.placements()[i].is_offloaded() {
                    *r += 1;
                }
            }
        }
        // Both tenants got a material share of device time (equal weights
        // converge toward an even time split; the sustain preamble skews
        // slightly toward whoever holds at claim time).
        assert!(resident[0] > 30, "hog held {} of 100", resident[0]);
        assert!(resident[1] > 30, "meek held {} of 100", resident[1]);
        // The first shift is the benefit offload; every hand-over after it
        // is a fairness decision (claim + clip pairs), and consecutive
        // entries of the same tenant are separated by at least the
        // starvation window — deliberate hand-over, not flapping.
        assert_eq!(ctl.shifts()[0].reason, ShiftReason::Benefit);
        assert!(ctl
            .shifts()
            .iter()
            .skip(1)
            .all(|s| s.reason == ShiftReason::FairShare));
        for app in 0..2 {
            let entries: Vec<Nanos> = ctl
                .shifts()
                .iter()
                .filter(|s| s.app == app && s.to.is_offloaded())
                .map(|s| s.at)
                .collect();
            for pair in entries.windows(2) {
                assert!(
                    pair[1] - pair[0] >= Nanos::from_secs(u64::from(window)),
                    "app {app} re-entered after {} < window",
                    pair[1] - pair[0]
                );
            }
        }
        // The dominant-share accounting the claims were priced with.
        let held = ctl.placements().iter().position(|p| p.is_offloaded());
        let held = held.expect("someone holds the device");
        assert!((ctl.dominant_share(held) - 7.0 / 12.0).abs() < 1e-9);
        assert_eq!(ctl.dominant_share(1 - held), 0.0);
    }

    #[test]
    fn device_time_divides_by_weight() {
        // The hog is entitled to 2/3: its 9-stage program (share 0.75)
        // exceeds that, so it stays clippable; the meek tenant's 7-stage
        // program (share 0.583) exceeds its 1/3 likewise. The weighted
        // starvation windows (20/2 = 10 vs 20/1 = 20) make the hog
        // reclaim twice as fast, so its device-time share converges
        // toward its entitlement.
        let apps = vec![
            weighted("hog", 9, 0.14, 2.0),
            weighted("meek", 7, 0.05, 1.0),
        ];
        let mut ctl = FleetController::new(fair_cfg(20), contended(), apps);
        assert_eq!(ctl.starvation_threshold(0), 10);
        assert_eq!(ctl.starvation_threshold(1), 20);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        let mut resident = [0u32; 2];
        for step in 1..=400 {
            ctl.sample(t(step), &s);
            for (i, r) in resident.iter_mut().enumerate() {
                if ctl.placements()[i].is_offloaded() {
                    *r += 1;
                }
            }
        }
        assert!(resident[1] > 50, "meek starved: {resident:?}");
        let ratio = f64::from(resident[0]) / f64::from(resident[1]);
        assert!(
            (1.4..=2.2).contains(&ratio),
            "weighted split off: {resident:?} (ratio {ratio:.2})"
        );
        // While contended, both tenants' entitlements reflect the weights.
        assert!((ctl.entitlement(0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((ctl.entitlement(1) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn incumbent_within_its_entitlement_is_not_clipped() {
        // The incumbent's 6-stage program is exactly half the device —
        // not *above* its 1/2 entitlement — so a starved rival may not
        // clip it: fairness protects entitlements, it does not create
        // capacity that is not there.
        let apps = vec![
            weighted("within", 6, 0.14, 1.0),
            weighted("wanting", 7, 0.05, 1.0),
        ];
        let mut ctl = FleetController::new(fair_cfg(5), contended(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=60 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert_eq!(ctl.shifts().len(), 1);
        // The rival stays queued — visible back-pressure, no thrash.
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Queue);
        assert!(ctl.starved_streak(1) > 20);
    }

    #[test]
    fn unfit_demand_is_rejected_up_front_not_thrashed() {
        // 14 stages fit no 12-stage device; the tenant is hot forever but
        // never becomes a candidate, never queues, never shifts.
        let apps = vec![app("fits", 6, 0.10, 2.0), app("giant", 14, 0.30, 2.0)];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Reject);
        let s = [sample(100_000.0, 100_000.0), sample(400_000.0, 400_000.0)];
        for step in 1..=50 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[1], Placement::Software);
        assert!(ctl.shifts().iter().all(|s| s.app != 1));
        assert_eq!(ctl.queued_intervals()[1], 0);
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Reject);
        // The satisfiable tenant is unaffected.
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.admission_decision(0), AdmissionDecision::Admit);
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn non_positive_weights_rejected() {
        let apps = vec![weighted("w", 4, 0.1, 0.0)];
        let _ = FleetController::new(cfg(), contended(), apps);
    }

    #[test]
    fn sticky_incumbent_device_resists_marginal_cross_tor_moves() {
        // Symmetric fabric, app homed on ToR 0 but resident on ToR 1
        // (seeded). Its home score is 1/0.9 ≈ 1.11× the remote score —
        // inside the 1.25× stickiness band — so it must NOT hop home.
        let fabric = DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.9));
        let apps = vec![app_homed("settled", 6, 0.10, 2.0, DeviceId(0))];
        let mut ctl = FleetController::new(cfg(), fabric, apps)
            .with_initial_placements(&[Placement::Device(DeviceId(1))]);
        let s = [sample(100_000.0, 100_000.0)];
        for step in 1..=30 {
            assert!(ctl.sample(t(step), &s).is_empty(), "hopped at {step}");
        }
        assert_eq!(ctl.placements(), &[Placement::Device(DeviceId(1))]);
    }

    // --- Migration cost. ---

    /// The hop-home scenario of
    /// `app_returns_home_when_capacity_frees_only_if_decisively_better`,
    /// replayed: the mover sits on the remote ToR of a deep-haircut
    /// (0.7) pair, so its home score is 1/0.7 ≈ 1.43× its sticky remote
    /// score — beyond the 1.25× stickiness band, so a migration-blind
    /// scorer hops home the moment the hog leaves. With the switchover
    /// debit priced in, the ~1.2 W/interval the hop would gain is less
    /// than the amortised reprogramming cost, and the app stays put.
    #[test]
    fn migration_cost_suppresses_marginal_hop_that_stickiness_allows() {
        let setup = |migration_cost_j: f64| {
            let fabric =
                DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.7));
            let apps = vec![
                app_homed("hog", 7, 0.30, 2.0, DeviceId(0)),
                app_homed("mover", 6, 0.06, 2.0, DeviceId(0)),
            ];
            let config = FleetControllerConfig {
                migration_cost_j,
                ..cfg()
            };
            FleetController::new(config, fabric, apps)
        };
        // Mover at 100 kpps: raw benefit 4 W, remote 2.8 W. Home score
        // 4/0.5 = 8 vs sticky remote 2.8/0.5 × 1.25 = 7. The hop gains
        // 1.2 W; the standard 5 J debit over a 20 × 1 s tenure is only
        // 0.25 W — too small — so use a 2 s interval... instead pin the
        // economics explicitly: a 30 J switchover amortises to 1.5 W,
        // which outweighs the 1.2 W the hop would deliver.
        let drive = |ctl: &mut FleetController| {
            let both = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
            for step in 1..=3 {
                ctl.sample(t(step), &both);
            }
            assert_eq!(
                ctl.placements(),
                &[
                    Placement::Device(DeviceId(0)),
                    Placement::Device(DeviceId(1))
                ]
            );
            // The hog dies; run past its eviction window and beyond.
            let hog_idle = [sample(100_000.0, 500.0), sample(100_000.0, 100_000.0)];
            for step in 4..=30 {
                ctl.sample(t(step), &hog_idle);
            }
        };

        // Migration-blind scorer: the mover hops home.
        let mut blind = setup(0.0);
        drive(&mut blind);
        assert_eq!(blind.placements()[1], Placement::Device(DeviceId(0)));

        // With the debit: the same marginal hop is suppressed.
        let mut priced = setup(30.0);
        assert!((priced.migration_w() - 1.5).abs() < 1e-9);
        drive(&mut priced);
        assert_eq!(
            priced.placements()[1],
            Placement::Device(DeviceId(1)),
            "a 1.2 W hop should not outbid a 1.5 W amortised switchover"
        );
        // ...and the suppression is a score effect, not a freeze: a
        // decisively better home still wins. At 400 kpps the raw benefit
        // is 22 W, so the debited home score (22 − 1.5)/0.5 = 41 clears
        // the sticky remote score 1.25 × 0.7 × 22 / 0.5 = 38.5.
        let surge = [sample(100_000.0, 500.0), sample(400_000.0, 400_000.0)];
        for step in 31..=40 {
            priced.sample(t(step), &surge);
        }
        assert_eq!(priced.placements()[1], Placement::Device(DeviceId(0)));
    }

    /// A fresh offload from software pays no migration debit (nothing is
    /// torn down), and pinned controllers are unaffected by the pricing.
    #[test]
    fn fresh_offloads_are_not_debited() {
        let config = FleetControllerConfig {
            migration_cost_j: 1_000.0, // absurd: 50 W amortised
            ..cfg()
        };
        let apps = vec![app("a", 7, 0.08, 2.0)];
        let mut ctl = FleetController::new(config, contended(), apps);
        let s = [sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
    }

    // --- Claim policies. ---

    /// Three tenants on a rack pair: the claimant's own score prefers its
    /// home ToR 0 (no haircut), where the expensive incumbent sits; the
    /// cheap incumbent sits on ToR 1. Best-score claims clip the
    /// expensive program; min-cost claims clip the cheap one.
    fn claim_scenario(policy: ClaimPolicy) -> (FleetController, [FleetSample; 3]) {
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        // Scores at 100 kpps: rich 20.6 on its home ToR 0, poor 5.1 on
        // its home ToR 1; the claimant scores 4.3 at home and 3.6 remote
        // — profitable everywhere, outscored everywhere, so the knapsack
        // never places it and it must go through the claim protocol.
        let apps = vec![
            app_homed("rich", 7, 0.14, 2.0, DeviceId(0)), // 12 W at 100 kpps
            app_homed("poor", 7, 0.05, 2.0, DeviceId(1)), // 3 W at 100 kpps
            app_homed("claimant", 7, 0.045, 2.0, DeviceId(0)), // 2.5 W at 100 kpps
        ];
        let config = FleetControllerConfig {
            starvation_window: 6,
            claim_policy: policy,
            ..cfg()
        };
        let ctl = FleetController::new(config, fabric, apps);
        let s = [
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
        ];
        (ctl, s)
    }

    #[test]
    fn min_cost_claim_clips_the_cheap_incumbent_not_the_best_scoring_device() {
        for (policy, expect_clip, expect_device) in [
            // Old policy: claim lands on the claimant's highest-scoring
            // device — home, un-haircut — clipping the 12 W incumbent.
            (ClaimPolicy::BestScore, 0usize, DeviceId(0)),
            // Min-cost: hand-over happens where the forfeited benefit is
            // smallest — the remote ToR's 3 W incumbent.
            (ClaimPolicy::MinCost, 1usize, DeviceId(1)),
        ] {
            let (mut ctl, s) = claim_scenario(policy);
            let mut first_claim = None;
            for step in 1..=30 {
                let decisions = ctl.sample(t(step), &s);
                if first_claim.is_none() {
                    first_claim = decisions
                        .iter()
                        .find(|&&(app, to)| app == 2 && to.is_offloaded())
                        .map(|&(_, to)| to);
                }
            }
            assert_eq!(
                first_claim,
                Some(Placement::Device(expect_device)),
                "{policy:?} claimed the wrong device"
            );
            let clip = ctl
                .shifts()
                .iter()
                .find(|sh| sh.to == Placement::Software && sh.reason == ShiftReason::FairShare)
                .expect("a clip was recorded");
            assert_eq!(clip.app, expect_clip, "{policy:?} clipped the wrong app");
        }
    }

    #[test]
    fn claim_plans_report_clip_economics() {
        let (mut ctl, s) = claim_scenario(ClaimPolicy::MinCost);
        // Settle the two incumbents (claimant queues behind them).
        for step in 1..=5 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[2], Placement::Software);
        let rates = [100_000.0; 3];
        let plans = ctl.claim_plans(2, &rates);
        assert_eq!(plans.len(), 2, "{plans:?}");
        let by_dev = |d: DeviceId| plans.iter().find(|p| p.device == d).unwrap();
        let home = by_dev(DeviceId(0));
        let remote = by_dev(DeviceId(1));
        // Home clips the rich incumbent (12 W); the remote hand-over
        // clips the poor one, forfeiting its full un-haircut 3 W (it is
        // at home on ToR 1).
        assert_eq!(home.clips, vec![0]);
        let rich_delivered = ctl.effective_benefit_w(0, DeviceId(0), rates[0]);
        assert!((home.clipped_benefit_w - rich_delivered).abs() < 1e-9);
        assert!((rich_delivered - 12.0).abs() < 0.01);
        assert_eq!(remote.clips, vec![1]);
        let poor_delivered = ctl.effective_benefit_w(1, DeviceId(1), rates[1]);
        assert!((remote.clipped_benefit_w - poor_delivered).abs() < 1e-9);
        assert!((poor_delivered - 3.0).abs() < 0.01);
        // Both hand-overs move two programs (clip + claimant).
        assert!((home.migration_w - 2.0 * ctl.migration_w()).abs() < 1e-12);
        // The claimant's own score prefers home; the total cost prefers
        // the remote hand-over.
        assert!(home.score > remote.score);
        assert!(remote.total_cost_w() < home.total_cost_w());
    }
}
