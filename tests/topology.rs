//! End-to-end topology-aware placement over the three-tier pod fabric:
//! five tenants on 2 pods × 2 ToRs with heterogeneous budgets, scheduled
//! by the `FleetController` against the `Topology` distance matrix.
//!
//! The run proves the three contracts this subsystem exists for:
//!
//! * **(a) locality** — a spilled program lands on the *near* rack when
//!   an equally-feasible far rack offers the same raw benefit (the
//!   distance matrix, not the device index, decides);
//! * **(b) migration cost** — the amortised switchover debit suppresses
//!   a rack-to-rack ping-pong that a migration-blind scorer provably
//!   takes on the same sample stream;
//! * **(c) min-cost hand-overs** — fairness claims forfeit measurably
//!   fewer joules than the old best-score policy on the same rig, and
//!   the fleet schedule still beats all-software and the best static
//!   placement.

use std::sync::OnceLock;

use inc::hw::{
    DeviceCapacity, DeviceId, PipelineBudget, Placement, ProgramResources, TierCost, Topology,
};
use inc::ondemand::{
    ClaimPolicy, FleetApp, FleetController, FleetControllerConfig, FleetSample, FleetShift,
    FleetTimeline, HostSample, PlacementAnalysis, ShiftReason,
};
use inc::power::EnergyParams;
use inc::sim::Nanos;
use inc_bench::rigs::PodFabricRig;

const HORIZON: Nanos = Nanos::from_secs(10);
const INTERVAL: Nanos = Nanos::from_millis(100);
/// The plateaus hold from 0.3 s to 7 s; shares are measured after the
/// initial placements settle.
const BUSY_FROM: Nanos = Nanos::from_millis(800);
const BUSY_TO: Nanos = Nanos::from_millis(7_000);

const KVS: usize = PodFabricRig::KVS_APP;
const ANA: usize = PodFabricRig::ANA_APP;
const DNS: usize = PodFabricRig::DNS_APP;
const EDGE: usize = PodFabricRig::EDGE_APP;
const PAX: usize = PodFabricRig::PAX_APP;

struct Runs {
    /// The standard min-cost run and its decision log.
    min_cost: FleetTimeline,
    min_cost_decisions: Vec<FleetShift>,
    /// The same scenario under the old best-score claim policy.
    best_score: FleetTimeline,
    best_score_decisions: Vec<FleetShift>,
    /// Pinned baselines.
    sw_energy_j: f64,
    natural_static_energy_j: f64,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let rig = PodFabricRig::new(PodFabricRig::contended_profiles(HORIZON));
        let mut min_ctl = PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::MinCost);
        let min_cost = rig.run(&mut min_ctl, HORIZON);
        let mut best_ctl = PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::BestScore);
        let best_score = rig.run(&mut best_ctl, HORIZON);
        let baseline = |placements: [Placement; 5]| {
            let mut pinned = PodFabricRig::pinned_controller(INTERVAL, placements);
            let t = rig.run(&mut pinned, HORIZON);
            assert!(t.shifts.is_empty(), "pinned baseline moved: {:?}", t.shifts);
            t.energy_j
        };
        Runs {
            min_cost,
            min_cost_decisions: min_ctl.shifts().to_vec(),
            best_score,
            best_score_decisions: best_ctl.shifts().to_vec(),
            sw_energy_j: baseline([Placement::Software; 5]),
            natural_static_energy_j: baseline(PodFabricRig::natural_static()),
        }
    })
}

/// Fraction of the busy-window intervals `app` spent device-resident.
fn resident_fraction(timeline: &FleetTimeline, app: usize) -> f64 {
    let rows: Vec<_> = timeline.per_app[app]
        .rows()
        .iter()
        .filter(|r| r.t >= BUSY_FROM && r.t < BUSY_TO)
        .collect();
    let resident = rows.iter().filter(|r| r.placement.is_offloaded()).count();
    resident as f64 / rows.len() as f64
}

/// Summed benefit of the fairness clips in a decision log, watts: the
/// rate at which hand-overs forfeit incumbent savings.
fn clipped_benefit_w(decisions: &[FleetShift]) -> f64 {
    decisions
        .iter()
        .filter(|s| s.reason == ShiftReason::FairShare && s.to == Placement::Software)
        .map(|s| s.benefit_w)
        .sum()
}

// --- (a) Locality: spills land near. ---

#[test]
fn spill_prefers_the_near_rack_over_an_equally_feasible_far_one() {
    let runs = runs();
    let fabric = PodFabricRig::fabric();
    let apps = PodFabricRig::fleet_apps();

    // The analytics tenant loses its home ToR to the KVS and spills.
    // The near small ToR (A1) and the far one (B1) have *identical*
    // budgets — equal raw benefit, equal capacity cost — so only the
    // distance matrix separates them, and every analytics entry must
    // land inside its own pod.
    let ana_entries: Vec<&FleetShift> = runs
        .min_cost_decisions
        .iter()
        .filter(|s| s.app == ANA && s.to.is_offloaded())
        .collect();
    assert!(!ana_entries.is_empty(), "analytics never spilled");
    for entry in &ana_entries {
        let d = entry.to.device().unwrap();
        assert_eq!(
            fabric.distance(apps[ANA].home, d),
            1,
            "analytics spilled {} tiers away: {entry:?}",
            fabric.distance(apps[ANA].home, d)
        );
    }
    assert_eq!(ana_entries[0].to, Placement::Device(PodFabricRig::TOR_A1));
    // The spilled placement's recorded benefit carries the intra-pod
    // haircut and link energy, and still cleared the offload floor.
    let spill = ana_entries[0];
    let probe = PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::MinCost);
    let expected = probe.effective_benefit_w(ANA, PodFabricRig::TOR_A1, spill.rate_pps);
    assert!((spill.benefit_w - expected).abs() < 1e-9);
    assert!(spill.benefit_w >= probe.config().fleet.min_benefit_w);

    // Everyone else offloads at home: no tenant pays a detour its own
    // ToR could have served.
    for (app, home) in [
        (KVS, PodFabricRig::TOR_A0),
        (DNS, PodFabricRig::TOR_B0),
        (EDGE, PodFabricRig::TOR_B1),
    ] {
        let first = runs
            .min_cost_decisions
            .iter()
            .find(|s| s.app == app && s.to.is_offloaded())
            .unwrap_or_else(|| panic!("app {app} never offloaded"));
        assert_eq!(first.to, Placement::Device(home), "app {app}");
    }
}

// --- (b) Migration cost: no ping-pong. ---

/// A square-wave hog and a steady flapper, both homed on the big ToR of
/// pod 0 and both too big for the small ToRs — the flapper's only spill
/// target is the big ToR of the *other* pod, across the core (0.70
/// haircut, so its home score is 1/0.70 ≈ 1.43× its remote score:
/// beyond the 1.25× stickiness band). A migration-blind scorer hops the
/// flapper home every time the hog's wave dips and back out every time
/// it returns; the amortised switchover debit suppresses the whole
/// oscillation.
fn pingpong_controller(migration_cost_j: f64) -> FleetController {
    let analysis = |slope_w_per_kpps: f64| PlacementAnalysis {
        software: EnergyParams {
            idle_w: 50.0,
            sleep_w: 0.0,
            active_w: 50.0 + slope_w_per_kpps * 1_000.0,
            peak_rate_pps: 1_000_000.0,
        },
        network: EnergyParams {
            idle_w: 52.0,
            sleep_w: 0.0,
            active_w: 52.1,
            peak_rate_pps: 10_000_000.0,
        },
    };
    let apps = vec![
        FleetApp {
            name: "hog".into(),
            demand: ProgramResources {
                stages: 12,
                sram_bytes: 44 << 20,
                parse_depth_bytes: 96,
            },
            analysis: analysis(0.27), // 25 W at 100 kpps
            home: PodFabricRig::TOR_A0,
            weight: 1.0,
        },
        FleetApp {
            name: "flapper".into(),
            demand: ProgramResources {
                stages: 7,
                sram_bytes: 40 << 20,
                parse_depth_bytes: 96,
            },
            analysis: analysis(0.10), // 8 W at 100 kpps
            home: PodFabricRig::TOR_A0,
            weight: 1.0,
        },
    ];
    let config = FleetControllerConfig {
        migration_cost_j,
        ..PodFabricRig::config(INTERVAL)
    };
    FleetController::new(config, PodFabricRig::fabric(), apps)
}

#[test]
fn migration_cost_suppresses_the_ping_pong_the_old_scorer_takes() {
    let sample = |rate: f64| FleetSample {
        host: HostSample {
            rapl_w: 50.0,
            app_cpu_util: rate / 1e6,
            hw_app_rate: rate,
        },
        offered_pps: rate,
    };
    // 8-sample square wave on the hog; the flapper is steady.
    let drive = |ctl: &mut FleetController| {
        for step in 1..=100u64 {
            let hog_hot = (step / 8) % 2 == 0;
            let s = [
                sample(if hog_hot { 100_000.0 } else { 500.0 }),
                sample(100_000.0),
            ];
            ctl.sample(Nanos::from_millis(100 * step), &s);
        }
    };
    let device_moves = |ctl: &FleetController| {
        let mut last: Option<DeviceId> = None;
        let mut moves = 0;
        for s in ctl.shifts().iter().filter(|s| s.app == 1) {
            if let Placement::Device(d) = s.to {
                if last.is_some_and(|p| p != d) {
                    moves += 1;
                }
                last = Some(d);
            }
        }
        moves
    };

    // The migration-blind scorer ping-pongs the flapper between the two
    // big ToRs with every hog wave.
    let mut blind = pingpong_controller(0.0);
    drive(&mut blind);
    assert!(
        device_moves(&blind) >= 3,
        "expected a ping-pong without migration pricing, saw {} moves: {:?}",
        device_moves(&blind),
        blind.shifts()
    );

    // The standard 5 J debit (2.5 W amortised at this interval) makes
    // the marginal hop home a loss: the flapper settles on the remote
    // big ToR and stays there through every hog cycle.
    let mut priced = pingpong_controller(5.0);
    drive(&mut priced);
    assert_eq!(
        device_moves(&priced),
        0,
        "migration-priced flapper still hopped: {:?}",
        priced.shifts()
    );
    assert_eq!(
        priced.placements()[1],
        Placement::Device(PodFabricRig::TOR_B0)
    );
    // Suppression is not paralysis: the hog still enters and leaves its
    // home device with every wave (software↔device shifts are not
    // debited).
    assert!(priced.shifts().iter().filter(|s| s.app == 0).count() >= 4);
}

// --- (c) Min-cost hand-overs beat best-score claims. ---

#[test]
fn min_cost_handovers_clip_fewer_joules_than_best_score_claims() {
    let runs = runs();

    // Both policies deliver the claimant its share of device time.
    for (name, t) in [
        ("min-cost", &runs.min_cost),
        ("best-score", &runs.best_score),
    ] {
        let pax = resident_fraction(t, PAX);
        assert!(pax >= 0.30, "{name}: paxos got {pax:.2} of the busy window");
    }

    // Under best-score the claimant grabs its own favourite device —
    // its home ToR, clipping the 10 W KVS anchor. Under min-cost the
    // KVS is never touched: the hand-over happens where the forfeited
    // benefit is smallest (the 2.5 W edge tenant, across the core).
    assert!(
        runs.best_score_decisions
            .iter()
            .any(|s| s.app == KVS && s.reason == ShiftReason::FairShare),
        "best-score claims never clipped the kvs anchor"
    );
    assert!(
        !runs
            .min_cost_decisions
            .iter()
            .any(|s| s.app == KVS && s.reason == ShiftReason::FairShare),
        "min-cost claims clipped the kvs anchor"
    );
    let kvs_share = resident_fraction(&runs.min_cost, KVS);
    assert!(kvs_share >= 0.90, "kvs anchor displaced: {kvs_share:.2}");

    // The clipped-benefit ledger: min-cost hand-overs forfeit measurably
    // less incumbent benefit than best-score claims on the same rig...
    let min_clip = clipped_benefit_w(&runs.min_cost_decisions);
    let best_clip = clipped_benefit_w(&runs.best_score_decisions);
    assert!(
        min_clip < 0.5 * best_clip,
        "min-cost clipped {min_clip:.1} W vs best-score {best_clip:.1} W"
    );
    // ...and the forfeit shows up as metered joules.
    assert!(
        runs.min_cost.energy_j + 2.0 < runs.best_score.energy_j,
        "min-cost {:.1} J vs best-score {:.1} J",
        runs.min_cost.energy_j,
        runs.best_score.energy_j
    );

    // The fleet schedule beats all-software AND the best static
    // placement (the operator's plateau-optimal assignment): on-demand
    // parks every device through the valleys that statics pay for.
    assert!(
        runs.natural_static_energy_j < runs.sw_energy_j,
        "the static baseline should at least beat all-software"
    );
    assert!(
        runs.min_cost.energy_j < runs.sw_energy_j,
        "fleet {:.1} J vs all-software {:.1} J",
        runs.min_cost.energy_j,
        runs.sw_energy_j
    );
    assert!(
        runs.min_cost.energy_j < runs.natural_static_energy_j,
        "fleet {:.1} J vs best static {:.1} J",
        runs.min_cost.energy_j,
        runs.natural_static_energy_j
    );
    assert!(
        runs.natural_static_energy_j - runs.min_cost.energy_j > 4.0,
        "fleet win over the static baseline is not material: {:.1} J vs {:.1} J",
        runs.min_cost.energy_j,
        runs.natural_static_energy_j
    );
}

// --- Invariants shared with the other e2e suites. ---

#[test]
fn budgets_hold_and_handovers_are_deliberate() {
    let runs = runs();
    let apps = PodFabricRig::fleet_apps();
    let demands: Vec<ProgramResources> = apps.iter().map(|a| a.demand).collect();
    let fabric = PodFabricRig::fabric();
    let budgets: Vec<PipelineBudget> = fabric
        .device_ids()
        .map(|d| fabric.device(d).budget())
        .collect();

    for (name, t) in [
        ("min-cost", &runs.min_cost),
        ("best-score", &runs.best_score),
    ] {
        // Replay every interval's placement vector into fresh ledgers:
        // no device is ever oversubscribed, clips included.
        let n_rows = t.per_app[KVS].rows().len();
        for i in 0..n_rows {
            for (di, dev) in fabric.device_ids().enumerate() {
                let mut ledger = DeviceCapacity::new(budgets[di]);
                for app in [KVS, ANA, DNS, EDGE, PAX] {
                    if t.per_app[app].rows()[i].placement == Placement::Device(dev) {
                        assert!(
                            ledger.admit(app as u64, demands[app]).is_ok(),
                            "{name} row {i}: {dev} oversubscribed"
                        );
                    }
                }
            }
        }
        // Bounded decision count: a 10 s run is a handful of deliberate
        // hand-overs, not a thrash.
        assert!(
            t.shifts.len() <= 30,
            "{name}: flapping, {} shifts {:?}",
            t.shifts.len(),
            t.shifts
        );
    }

    // Consecutive device entries of the claimant are separated by at
    // least the starvation window.
    let entries: Vec<Nanos> = runs
        .min_cost_decisions
        .iter()
        .filter(|s| s.app == PAX && s.to.is_offloaded())
        .map(|s| s.at)
        .collect();
    let window = INTERVAL.mul(u64::from(PodFabricRig::STARVATION_WINDOW));
    for pair in entries.windows(2) {
        assert!(
            pair[1] - pair[0] >= window,
            "paxos re-entered after {} (< {window})",
            pair[1] - pair[0]
        );
    }
}

// --- The distance matrix itself, at the API level. ---

#[test]
fn topology_constructors_validate_and_rank_tiers() {
    // Constructors reject locality-inverting factors (regression for
    // the unvalidated CrossTorPenalty this model replaces).
    let bad = TierCost {
        benefit_factor: 1.5,
        ..TierCost::standard_intra_pod()
    };
    assert!(std::panic::catch_unwind(|| {
        Topology::fat_tree(2, 2, bad, TierCost::standard_inter_pod())
    })
    .is_err());

    // The rig's matrix: near strictly beats far on every axis.
    let topo = PodFabricRig::fabric().topology().clone();
    let home = PodFabricRig::TOR_A0;
    assert_eq!(topo.distance(home, home), 0);
    assert_eq!(topo.distance(home, PodFabricRig::TOR_A1), 1);
    assert_eq!(topo.distance(home, PodFabricRig::TOR_B0), 2);
    assert!(
        topo.benefit_factor(home, PodFabricRig::TOR_A1)
            > topo.benefit_factor(home, PodFabricRig::TOR_B1)
    );
    assert!(
        topo.extra_latency(home, PodFabricRig::TOR_A1)
            < topo.extra_latency(home, PodFabricRig::TOR_B1)
    );
    assert!(
        topo.link_energy_w(home, PodFabricRig::TOR_A1, 100_000.0)
            < topo.link_energy_w(home, PodFabricRig::TOR_B1, 100_000.0)
    );
}
