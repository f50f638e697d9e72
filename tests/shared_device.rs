//! End-to-end shared-device scheduling: KVS (LaKe) and DNS (Emu) tenants
//! contend for one capacity-bounded programmable device under offset
//! diurnal load, arbitrated by the `FleetController`'s
//! benefit-per-capacity knapsack.
//!
//! The device budget admits only one of the two programs at a time, so
//! the run exercises the full arbitration story: offload of the first
//! tenant through its peak, a preemptive hand-over when the second
//! tenant's benefit-per-capacity overtakes, and an energy total that
//! beats every static alternative.

use std::sync::OnceLock;

use inc::hw::{DeviceCapacity, Placement};
use inc::kvs::KvsClient;
use inc::ondemand::{FleetController, FleetShift, FleetTimeline};
use inc::sim::Nanos;
use inc_bench::economics::shift_log_fingerprint;
use inc_bench::rigs::SharedDeviceRig;

const KEYS: u64 = 512;
const NAMES: u64 = 512;
const PERIOD: Nanos = Nanos::from_millis(3_500);
const HORIZON: Nanos = Nanos::from_millis(3_500);
const INTERVAL: Nanos = Nanos::from_millis(150);

fn run(controller: &mut FleetController) -> (SharedDeviceRig, FleetTimeline) {
    // The canonical contended scenario: KVS "day" peaks at ~1.0 s, DNS
    // at ~2.2 s of the 3.5 s period, with overlapping busy windows.
    let (kvs, dns) = SharedDeviceRig::contended_profiles(PERIOD);
    let mut rig = SharedDeviceRig::new(42, KEYS, NAMES, kvs, dns);
    let timeline = rig.run(controller, HORIZON);
    (rig, timeline)
}

/// The fleet-controlled run, shared between tests (the simulation is
/// deterministic, and both tests only read the outcome).
struct FleetRun {
    timeline: FleetTimeline,
    decisions: Vec<FleetShift>,
    kvs_stats: inc::kvs::ClientStats,
    dns_wrong: u64,
}

fn fleet_run() -> &'static FleetRun {
    static RUN: OnceLock<FleetRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut ctl = SharedDeviceRig::fleet_controller(INTERVAL);
        let (rig, timeline) = run(&mut ctl);
        FleetRun {
            timeline,
            decisions: ctl.shifts().to_vec(),
            kvs_stats: rig.sim.node_ref::<KvsClient>(rig.kvs_client).stats(),
            dns_wrong: rig
                .sim
                .node_ref::<inc::dns::DnsClient>(rig.dns_client)
                .stats()
                .wrong,
        }
    })
}

#[test]
fn fleet_arbitrates_the_shared_device_and_beats_every_static_schedule() {
    const KVS: usize = SharedDeviceRig::KVS_APP;
    const DNS: usize = SharedDeviceRig::DNS_APP;

    let shared = fleet_run();
    let fleet = &shared.timeline;

    // --- The capacity bound held at every instant: the device never
    // hosted both programs.
    for (rk, rd) in fleet.per_app[KVS]
        .rows()
        .iter()
        .zip(fleet.per_app[DNS].rows())
    {
        assert!(
            !(rk.placement == Placement::HARDWARE && rd.placement == Placement::HARDWARE),
            "both tenants hardware-resident at {}",
            rk.t
        );
    }

    // --- Placements stabilised: one offload window per tenant, no
    // flapping (the hand-over makes at most 4-5 shifts total).
    let kvs_shifts = fleet.shifts_for(KVS);
    let dns_shifts = fleet.shifts_for(DNS);
    assert!(
        fleet.shifts.len() <= 5,
        "flapping: {} shifts {:?}",
        fleet.shifts.len(),
        fleet.shifts
    );
    assert_eq!(kvs_shifts.first().map(|s| s.1), Some(Placement::HARDWARE));
    assert_eq!(dns_shifts.first().map(|s| s.1), Some(Placement::HARDWARE));

    // --- Hysteresis respected: nothing can shift before the sustain
    // window completes, and the KVS (whose peak comes first) leads.
    let sustain = Nanos::from_millis(150 * 3);
    let first = fleet.shifts.first().expect("at least one shift");
    assert_eq!(first.1, KVS, "the first-peaking tenant offloads first");
    assert_eq!(first.2, Placement::HARDWARE);
    assert!(first.0 >= sustain, "shift at {} before sustain", first.0);
    // It fired while the KVS was climbing toward its peak, not at dawn.
    assert!(
        first.0 >= Nanos::from_millis(600) && first.0 <= Nanos::from_millis(1_300),
        "kvs offload at {}",
        first.0
    );

    // --- The hand-over: in one sampling interval the scheduler evicted
    // the KVS and admitted the DNS (preemption by benefit-per-capacity).
    let handover = kvs_shifts
        .iter()
        .find(|(_, p)| *p == Placement::Software)
        .map(|(t, _)| *t)
        .expect("kvs must be evicted when dns overtakes");
    assert!(
        dns_shifts
            .iter()
            .any(|&(t, p)| t == handover && p == Placement::HARDWARE),
        "dns did not take over at {handover}: {dns_shifts:?}"
    );

    // --- The knapsack ordering was the reason: at the hand-over the DNS
    // offered more benefit per capacity unit than the incumbent KVS.
    let apps = SharedDeviceRig::fleet_apps();
    let ledger = DeviceCapacity::new(SharedDeviceRig::shared_budget());
    let cost = |app: usize| ledger.cost_units(&apps[app].demand);
    let at_handover = |app: usize| {
        shared
            .decisions
            .iter()
            .find(|s| s.at == handover && s.app == app)
            .expect("both tenants shifted at the hand-over")
    };
    let dns_score = at_handover(DNS).benefit_w / cost(DNS);
    let kvs_score = at_handover(KVS).benefit_w / cost(KVS);
    assert!(
        dns_score > kvs_score,
        "hand-over without a score advantage: dns {dns_score:.1} vs kvs {kvs_score:.1}"
    );

    // --- Correctness held across every shift.
    assert_eq!(shared.kvs_stats.corrupt, 0);
    assert_eq!(shared.kvs_stats.not_found, 0);
    assert_eq!(shared.dns_wrong, 0);

    // --- Energy: the on-demand schedule beats static all-software AND
    // the best single-app static offload over the same diurnal day.
    let mut all_sw =
        SharedDeviceRig::pinned_controller(INTERVAL, [Placement::Software, Placement::Software]);
    let (_, sw_timeline) = run(&mut all_sw);
    let mut kvs_hw =
        SharedDeviceRig::pinned_controller(INTERVAL, [Placement::HARDWARE, Placement::Software]);
    let (_, kvs_timeline) = run(&mut kvs_hw);
    let mut dns_hw =
        SharedDeviceRig::pinned_controller(INTERVAL, [Placement::Software, Placement::HARDWARE]);
    let (_, dns_timeline) = run(&mut dns_hw);

    // The pinned baselines really were static.
    assert!(sw_timeline.shifts.is_empty());
    assert!(kvs_timeline.shifts.is_empty());
    assert!(dns_timeline.shifts.is_empty());

    let best_static = kvs_timeline.energy_j.min(dns_timeline.energy_j);
    assert!(
        fleet.energy_j < sw_timeline.energy_j,
        "fleet {:.1} J vs all-software {:.1} J",
        fleet.energy_j,
        sw_timeline.energy_j
    );
    assert!(
        fleet.energy_j < best_static,
        "fleet {:.1} J vs best static {:.1} J",
        fleet.energy_j,
        best_static
    );
    // The savings are material, not float noise (>1 % of the day's energy).
    assert!(sw_timeline.energy_j - fleet.energy_j > 0.01 * sw_timeline.energy_j);
    assert!(best_static - fleet.energy_j > 5.0);
}

#[test]
fn per_app_timelines_record_the_offload_windows() {
    let fleet = &fleet_run().timeline;
    // Each tenant's timeline shows hardware placement around its own peak
    // and software placement around the other's.
    let placement_at = |app: usize, t: Nanos| {
        fleet.per_app[app]
            .rows()
            .iter()
            .find(|r| r.t >= t)
            .map(|r| r.placement)
            .unwrap()
    };
    assert_eq!(
        placement_at(SharedDeviceRig::KVS_APP, Nanos::from_millis(1_300)),
        Placement::HARDWARE
    );
    assert_eq!(
        placement_at(SharedDeviceRig::DNS_APP, Nanos::from_millis(1_300)),
        Placement::Software
    );
    assert_eq!(
        placement_at(SharedDeviceRig::KVS_APP, Nanos::from_millis(2_400)),
        Placement::Software
    );
    assert_eq!(
        placement_at(SharedDeviceRig::DNS_APP, Nanos::from_millis(2_400)),
        Placement::HARDWARE
    );
    // The weighted throughput statistics see the full offered load: the
    // mean over the whole day is far above the valley rate.
    let kvs_mean = fleet.per_app[SharedDeviceRig::KVS_APP]
        .mean_throughput_pps(Nanos::ZERO, HORIZON)
        .unwrap();
    assert!(kvs_mean > 25_000.0, "kvs mean {kvs_mean}");
    // Hardware-resident intervals answer fast: the medians over the
    // offload window sit well below the software-era medians.
    let kvs = &fleet.per_app[SharedDeviceRig::KVS_APP];
    let sw_lat = kvs
        .median_latency_ns(Nanos::ZERO, Nanos::from_millis(900))
        .unwrap();
    let hw_lat = kvs
        .median_latency_ns(Nanos::from_millis(1_200), Nanos::from_millis(1_800))
        .unwrap();
    assert!(
        sw_lat as f64 / hw_lat as f64 > 2.0,
        "sw {sw_lat} vs hw {hw_lat}"
    );
}

/// The fleet day's schedule, pinned bit for bit: the shift log's FNV-1a
/// fingerprint and the metered energy (see `tests/shift_fingerprints.rs`).
#[test]
fn fleet_schedule_is_pinned() {
    let shared = fleet_run();
    assert_eq!(
        (
            shift_log_fingerprint(&shared.decisions),
            shared.timeline.energy_j.to_bits(),
        ),
        (0xa421_f189_23fb_279b, 0x4077_d23e_0ef8_a9cb)
    );
}
