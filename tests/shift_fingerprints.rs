//! Pinned schedules of the model-driven rigs: every fleet run the
//! examples and rig helpers make on `ContendedFabricRig`,
//! `PodFabricRig` and `EconomicsRig` — the scheduled days and their
//! static baselines — held to the exact shift log (an FNV-1a
//! fingerprint, floats by `to_bits`) and the exact metered energy it
//! produced when the constants were captured.
//!
//! The fleet scheduler is a single incremental pipeline; these
//! constants were captured while a second, flat re-score engine still
//! existed and answered for `FleetController`, so they are the evidence
//! that retiring that engine changed no schedule. The packet-level
//! rigs' days are pinned the same way in `tests/shared_device.rs` and
//! `tests/multi_tor.rs`, next to the runs they already share.

use inc::hw::Placement;
use inc::ondemand::{ClaimPolicy, FleetController, Objective};
use inc::sim::Nanos;
use inc_bench::economics::{shift_log_fingerprint, EconomicsRig, SKEW_PER_GB};
use inc_bench::rigs::{ContendedFabricRig, PodFabricRig};

const INTERVAL: Nanos = Nanos::from_millis(100);

/// One pinned run: label, shift-log fingerprint, metered-energy bits.
type Pin = (&'static str, u64, u64);

/// Asserts every run against its pin, reporting all mismatches at once.
fn check(runs: &[Pin], pins: &[Pin]) {
    assert_eq!(runs.len(), pins.len());
    let mismatched: Vec<String> = runs
        .iter()
        .zip(pins)
        .filter(|(run, pin)| run != pin)
        .map(|(run, pin)| format!("{run:#x?} (pinned {pin:#x?})"))
        .collect();
    assert!(mismatched.is_empty(), "schedules moved: {mismatched:#?}");
}

#[test]
fn contended_fabric_schedules_are_pinned() {
    const HORIZON: Nanos = Nanos::from_secs(8);
    let rig = ContendedFabricRig::new(ContendedFabricRig::contended_profiles(HORIZON));
    let run = |label: &'static str, mut ctl: FleetController| {
        let timeline = rig.run(&mut ctl, HORIZON);
        (
            label,
            shift_log_fingerprint(ctl.shifts()),
            timeline.energy_j.to_bits(),
        )
    };
    let runs = [
        run("fair", ContendedFabricRig::fleet_controller(INTERVAL)),
        run(
            "pure-benefit",
            ContendedFabricRig::pure_benefit_controller(INTERVAL),
        ),
        run(
            "pinned all-software",
            ContendedFabricRig::pinned_controller(INTERVAL, [Placement::Software; 4]),
        ),
    ];
    check(
        &runs,
        &[
            ("fair", 0x5856_cba6_2d5e_52ef, 0x409b_8803_8674_f9b0),
            ("pure-benefit", 0x7168_ac20_5632_c07e, 0x409b_5030_34b0_e1c5),
            (
                "pinned all-software",
                0xcbf2_9ce4_8422_2325,
                0x409c_fb0a_3d70_a3e5,
            ),
        ],
    );
}

#[test]
fn pod_fabric_schedules_are_pinned() {
    const HORIZON: Nanos = Nanos::from_secs(10);
    let rig = PodFabricRig::new(PodFabricRig::contended_profiles(HORIZON));
    let run = |label: &'static str, mut ctl: FleetController| {
        let timeline = rig.run(&mut ctl, HORIZON);
        (
            label,
            shift_log_fingerprint(ctl.shifts()),
            timeline.energy_j.to_bits(),
        )
    };
    let runs = [
        run(
            "min-cost",
            PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::MinCost),
        ),
        run(
            "best-score",
            PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::BestScore),
        ),
        run(
            "pinned all-software",
            PodFabricRig::pinned_controller(INTERVAL, [Placement::Software; 5]),
        ),
        run(
            "pinned natural static",
            PodFabricRig::pinned_controller(INTERVAL, PodFabricRig::natural_static()),
        ),
    ];
    check(
        &runs,
        &[
            ("min-cost", 0xd9f8_5f7b_f0e2_2333, 0x40a4_5484_b3dd_11c3),
            ("best-score", 0x0351_b90b_de30_2db0, 0x40a4_816b_c9be_2499),
            (
                "pinned all-software",
                0xcbf2_9ce4_8422_2325,
                0x40a5_6efc_ac08_3136,
            ),
            (
                "pinned natural static",
                0xcbf2_9ce4_8422_2325,
                0x40a4_6c66_8631_071c,
            ),
        ],
    );
}

#[test]
fn economics_schedules_are_pinned() {
    let run = |label: &'static str, objective: Objective| {
        let run = EconomicsRig::run(objective);
        (
            label,
            shift_log_fingerprint(&run.shifts),
            run.energy_j.to_bits(),
        )
    };
    let runs = [
        run("joules", Objective::Joules),
        run(
            "uniform dollar",
            Objective::Dollar {
                per_joule: 1.0,
                per_gb_moved: 0.0,
            },
        ),
        run(
            "skewed dollar",
            Objective::Dollar {
                per_joule: 1.0,
                per_gb_moved: SKEW_PER_GB,
            },
        ),
    ];
    check(
        &runs,
        &[
            ("joules", 0xd9f8_5f7b_f0e2_2333, 0x40a4_5484_b3dd_11c3),
            (
                "uniform dollar",
                0xd9f8_5f7b_f0e2_2333,
                0x40a4_5484_b3dd_11c3,
            ),
            (
                "skewed dollar",
                0x1839_413b_76c1_16b2,
                0x40a4_8d1f_21bf_6d70,
            ),
        ],
    );
}
