//! The price-aware placement rig: the same contended
//! [`PodFabricRig`] day scheduled under different
//! [`Objective`]s.
//!
//! The experiment behind `examples/economics.rs` and the CI economics
//! floor: run the five-tenant contended plateau three times —
//!
//! * **joules** — the default energy objective (the historical
//!   behaviour, bit for bit);
//! * **uniform dollar** — `Dollar { per_joule: 1.0, per_gb_moved: 0.0 }`,
//!   which must *degenerate* to the joule schedule exactly (same shift
//!   log, same placements, same energy — a pure unit relabel);
//! * **skewed dollar** — a tariff that charges for detour *bytes* as
//!   well as joules, which makes the analytics tenant's spill onto the
//!   near small ToR uneconomic: its detour-priced value falls under the
//!   admission floor, so it stays in host software and the placement
//!   *set* changes even though no energy constant moved.
//!
//! That pair of facts — uniform prices reproduce the energy optimum
//! bit-for-bit, skewed prices pick a different placement set — is what
//! distinguishes a genuinely pluggable objective from a rescaled one,
//! and it is exactly what the `economics.json` artifact asserts.

use inc_hw::Placement;
use inc_ondemand::{
    ClaimPolicy, FleetController, FleetControllerConfig, FleetShift, FleetTimeline, Objective,
};
use inc_sim::Nanos;

use crate::rigs::PodFabricRig;

/// The day length every objective replays.
pub const HORIZON: Nanos = Nanos::from_secs(10);
/// Sampling interval of the control loop.
pub const INTERVAL: Nanos = Nanos::from_millis(100);
/// Probe instant for the steady contended placements: deep inside the
/// plateau (which runs from 0.3 s to 7 s), after every spill and
/// fairness claim has settled.
pub const PROBE: Nanos = Nanos::from_secs(5);

/// The skewed tariff: one dollar per joule plus a data-movement charge
/// per detour gigabyte steep enough that the analytics tenant's
/// intra-pod spill (≈ 0.27 GB/s of request+response bytes through the
/// aggregation switch) no longer clears the admission floor.
pub const SKEW_PER_GB: f64 = 15.0;

/// One objective's replay of the contended day.
#[derive(Clone, Debug)]
pub struct EconomicsRun {
    /// The objective the controller priced with.
    pub objective: Objective,
    /// Placements at [`PROBE`], indexed like
    /// [`PodFabricRig::fleet_apps`].
    pub placements: Vec<Placement>,
    /// The full-horizon shift log.
    pub shifts: Vec<FleetShift>,
    /// Metered fleet energy over the full horizon, joules (metered
    /// energy is objective-independent: prices steer decisions, meters
    /// stay physical).
    pub energy_j: f64,
}

/// The three-run comparison the economics artifact is built from.
#[derive(Clone, Debug)]
pub struct EconomicsReport {
    /// The default energy objective.
    pub joules: EconomicsRun,
    /// `Dollar { per_joule: 1.0, per_gb_moved: 0.0 }`.
    pub uniform: EconomicsRun,
    /// `Dollar { per_joule: 1.0, per_gb_moved: SKEW_PER_GB }`.
    pub skewed: EconomicsRun,
}

/// The price-aware placement rig (all state lives in
/// [`PodFabricRig`]; this type namespaces the objective sweep).
pub struct EconomicsRig;

impl EconomicsRig {
    /// A fleet controller over the [`PodFabricRig`] fabric pricing with
    /// `objective` (min-cost hand-overs, the rig's standard economics
    /// otherwise).
    pub fn controller(objective: Objective) -> FleetController {
        let config = FleetControllerConfig {
            claim_policy: ClaimPolicy::MinCost,
            objective,
            ..PodFabricRig::config(INTERVAL)
        };
        FleetController::new(config, PodFabricRig::fabric(), PodFabricRig::fleet_apps())
    }

    /// Replays the contended day under `objective`: placements are
    /// probed mid-plateau, the shift log and energy cover the full
    /// horizon.
    pub fn run(objective: Objective) -> EconomicsRun {
        let rig = PodFabricRig::new(PodFabricRig::contended_profiles(HORIZON));
        // Probe run: stop mid-plateau and read the settled placements.
        let mut probe = Self::controller(objective);
        rig.run(&mut probe, PROBE);
        let placements = probe.placements().to_vec();
        // Full run: the complete day for the shift log and the meter.
        let mut full = Self::controller(objective);
        let timeline: FleetTimeline = rig.run(&mut full, HORIZON);
        EconomicsRun {
            objective,
            placements,
            shifts: full.shifts().to_vec(),
            energy_j: timeline.energy_j,
        }
    }

    /// Runs all three objectives.
    pub fn report() -> EconomicsReport {
        EconomicsReport {
            joules: Self::run(Objective::Joules),
            uniform: Self::run(Objective::Dollar {
                per_joule: 1.0,
                per_gb_moved: 0.0,
            }),
            skewed: Self::run(Objective::Dollar {
                per_joule: 1.0,
                per_gb_moved: SKEW_PER_GB,
            }),
        }
    }
}

/// Bitwise equality of two shift logs: every field, including the
/// priced `benefit_w`, compared by `to_bits` — the degeneration
/// contract (`x`, `1.0 × x` and `x − 0.0` must be the *same float*,
/// not merely close).
pub fn shift_logs_identical(a: &[FleetShift], b: &[FleetShift]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.at == y.at
                && x.app == y.app
                && x.to == y.to
                && x.rate_pps.to_bits() == y.rate_pps.to_bits()
                && x.benefit_w.to_bits() == y.benefit_w.to_bits()
                && x.reason == y.reason
        })
}

/// FNV-1a fingerprint of a shift log over the same fields
/// [`shift_logs_identical`] compares (time, app, target, reason, and the
/// priced rate and benefit by `to_bits`): one `u64` that pins a whole
/// schedule, so a test can hold a run to the exact decisions it made
/// when the constant was captured.
pub fn shift_log_fingerprint(shifts: &[FleetShift]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in shifts {
        eat(s.at.as_nanos());
        eat(s.app as u64);
        eat(match s.to {
            Placement::Software => u64::MAX,
            Placement::Device(d) => u64::from(d.0),
        });
        eat(s.reason as u64);
        eat(s.rate_pps.to_bits());
        eat(s.benefit_w.to_bits());
    }
    hash
}

impl EconomicsReport {
    /// Does the skewed tariff pick a different placement *set* than the
    /// energy objective? (The headline claim: prices change decisions,
    /// not just units.)
    pub fn placement_sets_differ(&self) -> bool {
        self.joules.placements != self.skewed.placements
    }

    /// Does the uniform tariff reproduce the energy schedule exactly —
    /// same probed placements *and* a bit-identical shift log?
    pub fn uniform_matches_joules(&self) -> bool {
        self.joules.placements == self.uniform.placements
            && shift_logs_identical(&self.joules.shifts, &self.uniform.shifts)
    }

    /// The economics metrics for `economics.json` (1.0 = holds): the
    /// two headline booleans plus the evidence behind them.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let offloaded = |run: &EconomicsRun| {
            run.placements
                .iter()
                .filter(|p| matches!(p, Placement::Device(_)))
                .count() as f64
        };
        vec![
            (
                "placement_sets_differ",
                f64::from(self.placement_sets_differ()),
            ),
            (
                "uniform_matches_joules",
                f64::from(self.uniform_matches_joules()),
            ),
            ("joules_offloaded", offloaded(&self.joules)),
            ("skewed_offloaded", offloaded(&self.skewed)),
            ("joules_shifts", self.joules.shifts.len() as f64),
            ("skewed_shifts", self.skewed.shifts.len() as f64),
            ("joules_energy_j", self.joules.energy_j),
            ("uniform_energy_j", self.uniform.energy_j),
            ("skewed_energy_j", self.skewed.energy_j),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_dollar_degenerates_to_joules_bit_for_bit() {
        let report = EconomicsRig::report();
        assert!(report.uniform_matches_joules());
        assert_eq!(
            report.uniform.energy_j.to_bits(),
            report.joules.energy_j.to_bits()
        );
    }

    #[test]
    fn skewed_tariff_changes_the_placement_set() {
        let report = EconomicsRig::report();
        assert!(report.placement_sets_differ());
        // The analytics tenant's near-spill is what the byte tariff
        // prices out: offloaded under joules, in software under the
        // skewed dollar, while the home-resident anchors stay put.
        assert!(matches!(
            report.joules.placements[PodFabricRig::ANA_APP],
            Placement::Device(_)
        ));
        assert_eq!(
            report.skewed.placements[PodFabricRig::ANA_APP],
            Placement::Software
        );
        assert_eq!(
            report.joules.placements[PodFabricRig::KVS_APP],
            report.skewed.placements[PodFabricRig::KVS_APP]
        );
    }
}
