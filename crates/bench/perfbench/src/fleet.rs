//! `fleet_1000`: `MegaFabricRig` with 1000 tenants on `fat_tree(8, 16)`
//! driven into the incremental `HierarchicalController`.
//!
//! There are no packets: the controller pipeline does all the work. The
//! repetitions run `MegaFabricRig::run`'s tick loop here: untraced, in
//! timed laps of [`LAP_TICKS`] ticks; traced, timing `tick_samples` and
//! `sample()`. One untimed `MegaFabricRig::run` per run checks that the
//! loop decides exactly as the rig does.

use std::cell::RefCell;
use std::ops::RangeInclusive;
use std::rc::Rc;
use std::time::Instant;

use inc_bench::rigs::MegaFabricRig;
use inc_ondemand::{ArbiterStats, ArbitrationMode, HierarchicalController, Placement};
use inc_sim::Nanos;

use crate::profile::{Frame, Profiler, Stopwatch};
use crate::report::{layer_timings, matches_first, median, Figure, Laps, Outcome};
use crate::traced::{traced_rep, Trace};
use crate::Args;

const TENANTS: usize = 1000;
/// Controller intervals per repetition.
const TICKS: u64 = 20_000;
/// Controller intervals per timed lap (~35 ms of host time).
const LAP_TICKS: u64 = 1_000;
/// Intervals the full re-score is compared with the incremental
/// pipeline over.
const PREFIX_TICKS: u64 = 300;

/// What a repetition decided.
#[derive(Clone, Debug, PartialEq)]
struct Decisions {
    shifts: Vec<String>,
    stats: ArbiterStats,
    placements: Vec<Placement>,
}

fn decisions(ctl: &HierarchicalController) -> Decisions {
    Decisions {
        shifts: ctl.shifts().iter().map(|s| format!("{s:?}")).collect(),
        stats: ctl.stats(),
        placements: ctl.placements().to_vec(),
    }
}

/// Tenants resident on a device whose stage or SRAM budget their
/// demands exceed.
fn overcommitted(ctl: &HierarchicalController) -> u64 {
    let fabric = ctl.fabric();
    let mut used = vec![(0u32, 0u64, 0u64); fabric.device_count()];
    for (app, p) in ctl.placements().iter().enumerate() {
        if let Placement::Device(d) = p {
            let demand = ctl.apps()[app].demand;
            let u = &mut used[d.index()];
            u.0 += demand.stages;
            u.1 += demand.sram_bytes;
            u.2 += 1;
        }
    }
    fabric
        .device_ids()
        .zip(&used)
        .filter(|(d, u)| {
            let budget = fabric.device(*d).budget();
            u.0 > budget.stages || u.1 > budget.sram_bytes
        })
        .map(|(_, u)| u.2)
        .sum()
}

/// Builds the rig and its controller (the set-up the benchmark times).
fn setup(seed: u64, mode: ArbitrationMode) -> (MegaFabricRig, HierarchicalController) {
    let rig = MegaFabricRig::new(TENANTS, seed);
    let ctl = rig.controller(mode);
    (rig, ctl)
}

/// Drives the intervals `ticks` with the benchmark's own loop, timing
/// the sample generation and each controller call when traced, and
/// checking device budgets after every tick when `check_each_tick`.
fn drive(
    rig: &mut MegaFabricRig,
    ctl: &mut HierarchicalController,
    ticks: RangeInclusive<u64>,
    trace: Option<&Trace>,
    check_each_tick: bool,
) -> u64 {
    let mut over = 0;
    for tick in ticks {
        let now = Nanos::from_secs(tick);
        match trace {
            Some(t) => {
                t.borrow_mut().enter(Frame::Gen);
                let samples = rig.tick_samples(tick);
                let mut p = t.borrow_mut();
                p.exit(Frame::Gen);
                p.enter(Frame::Sample);
                ctl.sample(now, samples);
                p.exit(Frame::Sample);
            }
            None => {
                let samples = rig.tick_samples(tick);
                ctl.sample(now, samples);
            }
        }
        if check_each_tick {
            over += overcommitted(ctl);
        }
    }
    over
}

/// One untraced repetition of `TICKS` ticks, timed in laps of
/// `LAP_TICKS`.
fn timed_rep(seed: u64, mode: ArbitrationMode) -> (Vec<f64>, HierarchicalController) {
    let (mut rig, mut ctl) = setup(seed, mode);
    let mut watch = Stopwatch::start();
    for lap in 0..TICKS / LAP_TICKS {
        let first = lap * LAP_TICKS + 1;
        drive(
            &mut rig,
            &mut ctl,
            first..=first + LAP_TICKS - 1,
            None,
            false,
        );
        watch.lap();
    }
    (watch.into_laps(), ctl)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mode = ArbitrationMode::Incremental;

    // Timed runs, each followed by timed set-up blocks and runs of the
    // reference kernel. With tracing on, a traced run follows each untraced
    // one, so both sample the same host conditions; with it off, one traced
    // run at the end checks that tracing changes no decision.
    let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
    let mut laps = Laps::default();
    let mut between = crate::Between::default();
    let mut traced_walls = Vec::new();
    let mut first = None;
    let mut repeatable = true;
    let mut traced_same = true;
    let mut peak_rss;
    let start = Instant::now();
    loop {
        let (rep_laps, ctl) = timed_rep(args.seed, mode);
        laps.push(&rep_laps);
        out.attempted += TENANTS as u64;
        out.failed += overcommitted(&ctl);
        repeatable &= matches_first(&mut first, decisions(&ctl));
        between.sample(|| setup(args.seed, mode));
        peak_rss = crate::host::peak_rss_mib();
        let last = laps.reps() >= crate::MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds;
        if args.trace || last {
            let (mut rig, mut ctl) = setup(args.seed, mode);
            traced_rep(&trace, &mut traced_walls, || {
                trace.borrow_mut().enter(Frame::Rep);
                drive(&mut rig, &mut ctl, 1..=TICKS, Some(&trace), false);
                trace.borrow_mut().exit(Frame::Rep);
            });
            traced_same &= first.as_ref() == Some(&decisions(&ctl));
            if last {
                break;
            }
        }
    }
    let first = first.expect("at least one repetition");
    out.check(
        repeatable,
        "repeated runs with one seed decided differently",
    );
    out.check(
        traced_same,
        "the traced loop decided differently from the untraced one",
    );
    let (mut rig, mut ctl) = setup(args.seed, mode);
    rig.run(&mut ctl, TICKS);
    out.check(
        first == decisions(&ctl),
        "the benchmark's tick loop decided differently from MegaFabricRig::run",
    );
    out.check(
        out.failed == 0,
        format!("{} tenants on over-budget devices", out.failed),
    );

    // Full re-score and incremental decide identically on a prefix, and
    // neither ever overcommits a device.
    let mut prefix = Vec::new();
    for m in [ArbitrationMode::FullRescore, ArbitrationMode::Incremental] {
        let (mut rig, mut ctl) = setup(args.seed, m);
        let over = drive(&mut rig, &mut ctl, 1..=PREFIX_TICKS, None, true);
        out.check(
            over == 0,
            format!("{m:?}: {over} overcommitted tenant-ticks"),
        );
        prefix.push(decisions(&ctl).shifts);
    }
    out.check(
        prefix[0] == prefix[1],
        "full re-score and incremental shift logs differ on the prefix",
    );
    out.check(
        !prefix[0].is_empty(),
        "the prefix made no decisions to compare",
    );

    let p = trace.borrow();
    out.check(p.balanced(), "unbalanced trace spans");

    let setup_s = between.setup_s();
    let wall = laps.fast_s() * between.scale();
    let [setup_fig, ref_fig] = between.figures();
    let pairs = (TENANTS as u64 * TICKS) as f64;
    out.figures = vec![
        setup_fig,
        ref_fig,
        Figure::new("wall_s", wall, "s")
            .note(laps.note(between.scale(), &format!("{TICKS} ticks"))),
        Figure::new("peak_rss_mib", peak_rss, "MiB"),
        Figure::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!(
            "{} overcommitted of {} final placements",
            out.failed, out.attempted
        )),
        Figure::new("decisions_per_s", pairs / wall, "1/s").note(format!(
            "{TENANTS} tenants x {TICKS} ticks per run, over wall_s"
        )),
    ];
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", wall);
    out.metrics.insert("ops_per_s", pairs / wall);
    out.metrics.insert("peak_rss_mib", peak_rss);

    if args.trace {
        let mut m = layer_timings(&p, traced_walls.len());
        let s = first.stats;
        m.insert("ondemand.dirty_enqueued", s.dirty_enqueued as f64);
        m.insert("ondemand.pods_solved", s.pods_solved as f64);
        m.insert("ondemand.coordinator_runs", s.coordinator_runs as f64);
        m.insert("ondemand.candidates_scored", s.candidates_scored as f64);
        m.insert("ondemand.shifts", first.shifts.len() as f64);
        m.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&laps.totals()) - 1.0,
        );
        out.metrics.extend(m);
        crate::write_spans(args, &p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_tick_loop_decides_like_the_rig() {
        let ticks = 200;
        let (mut rig, mut ctl) = setup(4, ArbitrationMode::Incremental);
        rig.run(&mut ctl, ticks);
        let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
        let (mut rig2, mut ctl2) = setup(4, ArbitrationMode::Incremental);
        let over = drive(&mut rig2, &mut ctl2, 1..=ticks, Some(&trace), true);
        assert_eq!(over, 0);
        assert_eq!(decisions(&ctl2), decisions(&ctl));
        let p = trace.borrow();
        assert_eq!(p.calls(Frame::Sample), ticks);
        assert_eq!(p.calls(Frame::Gen), ticks);
        assert_eq!(p.sample_ns.len() as u64, ticks);
    }

    #[test]
    fn lapped_repetition_decides_like_the_rig() {
        let (mut rig, mut ctl) = setup(4, ArbitrationMode::Incremental);
        rig.run(&mut ctl, TICKS);
        let (laps, lapped) = timed_rep(4, ArbitrationMode::Incremental);
        assert_eq!(laps.len() as u64, TICKS / LAP_TICKS);
        assert_eq!(decisions(&lapped), decisions(&ctl));
    }
}
