//! `consensus_chaos`: `ConsensusRig` (sans-IO Multi-Paxos under 5 %
//! drop and 2 % duplication, roles scheduled as fleet tenants) through a
//! repeating fault schedule.
//!
//! Each cycle kills and revives the active leader, kills a device (and
//! the acceptor on it), and partitions a ToR pod away; steady phases sit
//! between the faults, and the two safety properties are checked after
//! every one. The benchmark compacts every acceptor below the lowest
//! replica execution point after each interval, the garbage collection
//! `inc_paxos::multi` documents; without it, phase-1b batches outgrow
//! the wire limit within a few thousand intervals. The untraced
//! repetitions call `ConsensusRig::step_interval`; the traced ones run
//! the same interval here, timing the cluster, the rate metering and
//! the controller separately.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use inc_bench::consensus::{ConsensusRig, NodeRef, RIG_APPS, ROLE_RATE_PPS};
use inc_ondemand::{DeviceId, FleetSample, HostSample, Placement};
use inc_sim::Nanos;

use crate::profile::{Frame, Profiler, Stopwatch};
use crate::report::{layer_timings, matches_first, median, Figure, Laps, Outcome};
use crate::traced::{traced_rep, Trace};
use crate::Args;

/// `ConsensusRig::step_interval`'s private pacing, restated for the
/// traced copy (the equivalence check fails if they drift).
const CMDS_PER_INTERVAL: u64 = 2;
const TICKS_PER_INTERVAL: usize = 4;
const STEPS_PER_TICK: usize = 500;

/// Fault cycles per repetition: enough that the seed-to-seed differences
/// in recovery work average out (with 8 cycles the median repetition
/// time differed by ~30 % between seeds; with 32, by ~4 %).
const CYCLES: usize = 32;
/// Intervals a fault lasts before it is healed.
const FAULT_INTERVALS: u64 = 40;
/// Steady intervals after each healed fault.
const STEADY_INTERVALS: u64 = 200;
/// Warm-up bound (intervals) for the roles to become device-resident.
const WARMUP_INTERVALS: u64 = 20;
/// Protocol ticks allowed at the end for in-flight commands to execute.
const DRAIN_TICKS: usize = 2_000;

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The active leader dies and later comes back with its state.
    LeaderKill,
    /// Device 0 dies, taking acceptor 0's dataplane with it until the
    /// controller's forced eviction re-places it in software.
    DeviceKill,
    /// Pod 0 (devices 0 and 1, acceptor 0, leader 0) is cut off.
    TorPartition,
}

const SCHEDULE: [Fault; 3] = [Fault::LeaderKill, Fault::DeviceKill, Fault::TorPartition];

/// Runs `f` inside a span of `frame` when traced.
fn span<R>(trace: Option<&Trace>, frame: Frame, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => {
            t.borrow_mut().enter(frame);
            let r = f();
            t.borrow_mut().exit(frame);
            r
        }
        None => f(),
    }
}

/// One controller interval, by the rig itself or by the traced copy.
struct Stepper {
    trace: Option<Trace>,
    prev_votes: [u64; 3],
    prev_props: [u64; 2],
    submitted: u64,
}

impl Stepper {
    fn new(trace: Option<Trace>) -> Self {
        Stepper {
            trace,
            prev_votes: [0; 3],
            prev_props: [0; 2],
            submitted: 0,
        }
    }

    fn interval(&mut self, rig: &mut ConsensusRig) {
        self.submitted += CMDS_PER_INTERVAL;
        if self.trace.is_some() {
            self.traced_interval(rig);
        } else {
            rig.step_interval();
        }
        span(self.trace.as_ref(), Frame::Compact, || {
            let low = rig.cluster.replicas.iter().map(|r| r.slot_out()).min();
            for a in &mut rig.cluster.acceptors {
                a.compact(low.unwrap_or(0));
            }
        });
    }

    /// `ConsensusRig::step_interval`, call for call.
    fn traced_interval(&mut self, rig: &mut ConsensusRig) {
        let trace = self.trace.as_ref();
        span(trace, Frame::Cluster, || {
            for _ in 0..CMDS_PER_INTERVAL {
                rig.cluster.submit(7, Vec::new());
            }
            for _ in 0..TICKS_PER_INTERVAL {
                rig.cluster.tick(STEPS_PER_TICK);
            }
        });
        let (prev_votes, prev_props) = (&mut self.prev_votes, &mut self.prev_props);
        let samples = span(trace, Frame::Gen, || {
            rig.intervals += 1;
            if rig.cluster.quorum_available() {
                rig.quorum_intervals += 1;
            }
            let mut rates = [0.0_f64; RIG_APPS];
            for (i, prev) in prev_votes.iter_mut().enumerate() {
                let v = rig.cluster.acceptors[i].votes;
                if v > *prev {
                    rates[ConsensusRig::acceptor_app(i)] = ROLE_RATE_PPS;
                }
                *prev = v;
            }
            for (i, prev) in prev_props.iter_mut().enumerate() {
                let p = rig.cluster.leaders[i].proposals_sent;
                if p > *prev {
                    rates[ConsensusRig::leader_app(i)] = ROLE_RATE_PPS;
                }
                *prev = p;
            }
            rates
                .iter()
                .map(|&r| FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.5,
                        hw_app_rate: r,
                    },
                    offered_pps: r,
                })
                .collect::<Vec<_>>()
        });
        let now = Nanos::from_nanos(rig.ctl.config().fleet.interval.as_nanos() * rig.intervals);
        span(trace, Frame::Sample, || rig.ctl.sample(now, &samples));
    }

    /// Protocol ticks without new commands until everything submitted
    /// has executed (or the bound runs out).
    fn drain(&self, rig: &mut ConsensusRig) {
        span(self.trace.as_ref(), Frame::Cluster, || {
            for _ in 0..DRAIN_TICKS {
                if rig.cluster.max_executed() >= self.submitted {
                    break;
                }
                rig.cluster.tick(STEPS_PER_TICK);
            }
        });
    }
}

/// Builds the rig and warms it until the acceptors and leader 0 hold
/// devices (the set-up the benchmark times).
fn setup(seed: u64, stepper: &mut Stepper) -> ConsensusRig {
    let mut rig = ConsensusRig::new(seed);
    let warm = [
        ConsensusRig::acceptor_app(0),
        ConsensusRig::acceptor_app(1),
        ConsensusRig::acceptor_app(2),
        ConsensusRig::leader_app(0),
    ];
    for _ in 0..WARMUP_INTERVALS {
        stepper.interval(&mut rig);
        if warm
            .iter()
            .all(|&a| matches!(rig.ctl.placements()[a], Placement::Device(_)))
        {
            break;
        }
    }
    rig
}

/// What a repetition produced.
#[derive(Clone, Debug, PartialEq)]
struct Chaos {
    intervals: u64,
    submitted: u64,
    executed: u64,
    /// Worst intervals from a fault to the next executed command.
    outage_intervals: u64,
    /// Replica 0's executed log digest: (length, last slot).
    log: (usize, u64),
    shifts: Vec<String>,
    votes: u64,
    dropped: u64,
    duplicated: u64,
    max_ballot: u16,
    stats: inc_ondemand::ArbiterStats,
}

/// One repetition: set-up (untimed), the fault schedule, the drain.
/// Returns (host seconds of each fault phase and of the drain,
/// outcome, safety failures).
fn repetition(seed: u64, cycles: usize, trace: Option<&Trace>) -> (Vec<f64>, Chaos, Vec<String>) {
    // A traced warm-up runs the traced interval (so both steppers carry
    // the same metering state) into a throwaway trace: set-up is not part
    // of the traced wall.
    let throwaway = trace.map(|_| Rc::new(RefCell::new(Profiler::new())));
    let mut stepper = Stepper::new(throwaway);
    let mut rig = setup(seed, &mut stepper);
    stepper.trace = trace.cloned();
    let mut failures = Vec::new();
    let mut worst_outage = 0;

    if let Some(t) = trace {
        t.borrow_mut().enter(Frame::Rep);
    }
    let mut watch = Stopwatch::start();
    for cycle in 0..cycles {
        for fault in SCHEDULE {
            let executed_before = rig.cluster.max_executed();
            let mut outage = None;
            let mut step = |rig: &mut ConsensusRig, stepper: &mut Stepper, since: &mut u64| {
                stepper.interval(rig);
                *since += 1;
                if outage.is_none() && rig.cluster.max_executed() > executed_before {
                    outage = Some(*since);
                }
            };
            let mut since = 0;
            match fault {
                Fault::LeaderKill => {
                    let victim = (0..2u8)
                        .find(|&i| rig.cluster.leaders[i as usize].is_active())
                        .unwrap_or(0);
                    rig.cluster.kill(NodeRef::Leader(victim));
                    for _ in 0..FAULT_INTERVALS {
                        step(&mut rig, &mut stepper, &mut since);
                    }
                    rig.cluster.revive(NodeRef::Leader(victim));
                }
                Fault::DeviceKill => {
                    rig.ctl.set_device_online(DeviceId(0), false);
                    rig.cluster.kill(NodeRef::Acceptor(0));
                    step(&mut rig, &mut stepper, &mut since);
                    // The forced eviction is the software re-placement.
                    rig.cluster.revive(NodeRef::Acceptor(0));
                    for _ in 1..FAULT_INTERVALS {
                        step(&mut rig, &mut stepper, &mut since);
                    }
                    rig.ctl.set_device_online(DeviceId(0), true);
                }
                Fault::TorPartition => {
                    rig.ctl.set_device_online(DeviceId(0), false);
                    rig.ctl.set_device_online(DeviceId(1), false);
                    rig.cluster
                        .set_partition(vec![NodeRef::Acceptor(0), NodeRef::Leader(0)]);
                    for _ in 0..FAULT_INTERVALS {
                        step(&mut rig, &mut stepper, &mut since);
                    }
                    rig.cluster.set_partition(Vec::new());
                    rig.ctl.set_device_online(DeviceId(0), true);
                    rig.ctl.set_device_online(DeviceId(1), true);
                }
            }
            for _ in 0..STEADY_INTERVALS {
                step(&mut rig, &mut stepper, &mut since);
            }
            watch.lap();
            watch.pause();
            let check = |rig: &ConsensusRig| {
                (
                    rig.cluster.single_value_per_slot(),
                    rig.cluster.logs_prefix_agree(),
                )
            };
            let (single, prefix) = match trace {
                Some(t) => {
                    t.borrow_mut().enter(Frame::Check);
                    let r = check(&rig);
                    t.borrow_mut().exit(Frame::Check);
                    r
                }
                None => check(&rig),
            };
            if !single || !prefix {
                failures.push(format!(
                    "cycle {cycle} {fault:?}: single value per slot {single}, \
                     log prefixes agree {prefix}"
                ));
            }
            match outage {
                Some(o) => worst_outage = worst_outage.max(o),
                None => failures.push(format!(
                    "cycle {cycle} {fault:?}: no command executed after the fault"
                )),
            }
            watch.resume();
        }
    }
    stepper.drain(&mut rig);
    watch.lap();
    let laps = watch.into_laps();
    if let Some(t) = trace {
        t.borrow_mut().exit(Frame::Rep);
    }

    let c = &rig.cluster;
    let chaos = Chaos {
        intervals: rig.intervals,
        submitted: stepper.submitted,
        executed: c.max_executed(),
        outage_intervals: worst_outage,
        log: (
            c.replicas[0].log.len(),
            c.replicas[0].log.last().map_or(0, |e| e.0),
        ),
        shifts: rig.ctl.shifts().iter().map(|s| format!("{s:?}")).collect(),
        votes: c.acceptors.iter().map(|a| a.votes).sum(),
        dropped: c.dropped,
        duplicated: c.duplicated,
        max_ballot: c
            .leaders
            .iter()
            .map(|l| l.ballot().num())
            .max()
            .unwrap_or(0),
        stats: rig.ctl.stats(),
    };
    (laps, chaos, failures)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Timed runs, each followed by timed set-up blocks and runs of the
    // reference kernel. With tracing on, a traced run of the benchmark's
    // own interval loop follows each untraced one, so both sample the same
    // host conditions; with it off, one traced run at the end checks that
    // the loop matches `step_interval`.
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
        let (rep_laps, chaos, failures) = repetition(args.seed, CYCLES, None);
        laps.push(&rep_laps);
        out.attempted += chaos.submitted;
        out.failed += chaos.submitted.saturating_sub(chaos.executed);
        out.failures.extend(failures);
        repeatable &= matches_first(&mut first, chaos);
        between.sample(|| setup(args.seed, &mut Stepper::new(None)));
        peak_rss = crate::host::peak_rss_mib();
        let last = laps.reps() >= crate::MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds;
        if args.trace || last {
            let (_, chaos, failures) = traced_rep(&trace, &mut traced_walls, || {
                repetition(args.seed, CYCLES, Some(&trace))
            });
            out.failures.extend(failures);
            traced_same &= first.as_ref() == Some(&chaos);
            if last {
                break;
            }
        }
    }
    let first: Chaos = first.expect("at least one repetition");
    out.check(repeatable, "repeated runs with one seed differ");
    out.check(
        traced_same,
        "the traced interval loop differs from step_interval",
    );
    let p = trace.borrow();
    out.check(p.balanced(), "unbalanced trace spans");

    let setup_s = between.setup_s();
    let wall = laps.fast_s() * between.scale();
    let [setup_fig, ref_fig] = between.figures();
    let executed = first.executed as f64;
    out.figures = vec![
        setup_fig,
        ref_fig,
        Figure::new("wall_s", wall, "s").note(laps.note(
            between.scale(),
            &format!(
                "{} intervals ({} fault phases and the drain)",
                first.intervals,
                CYCLES * SCHEDULE.len()
            ),
        )),
        Figure::new("peak_rss_mib", peak_rss, "MiB"),
        Figure::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!(
            "{} not executed of {} commands",
            out.failed, out.attempted
        )),
        Figure::new("requests_per_s", executed / wall, "1/s").note(format!(
            "{} commands executed per run, over wall_s",
            first.executed
        )),
        Figure::new(
            "outage_intervals",
            first.outage_intervals as f64,
            "intervals",
        )
        .note("worst over the fault schedule"),
    ];
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", wall);
    out.metrics.insert("ops_per_s", executed / wall);
    out.metrics.insert("peak_rss_mib", peak_rss);

    if args.trace {
        let mut m = layer_timings(&p, traced_walls.len());
        let s = first.stats;
        m.insert(
            "paxos.votes_per_commit",
            first.votes as f64 / executed.max(1.0),
        );
        m.insert("paxos.dropped", first.dropped as f64);
        m.insert("paxos.duplicated", first.duplicated as f64);
        m.insert("paxos.max_ballot", f64::from(first.max_ballot));
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
    fn traced_interval_loop_matches_step_interval_through_the_schedule() {
        let cycles = 4;
        let (_, plain, failures) = repetition(5, cycles, None);
        assert!(failures.is_empty(), "{failures:?}");
        let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
        let (_, traced, failures) = repetition(5, cycles, Some(&trace));
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(traced, plain);
        assert_eq!(
            plain.executed, plain.submitted,
            "the drain executes everything"
        );
        assert!(plain.dropped > 0 && plain.duplicated > 0);
        let p = trace.borrow();
        assert!(p.balanced());
        assert!(p.calls(Frame::Sample) >= plain.intervals - WARMUP_INTERVALS);
        assert_eq!(p.calls(Frame::Check), (cycles * SCHEDULE.len()) as u64);
        assert!(p.attributed_ns() <= p.traced_wall_ns());
    }
}
