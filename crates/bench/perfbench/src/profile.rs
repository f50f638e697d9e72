//! The benchmark's tracer: spans around calls into each layer, folded
//! into per-layer totals as they close.
//!
//! Every span is a [`Frame`] entered and exited in strict nesting order
//! (the benchmark is single-threaded). On exit a span's duration is
//! added to its frame's total and to its parent's child time, so a
//! frame's *self* time is its total minus the part of it that child
//! spans cover. Coarse spans (one per controller call, probe, tick or
//! cluster step) are also kept in memory as [`Span`] records and
//! written out when the run ends; per-packet spans (node callbacks and
//! codec re-decodes, over a million per simulated day) are only folded,
//! which keeps the tracer's memory bounded.

use std::io::{self, Write};
use std::time::Instant;

/// A traced layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// One timed repetition of the workload (the root span).
    Rep,
    /// Correctness checks run inside a repetition (excluded from wall).
    Check,
    /// Sample and offered-rate generation by the harness.
    Gen,
    /// `Simulator::run_until` between two controller intervals.
    RunUntil,
    /// `L2Switch` callbacks.
    Switch,
    /// `KvsClient` callbacks.
    KvsClient,
    /// `LakeDevice` callbacks.
    Lake,
    /// `MemcachedServer` callbacks.
    Memcached,
    /// `DnsClient` callbacks.
    DnsClient,
    /// `EmuDevice` callbacks.
    Emu,
    /// `DnsServer` (NSD) callbacks.
    Nsd,
    /// `PaxosClient` callbacks.
    PaxosClient,
    /// `PaxosNode` callbacks (leaders, acceptors, learner).
    PaxosNode,
    /// Re-parse of a delivered frame's Ethernet/IPv4/UDP headers.
    UdpParse,
    /// Re-decode of a KVS payload.
    KvsDecode,
    /// Re-decode of a DNS query or response.
    DnsDecode,
    /// Re-decode of a Paxos message.
    PaxosDecode,
    /// The fleet harness probe: window takes, quantiles, power reads.
    Probe,
    /// One controller `sample()` call.
    Sample,
    /// Executing one placement change on the simulated hardware.
    Apply,
    /// `ChaosCluster` submit and tick.
    Cluster,
    /// Acceptor compaction.
    Compact,
}

impl Frame {
    /// Every frame, in index order.
    pub const ALL: [Frame; 22] = [
        Frame::Rep,
        Frame::Check,
        Frame::Gen,
        Frame::RunUntil,
        Frame::Switch,
        Frame::KvsClient,
        Frame::Lake,
        Frame::Memcached,
        Frame::DnsClient,
        Frame::Emu,
        Frame::Nsd,
        Frame::PaxosClient,
        Frame::PaxosNode,
        Frame::UdpParse,
        Frame::KvsDecode,
        Frame::DnsDecode,
        Frame::PaxosDecode,
        Frame::Probe,
        Frame::Sample,
        Frame::Apply,
        Frame::Cluster,
        Frame::Compact,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Frame::Rep => "bench.rep",
            Frame::Check => "bench.check",
            Frame::Gen => "bench.gen",
            Frame::RunUntil => "sim.run_until",
            Frame::Switch => "net.switch",
            Frame::KvsClient => "kvs.client",
            Frame::Lake => "kvs.lake",
            Frame::Memcached => "kvs.memcached",
            Frame::DnsClient => "dns.client",
            Frame::Emu => "dns.emu",
            Frame::Nsd => "dns.nsd",
            Frame::PaxosClient => "paxos.client",
            Frame::PaxosNode => "paxos.node",
            Frame::UdpParse => "net.udp_parse",
            Frame::KvsDecode => "kvs.decode",
            Frame::DnsDecode => "dns.decode",
            Frame::PaxosDecode => "paxos.msg_decode",
            Frame::Probe => "stats.probe",
            Frame::Sample => "ondemand.sample",
            Frame::Apply => "ondemand.apply",
            Frame::Cluster => "paxos.cluster",
            Frame::Compact => "paxos.compact",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether each span of this frame is kept as a [`Span`] record
    /// (per-packet frames are only folded).
    fn recorded(self) -> bool {
        !matches!(
            self,
            Frame::Switch
                | Frame::KvsClient
                | Frame::Lake
                | Frame::Memcached
                | Frame::DnsClient
                | Frame::Emu
                | Frame::Nsd
                | Frame::PaxosClient
                | Frame::PaxosNode
                | Frame::UdpParse
                | Frame::KvsDecode
                | Frame::DnsDecode
                | Frame::PaxosDecode
        )
    }
}

const FRAMES: usize = Frame::ALL.len();

/// One recorded span: offsets in nanoseconds from the tracer's origin,
/// and the index of the enclosing recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary.
    pub frame: Frame,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing recorded span, if any.
    pub parent: Option<usize>,
}

struct Open {
    frame: Frame,
    start_ns: u64,
    child_ns: u64,
    record: Option<usize>,
}

/// Per-packet counters taken at the node decorator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages delivered to nodes.
    pub deliveries: u64,
    /// Timers fired at nodes.
    pub timer_fires: u64,
    /// Frame bytes delivered (Ethernet header onwards).
    pub frame_bytes: u64,
    /// Delivered frames the public decoders rejected.
    pub decode_errors: u64,
    /// Latency records in the per-interval windows the probe took.
    pub hist_records: u64,
}

/// The in-memory trace of one run.
pub struct Profiler {
    origin: Instant,
    stack: Vec<Open>,
    total_ns: [u64; FRAMES],
    child_ns: [u64; FRAMES],
    calls: [u64; FRAMES],
    /// Duration of every controller `sample()` call, ns.
    pub sample_ns: Vec<u64>,
    /// Recorded coarse spans.
    pub spans: Vec<Span>,
    /// Whether new coarse spans are recorded (they are always folded).
    pub recording: bool,
    /// Per-packet counters.
    pub counters: Counters,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// An empty trace whose origin is now.
    pub fn new() -> Self {
        Profiler {
            origin: Instant::now(),
            stack: Vec::new(),
            total_ns: [0; FRAMES],
            child_ns: [0; FRAMES],
            calls: [0; FRAMES],
            sample_ns: Vec::new(),
            spans: Vec::new(),
            recording: true,
            counters: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `frame` now.
    pub fn enter(&mut self, frame: Frame) {
        let t = self.now_ns();
        self.enter_at(frame, t);
    }

    /// Closes the innermost span, which must be of `frame`, now.
    pub fn exit(&mut self, frame: Frame) {
        let t = self.now_ns();
        self.exit_at(frame, t);
    }

    /// Opens a span of `frame` at `t_ns` (the clock-free core of
    /// [`Profiler::enter`]).
    pub fn enter_at(&mut self, frame: Frame, t_ns: u64) {
        let record = (self.recording && frame.recorded()).then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.record);
            self.spans.push(Span {
                frame,
                start_ns: t_ns,
                end_ns: t_ns,
                parent,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            frame,
            start_ns: t_ns,
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost span at `t_ns`: its duration joins its
    /// frame's total and its parent's child time.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open span is not of `frame` (a nesting
    /// bug in the benchmark).
    pub fn exit_at(&mut self, frame: Frame, t_ns: u64) {
        let open = self.stack.pop().expect("exit without an open span");
        assert_eq!(open.frame, frame, "spans must close innermost first");
        let d = t_ns.saturating_sub(open.start_ns);
        let i = frame.index();
        self.total_ns[i] += d;
        self.child_ns[i] += open.child_ns.min(d);
        self.calls[i] += 1;
        if frame == Frame::Sample {
            self.sample_ns.push(d);
        }
        if let Some(r) = open.record {
            self.spans[r].end_ns = t_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
        }
    }

    /// Runs `f` inside a span of `frame`.
    pub fn span<R>(&mut self, frame: Frame, f: impl FnOnce() -> R) -> R {
        self.enter(frame);
        let r = f();
        self.exit(frame);
        r
    }

    /// Total time in closed spans of `frame`, ns.
    pub fn total_ns(&self, frame: Frame) -> u64 {
        self.total_ns[frame.index()]
    }

    /// Self time of `frame`: its total minus the part its children
    /// cover, ns.
    pub fn self_ns(&self, frame: Frame) -> u64 {
        let i = frame.index();
        self.total_ns[i] - self.child_ns[i]
    }

    /// Closed spans of `frame`.
    pub fn calls(&self, frame: Frame) -> u64 {
        self.calls[frame.index()]
    }

    /// Whether every span has been closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Traced wall time: the root spans minus the checks they contain.
    pub fn traced_wall_ns(&self) -> u64 {
        self.total_ns(Frame::Rep) - self.total_ns(Frame::Check)
    }

    /// Self time of every frame below the root except checks, ns: the
    /// time attributed to a layer.
    pub fn attributed_ns(&self) -> u64 {
        Frame::ALL
            .iter()
            .filter(|f| !matches!(f, Frame::Rep | Frame::Check))
            .map(|&f| self.self_ns(f))
            .sum()
    }

    /// Traced wall time no layer accounts for (harness glue), ns.
    pub fn unattributed_ns(&self) -> u64 {
        self.traced_wall_ns().saturating_sub(self.attributed_ns())
    }

    /// Writes the recorded spans as CSV (`index,name,parent,start_ns,end_ns`).
    pub fn write_spans(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "index,name,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{parent},{},{}",
                s.frame.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A stopwatch that accumulates only while running, so correctness
/// checks between timed phases stay out of the untraced wall time, and
/// that splits what it accumulates into laps, one per fixed piece of a
/// repetition.
pub struct Stopwatch {
    started: Option<Instant>,
    elapsed_s: f64,
    laps: Vec<f64>,
}

impl Stopwatch {
    /// A running stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            started: Some(Instant::now()),
            elapsed_s: 0.0,
            laps: Vec::new(),
        }
    }

    /// Stops accumulating.
    pub fn pause(&mut self) {
        if let Some(t) = self.started.take() {
            self.elapsed_s += t.elapsed().as_secs_f64();
        }
    }

    /// Resumes accumulating.
    pub fn resume(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Closes the current lap: the seconds accumulated since the last.
    pub fn lap(&mut self) {
        let running = self.started.is_some();
        self.pause();
        self.laps.push(std::mem::take(&mut self.elapsed_s));
        if running {
            self.resume();
        }
    }

    /// The closed laps' seconds (time after the last lap is dropped).
    pub fn into_laps(self) -> Vec<f64> {
        self.laps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rep of 100 ns holding a 60 ns run_until, which holds two 10 ns
    /// node callbacks and a 5 ns apply, then a 20 ns controller call
    /// and a 7 ns check.
    fn nested() -> Profiler {
        let mut p = Profiler::new();
        p.enter_at(Frame::Rep, 0);
        p.enter_at(Frame::RunUntil, 0);
        p.enter_at(Frame::Lake, 10);
        p.exit_at(Frame::Lake, 20);
        p.enter_at(Frame::Memcached, 30);
        p.exit_at(Frame::Memcached, 40);
        p.enter_at(Frame::Apply, 50);
        p.exit_at(Frame::Apply, 55);
        p.exit_at(Frame::RunUntil, 60);
        p.enter_at(Frame::Sample, 65);
        p.exit_at(Frame::Sample, 85);
        p.enter_at(Frame::Check, 90);
        p.exit_at(Frame::Check, 97);
        p.exit_at(Frame::Rep, 100);
        p
    }

    #[test]
    fn self_time_is_span_minus_the_part_children_cover() {
        let p = nested();
        assert!(p.balanced());
        assert_eq!(p.total_ns(Frame::RunUntil), 60);
        assert_eq!(p.self_ns(Frame::RunUntil), 60 - 10 - 10 - 5);
        assert_eq!(p.self_ns(Frame::Lake), 10);
        assert_eq!(p.self_ns(Frame::Sample), 20);
        assert_eq!(p.self_ns(Frame::Rep), 100 - 60 - 20 - 7);
        assert_eq!(p.sample_ns, vec![20]);
    }

    #[test]
    fn layers_plus_unattributed_add_up_to_the_traced_wall() {
        let p = nested();
        assert_eq!(p.traced_wall_ns(), 93);
        assert_eq!(p.attributed_ns(), 35 + 10 + 10 + 5 + 20);
        // The unattributed part is exactly the root's own self time.
        assert_eq!(p.unattributed_ns(), 13);
        assert_eq!(p.unattributed_ns(), p.self_ns(Frame::Rep));
        assert_eq!(p.attributed_ns() + p.unattributed_ns(), p.traced_wall_ns());
    }

    #[test]
    fn live_clock_spans_never_leave_negative_unattributed_time() {
        let mut p = Profiler::new();
        p.enter(Frame::Rep);
        for _ in 0..100 {
            p.span(Frame::Gen, || {
                std::hint::black_box((0..100u64).sum::<u64>())
            });
            p.enter(Frame::RunUntil);
            p.span(Frame::Switch, || std::hint::black_box(1));
            p.exit(Frame::RunUntil);
        }
        p.exit(Frame::Rep);
        assert!(p.attributed_ns() <= p.traced_wall_ns());
        assert_eq!(p.attributed_ns() + p.unattributed_ns(), p.traced_wall_ns());
    }

    #[test]
    fn only_coarse_spans_are_recorded_with_their_parent() {
        let p = nested();
        let names: Vec<&str> = p.spans.iter().map(|s| s.frame.name()).collect();
        assert_eq!(
            names,
            [
                "bench.rep",
                "sim.run_until",
                "ondemand.apply",
                "ondemand.sample",
                "bench.check"
            ]
        );
        assert_eq!(p.spans[2].parent, Some(1));
        assert_eq!(p.spans[3].parent, Some(0));
        assert_eq!((p.spans[1].start_ns, p.spans[1].end_ns), (0, 60));
        let mut csv = Vec::new();
        p.write_spans(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(text.starts_with("index,name,parent,start_ns,end_ns\n0,bench.rep,,0,100\n"));
    }

    #[test]
    fn laps_exclude_paused_time() {
        let mut w = Stopwatch::start();
        w.lap();
        w.pause();
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.resume();
        w.lap();
        let laps = w.into_laps();
        assert_eq!(laps.len(), 2);
        assert!(laps.iter().all(|&s| (0.0..0.01).contains(&s)), "{laps:?}");
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn misnested_exit_is_a_bug() {
        let mut p = Profiler::new();
        p.enter_at(Frame::Rep, 0);
        p.enter_at(Frame::Sample, 1);
        p.exit_at(Frame::Rep, 2);
    }
}
