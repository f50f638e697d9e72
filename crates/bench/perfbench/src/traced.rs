//! Tracing adapters around the program's public interfaces: a
//! forwarding [`Node`] decorator for packet-level nodes and a
//! forwarding [`FleetScheduler`] for the controller. Neither changes
//! what it wraps; both only time calls into it.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use inc_dns::{DnsResponse, Query, DNS_PORT};
use inc_net::{Packet, UdpFrame};
use inc_ondemand::{AdmissionDecision, FleetSample, FleetScheduler, Placement};
use inc_paxos::PaxosMsg;
use inc_sim::{Ctx, Nanos, Node, PortId, Timer};

use crate::profile::{Frame, Profiler};

/// The shared trace every adapter of one run writes into.
pub type Trace = Rc<RefCell<Profiler>>;

/// Runs one traced repetition and appends its traced wall seconds to
/// `walls`. Only the first traced repetition's coarse spans are
/// recorded; later ones are folded only.
pub fn traced_rep<R>(trace: &Trace, walls: &mut Vec<f64>, rep: impl FnOnce() -> R) -> R {
    let before = trace.borrow().traced_wall_ns();
    let r = rep();
    let mut p = trace.borrow_mut();
    walls.push((p.traced_wall_ns() - before) as f64 / 1e9);
    p.recording = false;
    r
}

/// Which public decoder re-reads a frame a node received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoder {
    /// Headers only (switches carry any tenant's traffic).
    Udp,
    /// `inc_kvs::protocol::decode`.
    Kvs,
    /// `Query::decode` towards the DNS port, `DnsResponse::decode` back.
    Dns,
    /// `PaxosMsg::decode`.
    Paxos,
}

/// A forwarding decorator: times `on_start`/`on_message`/`on_timer` of
/// the inner node under `frame`, counts frames and bytes, and re-decodes
/// each delivered frame with the public decoders outside the callback.
/// `as_any`/`as_any_mut` forward to the inner node, so harness probes
/// still downcast to the inner type.
pub struct Traced<N> {
    inner: N,
    frame: Frame,
    decoder: Decoder,
    trace: Trace,
}

impl<N> Traced<N> {
    /// Wraps `inner`, attributing its callbacks to `frame`.
    pub fn new(inner: N, frame: Frame, decoder: Decoder, trace: Trace) -> Self {
        Traced {
            inner,
            frame,
            decoder,
            trace,
        }
    }
}

/// Re-decodes one frame under the codec spans; returns whether every
/// decoder accepted it.
fn redecode(trace: &mut Profiler, decoder: Decoder, pkt: &Packet) -> bool {
    trace.enter(Frame::UdpParse);
    let frame = UdpFrame::parse(pkt);
    trace.exit(Frame::UdpParse);
    let Ok(frame) = frame else {
        return false;
    };
    let body = frame.payload;
    match decoder {
        Decoder::Udp => true,
        Decoder::Kvs => trace.span(Frame::KvsDecode, || inc_kvs::protocol::decode(body).is_ok()),
        Decoder::Dns if frame.udp.dst_port == DNS_PORT => {
            trace.span(Frame::DnsDecode, || Query::decode(body).is_ok())
        }
        Decoder::Dns => trace.span(Frame::DnsDecode, || DnsResponse::decode(body).is_ok()),
        Decoder::Paxos => trace.span(Frame::PaxosDecode, || PaxosMsg::decode(body).is_ok()),
    }
}

impl<N: Node<Packet>> Node<Packet> for Traced<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.trace.borrow_mut().enter(self.frame);
        self.inner.on_start(ctx);
        self.trace.borrow_mut().exit(self.frame);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        let copy = msg.clone();
        self.trace.borrow_mut().enter(self.frame);
        self.inner.on_message(ctx, port, msg);
        let mut trace = self.trace.borrow_mut();
        trace.exit(self.frame);
        trace.counters.deliveries += 1;
        trace.counters.frame_bytes += copy.len() as u64;
        if !redecode(&mut trace, self.decoder, &copy) {
            trace.counters.decode_errors += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        self.trace.borrow_mut().enter(self.frame);
        self.inner.on_timer(ctx, timer);
        let mut trace = self.trace.borrow_mut();
        trace.exit(self.frame);
        trace.counters.timer_fires += 1;
    }

    fn power_w(&self, now: Nanos) -> f64 {
        self.inner.power_w(now)
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A forwarding [`FleetScheduler`] that times each `sample()` call.
///
/// The fleet harness runs the simulator between two `sample()` calls
/// without a hook of its own, so the probe closes the `sim.run_until`
/// span when it starts and `sample()` re-opens it when it returns:
/// placement execution and the next interval's event loop nest inside
/// it.
pub struct TracedScheduler<'a, S> {
    inner: &'a mut S,
    trace: Trace,
}

impl<'a, S> TracedScheduler<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S, trace: Trace) -> Self {
        TracedScheduler { inner, trace }
    }
}

impl<S: FleetScheduler> FleetScheduler for TracedScheduler<'_, S> {
    fn interval(&self) -> Nanos {
        self.inner.interval()
    }
    fn app_count(&self) -> usize {
        self.inner.app_count()
    }
    fn placements(&self) -> &[Placement] {
        self.inner.placements()
    }
    fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)> {
        self.trace.borrow_mut().enter(Frame::Sample);
        let out = self.inner.sample(now, samples);
        let mut trace = self.trace.borrow_mut();
        trace.exit(Frame::Sample);
        trace.enter(Frame::RunUntil);
        out
    }
    fn admission_decision(&self, app: usize) -> AdmissionDecision {
        self.inner.admission_decision(app)
    }
    fn queued_intervals(&self) -> &[u64] {
        self.inner.queued_intervals()
    }
}
