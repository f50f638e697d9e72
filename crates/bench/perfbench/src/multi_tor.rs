//! `multi_tor`: the three-tenant, two-ToR packet-level day under the
//! flat fleet controller.
//!
//! The untraced repetitions run `MultiTorRig` itself. `MultiTorRig`
//! builds its nodes internally, so the traced repetition assembles the
//! same topology here from the public constructors, in the same order,
//! with every node wrapped in a [`Traced`] decorator, and drives it with
//! the same probe and placement executor through
//! `run_fleet_controlled_with`. The run checks that both give the same
//! day bit for bit.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use inc_bench::rigs::MultiTorRig;
use inc_dns::{DnsClient, DnsServer, DnsServerConfig, EmuDevice, Zone, DNS_PORT};
use inc_hw::{DeviceId, Placement, HOST_DMA_PORT};
use inc_kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, UniformGen, MEMCACHED_PORT,
};
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_ondemand::{
    run_fleet_controlled_with, AppObservation, FleetController, FleetSample, FleetTimeline,
    HostSample, RowLog,
};
use inc_paxos::{
    Acceptor, AcceptorStorage, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode,
    Platform, RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc_sim::{Histogram, LinkSpec, Nanos, Node, NodeId, PortId, Simulator};
use inc_workloads::RateProfile;

use crate::profile::{Frame, Profiler};
use crate::report::{layer_timings, matches_first, median, Figure, Laps, Outcome};
use crate::traced::{traced_rep, Decoder, Trace, Traced, TracedScheduler};
use crate::Args;

/// The canonical day (the `tests/multi_tor.rs` configuration).
const KEYS: u64 = 512;
const NAMES: u64 = 512;
const DAY: Nanos = Nanos::from_millis(3_500);
const INTERVAL: Nanos = Nanos::from_millis(150);

/// The inputs of one day besides the seed.
#[derive(Clone, Debug)]
pub struct DayConfig {
    keys: u64,
    names: u64,
    profiles: [RateProfile; 3],
    day: Nanos,
    interval: Nanos,
}

impl DayConfig {
    /// The canonical day.
    pub fn canonical() -> Self {
        DayConfig {
            keys: KEYS,
            names: NAMES,
            profiles: MultiTorRig::contended_profiles(DAY),
            day: DAY,
            interval: INTERVAL,
        }
    }
}

/// The seed and energy the canonical day is pinned to.
const CANONICAL_SEED: u64 = 42;
const CANONICAL_DECI_J: i64 = 7_782;

/// `MultiTorRig`'s private topology constants, restated for the traced
/// copy (the bit-identity check fails if they drift).
const N_ACCEPTORS: usize = 3;
const PAX_TIMEOUT: Nanos = Nanos::from_millis(20);

/// Everything a day produced that tracing must not change.
#[derive(Clone, Debug, PartialEq)]
pub struct Day {
    /// Controller decisions, `FleetShift` by `FleetShift`.
    pub shifts: Vec<String>,
    /// The harness's executed placement log.
    pub executed: Vec<(Nanos, usize, Placement)>,
    /// `FleetTimeline::energy_j` bits.
    pub energy_bits: u64,
    /// KVS client (sent, received, corrupt).
    pub kvs: (u64, u64, u64),
    /// DNS client (sent, received, wrong).
    pub dns: (u64, u64, u64),
    /// Paxos client (issued, acked, retries).
    pub pax: (u64, u64, u64),
    /// Simulator events processed.
    pub events: u64,
    /// Frames sent to unconnected ports.
    pub unrouted: u64,
    /// Request latency merged over the three clients: (count, p50, p99) ns.
    pub latency: (u64, u64, u64),
    /// Timeline rows recorded.
    pub timeline_rows: u64,
}

impl Day {
    fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }

    /// Replies and acknowledgements received.
    fn replies(&self) -> u64 {
        self.kvs.1 + self.dns.1 + self.pax.1
    }

    fn attempted(&self) -> u64 {
        self.kvs.0 + self.dns.0 + self.pax.0
    }

    /// Unanswered, corrupt or wrong replies and unacknowledged commands.
    fn failed(&self) -> u64 {
        (self.kvs.0 - self.kvs.1)
            + self.kvs.2
            + (self.dns.0 - self.dns.1)
            + self.dns.2
            + (self.pax.0 - self.pax.1)
    }
}

/// The node handles of one day, whichever way it was built.
struct Ids {
    kvs_client: NodeId,
    kvs_dev_home: NodeId,
    kvs_dev_remote: NodeId,
    kvs_server: NodeId,
    dns_client: NodeId,
    dns_dev_home: NodeId,
    dns_dev_remote: NodeId,
    dns_server: NodeId,
    pax_switch: NodeId,
    pax_client: NodeId,
    pax_sw_leader: NodeId,
    pax_hw_leaders: [NodeId; 2],
    pax_sw_port: PortId,
    pax_hw_ports: [PortId; 2],
    pax_round: Cell<u16>,
}

/// Reads a finished day off its simulator; `clients` are the KVS, DNS
/// and Paxos client nodes.
fn day_of(
    sim: &Simulator<Packet>,
    clients: [NodeId; 3],
    ctl: &FleetController,
    tl: &FleetTimeline,
) -> Day {
    let kvs = sim.node_ref::<KvsClient>(clients[0]);
    let dns = sim.node_ref::<DnsClient>(clients[1]);
    let pax = sim.node_ref::<PaxosClient>(clients[2]);
    let (k, d, p) = (kvs.stats(), dns.stats(), pax.stats());
    let mut latency = Histogram::new();
    latency.merge(&kvs.latency);
    latency.merge(&dns.latency);
    latency.merge(&pax.latency);
    Day {
        shifts: ctl.shifts().iter().map(|s| format!("{s:?}")).collect(),
        executed: tl.shifts.clone(),
        energy_bits: tl.energy_j.to_bits(),
        kvs: (k.sent, k.received, k.corrupt),
        dns: (d.sent, d.received, d.wrong),
        pax: (p.issued, p.acked, p.retries),
        events: sim.events_processed(),
        unrouted: sim.unrouted(),
        latency: (
            latency.count(),
            latency.quantile(0.5),
            latency.quantile(0.99),
        ),
        timeline_rows: tl.per_app.iter().map(|t| t.rows().len() as u64).sum(),
    }
}

/// Builds the rig and its controller (the set-up the benchmark times).
fn setup(seed: u64, cfg: &DayConfig) -> (MultiTorRig, FleetController) {
    let rig = MultiTorRig::new(seed, cfg.keys, cfg.names, cfg.profiles.clone());
    (rig, MultiTorRig::fleet_controller(cfg.interval))
}

/// One untraced day: (wall s, outcome).
fn untraced_day(seed: u64, cfg: &DayConfig) -> (f64, Day) {
    let (mut rig, mut ctl) = setup(seed, cfg);
    let t = Instant::now();
    let tl = rig.run(&mut ctl, cfg.day);
    let wall_s = t.elapsed().as_secs_f64();
    let clients = [rig.kvs_client, rig.dns_client, rig.pax_client];
    let day = day_of(&rig.sim, clients, &ctl, &tl);
    (wall_s, day)
}

fn pax_book(own: Endpoint) -> AddressBook {
    AddressBook {
        own,
        leader: Endpoint::host(99, PAXOS_LEADER_PORT),
        acceptors: (0..N_ACCEPTORS as u32)
            .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
            .collect(),
        learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
    }
}

/// Adds `node` wrapped in a [`Traced`] decorator.
fn add<N: Node<Packet>>(
    sim: &mut Simulator<Packet>,
    trace: &Trace,
    node: N,
    frame: Frame,
    decoder: Decoder,
) -> NodeId {
    sim.add_node(Traced::new(node, frame, decoder, trace.clone()))
}

/// The `MultiTorRig` topology, node for node and link for link, with
/// every node traced.
fn build_traced(seed: u64, cfg: &DayConfig, trace: &Trace) -> (Simulator<Packet>, Ids) {
    let profiles = &cfg.profiles;
    let mut sim = Simulator::new(seed);
    let inter_tor = LinkSpec::ten_gbe(MultiTorRig::penalty().extra_latency);

    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..cfg.keys).map(|i| {
        let k = key_name(i);
        let v = expected_value(&k, 64);
        (k, v)
    }));
    let kvs_server = add(&mut sim, trace, server, Frame::Memcached, Decoder::Kvs);
    let lake = || LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5);
    let kvs_dev_home = add(&mut sim, trace, lake(), Frame::Lake, Decoder::Kvs);
    let kvs_dev_remote = add(&mut sim, trace, lake(), Frame::Lake, Decoder::Kvs);
    let kvs_client = add(
        &mut sim,
        trace,
        KvsClient::open_loop(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, MEMCACHED_PORT),
            profiles[MultiTorRig::KVS_APP].rate_at(Nanos::ZERO),
            Box::new(UniformGen {
                keys: cfg.keys,
                get_ratio: 0.97,
                value_len: 64,
            }),
        ),
        Frame::KvsClient,
        Decoder::Kvs,
    );
    let edge = LinkSpec::ten_gbe(Nanos::from_nanos(500));
    sim.connect_duplex(kvs_client, PortId::P0, kvs_dev_home, PortId::P0, edge);
    sim.connect_duplex(
        kvs_dev_home,
        HOST_DMA_PORT,
        kvs_dev_remote,
        PortId::P0,
        inter_tor,
    );
    let ideal = LinkSpec::ideal();
    sim.connect_duplex(kvs_dev_remote, HOST_DMA_PORT, kvs_server, PortId::P0, ideal);

    let zone = Zone::synthetic(cfg.names);
    let dns_server = add(
        &mut sim,
        trace,
        DnsServer::new(DnsServerConfig::nsd_behind_emu(), zone.clone()),
        Frame::Nsd,
        Decoder::Dns,
    );
    let dns_dev_home = add(
        &mut sim,
        trace,
        EmuDevice::new(zone.clone()),
        Frame::Emu,
        Decoder::Dns,
    );
    let dns_dev_remote = add(
        &mut sim,
        trace,
        EmuDevice::new(zone),
        Frame::Emu,
        Decoder::Dns,
    );
    let dns_client = add(
        &mut sim,
        trace,
        DnsClient::new(
            Endpoint::host(3, 41_000),
            Endpoint::host(4, DNS_PORT),
            profiles[MultiTorRig::DNS_APP].rate_at(Nanos::ZERO),
            cfg.names,
        ),
        Frame::DnsClient,
        Decoder::Dns,
    );
    sim.connect_duplex(dns_client, PortId::P0, dns_dev_home, PortId::P0, edge);
    sim.connect_duplex(
        dns_dev_home,
        HOST_DMA_PORT,
        dns_dev_remote,
        PortId::P0,
        inter_tor,
    );
    sim.connect_duplex(dns_dev_remote, HOST_DMA_PORT, dns_server, PortId::P0, ideal);

    let n_ports = 4 + 1 + N_ACCEPTORS as u16;
    let switch = L2Switch::new(n_ports);
    let pax_switch = add(&mut sim, trace, switch, Frame::Switch, Decoder::Udp);
    let mut next_port = 0u16;
    let mut attach = |sim: &mut Simulator<Packet>, node: NodeId, extra: Nanos| -> PortId {
        let p = PortId(next_port);
        next_port += 1;
        let link = LinkSpec::ten_gbe(Nanos::from_micros(1) + extra);
        sim.connect_duplex(node, PortId::P0, pax_switch, p, link);
        p
    };
    let paxos = |sim: &mut Simulator<Packet>, engine: RoleEngine, platform, own| {
        let node = PaxosNode::new(engine, platform, pax_book(own));
        add(sim, trace, node, Frame::PaxosNode, Decoder::Paxos)
    };
    let pax_sw_leader = paxos(
        &mut sim,
        RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_leader()),
        Endpoint::host(20, PAXOS_LEADER_PORT),
    );
    let pax_sw_port = attach(&mut sim, pax_sw_leader, Nanos::ZERO);
    let leader_ep = |ip| Endpoint::host(ip, PAXOS_LEADER_PORT);
    let hw_a = paxos(&mut sim, RoleEngine::Idle, Platform::fpga(), leader_ep(21));
    let hw_a_port = attach(&mut sim, hw_a, Nanos::ZERO);
    let hw_b = paxos(&mut sim, RoleEngine::Idle, Platform::fpga(), leader_ep(22));
    let hw_b_port = attach(&mut sim, hw_b, MultiTorRig::penalty().extra_latency);
    for i in 0..N_ACCEPTORS as u32 {
        let n = paxos(
            &mut sim,
            RoleEngine::Acceptor(Acceptor::new(i as u8, AcceptorStorage::unbounded())),
            Platform::host(HostConfig::libpaxos_acceptor()),
            Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT),
        );
        attach(&mut sim, n, Nanos::ZERO);
    }
    let pax_learner = paxos(
        &mut sim,
        RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_learner()),
        Endpoint::host(30, PAXOS_LEARNER_PORT),
    );
    attach(&mut sim, pax_learner, Nanos::ZERO);
    let pax_client = add(
        &mut sim,
        trace,
        PaxosClient::open_loop(
            100,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            profiles[MultiTorRig::PAX_APP].rate_at(Nanos::ZERO),
            PAX_TIMEOUT,
        ),
        Frame::PaxosClient,
        Decoder::Paxos,
    );
    attach(&mut sim, pax_client, Nanos::ZERO);
    sim.node_mut::<L2Switch>(pax_switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), pax_sw_port);
    sim.node_mut::<PaxosNode>(hw_a).set_parked(true);
    sim.node_mut::<PaxosNode>(hw_b).set_parked(true);

    let ids = Ids {
        kvs_client,
        kvs_dev_home,
        kvs_dev_remote,
        kvs_server,
        dns_client,
        dns_dev_home,
        dns_dev_remote,
        dns_server,
        pax_switch,
        pax_client,
        pax_sw_leader,
        pax_hw_leaders: [hw_a, hw_b],
        pax_sw_port,
        pax_hw_ports: [hw_a_port, hw_b_port],
        pax_round: Cell::new(2),
    };
    (sim, ids)
}

/// Executes one placement decision on the traced topology, exactly as
/// the rig's own executor does.
fn apply(sim: &mut Simulator<Packet>, ids: &Ids, t: Nanos, app: usize, p: Placement) {
    let on = |d: DeviceId| {
        if p == Placement::Device(d) {
            Placement::HARDWARE
        } else {
            Placement::Software
        }
    };
    match app {
        MultiTorRig::KVS_APP => {
            sim.node_mut::<LakeDevice>(ids.kvs_dev_home)
                .apply_placement(t, on(MultiTorRig::TOR_A));
            sim.node_mut::<LakeDevice>(ids.kvs_dev_remote)
                .apply_placement(t, on(MultiTorRig::TOR_B));
        }
        MultiTorRig::DNS_APP => {
            sim.node_mut::<EmuDevice>(ids.dns_dev_home)
                .apply_placement(t, on(MultiTorRig::TOR_B));
            sim.node_mut::<EmuDevice>(ids.dns_dev_remote)
                .apply_placement(t, on(MultiTorRig::TOR_A));
        }
        MultiTorRig::PAX_APP => {
            let (to_node, to_port) = match p {
                Placement::Software => (ids.pax_sw_leader, ids.pax_sw_port),
                Placement::Device(d) => {
                    (ids.pax_hw_leaders[d.index()], ids.pax_hw_ports[d.index()])
                }
            };
            let leaders = std::iter::once(ids.pax_sw_leader).chain(ids.pax_hw_leaders);
            let ports = std::iter::once(ids.pax_sw_port).chain(ids.pax_hw_ports);
            for (n, port) in leaders.zip(ports) {
                if n != to_node {
                    let node = sim.node_mut::<PaxosNode>(n);
                    node.deactivate();
                    node.set_parked(true);
                    sim.node_mut::<L2Switch>(ids.pax_switch).unsteer_port(port);
                }
            }
            sim.node_mut::<PaxosNode>(to_node).set_parked(false);
            sim.node_mut::<L2Switch>(ids.pax_switch)
                .steer(Match::udp_dst(PAXOS_LEADER_PORT), to_port);
            let round = ids.pax_round.get();
            ids.pax_round.set(round + 1);
            sim.with_node_ctx::<PaxosNode, _>(to_node, |n, ctx| n.activate_leader(ctx, round));
        }
        other => panic!("unknown app index {other}"),
    }
}

fn observation(sample: FleetSample, window: (u64, Histogram), power_w: f64) -> AppObservation {
    AppObservation {
        sample,
        completed: window.0,
        latency_p50_ns: window.1.quantile(0.5),
        latency_p99_ns: window.1.quantile(0.99),
        power_w,
    }
}

fn sample(rapl_w: f64, app_cpu_util: f64, hw_app_rate: f64, offered_pps: f64) -> FleetSample {
    FleetSample {
        host: HostSample {
            rapl_w,
            app_cpu_util,
            hw_app_rate,
        },
        offered_pps,
    }
}

/// Runs the traced topology for one day under `ctl`, with the rig's
/// probe and executor, attributing time to the spans of `trace`.
fn run_traced(
    sim: &mut Simulator<Packet>,
    ids: &Ids,
    cfg: &DayConfig,
    ctl: &mut FleetController,
    trace: &Trace,
) -> FleetTimeline {
    let now = sim.now();
    let seeded: Vec<Placement> = ctl.placements().to_vec();
    for (app, &p) in seeded.iter().enumerate() {
        if p.is_offloaded() {
            apply(sim, ids, now, app, p);
        }
    }
    let interval = cfg.interval;
    let dt = interval.as_secs_f64();
    let mut sched = TracedScheduler::new(ctl, trace.clone());
    trace.borrow_mut().enter(Frame::RunUntil);
    let tl = run_fleet_controlled_with(
        sim,
        &mut sched,
        cfg.day,
        RowLog::Full,
        |sim| {
            {
                let mut t = trace.borrow_mut();
                t.exit(Frame::RunUntil);
                t.enter(Frame::Gen);
            }
            let now = sim.now();
            let [kvs_p, dns_p, pax_p] = &cfg.profiles;
            sim.node_mut::<KvsClient>(ids.kvs_client)
                .set_rate(kvs_p.rate_at(now));
            sim.node_mut::<DnsClient>(ids.dns_client)
                .set_rate(dns_p.rate_at(now));
            sim.node_mut::<PaxosClient>(ids.pax_client)
                .set_rate(pax_p.rate_at(now));
            let mid = now - interval.mul_f64(0.5);
            let offered = [kvs_p.rate_at(mid), dns_p.rate_at(mid), pax_p.rate_at(mid)];
            {
                let mut t = trace.borrow_mut();
                t.exit(Frame::Gen);
                t.enter(Frame::Probe);
            }
            let kvs_w = sim.node_mut::<KvsClient>(ids.kvs_client).take_window();
            let dns_w = sim.node_mut::<DnsClient>(ids.dns_client).take_window();
            let pax_w = sim.node_mut::<PaxosClient>(ids.pax_client).take_window();
            let records = kvs_w.1.count() + dns_w.1.count() + pax_w.1.count();
            let (kvs_done, dns_done, pax_done) = (kvs_w.0, dns_w.0, pax_w.0);
            let memcached = sim.node_ref::<MemcachedServer>(ids.kvs_server);
            let nsd = sim.node_ref::<DnsServer>(ids.dns_server);
            let obs = vec![
                observation(
                    sample(
                        memcached.power_w(now),
                        memcached.app_utilization(),
                        kvs_done as f64 / dt,
                        offered[0],
                    ),
                    kvs_w,
                    sim.instant_power(&[ids.kvs_dev_home, ids.kvs_dev_remote, ids.kvs_server]),
                ),
                observation(
                    sample(
                        Node::power_w(nsd, now),
                        nsd.utilization(),
                        dns_done as f64 / dt,
                        offered[1],
                    ),
                    dns_w,
                    sim.instant_power(&[ids.dns_dev_home, ids.dns_dev_remote, ids.dns_server]),
                ),
                observation(
                    sample(
                        Node::power_w(sim.node_ref::<PaxosNode>(ids.pax_sw_leader), now),
                        0.0,
                        pax_done as f64 / dt,
                        offered[2],
                    ),
                    pax_w,
                    sim.instant_power(&[
                        ids.pax_sw_leader,
                        ids.pax_hw_leaders[0],
                        ids.pax_hw_leaders[1],
                    ]),
                ),
            ];
            let mut t = trace.borrow_mut();
            t.exit(Frame::Probe);
            t.counters.hist_records += records;
            obs
        },
        |sim, t, app, p| {
            trace.borrow_mut().enter(Frame::Apply);
            apply(sim, ids, t, app, p);
            trace.borrow_mut().exit(Frame::Apply);
        },
    );
    trace.borrow_mut().exit(Frame::RunUntil);
    tl
}

/// One traced day; the caller's trace receives its spans and counters.
pub fn traced_day(seed: u64, cfg: &DayConfig, trace: &Trace) -> (Day, LayerCounts) {
    trace.borrow_mut().enter(Frame::Rep);
    let (mut sim, ids) = build_traced(seed, cfg, trace);
    let mut ctl = MultiTorRig::fleet_controller(cfg.interval);
    let tl = run_traced(&mut sim, &ids, cfg, &mut ctl, trace);
    trace.borrow_mut().exit(Frame::Rep);
    let clients = [ids.kvs_client, ids.dns_client, ids.pax_client];
    let day = day_of(&sim, clients, &ctl, &tl);
    let counts = LayerCounts::of(&sim, &ids);
    (day, counts)
}

/// Per-layer counters read off the simulated devices and servers after
/// a day.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    lake_hw: u64,
    lake_host: u64,
    kvs_drops: u64,
    emu_hw: u64,
    emu_host: u64,
    dns_drops: u64,
}

impl LayerCounts {
    fn of(sim: &Simulator<Packet>, ids: &Ids) -> Self {
        let mut c = LayerCounts::default();
        for id in [ids.kvs_dev_home, ids.kvs_dev_remote] {
            let s = sim.node_ref::<LakeDevice>(id).stats();
            c.lake_hw += s.served_hw;
            c.lake_host += s.to_host;
            c.kvs_drops += s.dropped;
        }
        c.kvs_drops += sim.node_ref::<MemcachedServer>(ids.kvs_server).dropped();
        for id in [ids.dns_dev_home, ids.dns_dev_remote] {
            let s = sim.node_ref::<EmuDevice>(id).stats();
            c.emu_hw += s.served_hw;
            c.emu_host += s.to_host;
            c.dns_drops += s.dropped;
        }
        c.dns_drops += sim.node_ref::<DnsServer>(ids.dns_server).dropped();
        c
    }
}

fn frac(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = DayConfig::canonical();

    // Timed days, each one lap and each followed by timed set-up blocks and
    // runs of the reference kernel. With tracing on, a traced day follows
    // each untraced one, so both sample the same host conditions; with it
    // off, one traced day at the end checks that tracing changes nothing.
    let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
    let mut laps = Laps::default();
    let mut between = crate::Between::default();
    let mut traced_walls = Vec::new();
    let mut first = None;
    let mut repeatable = true;
    let mut traced_same = true;
    let mut peak_rss;
    let start = Instant::now();
    let counts = loop {
        let (wall_s, day) = untraced_day(args.seed, &cfg);
        laps.push(&[wall_s]);
        out.attempted += day.attempted();
        out.failed += day.failed();
        repeatable &= matches_first(&mut first, day);
        between.sample(|| setup(args.seed, &cfg));
        peak_rss = crate::host::peak_rss_mib();
        let last = laps.reps() >= crate::MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds;
        if args.trace || last {
            let (traced, counts) = traced_rep(&trace, &mut traced_walls, || {
                traced_day(args.seed, &cfg, &trace)
            });
            traced_same &= first.as_ref() == Some(&traced);
            if last {
                break counts;
            }
        }
    };
    let day: Day = first.expect("at least one repetition");
    out.check(repeatable, "repeated days with one seed differ");
    out.check(traced_same, "the traced day differs from the untraced day");
    out.check(day.kvs.2 == 0, format!("{} corrupt KVS replies", day.kvs.2));
    out.check(day.dns.2 == 0, format!("{} wrong DNS replies", day.dns.2));
    out.check(
        day.unrouted == 0,
        format!("{} unrouted frames", day.unrouted),
    );

    // The canonical day still costs 778.2 J.
    let canonical = if args.seed == CANONICAL_SEED {
        day.clone()
    } else {
        untraced_day(CANONICAL_SEED, &cfg).1
    };
    let deci_j = (canonical.energy_j() * 10.0).round() as i64;
    out.check(
        deci_j == CANONICAL_DECI_J,
        format!(
            "canonical day energy {} J, expected 778.2 J",
            canonical.energy_j()
        ),
    );

    let p = trace.borrow();
    out.check(p.balanced(), "unbalanced trace spans");
    out.check(
        p.counters.decode_errors == 0,
        format!(
            "{} delivered frames failed to re-decode",
            p.counters.decode_errors
        ),
    );

    let setup_s = between.setup_s();
    let wall = laps.fast_s() * between.scale();
    let [setup_fig, ref_fig] = between.figures();
    let replies = day.replies() as f64;
    let (n, p50, p99) = day.latency;
    out.figures = vec![
        setup_fig,
        ref_fig,
        Figure::new("wall_s", wall, "s").note(laps.note(
            between.scale(),
            &format!("a simulated {} s day", DAY.as_secs_f64()),
        )),
        Figure::new("peak_rss_mib", peak_rss, "MiB"),
        Figure::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!(
            "{} failed of {} requests",
            out.failed, out.attempted
        )),
        Figure::new("requests_per_s", replies / wall, "1/s")
            .note(format!("{} replies per day, over wall_s", day.replies())),
        Figure::new("sim_events_per_s", day.events as f64 / wall, "1/s")
            .note(format!("{} events per day", day.events)),
        Figure::new("energy_j", day.energy_j(), "J"),
        Figure::new("latency_p50_us", p50 as f64 / 1e3, "us").note(format!("{n} samples")),
        Figure::new("latency_p99_us", p99 as f64 / 1e3, "us").note(format!("{n} samples")),
    ];
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", wall);
    out.metrics.insert("ops_per_s", replies / wall);
    out.metrics.insert("peak_rss_mib", peak_rss);

    if args.trace {
        let reps = traced_walls.len();
        let mut m = layer_timings(&p, reps);
        let events = day.events as f64;
        m.insert("sim.events", events);
        m.insert("sim.ns_per_event", m["sim.self_s"] * 1e9 / events.max(1.0));
        m.insert("kvs.lake_hw_frac", frac(counts.lake_hw, counts.lake_host));
        m.insert("kvs.drops", counts.kvs_drops as f64);
        m.insert("dns.emu_hw_frac", frac(counts.emu_hw, counts.emu_host));
        m.insert("dns.drops", counts.dns_drops as f64);
        m.insert("paxos.retries", day.pax.2 as f64);
        m.insert("ondemand.shifts", day.shifts.len() as f64);
        m.insert(
            "stats.hist_records",
            // The clients' cumulative histograms record every reply once
            // more than the windows the probe took.
            p.counters.hist_records as f64 / reps as f64 + day.latency.0 as f64,
        );
        m.insert("stats.timeline_rows", day.timeline_rows as f64);
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

    /// A short day at the canonical peak rates: short enough for debug
    /// builds, long enough for the controller to move tenants.
    fn small() -> DayConfig {
        let day = Nanos::from_millis(700);
        DayConfig {
            keys: 64,
            names: 64,
            profiles: MultiTorRig::contended_profiles(day),
            day,
            interval: Nanos::from_millis(35),
        }
    }

    #[test]
    fn decorator_downcasts_to_the_inner_node() {
        let cfg = small();
        let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
        let (mut sim, ids) = build_traced(3, &cfg, &trace);
        let rig = MultiTorRig::new(3, cfg.keys, cfg.names, cfg.profiles.clone());
        assert_eq!(sim.node_ref::<KvsClient>(ids.kvs_client).stats().sent, 0);
        assert_eq!(
            sim.instant_power(&[ids.dns_server, ids.pax_hw_leaders[1]])
                .to_bits(),
            rig.sim
                .instant_power(&[rig.dns_server, rig.pax_hw_leaders[1]])
                .to_bits()
        );
        sim.node_mut::<LakeDevice>(ids.kvs_dev_home)
            .apply_placement(Nanos::ZERO, Placement::HARDWARE);
        assert_eq!(
            sim.node_ref::<LakeDevice>(ids.kvs_dev_home).placement(),
            Placement::HARDWARE
        );
        sim.node_mut::<PaxosNode>(ids.pax_hw_leaders[0])
            .set_parked(false);
        sim.with_node_ctx::<PaxosNode, _>(ids.pax_hw_leaders[0], |n, ctx| {
            n.activate_leader(ctx, 2)
        });
        assert!(trace.borrow().balanced());
    }

    #[test]
    fn tracing_leaves_a_small_days_shift_log_unchanged() {
        let cfg = small();
        let (_, plain) = untraced_day(9, &cfg);
        let trace: Trace = Rc::new(RefCell::new(Profiler::new()));
        let (traced, _) = traced_day(9, &cfg, &trace);
        assert!(
            !plain.shifts.is_empty(),
            "the small day should move tenants"
        );
        assert_eq!(traced, plain);
        let p = trace.borrow();
        assert!(p.balanced());
        assert_eq!(p.counters.decode_errors, 0);
        assert!(p.counters.deliveries > 0 && p.calls(Frame::Sample) > 0);
        assert!(p.attributed_ns() <= p.traced_wall_ns());
    }
}
