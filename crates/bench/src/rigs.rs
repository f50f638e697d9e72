//! Reusable simulation topologies for the event-driven experiments.

use inc_dns::{DnsClient, DnsServer, DnsServerConfig, EmuDevice, Zone, DNS_PORT};
use inc_hw::{
    DeviceFabric, DeviceId, PipelineBudget, Placement, ProgramResources, TierCost, Topology,
    HOST_DMA_PORT,
};
use inc_kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, OpGen, UniformGen, MEMCACHED_PORT,
};
use inc_net::{Endpoint, Packet};
use inc_net::{L2Switch, Match};
use inc_ondemand::{
    run_fleet_controlled_with, AppObservation, ArbiterConfig, ArbitrationMode, ClaimPolicy,
    FleetApp, FleetController, FleetControllerConfig, FleetSample, FleetTimeline,
    HierarchicalController, HostSample, PlacementAnalysis, RowLog,
};
use inc_paxos::{
    Acceptor, AcceptorStorage, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode,
    Platform, RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc_power::{calib, EnergyParams, LinkEnergyModel};
use inc_sim::{LinkSpec, Nanos, Node, NodeId, PortId, Rng, Simulator};
use inc_workloads::{RateProfile, Zipf};
use std::cell::Cell;

/// The Figure 1 KVS topology: client ↔ LaKe ↔ memcached.
pub struct KvsRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// Load generator node.
    pub client: NodeId,
    /// LaKe card node.
    pub device: NodeId,
    /// memcached host node.
    pub server: NodeId,
}

impl KvsRig {
    /// Builds the rig with `keys` preloaded keys of `value_len` bytes and
    /// an arbitrary op generator.
    pub fn new(
        seed: u64,
        rate_pps: f64,
        keys: u64,
        value_len: usize,
        gen: Box<dyn OpGen>,
        hardware: bool,
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let client_ep = Endpoint::host(1, 40_000);
        let server_ep = Endpoint::host(2, MEMCACHED_PORT);
        let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
        server.preload((0..keys).map(|i| {
            let k = key_name(i);
            let v = expected_value(&k, value_len);
            (k, v)
        }));
        let server = sim.add_node(server);
        let mut dev = LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5);
        if hardware {
            dev = dev.started_in_hardware();
        }
        let device = sim.add_node(dev);
        let client = sim.add_node(KvsClient::open_loop(client_ep, server_ep, rate_pps, gen));
        sim.connect_duplex(
            client,
            PortId::P0,
            device,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(device, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());
        KvsRig {
            sim,
            client,
            device,
            server,
        }
    }
}

/// The DNS topology: client ↔ Emu ↔ NSD, sharing one zone.
pub struct DnsRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// Query generator node.
    pub client: NodeId,
    /// Emu DNS card node.
    pub device: NodeId,
    /// NSD host node.
    pub server: NodeId,
}

impl DnsRig {
    /// Builds the rig over a synthetic zone of `names` records.
    pub fn new(seed: u64, rate_pps: f64, names: u64, hardware: bool) -> Self {
        let mut sim = Simulator::new(seed);
        let zone = Zone::synthetic(names);
        let server = sim.add_node(DnsServer::new(
            DnsServerConfig::nsd_behind_emu(),
            zone.clone(),
        ));
        let mut dev = EmuDevice::new(zone);
        if hardware {
            dev = dev.started_in_hardware();
        }
        let device = sim.add_node(dev);
        let client = sim.add_node(DnsClient::new(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, inc_dns::DNS_PORT),
            rate_pps,
            names,
        ));
        sim.connect_duplex(
            client,
            PortId::P0,
            device,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(device, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());
        DnsRig {
            sim,
            client,
            device,
            server,
        }
    }
}

/// The Figure 7 Paxos topology: clients + software/hardware leaders +
/// three acceptors + learner, joined by a steerable switch.
pub struct PaxosRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// The switch.
    pub switch: NodeId,
    /// Closed-loop clients.
    pub clients: Vec<NodeId>,
    /// The libpaxos leader node.
    pub sw_leader: NodeId,
    /// The P4xos (FPGA) leader node.
    pub hw_leader: NodeId,
    /// Acceptor nodes.
    pub acceptors: Vec<NodeId>,
    /// Learner node.
    pub learner: NodeId,
    /// Switch port of the software leader.
    pub sw_leader_port: PortId,
    /// Switch port of the hardware leader.
    pub hw_leader_port: PortId,
    next_round: u16,
}

impl PaxosRig {
    const N_ACCEPTORS: usize = 3;

    fn book(own: Endpoint) -> AddressBook {
        AddressBook {
            own,
            leader: Endpoint::host(99, PAXOS_LEADER_PORT),
            acceptors: (0..Self::N_ACCEPTORS as u32)
                .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
                .collect(),
            learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
        }
    }

    /// Builds the rig with `n_clients` closed-loop clients (one
    /// outstanding command each) and the given retry timeout.
    pub fn new(seed: u64, n_clients: u32, timeout: Nanos) -> Self {
        let mut sim = Simulator::new(seed);
        let n_ports = 4 + n_clients as u16 + Self::N_ACCEPTORS as u16;
        let switch = sim.add_node(L2Switch::new(n_ports));
        let mut next_port = 0u16;
        let mut attach = |sim: &mut Simulator<Packet>, node: NodeId| -> PortId {
            let p = PortId(next_port);
            next_port += 1;
            sim.connect_duplex(
                node,
                PortId::P0,
                switch,
                p,
                LinkSpec::ten_gbe(Nanos::from_micros(1)),
            );
            p
        };
        let sw_leader = sim.add_node(PaxosNode::new(
            RoleEngine::Leader(Leader::bootstrap(1, Self::N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_leader()),
            Self::book(Endpoint::host(20, PAXOS_LEADER_PORT)),
        ));
        let sw_leader_port = attach(&mut sim, sw_leader);
        let hw_leader = sim.add_node(PaxosNode::new(
            RoleEngine::Idle,
            Platform::fpga(),
            Self::book(Endpoint::host(21, PAXOS_LEADER_PORT)),
        ));
        let hw_leader_port = attach(&mut sim, hw_leader);
        let mut acceptors = Vec::new();
        for i in 0..Self::N_ACCEPTORS as u32 {
            let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
            let n = sim.add_node(PaxosNode::new(
                RoleEngine::Acceptor(Acceptor::new(i as u8, AcceptorStorage::unbounded())),
                Platform::host(HostConfig::libpaxos_acceptor()),
                Self::book(ep),
            ));
            attach(&mut sim, n);
            acceptors.push(n);
        }
        let learner = sim.add_node(PaxosNode::new(
            RoleEngine::Learner(Learner::new(Self::N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_learner()),
            Self::book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
        ));
        attach(&mut sim, learner);
        let mut clients = Vec::new();
        for id in 0..n_clients {
            let c = sim.add_node(PaxosClient::new(
                100 + id,
                Endpoint::host(99, PAXOS_LEADER_PORT),
                1,
                timeout,
            ));
            attach(&mut sim, c);
            clients.push(c);
        }
        sim.node_mut::<L2Switch>(switch)
            .steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_leader_port);
        PaxosRig {
            sim,
            switch,
            clients,
            sw_leader,
            hw_leader,
            acceptors,
            learner,
            sw_leader_port,
            hw_leader_port,
            next_round: 2,
        }
    }

    /// Shifts the leader role to the hardware node (§9.2).
    ///
    /// Rule replacement is not atomic in a real switch: the old leader is
    /// stopped first, and for a brief window leader-bound traffic still
    /// reaches it and is lost — the loss the client retry timeout covers
    /// (the ~100 ms zero-throughput dip of Figure 7).
    pub fn shift_leader_to_hardware(&mut self) {
        self.shift_leader(
            self.sw_leader,
            self.hw_leader,
            self.sw_leader_port,
            self.hw_leader_port,
        );
    }

    /// Shifts the leader role back to the software node.
    pub fn shift_leader_to_software(&mut self) {
        self.shift_leader(
            self.hw_leader,
            self.sw_leader,
            self.hw_leader_port,
            self.sw_leader_port,
        );
    }

    fn shift_leader(&mut self, from: NodeId, to: NodeId, from_port: PortId, to_port: PortId) {
        let round = self.next_round;
        self.next_round += 1;
        // Stop the old leader; traffic keeps flowing to it (and dying)
        // while the controller replaces the forwarding rule.
        self.sim.node_mut::<PaxosNode>(from).deactivate();
        let now = self.sim.now();
        self.sim.run_until(now + Nanos::from_millis(1));
        {
            let sw = self.sim.node_mut::<L2Switch>(self.switch);
            sw.unsteer_port(from_port);
            sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), to_port);
        }
        self.sim
            .with_node_ctx::<PaxosNode, _>(to, |n, ctx| n.activate_leader(ctx, round));
    }

    /// Total commands acknowledged across clients.
    pub fn total_acked(&self) -> u64 {
        self.clients
            .iter()
            .map(|&c| self.sim.node_ref::<PaxosClient>(c).stats().acked)
            .sum()
    }
}

/// The shared-device topology: KVS and DNS tenants contending for one
/// capacity-bounded programmable device.
///
/// The physical card is modelled as two logical partitions — the LaKe
/// engine serving memcached traffic and the Emu core serving DNS — each a
/// bump-in-the-wire in front of its software server. Whether a
/// partition's program may be *resident* (hardware placement) is decided
/// by the `FleetController`'s shared [`inc_hw::DeviceCapacity`] ledger: the
/// [`SharedDeviceRig::shared_budget`] admits either program alone but not
/// both, so every offload is an arbitration decision. The shell base
/// power appears once per partition; it is a constant offset common to
/// every placement configuration, so energy *comparisons* between
/// schedules are unaffected.
pub struct SharedDeviceRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// KVS load generator.
    pub kvs_client: NodeId,
    /// LaKe partition of the shared card.
    pub kvs_device: NodeId,
    /// memcached host node.
    pub kvs_server: NodeId,
    /// DNS query generator.
    pub dns_client: NodeId,
    /// Emu partition of the shared card.
    pub dns_device: NodeId,
    /// NSD host node.
    pub dns_server: NodeId,
    /// Offered-rate schedule of the KVS tenant.
    pub kvs_profile: RateProfile,
    /// Offered-rate schedule of the DNS tenant.
    pub dns_profile: RateProfile,
}

impl SharedDeviceRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;

    /// Rate at which the (linearised) software power fit is anchored.
    const KVS_FIT_PPS: f64 = 200_000.0;
    const DNS_FIT_PPS: f64 = 150_000.0;

    /// The canonical contended scenario: two offset diurnal days over
    /// `period` — the KVS peaks at ~0.29 of the day, the DNS at ~0.63 —
    /// whose busy windows overlap enough that the hand-over is an
    /// arbitration decision rather than two disjoint bursts. Shared by
    /// the e2e test, the example, and the criterion bench so they all
    /// exercise the same scenario.
    pub fn contended_profiles(period: Nanos) -> (RateProfile, RateProfile) {
        (
            RateProfile::diurnal(
                2_000.0,
                120_000.0,
                period,
                period.mul_f64(3.0 / 14.0),
                3,
                64,
            ),
            RateProfile::diurnal(
                2_000.0,
                80_000.0,
                period,
                period.mul_f64(61.0 / 70.0),
                3,
                64,
            ),
        )
    }

    /// Builds the rig: both tenants preloaded and idling in software.
    pub fn new(
        seed: u64,
        keys: u64,
        names: u64,
        kvs_profile: RateProfile,
        dns_profile: RateProfile,
    ) -> Self {
        let mut sim = Simulator::new(seed);

        // KVS slice.
        let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
        server.preload((0..keys).map(|i| {
            let k = key_name(i);
            let v = expected_value(&k, 64);
            (k, v)
        }));
        let kvs_server = sim.add_node(server);
        let kvs_device = sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5));
        let kvs_client = sim.add_node(KvsClient::open_loop(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, MEMCACHED_PORT),
            kvs_profile.rate_at(Nanos::ZERO),
            Box::new(UniformGen {
                keys,
                get_ratio: 0.97,
                value_len: 64,
            }),
        ));
        sim.connect_duplex(
            kvs_client,
            PortId::P0,
            kvs_device,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(
            kvs_device,
            HOST_DMA_PORT,
            kvs_server,
            PortId::P0,
            LinkSpec::ideal(),
        );

        // DNS slice.
        let zone = Zone::synthetic(names);
        let dns_server = sim.add_node(DnsServer::new(
            DnsServerConfig::nsd_behind_emu(),
            zone.clone(),
        ));
        let dns_device = sim.add_node(EmuDevice::new(zone));
        let dns_client = sim.add_node(DnsClient::new(
            Endpoint::host(3, 41_000),
            Endpoint::host(4, DNS_PORT),
            dns_profile.rate_at(Nanos::ZERO),
            names,
        ));
        sim.connect_duplex(
            dns_client,
            PortId::P0,
            dns_device,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(
            dns_device,
            HOST_DMA_PORT,
            dns_server,
            PortId::P0,
            LinkSpec::ideal(),
        );

        SharedDeviceRig {
            sim,
            kvs_client,
            kvs_device,
            kvs_server,
            dns_client,
            dns_device,
            dns_server,
            kvs_profile,
            dns_profile,
        }
    }

    /// The shared device budget: a Tofino-class pipeline that admits
    /// either tenant's program alone but not both (13 stages > 12,
    /// 60 MB SRAM > 48 MB).
    pub fn shared_budget() -> PipelineBudget {
        PipelineBudget::tofino_like()
    }

    /// The LaKe program's capacity claim: SRAM-bound (hash table plus
    /// value-store tables claim most of the device's stateful memory).
    pub fn kvs_demand() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 40 << 20,
            parse_depth_bytes: 96,
        }
    }

    /// The Emu program's capacity claim: stage-bound (name parsing burns
    /// pipeline stages, the record table is modest).
    pub fn dns_demand() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 20 << 20,
            parse_depth_bytes: 128,
        }
    }

    /// The §8 benefit analyses for both tenants, with the *shared-NIC*
    /// economics: the card is present in both placements (it is the
    /// host's NIC), so software placement pays the parked card while
    /// hardware placement pays the unparked card — the idle terms are the
    /// measured parked/unparked powers of the calibrated device models,
    /// and the software dynamic term is the host CPU model linearised at
    /// the fit anchor.
    pub fn fleet_apps() -> Vec<FleetApp> {
        // Parked vs unparked powers, measured from the device models
        // exactly as the simulation will meter them.
        let lake_cfg = LakeCacheConfig::tiny(8, 32);
        let lake_parked = LakeDevice::new(lake_cfg, 5).power_w(Nanos::ZERO);
        let lake_active = LakeDevice::new(lake_cfg, 5)
            .started_in_hardware()
            .power_w(Nanos::ZERO);
        let emu_parked = EmuDevice::new(Zone::synthetic(1)).power_w(Nanos::ZERO);
        let emu_active = EmuDevice::new(Zone::synthetic(1))
            .started_in_hardware()
            .power_w(Nanos::ZERO);

        let mc = MemcachedConfig::i7_behind_lake();
        let kvs_sw_idle = calib::I7_PLATFORM_IDLE_W + lake_parked;
        let kvs_dyn_at_fit = mc
            .cpu
            .dynamic_w(Self::KVS_FIT_PPS * mc.service_time.as_secs_f64());
        let kvs_hw_idle = calib::I7_PLATFORM_IDLE_W + lake_active;

        let nsd = DnsServerConfig::nsd_behind_emu();
        let dns_sw_idle = calib::I7_PLATFORM_IDLE_W + emu_parked;
        let dns_dyn_at_fit = nsd
            .cpu
            .dynamic_w(Self::DNS_FIT_PPS * nsd.service_time.as_secs_f64());
        let dns_hw_idle = calib::I7_PLATFORM_IDLE_W + emu_active;

        vec![
            FleetApp {
                name: "kvs".into(),
                demand: Self::kvs_demand(),
                home: DeviceId::LOCAL,
                weight: 1.0,
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: kvs_sw_idle,
                        sleep_w: 0.0,
                        active_w: kvs_sw_idle + kvs_dyn_at_fit,
                        peak_rate_pps: Self::KVS_FIT_PPS,
                    },
                    network: EnergyParams {
                        idle_w: kvs_hw_idle,
                        sleep_w: 0.0,
                        active_w: kvs_hw_idle + calib::LAKE_DYNAMIC_MAX_W,
                        peak_rate_pps: calib::LAKE_LINE_RATE_PPS,
                    },
                },
            },
            FleetApp {
                name: "dns".into(),
                demand: Self::dns_demand(),
                home: DeviceId::LOCAL,
                weight: 1.0,
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: dns_sw_idle,
                        sleep_w: 0.0,
                        active_w: dns_sw_idle + dns_dyn_at_fit,
                        peak_rate_pps: Self::DNS_FIT_PPS,
                    },
                    network: EnergyParams {
                        idle_w: dns_hw_idle,
                        sleep_w: 0.0,
                        active_w: dns_hw_idle + calib::EMU_DNS_DYNAMIC_MAX_W,
                        peak_rate_pps: calib::EMU_DNS_PEAK_RPS,
                    },
                },
            },
        ]
    }

    /// A fleet controller over the shared budget with the standard
    /// hysteresis settings.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(
            FleetControllerConfig::standard(interval),
            DeviceFabric::single(Self::shared_budget()),
            Self::fleet_apps(),
        )
    }

    /// A controller pinned to a fixed placement vector (the static
    /// baselines the on-demand schedule is judged against): an infinite
    /// sustain window means no condition ever completes.
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 2]) -> FleetController {
        let config = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..FleetControllerConfig::standard(interval)
        };
        FleetController::new(
            config,
            DeviceFabric::single(Self::shared_budget()),
            Self::fleet_apps(),
        )
        .with_initial_placements(&placements)
    }

    /// Runs the experiment until `until` under `controller`, driving both
    /// tenants' diurnal schedules and recording per-app timelines plus
    /// total metered energy (each tenant's device partition and server).
    pub fn run(&mut self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        self.run_with(controller, until, RowLog::Full)
    }

    /// [`SharedDeviceRig::run`] with an explicit timeline row-retention
    /// mode (the streaming-equivalence tests drive both).
    pub fn run_with(
        &mut self,
        controller: &mut FleetController,
        until: Nanos,
        mode: RowLog,
    ) -> FleetTimeline {
        // Execute any pre-seeded placements on the simulated hardware.
        let now = self.sim.now();
        if controller.placements()[Self::KVS_APP].is_offloaded() {
            self.sim
                .node_mut::<LakeDevice>(self.kvs_device)
                .apply_placement(now, Placement::HARDWARE);
        }
        if controller.placements()[Self::DNS_APP].is_offloaded() {
            self.sim
                .node_mut::<EmuDevice>(self.dns_device)
                .apply_placement(now, Placement::HARDWARE);
        }
        let interval = controller.config().fleet.interval;
        let (kvs_client, kvs_device, kvs_server) =
            (self.kvs_client, self.kvs_device, self.kvs_server);
        let (dns_client, dns_device, dns_server) =
            (self.dns_client, self.dns_device, self.dns_server);
        let kvs_profile = self.kvs_profile.clone();
        let dns_profile = self.dns_profile.clone();
        run_fleet_controlled_with(
            &mut self.sim,
            controller,
            until,
            mode,
            |sim| {
                let now = sim.now();
                // Follow the offered-rate schedules.
                sim.node_mut::<KvsClient>(kvs_client)
                    .set_rate(kvs_profile.rate_at(now));
                sim.node_mut::<DnsClient>(dns_client)
                    .set_rate(dns_profile.rate_at(now));
                // The host-measured arrival rate over the elapsed interval
                // (sampled at its midpoint): completions would understate
                // offered load whenever the software server saturates —
                // exactly when offloading matters most.
                let mid = now - interval.mul_f64(0.5);
                let kvs_offered = kvs_profile.rate_at(mid);
                let dns_offered = dns_profile.rate_at(mid);
                let (kvs_done, kvs_lat) = sim.node_mut::<KvsClient>(kvs_client).take_window();
                let (dns_done, dns_lat) = sim.node_mut::<DnsClient>(dns_client).take_window();
                vec![
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: sim.node_ref::<MemcachedServer>(kvs_server).power_w(now),
                                app_cpu_util: sim
                                    .node_ref::<MemcachedServer>(kvs_server)
                                    .app_utilization(),
                                hw_app_rate: sim
                                    .node_mut::<LakeDevice>(kvs_device)
                                    .measured_rate(now),
                            },
                            offered_pps: kvs_offered,
                        },
                        completed: kvs_done,
                        latency_p50_ns: kvs_lat.quantile(0.5),
                        latency_p99_ns: kvs_lat.quantile(0.99),
                        power_w: sim.instant_power(&[kvs_device, kvs_server]),
                    },
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: Node::power_w(sim.node_ref::<DnsServer>(dns_server), now),
                                app_cpu_util: sim.node_ref::<DnsServer>(dns_server).utilization(),
                                hw_app_rate: sim
                                    .node_mut::<EmuDevice>(dns_device)
                                    .measured_rate(now),
                            },
                            offered_pps: dns_offered,
                        },
                        completed: dns_done,
                        latency_p50_ns: dns_lat.quantile(0.5),
                        latency_p99_ns: dns_lat.quantile(0.99),
                        power_w: sim.instant_power(&[dns_device, dns_server]),
                    },
                ]
            },
            |sim, t, app, p| match app {
                Self::KVS_APP => sim.node_mut::<LakeDevice>(kvs_device).apply_placement(t, p),
                _ => sim.node_mut::<EmuDevice>(dns_device).apply_placement(t, p),
            },
        )
    }
}

/// The §9.4 multi-ToR topology: two racks, each with its own programmable
/// device, shared by three tenants under a fleet controller that decides
/// *where* each program runs, not just whether it is offloaded.
///
/// * The **KVS** tenant (memcached + LaKe program) is homed on ToR A.
/// * The **Paxos** tenant (libpaxos leader + P4xos program) is also homed
///   on ToR A — so at overlapping peaks the two contend for one pipeline
///   and the loser must either stay in software or *spill* to ToR B.
/// * The **DNS** tenant (NSD + Emu program) is homed on ToR B.
///
/// Each ToR's device is realised as per-tenant partitions, exactly as
/// [`SharedDeviceRig`] modelled one card as two partitions. The KVS and
/// DNS slices are serial bump-in-the-wire chains — client → home-ToR
/// partition → (inter-ToR link) → remote-ToR partition → server — so a
/// remote placement physically pays the [`TierCost::extra_latency`]
/// detour on every request and response. (The chain also routes
/// software-mode traffic through the parked remote partition; that adds
/// the same constant to every configuration, so placements still *rank*
/// correctly and energy comparisons are unaffected.) The Paxos slice uses
/// the §9.2 virtual-leader machinery: a steerable switch in front of one
/// software leader and one P4xos FPGA leader per ToR, with the ToR-B
/// leader attached through the longer inter-ToR path.
pub struct MultiTorRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// KVS load generator.
    pub kvs_client: NodeId,
    /// LaKe partition on the KVS tenant's home ToR (A).
    pub kvs_dev_home: NodeId,
    /// LaKe partition on the remote ToR (B).
    pub kvs_dev_remote: NodeId,
    /// memcached host node.
    pub kvs_server: NodeId,
    /// DNS query generator.
    pub dns_client: NodeId,
    /// Emu partition on the DNS tenant's home ToR (B).
    pub dns_dev_home: NodeId,
    /// Emu partition on the remote ToR (A).
    pub dns_dev_remote: NodeId,
    /// NSD host node.
    pub dns_server: NodeId,
    /// The Paxos tenant's leader-steering switch.
    pub pax_switch: NodeId,
    /// Open-loop Paxos client.
    pub pax_client: NodeId,
    /// libpaxos software leader.
    pub pax_sw_leader: NodeId,
    /// P4xos FPGA leaders, indexed by ToR (`[A, B]`).
    pub pax_hw_leaders: [NodeId; 2],
    /// Acceptor nodes.
    pub pax_acceptors: Vec<NodeId>,
    /// Learner node.
    pub pax_learner: NodeId,
    pax_sw_port: PortId,
    pax_hw_ports: [PortId; 2],
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 3],
    /// Next Paxos election round: every leader shift must elect with a
    /// strictly higher round (§9.2). A `Cell` so the run-loop closures
    /// can bump it while the simulator is mutably borrowed.
    pax_round: Cell<u16>,
}

impl MultiTorRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;
    /// Index of the Paxos tenant in the fleet's app vector.
    pub const PAX_APP: usize = 2;

    /// ToR A's device (home of the KVS and Paxos tenants).
    pub const TOR_A: DeviceId = DeviceId(0);
    /// ToR B's device (home of the DNS tenant).
    pub const TOR_B: DeviceId = DeviceId(1);

    const N_ACCEPTORS: usize = 3;

    /// Rates at which the linearised software power fits are anchored.
    const KVS_FIT_PPS: f64 = 200_000.0;
    const DNS_FIT_PPS: f64 = 150_000.0;
    const PAX_FIT_PPS: f64 = 20_000.0;

    /// Messages the software leader handles per client command: the
    /// request itself plus one 2b instance-feedback from each acceptor.
    const PAX_LEADER_MSGS_PER_CMD: f64 = 1.0 + Self::N_ACCEPTORS as f64;

    /// Client retry timeout: well under a sampling interval, so commands
    /// lost in a leader shift are retried within the same interval.
    const PAX_TIMEOUT: Nanos = Nanos::from_millis(20);

    /// The cross-ToR penalty realised by the topology: the standard
    /// intra-pod tier — the inter-ToR hop adds 2 µs each way, and a
    /// remote placement's benefit is priced at 85 % (the detour keeps
    /// the inter-ToR link and two extra switch ports busy; see
    /// [`TierCost::standard_intra_pod`] for why the haircut deliberately
    /// does not cancel against the scheduler's stickiness premium).
    pub fn penalty() -> TierCost {
        TierCost::standard_intra_pod()
    }

    /// The fabric: one Tofino-class pipeline per ToR, the two ToRs one
    /// rack pair (a single pod — both racks behind one aggregation
    /// switch). Each admits the KVS (7 stages) beside the Paxos program
    /// (6 stages) **not** — 13 of 12 stages — while DNS (6) + Paxos (6)
    /// co-fit exactly; every pair involving the KVS overflows a device,
    /// so overlapping peaks force placement decisions.
    pub fn fabric() -> DeviceFabric {
        DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(1, Self::penalty(), TierCost::standard_inter_pod()),
        )
    }

    /// The P4xos leader program's capacity claim: stage-hungry (sequence
    /// and instance bookkeeping), tiny state.
    pub fn pax_demand() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 4 << 20,
            parse_depth_bytes: 64,
        }
    }

    /// The canonical three-tenant day over `period`: KVS peaks at ~0.29
    /// of the day, Paxos at ~0.42 (overlapping the KVS busy window — the
    /// ToR-A contention), DNS at ~0.63 (overlapping the Paxos tail — the
    /// ToR-B co-residence).
    pub fn contended_profiles(period: Nanos) -> [RateProfile; 3] {
        [
            RateProfile::diurnal(
                2_000.0,
                120_000.0,
                period,
                period.mul_f64(3.0 / 14.0),
                3,
                64,
            ),
            RateProfile::diurnal(
                2_000.0,
                80_000.0,
                period,
                period.mul_f64(61.0 / 70.0),
                3,
                64,
            ),
            RateProfile::diurnal(500.0, 10_000.0, period, period.mul_f64(0.08), 3, 64),
        ]
    }

    fn pax_book(own: Endpoint) -> AddressBook {
        AddressBook {
            own,
            leader: Endpoint::host(99, PAXOS_LEADER_PORT),
            acceptors: (0..Self::N_ACCEPTORS as u32)
                .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
                .collect(),
            learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
        }
    }

    /// Builds the rig: all three tenants preloaded and idling in
    /// software, both FPGA leaders parked.
    pub fn new(seed: u64, keys: u64, names: u64, profiles: [RateProfile; 3]) -> Self {
        let mut sim = Simulator::new(seed);
        let inter_tor = LinkSpec::ten_gbe(Self::penalty().extra_latency);

        // KVS slice (home ToR A): client → lake@A → lake@B → memcached.
        let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
        server.preload((0..keys).map(|i| {
            let k = key_name(i);
            let v = expected_value(&k, 64);
            (k, v)
        }));
        let kvs_server = sim.add_node(server);
        let kvs_dev_home = sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5));
        let kvs_dev_remote = sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5));
        let kvs_client = sim.add_node(KvsClient::open_loop(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, MEMCACHED_PORT),
            profiles[Self::KVS_APP].rate_at(Nanos::ZERO),
            Box::new(UniformGen {
                keys,
                get_ratio: 0.97,
                value_len: 64,
            }),
        ));
        sim.connect_duplex(
            kvs_client,
            PortId::P0,
            kvs_dev_home,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(
            kvs_dev_home,
            HOST_DMA_PORT,
            kvs_dev_remote,
            PortId::P0,
            inter_tor,
        );
        sim.connect_duplex(
            kvs_dev_remote,
            HOST_DMA_PORT,
            kvs_server,
            PortId::P0,
            LinkSpec::ideal(),
        );

        // DNS slice (home ToR B): client → emu@B → emu@A → NSD.
        let zone = Zone::synthetic(names);
        let dns_server = sim.add_node(DnsServer::new(
            DnsServerConfig::nsd_behind_emu(),
            zone.clone(),
        ));
        let dns_dev_home = sim.add_node(EmuDevice::new(zone.clone()));
        let dns_dev_remote = sim.add_node(EmuDevice::new(zone));
        let dns_client = sim.add_node(DnsClient::new(
            Endpoint::host(3, 41_000),
            Endpoint::host(4, DNS_PORT),
            profiles[Self::DNS_APP].rate_at(Nanos::ZERO),
            names,
        ));
        sim.connect_duplex(
            dns_client,
            PortId::P0,
            dns_dev_home,
            PortId::P0,
            LinkSpec::ten_gbe(Nanos::from_nanos(500)),
        );
        sim.connect_duplex(
            dns_dev_home,
            HOST_DMA_PORT,
            dns_dev_remote,
            PortId::P0,
            inter_tor,
        );
        sim.connect_duplex(
            dns_dev_remote,
            HOST_DMA_PORT,
            dns_server,
            PortId::P0,
            LinkSpec::ideal(),
        );

        // Paxos slice (home ToR A): virtual-leader steering over one
        // software leader and one FPGA leader per ToR; the ToR-B leader
        // sits across the inter-ToR detour.
        let n_ports = 4 + 1 + Self::N_ACCEPTORS as u16;
        let pax_switch = sim.add_node(L2Switch::new(n_ports));
        let mut next_port = 0u16;
        let mut attach = |sim: &mut Simulator<Packet>, node: NodeId, extra: Nanos| -> PortId {
            let p = PortId(next_port);
            next_port += 1;
            sim.connect_duplex(
                node,
                PortId::P0,
                pax_switch,
                p,
                LinkSpec::ten_gbe(Nanos::from_micros(1) + extra),
            );
            p
        };
        let pax_sw_leader = sim.add_node(PaxosNode::new(
            RoleEngine::Leader(Leader::bootstrap(1, Self::N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_leader()),
            Self::pax_book(Endpoint::host(20, PAXOS_LEADER_PORT)),
        ));
        let pax_sw_port = attach(&mut sim, pax_sw_leader, Nanos::ZERO);
        let hw_a = sim.add_node(PaxosNode::new(
            RoleEngine::Idle,
            Platform::fpga(),
            Self::pax_book(Endpoint::host(21, PAXOS_LEADER_PORT)),
        ));
        let hw_a_port = attach(&mut sim, hw_a, Nanos::ZERO);
        let hw_b = sim.add_node(PaxosNode::new(
            RoleEngine::Idle,
            Platform::fpga(),
            Self::pax_book(Endpoint::host(22, PAXOS_LEADER_PORT)),
        ));
        let hw_b_port = attach(&mut sim, hw_b, Self::penalty().extra_latency);
        let mut pax_acceptors = Vec::new();
        for i in 0..Self::N_ACCEPTORS as u32 {
            let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
            let n = sim.add_node(PaxosNode::new(
                RoleEngine::Acceptor(Acceptor::new(i as u8, AcceptorStorage::unbounded())),
                Platform::host(HostConfig::libpaxos_acceptor()),
                Self::pax_book(ep),
            ));
            attach(&mut sim, n, Nanos::ZERO);
            pax_acceptors.push(n);
        }
        let pax_learner = sim.add_node(PaxosNode::new(
            RoleEngine::Learner(Learner::new(Self::N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_learner()),
            Self::pax_book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
        ));
        attach(&mut sim, pax_learner, Nanos::ZERO);
        let pax_client = sim.add_node(PaxosClient::open_loop(
            100,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            profiles[Self::PAX_APP].rate_at(Nanos::ZERO),
            Self::PAX_TIMEOUT,
        ));
        attach(&mut sim, pax_client, Nanos::ZERO);
        sim.node_mut::<L2Switch>(pax_switch)
            .steer(Match::udp_dst(PAXOS_LEADER_PORT), pax_sw_port);
        // Idle standby leaders are parked (§9.2).
        sim.node_mut::<PaxosNode>(hw_a).set_parked(true);
        sim.node_mut::<PaxosNode>(hw_b).set_parked(true);

        MultiTorRig {
            sim,
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
            pax_acceptors,
            pax_learner,
            pax_sw_port,
            pax_hw_ports: [hw_a_port, hw_b_port],
            profiles,
            pax_round: Cell::new(2),
        }
    }

    /// The three tenants' fleet descriptors, calibrated the same way as
    /// [`SharedDeviceRig::fleet_apps`]: idle terms are the metered
    /// parked/unparked powers of the very device models the simulation
    /// runs, software dynamic terms are the host CPU models linearised at
    /// a fit anchor. The Paxos slice is metered over its three leader
    /// platforms (acceptors and learner draw the same power under every
    /// placement, so they cancel out of every comparison and are left
    /// out of both the meter and the analysis).
    pub fn fleet_apps() -> Vec<FleetApp> {
        let lake_cfg = LakeCacheConfig::tiny(8, 32);
        let lake_parked = LakeDevice::new(lake_cfg, 5).power_w(Nanos::ZERO);
        let lake_active = LakeDevice::new(lake_cfg, 5)
            .started_in_hardware()
            .power_w(Nanos::ZERO);
        let emu_parked = EmuDevice::new(Zone::synthetic(1)).power_w(Nanos::ZERO);
        let emu_active = EmuDevice::new(Zone::synthetic(1))
            .started_in_hardware()
            .power_w(Nanos::ZERO);
        let book = Self::pax_book(Endpoint::host(21, PAXOS_LEADER_PORT));
        let mut fpga = PaxosNode::new(RoleEngine::Idle, Platform::fpga(), book.clone());
        let fpga_active = Node::power_w(&fpga, Nanos::ZERO);
        fpga.set_parked(true);
        let fpga_parked = Node::power_w(&fpga, Nanos::ZERO);
        let host_leader_idle = Node::power_w(
            &PaxosNode::new(
                RoleEngine::Idle,
                Platform::host(HostConfig::libpaxos_leader()),
                book,
            ),
            Nanos::ZERO,
        );

        // Each tenant pays its home partition in both placements and its
        // remote partition always parked; only the resident partition's
        // unpark delta differs between placements, exactly as metered.
        let mc = MemcachedConfig::i7_behind_lake();
        let kvs_sw_idle = calib::I7_PLATFORM_IDLE_W + 2.0 * lake_parked;
        let kvs_dyn_at_fit = mc
            .cpu
            .dynamic_w(Self::KVS_FIT_PPS * mc.service_time.as_secs_f64());
        let kvs_hw_idle = calib::I7_PLATFORM_IDLE_W + lake_parked + lake_active;

        let nsd = DnsServerConfig::nsd_behind_emu();
        let dns_sw_idle = calib::I7_PLATFORM_IDLE_W + 2.0 * emu_parked;
        let dns_dyn_at_fit = nsd
            .cpu
            .dynamic_w(Self::DNS_FIT_PPS * nsd.service_time.as_secs_f64());
        let dns_hw_idle = calib::I7_PLATFORM_IDLE_W + emu_parked + emu_active;

        let lp = HostConfig::libpaxos_leader();
        let pax_sw_idle = host_leader_idle + 2.0 * fpga_parked;
        let pax_dyn_at_fit = lp.cpu.dynamic_w(
            Self::PAX_FIT_PPS * Self::PAX_LEADER_MSGS_PER_CMD * lp.service.as_secs_f64(),
        );
        let pax_hw_idle = host_leader_idle + fpga_parked + fpga_active;

        vec![
            FleetApp {
                name: "kvs".into(),
                demand: SharedDeviceRig::kvs_demand(),
                home: Self::TOR_A,
                weight: 1.0,
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: kvs_sw_idle,
                        sleep_w: 0.0,
                        active_w: kvs_sw_idle + kvs_dyn_at_fit,
                        peak_rate_pps: Self::KVS_FIT_PPS,
                    },
                    network: EnergyParams {
                        idle_w: kvs_hw_idle,
                        sleep_w: 0.0,
                        active_w: kvs_hw_idle + calib::LAKE_DYNAMIC_MAX_W,
                        peak_rate_pps: calib::LAKE_LINE_RATE_PPS,
                    },
                },
            },
            FleetApp {
                name: "dns".into(),
                demand: SharedDeviceRig::dns_demand(),
                home: Self::TOR_B,
                weight: 1.0,
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: dns_sw_idle,
                        sleep_w: 0.0,
                        active_w: dns_sw_idle + dns_dyn_at_fit,
                        peak_rate_pps: Self::DNS_FIT_PPS,
                    },
                    network: EnergyParams {
                        idle_w: dns_hw_idle,
                        sleep_w: 0.0,
                        active_w: dns_hw_idle + calib::EMU_DNS_DYNAMIC_MAX_W,
                        peak_rate_pps: calib::EMU_DNS_PEAK_RPS,
                    },
                },
            },
            FleetApp {
                name: "paxos".into(),
                demand: Self::pax_demand(),
                home: Self::TOR_A,
                weight: 1.0,
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: pax_sw_idle,
                        sleep_w: 0.0,
                        active_w: pax_sw_idle + pax_dyn_at_fit,
                        peak_rate_pps: Self::PAX_FIT_PPS,
                    },
                    network: EnergyParams {
                        idle_w: pax_hw_idle,
                        sleep_w: 0.0,
                        active_w: pax_hw_idle + calib::P4XOS_DYNAMIC_MAX_W,
                        peak_rate_pps: calib::P4XOS_FPGA_PEAK_MPS,
                    },
                },
            },
        ]
    }

    /// A fleet controller over the two-ToR fabric with the standard
    /// hysteresis settings.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(
            FleetControllerConfig::standard(interval),
            Self::fabric(),
            Self::fleet_apps(),
        )
    }

    /// A controller pinned to a fixed placement vector (the static
    /// baselines): an infinite sustain window means no condition ever
    /// completes.
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 3]) -> FleetController {
        let config = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..FleetControllerConfig::standard(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
            .with_initial_placements(&placements)
    }

    /// Runs the experiment until `until` under `controller`, driving all
    /// three tenants' diurnal schedules and recording per-app timelines
    /// plus total metered energy.
    pub fn run(&mut self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        self.run_with(controller, until, RowLog::Full)
    }

    /// [`MultiTorRig::run`] with an explicit timeline row-retention mode
    /// (the streaming-equivalence tests drive both).
    pub fn run_with(
        &mut self,
        controller: &mut FleetController,
        until: Nanos,
        mode: RowLog,
    ) -> FleetTimeline {
        let ids = ApplyIds {
            kvs_client: self.kvs_client,
            kvs_dev_home: self.kvs_dev_home,
            kvs_dev_remote: self.kvs_dev_remote,
            kvs_server: self.kvs_server,
            dns_client: self.dns_client,
            dns_dev_home: self.dns_dev_home,
            dns_dev_remote: self.dns_dev_remote,
            dns_server: self.dns_server,
            pax_client: self.pax_client,
            pax_switch: self.pax_switch,
            pax_sw_leader: self.pax_sw_leader,
            pax_hw_leaders: self.pax_hw_leaders,
            pax_sw_port: self.pax_sw_port,
            pax_hw_ports: self.pax_hw_ports,
            pax_round: &self.pax_round,
        };
        // Execute any pre-seeded placements on the simulated hardware.
        let now = self.sim.now();
        let seeded: Vec<Placement> = controller.placements().to_vec();
        for (app, &p) in seeded.iter().enumerate() {
            if p.is_offloaded() {
                apply_multi_tor_placement(&mut self.sim, &ids, now, app, p);
            }
        }
        let interval = controller.config().fleet.interval;
        let profiles = self.profiles.clone();
        run_fleet_controlled_with(
            &mut self.sim,
            controller,
            until,
            mode,
            |sim| {
                let now = sim.now();
                // Follow the offered-rate schedules.
                sim.node_mut::<KvsClient>(ids.kvs_client)
                    .set_rate(profiles[Self::KVS_APP].rate_at(now));
                sim.node_mut::<DnsClient>(ids.dns_client)
                    .set_rate(profiles[Self::DNS_APP].rate_at(now));
                sim.node_mut::<PaxosClient>(ids.pax_client)
                    .set_rate(profiles[Self::PAX_APP].rate_at(now));
                // Host-measured offered rates, sampled mid-interval (see
                // SharedDeviceRig::run: completions would understate the
                // offered load exactly when the software side saturates).
                let mid = now - interval.mul_f64(0.5);
                let kvs_offered = profiles[Self::KVS_APP].rate_at(mid);
                let dns_offered = profiles[Self::DNS_APP].rate_at(mid);
                let pax_offered = profiles[Self::PAX_APP].rate_at(mid);
                let (kvs_done, kvs_lat) = sim.node_mut::<KvsClient>(ids.kvs_client).take_window();
                let (dns_done, dns_lat) = sim.node_mut::<DnsClient>(ids.dns_client).take_window();
                let (pax_done, pax_lat) = sim.node_mut::<PaxosClient>(ids.pax_client).take_window();
                // Network-measured rates (§9.1 feedback): the served
                // rate over the elapsed interval. Every completion
                // passed through the tenant's device partitions, and the
                // per-interval count reacts within one sample — the
                // devices' own sliding-window estimators average over a
                // full second, which is fine for the in-dataplane
                // threshold controller but would make the fleet compare
                // a stale incumbent against fresh challengers.
                let dt = interval.as_secs_f64();
                let kvs_hw_rate = kvs_done as f64 / dt;
                let dns_hw_rate = dns_done as f64 / dt;
                let pax_hw_rate = pax_done as f64 / dt;
                vec![
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: sim
                                    .node_ref::<MemcachedServer>(ids.kvs_server)
                                    .power_w(now),
                                app_cpu_util: sim
                                    .node_ref::<MemcachedServer>(ids.kvs_server)
                                    .app_utilization(),
                                hw_app_rate: kvs_hw_rate,
                            },
                            offered_pps: kvs_offered,
                        },
                        completed: kvs_done,
                        latency_p50_ns: kvs_lat.quantile(0.5),
                        latency_p99_ns: kvs_lat.quantile(0.99),
                        power_w: sim.instant_power(&[
                            ids.kvs_dev_home,
                            ids.kvs_dev_remote,
                            ids.kvs_server,
                        ]),
                    },
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: Node::power_w(
                                    sim.node_ref::<DnsServer>(ids.dns_server),
                                    now,
                                ),
                                app_cpu_util: sim
                                    .node_ref::<DnsServer>(ids.dns_server)
                                    .utilization(),
                                hw_app_rate: dns_hw_rate,
                            },
                            offered_pps: dns_offered,
                        },
                        completed: dns_done,
                        latency_p50_ns: dns_lat.quantile(0.5),
                        latency_p99_ns: dns_lat.quantile(0.99),
                        power_w: sim.instant_power(&[
                            ids.dns_dev_home,
                            ids.dns_dev_remote,
                            ids.dns_server,
                        ]),
                    },
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: Node::power_w(
                                    sim.node_ref::<PaxosNode>(ids.pax_sw_leader),
                                    now,
                                ),
                                app_cpu_util: 0.0,
                                hw_app_rate: pax_hw_rate,
                            },
                            offered_pps: pax_offered,
                        },
                        completed: pax_done,
                        latency_p50_ns: pax_lat.quantile(0.5),
                        latency_p99_ns: pax_lat.quantile(0.99),
                        power_w: sim.instant_power(&[
                            ids.pax_sw_leader,
                            ids.pax_hw_leaders[0],
                            ids.pax_hw_leaders[1],
                        ]),
                    },
                ]
            },
            |sim, t, app, p| apply_multi_tor_placement(sim, &ids, t, app, p),
        )
    }

    /// Total commands acknowledged by the Paxos client.
    pub fn pax_acked(&self) -> u64 {
        self.sim
            .node_ref::<PaxosClient>(self.pax_client)
            .stats()
            .acked
    }
}

/// The node handles the placement executor needs, copied out of the rig
/// (plus a shared reference to the election-round counter) so the harness
/// closures can borrow the simulator mutably alongside it.
#[derive(Clone, Copy)]
struct ApplyIds<'a> {
    kvs_client: NodeId,
    kvs_dev_home: NodeId,
    kvs_dev_remote: NodeId,
    kvs_server: NodeId,
    dns_client: NodeId,
    dns_dev_home: NodeId,
    dns_dev_remote: NodeId,
    dns_server: NodeId,
    pax_client: NodeId,
    pax_switch: NodeId,
    pax_sw_leader: NodeId,
    pax_hw_leaders: [NodeId; 2],
    pax_sw_port: PortId,
    pax_hw_ports: [PortId; 2],
    pax_round: &'a Cell<u16>,
}

/// Executes one placement decision on the simulated hardware: partition
/// parking for the bump-in-the-wire tenants, virtual-leader re-steering
/// for Paxos.
fn apply_multi_tor_placement(
    sim: &mut Simulator<Packet>,
    ids: &ApplyIds<'_>,
    t: Nanos,
    app: usize,
    p: Placement,
) {
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
            // Quiesce every other leader; park idle FPGAs (§9.2).
            for (&n, &port) in std::iter::once(&ids.pax_sw_leader)
                .chain(ids.pax_hw_leaders.iter())
                .zip(std::iter::once(&ids.pax_sw_port).chain(ids.pax_hw_ports.iter()))
            {
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

/// The fairness topology: two ToRs, four tenants, *sustained* (not
/// offset) contention — the scenario the weighted-DRF arbitration layer
/// exists for.
///
/// * **KVS** (LaKe-class, 7 stages / 40 MB — dominant share 0.83) and
///   **Paxos** (P4xos-class, 6 stages — dominant share 0.50) are both
///   homed on ToR A, whose device can host only one of them.
/// * **DNS** (a beefier Emu variant: deeper name tables burn a seventh
///   stage, 7 stages / 24 MB) is homed on ToR B and big enough that the
///   Paxos program cannot co-reside with it there either (7 + 6 > 12) —
///   so while the KVS and DNS peaks hold, the Paxos tenant fits
///   *nowhere* and a pure benefit-maximising knapsack starves it
///   indefinitely.
/// * A second KVS tenant (**bulk**: a scan-heavy analytics cache whose
///   program wants 14 stages / 60 MB) is sized to be *unsatisfiable*:
///   its demand exceeds every device even empty, so admission control
///   must reject it up front rather than let it thrash.
///
/// Unlike [`SharedDeviceRig`] and [`MultiTorRig`] — which exercise the
/// packet-level device models — this rig is **model-driven**: the
/// tenants' §8 analyses are stylised curves with the same relative
/// economics as the calibrated tenants (KVS out-scores everyone, Paxos
/// clears the floor but never wins a score fight), driven through
/// [`run_fleet_controlled_with`] against closed-form observations. The
/// fairness dance (queue → claim → clip → tenure → counter-claim) needs
/// precisely shaped, *sustained* contention; the packet plumbing it
/// would ride on is already end-to-end tested by the other rigs.
pub struct ContendedFabricRig {
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 4],
}

impl ContendedFabricRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;
    /// Index of the Paxos tenant in the fleet's app vector.
    pub const PAX_APP: usize = 2;
    /// Index of the unsatisfiable bulk-analytics tenant.
    pub const BULK_APP: usize = 3;

    /// ToR A's device (home of the KVS, Paxos and bulk tenants).
    pub const TOR_A: DeviceId = DeviceId(0);
    /// ToR B's device (home of the DNS tenant).
    pub const TOR_B: DeviceId = DeviceId(1);

    /// Plateau rates, packets/second, indexed like the app vector.
    const PEAK_PPS: [f64; 4] = [120_000.0, 90_000.0, 12_000.0, 100_000.0];
    /// Software-mode latency of every tenant (model-level constant).
    const SW_LATENCY_NS: u64 = 12_000;
    /// Hardware-mode latency at the home ToR.
    const HW_LATENCY_NS: u64 = 1_500;

    /// The starvation window of the standard fairness configuration,
    /// in samples: long enough that hand-overs are deliberate, short
    /// enough that several play out within a run.
    pub const STARVATION_WINDOW: u32 = 8;

    /// The fabric: one Tofino-class pipeline per ToR with the standard
    /// intra-pod cross-ToR penalty (the two racks form one pod).
    pub fn fabric() -> DeviceFabric {
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

    /// The beefed-up Emu program of this rig's DNS tenant: one stage
    /// more than [`SharedDeviceRig::dns_demand`], so ToR B cannot host
    /// it beside the Paxos program.
    pub fn dns_demand() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 24 << 20,
            parse_depth_bytes: 128,
        }
    }

    /// The unsatisfiable bulk tenant's demand: over every device's stage
    /// *and* SRAM budget, so `cost_units > 1` on each.
    pub fn bulk_demand() -> ProgramResources {
        ProgramResources {
            stages: 14,
            sram_bytes: 60 << 20,
            parse_depth_bytes: 96,
        }
    }

    /// A stylised §8 analysis: a software curve with dynamic slope
    /// `slope_w_per_kpps` against a flat hardware curve `unpark_w` above
    /// the shared idle floor — `benefit(r) ≈ slope · r − unpark`.
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

    /// The four tenants. Plateau economics: KVS 10 W benefit (score
    /// 12.0), DNS 6.1 W (score 10.5, sticky 13.1), Paxos 2.2 W (score
    /// 4.4 — clears the 1 W floor even with the 0.85 remote haircut but
    /// never wins a score fight), bulk 10 W (hot, but rejected). Equal
    /// weights: each admitted tenant is entitled to 1/3 while all three
    /// contend, which both big programs' dominant shares exceed — so
    /// claims can clip in either direction and ToR A time-shares.
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            FleetApp {
                name: "kvs".into(),
                demand: SharedDeviceRig::kvs_demand(),
                analysis: Self::analysis(0.10, 2.0),
                home: Self::TOR_A,
                weight: 1.0,
            },
            FleetApp {
                name: "dns".into(),
                demand: Self::dns_demand(),
                analysis: Self::analysis(0.09, 2.0),
                home: Self::TOR_B,
                weight: 1.0,
            },
            FleetApp {
                name: "paxos".into(),
                demand: MultiTorRig::pax_demand(),
                analysis: Self::analysis(0.35, 2.0),
                home: Self::TOR_A,
                weight: 1.0,
            },
            FleetApp {
                name: "kvs-bulk".into(),
                demand: Self::bulk_demand(),
                analysis: Self::analysis(0.12, 2.0),
                home: Self::TOR_A,
                weight: 1.0,
            },
        ]
    }

    /// The canonical contended day: everyone idles briefly, then all
    /// four tenants hold their plateaus *simultaneously* until 0.8 s
    /// before `horizon`, then idle again. Sustained overlap — not the
    /// offset peaks of the other rigs — is what makes fairness, not
    /// benefit, the binding constraint.
    pub fn contended_profiles(horizon: Nanos) -> [RateProfile; 4] {
        let start = Nanos::from_millis(200);
        let stop = horizon - Nanos::from_millis(800);
        Self::PEAK_PPS.map(|peak| {
            RateProfile::steps(vec![(Nanos::ZERO, 1_000.0), (start, peak), (stop, 1_000.0)])
        })
    }

    /// Builds the rig over the given schedules.
    pub fn new(profiles: [RateProfile; 4]) -> Self {
        ContendedFabricRig { profiles }
    }

    /// The standard fairness configuration: ordinary hysteresis plus the
    /// rig's 8-sample starvation window.
    pub fn config(interval: Nanos) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window: Self::STARVATION_WINDOW,
            ..FleetControllerConfig::standard(interval)
        }
    }

    /// A weighted-DRF fleet controller over the rig's fabric.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(Self::config(interval), Self::fabric(), Self::fleet_apps())
    }

    /// The pure benefit-maximising scheduler (fairness disabled): the
    /// baseline that starves the Paxos tenant.
    pub fn pure_benefit_controller(interval: Nanos) -> FleetController {
        let config = FleetControllerConfig {
            starvation_window: u32::MAX,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
    }

    /// A controller pinned to a fixed placement vector (static
    /// baselines): an infinite sustain window means no condition ever
    /// completes.
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 4]) -> FleetController {
        let config = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
            .with_initial_placements(&placements)
    }

    /// Runs the model until `until`: the §8 curves supply rates, power
    /// and latency per placement, `run_fleet_controlled` supplies the
    /// control loop, streak machinery and bookkeeping. Metered power for
    /// a remote placement gives back the share of the saving that the
    /// detour burns, exactly as the scheduler prices it (this rig's
    /// topology carries no link energy, so only the haircut meters).
    pub fn run(&self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        self.run_with(controller, until, RowLog::Full)
    }

    /// [`ContendedFabricRig::run`] with an explicit timeline
    /// row-retention mode (the streaming-equivalence tests drive both).
    pub fn run_with(
        &self,
        controller: &mut FleetController,
        until: Nanos,
        mode: RowLog,
    ) -> FleetTimeline {
        run_stylised_model(
            controller,
            until,
            mode,
            &Self::fabric(),
            &self.profiles,
            Self::SW_LATENCY_NS,
            Self::HW_LATENCY_NS,
        )
    }
}

/// Drives a **model-driven** rig (stylised §8 curves, no packet
/// machinery) through [`run_fleet_controlled_with`]: the curves supply the
/// rates (sampled mid-interval), power and latency per placement, and a
/// remote placement's metered power gives back the topology tier's share
/// of the saving *plus* the link energy its detour burns — exactly as
/// the scheduler prices it. Shared by [`ContendedFabricRig`] and
/// [`PodFabricRig`].
fn run_stylised_model(
    controller: &mut FleetController,
    until: Nanos,
    mode: RowLog,
    fabric: &DeviceFabric,
    profiles: &[RateProfile],
    sw_latency_ns: u64,
    hw_latency_ns: u64,
) -> FleetTimeline {
    let mut sim: Simulator<()> = Simulator::new(0);
    let apps = controller.apps().to_vec();
    let interval = controller.config().fleet.interval;
    let placements = std::cell::RefCell::new(controller.placements().to_vec());
    run_fleet_controlled_with(
        &mut sim,
        controller,
        until,
        mode,
        |sim| {
            let now = sim.now();
            let mid = now - interval.mul_f64(0.5);
            (0..apps.len())
                .map(|i| {
                    let rate = profiles[i].rate_at(mid);
                    let placement = placements.borrow()[i];
                    let (sw_w, hw_w) = apps[i].analysis.energy_per_second(rate);
                    let (power_w, latency) = match placement {
                        Placement::Software => (sw_w, sw_latency_ns),
                        Placement::Device(d) => {
                            let f = fabric.benefit_factor(apps[i].home, d);
                            let link_w = fabric.link_energy_w(apps[i].home, d, rate);
                            let detour = 2 * fabric.extra_latency(apps[i].home, d).as_nanos();
                            (sw_w - f * (sw_w - hw_w) + link_w, hw_latency_ns + detour)
                        }
                    };
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: sw_w,
                                app_cpu_util: rate / 1e6,
                                hw_app_rate: if placement.is_offloaded() { rate } else { 0.0 },
                            },
                            offered_pps: rate,
                        },
                        completed: (rate * interval.as_secs_f64()) as u64,
                        latency_p50_ns: latency,
                        latency_p99_ns: latency * 2,
                        power_w,
                    }
                })
                .collect()
        },
        |_sim, _t, app, p| placements.borrow_mut()[app] = p,
    )
}

/// The three-tier topology rig: **2 pods × 2 ToRs** behind a core, five
/// tenants, heterogeneous budgets — the scenario the [`Topology`]
/// distance matrix, the migration debit and the min-cost fairness
/// hand-over exist for.
///
/// Layout (device index = ToR):
///
/// ```text
///                 core
///               /      \
///          pod 0        pod 1
///         /     \      /     \
///      ToR 0   ToR 1  ToR 2  ToR 3
///      12 st   10 st  12 st  10 st
///      48 MB   32 MB  48 MB  32 MB
/// ```
///
/// * **KVS** (7 st / 40 MB, home ToR 0): the anchor tenant — only the big
///   ToRs can host it, and it out-scores everyone.
/// * **Analytics** (6 st / 20 MB, home ToR 0): contends with the KVS at
///   home and must spill. ToR 1 (near, one pod hop) and ToR 3 (far,
///   across the core) have the *same* budget, so only the distance
///   matrix separates them: the spill must land near.
/// * **DNS** (7 st / 24 MB, home ToR 2): holds its own ToR in pod 1.
/// * **Edge** (6 st / 16 MB, home ToR 3): a small tenant with the
///   weakest economics of the residents — the cheapest program to clip.
/// * **Paxos** (6 st / 4 MB, home ToR 0): profitable everywhere (even
///   across the core), out-scored everywhere — with all four devices
///   full it fits *nowhere* and must go through the fairness claim. Its
///   best-*score* device is its home ToR 0, where the expensive KVS
///   sits; the min-*cost* hand-over instead clips the edge tenant on
///   far-away ToR 3, forfeiting 2.5 W instead of 10 W.
///
/// Like [`ContendedFabricRig`] this rig is **model-driven**: stylised §8
/// curves with precisely shaped sustained plateaus, driven through
/// [`run_fleet_controlled_with`]; the packet plumbing such schedules ride on
/// is end-to-end tested by [`MultiTorRig`]. Metered power for a remote
/// placement gives back the tier's share of the saving *plus* the link
/// energy its detour burns, exactly as the scheduler prices it.
pub struct PodFabricRig {
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 5],
}

impl PodFabricRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the analytics tenant (the near-spiller).
    pub const ANA_APP: usize = 1;
    /// Index of the DNS tenant.
    pub const DNS_APP: usize = 2;
    /// Index of the edge tenant (the cheapest clip).
    pub const EDGE_APP: usize = 3;
    /// Index of the Paxos tenant (the fairness claimant).
    pub const PAX_APP: usize = 4;

    /// Big ToR of pod 0 (home of KVS, analytics and Paxos).
    pub const TOR_A0: DeviceId = DeviceId(0);
    /// Small ToR of pod 0 (the near spill target).
    pub const TOR_A1: DeviceId = DeviceId(1);
    /// Big ToR of pod 1 (home of DNS).
    pub const TOR_B0: DeviceId = DeviceId(2);
    /// Small ToR of pod 1 (home of the edge tenant).
    pub const TOR_B1: DeviceId = DeviceId(3);

    /// Plateau rates, packets/second, indexed like the app vector.
    const PEAK_PPS: [f64; 5] = [120_000.0, 90_000.0, 90_000.0, 60_000.0, 12_000.0];
    /// Software-mode latency of every tenant (model-level constant).
    const SW_LATENCY_NS: u64 = 12_000;
    /// Hardware-mode latency at the home ToR.
    const HW_LATENCY_NS: u64 = 1_500;

    /// The starvation window of the rig's fairness configuration.
    pub const STARVATION_WINDOW: u32 = 8;

    /// The intra-pod tier: the standard 2 µs / 0.85 detour plus the
    /// metered aggregation-switch port energy, calibrated from the
    /// §9.4 switch figures (exactly 500 nJ per packet per direction —
    /// the value this rig used to quote by hand).
    pub fn intra_pod() -> TierCost {
        TierCost::calibrated_intra_pod(&LinkEnergyModel::arista_class())
    }

    /// The inter-pod tier: the standard 6 µs / 0.70 core detour plus
    /// three calibrated switch traversals (exactly 1500 nJ per packet
    /// per direction).
    pub fn inter_pod() -> TierCost {
        TierCost::calibrated_inter_pod(&LinkEnergyModel::arista_class())
    }

    /// The small-ToR budget: 10 stages / 32 MB (an older-generation
    /// pipeline kept in service — heterogeneity is the norm at fleet
    /// scale).
    pub fn small_budget() -> PipelineBudget {
        PipelineBudget {
            stages: 10,
            sram_bytes: 32 << 20,
            parse_depth_bytes: 192,
        }
    }

    /// The fabric: big/small ToR pairs in each pod, under the
    /// three-tier distance matrix.
    pub fn fabric() -> DeviceFabric {
        let big = PipelineBudget::tofino_like();
        DeviceFabric::new(
            vec![big, Self::small_budget(), big, Self::small_budget()],
            Topology::fat_tree(2, 2, Self::intra_pod(), Self::inter_pod()),
        )
    }

    /// A stylised §8 analysis (see [`ContendedFabricRig`]):
    /// `benefit(r) ≈ slope · r − unpark`.
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

    /// The five tenants. Plateau benefits: KVS 10 W (score 12.0 at
    /// home), analytics 5.2 W, DNS 6.1 W, edge 2.5 W (the cheapest
    /// resident), Paxos 2.2 W (clears the 1 W floor even across the
    /// core, never wins a score fight).
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            FleetApp {
                name: "kvs".into(),
                demand: SharedDeviceRig::kvs_demand(),
                analysis: Self::analysis(0.10, 2.0),
                home: Self::TOR_A0,
                weight: 1.0,
            },
            FleetApp {
                name: "analytics".into(),
                demand: ProgramResources {
                    stages: 6,
                    sram_bytes: 20 << 20,
                    parse_depth_bytes: 96,
                },
                analysis: Self::analysis(0.08, 2.0),
                home: Self::TOR_A0,
                weight: 1.0,
            },
            FleetApp {
                name: "dns".into(),
                demand: ContendedFabricRig::dns_demand(),
                analysis: Self::analysis(0.09, 2.0),
                home: Self::TOR_B0,
                weight: 1.0,
            },
            FleetApp {
                name: "edge".into(),
                demand: ProgramResources {
                    stages: 6,
                    sram_bytes: 16 << 20,
                    parse_depth_bytes: 96,
                },
                analysis: Self::analysis(0.075, 2.0),
                home: Self::TOR_B1,
                weight: 1.0,
            },
            FleetApp {
                name: "paxos".into(),
                demand: MultiTorRig::pax_demand(),
                analysis: Self::analysis(0.35, 2.0),
                home: Self::TOR_A0,
                weight: 1.0,
            },
        ]
    }

    /// The canonical contended day over `horizon`: a short idle valley,
    /// then every tenant holds its plateau simultaneously until 3 s
    /// before the horizon, then idles again. The valleys are where the
    /// on-demand fleet beats every static placement (four parked devices
    /// save ~8 W of unpark power that statics keep paying); the
    /// sustained overlap is where the distance matrix and the fairness
    /// layer earn their keep.
    pub fn contended_profiles(horizon: Nanos) -> [RateProfile; 5] {
        let start = Nanos::from_millis(300);
        // Short bench horizons keep the valley proportional instead of
        // underflowing the subtraction.
        let tail = Nanos::from_millis(3_000).min(horizon.mul_f64(0.3));
        let stop = horizon - tail;
        Self::PEAK_PPS.map(|peak| {
            RateProfile::steps(vec![(Nanos::ZERO, 1_000.0), (start, peak), (stop, 1_000.0)])
        })
    }

    /// Builds the rig over the given schedules.
    pub fn new(profiles: [RateProfile; 5]) -> Self {
        PodFabricRig { profiles }
    }

    /// The rig's standard configuration: ordinary hysteresis, the
    /// 8-sample starvation window, the standard 5 J switchover debit,
    /// min-cost hand-overs.
    pub fn config(interval: Nanos) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window: Self::STARVATION_WINDOW,
            ..FleetControllerConfig::standard(interval)
        }
    }

    /// A fleet controller over the rig's fabric with the given claim
    /// policy (min-cost is the standard; best-score is the baseline the
    /// acceptance comparison runs against).
    pub fn fleet_controller(interval: Nanos, claim_policy: ClaimPolicy) -> FleetController {
        let config = FleetControllerConfig {
            claim_policy,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
    }

    /// A controller pinned to a fixed placement vector (static
    /// baselines): an infinite sustain window means no condition ever
    /// completes.
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 5]) -> FleetController {
        let config = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
            .with_initial_placements(&placements)
    }

    /// The natural static deployment a fleet operator would pick by
    /// looking at the plateau: every resident on its home ToR (analytics
    /// on the near small ToR), Paxos left in software. The strongest
    /// static baseline the on-demand schedule must beat.
    pub fn natural_static() -> [Placement; 5] {
        [
            Placement::Device(Self::TOR_A0),
            Placement::Device(Self::TOR_A1),
            Placement::Device(Self::TOR_B0),
            Placement::Device(Self::TOR_B1),
            Placement::Software,
        ]
    }

    /// Runs the model until `until` (the shared stylised-model loop):
    /// the §8 curves supply rates, power and latency per placement;
    /// metered power for a remote placement gives back the tier's share
    /// of the saving plus the detour's link energy, exactly as the
    /// scheduler prices it.
    pub fn run(&self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        self.run_with(controller, until, RowLog::Full)
    }

    /// [`PodFabricRig::run`] with an explicit timeline row-retention
    /// mode (the streaming-equivalence tests drive both).
    pub fn run_with(
        &self,
        controller: &mut FleetController,
        until: Nanos,
        mode: RowLog,
    ) -> FleetTimeline {
        run_stylised_model(
            controller,
            until,
            mode,
            &Self::fabric(),
            &self.profiles,
            Self::SW_LATENCY_NS,
            Self::HW_LATENCY_NS,
        )
    }
}

/// The fleet-scale arbitration rig: `Topology::fat_tree(8, 16)` — 128
/// ToR devices in 8 pods — carrying 1000+ tenants whose offered rates
/// follow a zipf popularity curve, driven straight into the
/// [`HierarchicalController`] (no packet simulation: the §8 curves
/// price everything, exactly as the scheduler sees it).
///
/// The trace is built so that most sampling intervals are *economically
/// quiet* — every tenant's rate wobbles within the controller's dead
/// band — while a small rotating churn set (one tenant every
/// [`MegaFabricRig::CHURN_PERIOD`] ticks) collapses and recovers,
/// dirtying only its own pod. That is the regime the incremental
/// pipeline is built for, and the regime a real fleet lives in:
/// datacenter-wide load does not change every 150 ms, one rack's does.
pub struct MegaFabricRig {
    apps: Vec<FleetApp>,
    /// Steady offered rate per tenant, packets/second (rank-mapped from
    /// the zipf popularity curve).
    base: Vec<f64>,
    /// Scratch sample vector reused every tick.
    samples: Vec<FleetSample>,
}

impl MegaFabricRig {
    /// Pods in the fat-tree.
    pub const PODS: usize = 8;
    /// ToR devices per pod.
    pub const TORS_PER_POD: usize = 16;
    /// Total devices.
    pub const DEVICES: usize = Self::PODS * Self::TORS_PER_POD;
    /// Zipf exponent of the tenant popularity curve: shallow enough
    /// that roughly the hottest hundred of a thousand tenants clear the
    /// 1 W offload floor (the fleet regime: most tenants are cold).
    pub const ALPHA: f64 = 0.6;
    /// Offered rate of the rank-1 tenant, packets/second.
    pub const PEAK_PPS: f64 = 500_000.0;
    /// Ticks between churn events (one tenant collapsing or
    /// recovering).
    pub const CHURN_PERIOD: u64 = 4;

    /// The 128-device fat-tree fabric under the calibrated tier costs
    /// (standard latency/haircut terms, link energy metered from the
    /// §9.4 switch model).
    pub fn fabric() -> DeviceFabric {
        let link = LinkEnergyModel::arista_class();
        DeviceFabric::homogeneous(
            Self::DEVICES,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                Self::PODS,
                Self::TORS_PER_POD,
                TierCost::calibrated_intra_pod(&link),
                TierCost::calibrated_inter_pod(&link),
            ),
        )
    }

    /// Builds `tenants` zipf-ranked tenants, deterministically from
    /// `seed`: homes round-robin across the 128 ToRs, demand classes and
    /// benefit slopes drawn from the seeded generator, offered rates
    /// mapped from a shuffled popularity ranking
    /// (`PEAK_PPS × rank^(-α)`).
    pub fn new(tenants: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(tenants as u64, Self::ALPHA).expect("valid zipf parameters");
        // Rank assignment: which tenant is the fleet's hottest is
        // arbitrary, so shuffle ranks over tenant indices.
        let mut ranks: Vec<u64> = (1..=tenants as u64).collect();
        rng.shuffle(&mut ranks);
        let mut apps = Vec::with_capacity(tenants);
        let mut base = Vec::with_capacity(tenants);
        for (i, &rank) in ranks.iter().enumerate() {
            let stages = 2 + rng.index(3) as u32; // 2..=4: 3-6 tenants per ToR
            let sram_mb = 1 + rng.index(4) as u64; // 1..=4 MB
            let slope = 0.08 + 0.04 * rng.f64(); // W per kpps
            apps.push(FleetApp {
                name: format!("tenant{i}"),
                demand: ProgramResources {
                    stages,
                    sram_bytes: sram_mb << 20,
                    parse_depth_bytes: 64,
                },
                analysis: PlacementAnalysis {
                    software: EnergyParams {
                        idle_w: 50.0,
                        sleep_w: 0.0,
                        active_w: 50.0 + slope * 1_000.0,
                        peak_rate_pps: 1_000_000.0,
                    },
                    network: EnergyParams {
                        idle_w: 52.0,
                        sleep_w: 0.0,
                        active_w: 52.1,
                        peak_rate_pps: 10_000_000.0,
                    },
                },
                home: DeviceId((i % Self::DEVICES) as u16),
                weight: 1.0,
            });
            base.push(200.0 + Self::PEAK_PPS * zipf.popularity(rank));
        }
        let samples = vec![
            FleetSample {
                host: HostSample {
                    rapl_w: 50.0,
                    app_cpu_util: 0.5,
                    hw_app_rate: 0.0,
                },
                offered_pps: 0.0,
            };
            tenants
        ];
        MegaFabricRig {
            apps,
            base,
            samples,
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.apps.len()
    }

    /// A hierarchical controller over the rig's fabric and tenants in
    /// the given mode (5 % dead band, standard economics, 1 s interval).
    pub fn controller(&self, mode: ArbitrationMode) -> HierarchicalController {
        HierarchicalController::new(
            ArbiterConfig {
                fleet: FleetControllerConfig::standard(Nanos::from_secs(1)),
                mode,
                rate_deadband: 0.05,
            },
            Self::fabric(),
            self.apps.clone(),
        )
    }

    /// The tenant whose load is churning during `tick`'s epoch (it
    /// collapses to a tenth of its steady rate on odd epochs and
    /// recovers on even ones).
    pub fn churner(&self, tick: u64) -> (usize, bool) {
        let epoch = tick / Self::CHURN_PERIOD;
        let tenant = (epoch.wrapping_mul(7919) % self.apps.len() as u64) as usize;
        (tenant, epoch % 2 == 1)
    }

    /// The per-tenant samples of `tick`: steady rates with a ±2 %
    /// wobble (inside the 5 % dead band, so it never re-scores), plus
    /// the epoch's churn event.
    pub fn tick_samples(&mut self, tick: u64) -> &[FleetSample] {
        let (churner, collapsed) = self.churner(tick);
        for (i, s) in self.samples.iter_mut().enumerate() {
            let wobble = 1.0 + 0.01 * ((tick + i as u64) % 3) as f64;
            let mut rate = self.base[i] * wobble;
            if i == churner && collapsed {
                rate *= 0.1;
            }
            s.host.hw_app_rate = rate;
            s.offered_pps = rate;
        }
        &self.samples
    }

    /// Drives `controller` for `ticks` sampling intervals; returns the
    /// number of placement decisions executed. Decision throughput is
    /// `tenants × ticks / elapsed` — every (tenant, interval) pair is an
    /// arbitration decision, however cheaply the pipeline resolved it.
    pub fn run(&mut self, controller: &mut HierarchicalController, ticks: u64) -> u64 {
        let mut decisions = 0u64;
        for tick in 1..=ticks {
            let now = Nanos::from_secs(tick);
            let samples = self.tick_samples(tick);
            decisions += controller.sample(now, samples).len() as u64;
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inc_ondemand::FleetController;

    /// The three tenants' calibrated benefit curves have the shape the
    /// scheduler depends on: negative in the valley (software wins when
    /// idle), clearly positive at each tenant's peak, and the KVS — the
    /// anchor tenant of ToR A — out-scores the Paxos program at their
    /// overlapping peaks so the smaller program is the one that spills.
    #[test]
    fn multi_tor_benefit_calibration() {
        let ctl = FleetController::new(
            inc_ondemand::FleetControllerConfig::standard(Nanos::from_millis(150)),
            MultiTorRig::fabric(),
            MultiTorRig::fleet_apps(),
        );
        let (kvs, dns, pax) = (
            MultiTorRig::KVS_APP,
            MultiTorRig::DNS_APP,
            MultiTorRig::PAX_APP,
        );
        for (app, valley, peak) in [
            (kvs, 2_000.0, 120_000.0),
            (dns, 2_000.0, 80_000.0),
            (pax, 500.0, 10_000.0),
        ] {
            let b_lo = ctl.benefit_w(app, valley);
            let b_hi = ctl.benefit_w(app, peak);
            println!("app {app}: benefit({valley}) = {b_lo:.2} W, benefit({peak}) = {b_hi:.2} W");
            assert!(b_lo < 0.0, "app {app} profitable at valley: {b_lo:.2} W");
            assert!(b_hi > 2.0, "app {app} not profitable at peak: {b_hi:.2} W");
        }
        let kvs_score = ctl.score(kvs, MultiTorRig::TOR_A, 110_000.0);
        let pax_score = ctl.score(pax, MultiTorRig::TOR_A, 10_000.0);
        println!("scores at overlap: kvs {kvs_score:.2}, pax {pax_score:.2}");
        assert!(
            kvs_score * 1.25 > pax_score,
            "paxos would preempt the kvs incumbent: {kvs_score:.2} vs {pax_score:.2}"
        );
    }

    /// The fairness rig's stylised economics have the shape its scenario
    /// depends on: every admitted tenant is profitable at its plateau;
    /// the Paxos program clears the floor even remotely but never wins a
    /// score fight (so pure benefit starves it); the bulk tenant's
    /// demand overflows every device; and the two ToR-A programs'
    /// dominant shares both exceed the three-way entitlement, so claims
    /// can clip in either direction.
    #[test]
    fn contended_fabric_calibration() {
        let interval = Nanos::from_millis(100);
        let ctl = ContendedFabricRig::fleet_controller(interval);
        let (kvs, dns, pax, bulk) = (
            ContendedFabricRig::KVS_APP,
            ContendedFabricRig::DNS_APP,
            ContendedFabricRig::PAX_APP,
            ContendedFabricRig::BULK_APP,
        );
        for app in [kvs, dns, pax, bulk] {
            let peak = ContendedFabricRig::contended_profiles(Nanos::from_secs(8))[app]
                .rate_at(Nanos::from_secs(4));
            assert!(ctl.benefit_w(app, 1_000.0) < 0.0, "app {app} hot at idle");
            assert!(ctl.benefit_w(app, peak) > 2.0, "app {app} cold at peak");
        }
        // Paxos clears the offload floor even across the detour...
        let pax_peak = 12_000.0;
        let remote = ctl.effective_benefit_w(pax, ContendedFabricRig::TOR_B, pax_peak);
        assert!(remote >= ctl.config().fleet.min_benefit_w);
        // ...but cannot out-score either incumbent, sticky or not.
        let pax_score = ctl.score(pax, ContendedFabricRig::TOR_A, pax_peak);
        assert!(ctl.score(kvs, ContendedFabricRig::TOR_A, 120_000.0) > pax_score);
        assert!(ctl.score(dns, ContendedFabricRig::TOR_B, 90_000.0) > pax_score);
        // Admission control: only the bulk tenant is unsatisfiable.
        for app in [kvs, dns, pax] {
            assert_eq!(
                ctl.admission_decision(app),
                inc_ondemand::AdmissionDecision::Admit
            );
        }
        assert_eq!(
            ctl.admission_decision(bulk),
            inc_ondemand::AdmissionDecision::Reject
        );
        let device = ContendedFabricRig::fabric()
            .device(ContendedFabricRig::TOR_A)
            .clone();
        assert!(device.cost_units(&ContendedFabricRig::bulk_demand()) > 1.0);
        // Both ToR-A programs are clippable at the 1/3 entitlement.
        assert!(device.cost_units(&SharedDeviceRig::kvs_demand()) > 1.0 / 3.0);
        assert!(device.cost_units(&MultiTorRig::pax_demand()) > 1.0 / 3.0);
        // DNS and Paxos cannot co-reside on ToR B in this rig.
        let mut b = device.clone();
        b.admit(0, ContendedFabricRig::dns_demand()).unwrap();
        assert!(!b.fits(&MultiTorRig::pax_demand()));
    }

    /// The pod-fabric rig's stylised economics have the shape its
    /// scenario depends on: every tenant profitable at its plateau and
    /// cold at the valley; the analytics spiller scores strictly higher
    /// on the near small ToR than on the far identical one; the Paxos
    /// claimant clears the floor even across the core but never wins a
    /// score fight; the edge tenant is the cheapest resident to clip;
    /// and the capacity shape forces the contention (KVS only fits big
    /// ToRs, nothing co-resides with a full plateau assignment).
    #[test]
    fn pod_fabric_calibration() {
        let interval = Nanos::from_millis(100);
        let ctl = PodFabricRig::fleet_controller(interval, ClaimPolicy::MinCost);
        let (kvs, ana, dns, edge, pax) = (
            PodFabricRig::KVS_APP,
            PodFabricRig::ANA_APP,
            PodFabricRig::DNS_APP,
            PodFabricRig::EDGE_APP,
            PodFabricRig::PAX_APP,
        );
        for app in [kvs, ana, dns, edge, pax] {
            let peak = PodFabricRig::contended_profiles(Nanos::from_secs(10))[app]
                .rate_at(Nanos::from_secs(4));
            assert!(ctl.benefit_w(app, 1_000.0) < 0.0, "app {app} hot at idle");
            assert!(ctl.benefit_w(app, peak) > 1.5, "app {app} cold at peak");
        }
        // KVS fits only the big ToRs.
        let fabric = PodFabricRig::fabric();
        assert!(fabric
            .device(PodFabricRig::TOR_A1)
            .budget()
            .admit(&SharedDeviceRig::kvs_demand())
            .is_err());
        // The near and far small ToRs are identical in budget, so only
        // the topology separates the analytics spill — and near must
        // strictly win.
        assert_eq!(
            fabric.device(PodFabricRig::TOR_A1).budget(),
            fabric.device(PodFabricRig::TOR_B1).budget()
        );
        let ana_rate = 90_000.0;
        assert!(
            ctl.score(ana, PodFabricRig::TOR_A1, ana_rate)
                > ctl.score(ana, PodFabricRig::TOR_B1, ana_rate)
        );
        assert_eq!(
            fabric.distance(PodFabricRig::TOR_A0, PodFabricRig::TOR_A1),
            1
        );
        assert_eq!(
            fabric.distance(PodFabricRig::TOR_A0, PodFabricRig::TOR_B1),
            2
        );
        // Paxos: floor-clearing everywhere, outscored everywhere.
        for d in fabric.device_ids() {
            assert!(ctl.effective_benefit_w(pax, d, 12_000.0) >= ctl.config().fleet.min_benefit_w);
        }
        // ...each resident out-scores the claimant on its own device, so
        // the knapsack never seats Paxos anywhere.
        let pax_at = |d| ctl.score(pax, d, 12_000.0);
        assert!(ctl.score(kvs, PodFabricRig::TOR_A0, 120_000.0) > pax_at(PodFabricRig::TOR_A0));
        assert!(ctl.score(ana, PodFabricRig::TOR_A1, ana_rate) > pax_at(PodFabricRig::TOR_A1));
        assert!(ctl.score(dns, PodFabricRig::TOR_B0, 90_000.0) > pax_at(PodFabricRig::TOR_B0));
        assert!(ctl.score(edge, PodFabricRig::TOR_B1, 60_000.0) > pax_at(PodFabricRig::TOR_B1));
        // The edge tenant delivers the least benefit of the four
        // residents: the min-cost clip target.
        let edge_w = ctl.effective_benefit_w(edge, PodFabricRig::TOR_B1, 60_000.0);
        assert!(edge_w < ctl.effective_benefit_w(kvs, PodFabricRig::TOR_A0, 120_000.0));
        assert!(edge_w < ctl.effective_benefit_w(ana, PodFabricRig::TOR_A1, ana_rate));
        assert!(edge_w < ctl.effective_benefit_w(dns, PodFabricRig::TOR_B0, 90_000.0));
        // With the natural assignment resident, Paxos fits nowhere.
        let mut full = PodFabricRig::fabric();
        full.admit(PodFabricRig::TOR_A0, 0, SharedDeviceRig::kvs_demand())
            .unwrap();
        full.admit(PodFabricRig::TOR_A1, 1, ctl.apps()[ana].demand)
            .unwrap();
        full.admit(PodFabricRig::TOR_B0, 2, ContendedFabricRig::dns_demand())
            .unwrap();
        full.admit(PodFabricRig::TOR_B1, 3, ctl.apps()[edge].demand)
            .unwrap();
        for d in full.device_ids() {
            assert!(!full.device(d).fits(&MultiTorRig::pax_demand()), "{d}");
        }
    }
}
