//! Application specifications, single-point runs, and the
//! maximum-sustainable-bandwidth search.

use simnet_apps::{
    Iperf, IperfTcp, KvStore, MemcachedDpdk, MemcachedKernel, RxpTx, TestPmd, TouchDrop, TouchFwd,
};
use simnet_loadgen::{
    find_knee, ClientFleet, EtherLoadGen, LoadGenMode, MemcachedClientConfig, RatePoint,
    SyntheticConfig, TcpClientConfig, MSB_DROP_THRESHOLD,
};
use simnet_net::MacAddr;
use simnet_sim::random::SimRng;
use simnet_sim::random::Zipf;
use simnet_sim::tick::{us, Bandwidth, Tick};
use simnet_stack::{DpdkStack, KernelStack, NetworkStack, PacketApp};

use crate::config::SystemConfig;
use crate::sim::Simulation;
use crate::summary::{run_phases, Phases, RunSummary};

/// Which benchmark to run (§V, plus iperf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// testpmd in macswap mode on DPDK.
    TestPmd,
    /// Payload-touching forwarder on DPDK.
    TouchFwd,
    /// Payload-touching sink on DPDK.
    TouchDrop,
    /// RX → process(interval) → TX on DPDK.
    RxpTx(Tick),
    /// Kernel-stack throughput test (UDP-style fixed-rate stream).
    Iperf,
    /// Kernel-stack TCP stream sink driven by the load generator's TCP
    /// state machine; `offered` is the client window in segments.
    IperfTcp,
    /// KV store on DPDK (memcached client load).
    MemcachedDpdk,
    /// KV store on the kernel stack (memcached client load).
    MemcachedKernel,
}

impl AppSpec {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            AppSpec::TestPmd => "TestPMD".into(),
            AppSpec::TouchFwd => "TouchFwd".into(),
            AppSpec::TouchDrop => "TouchDrop".into(),
            AppSpec::RxpTx(t) => {
                if *t >= us(1) {
                    format!("RXpTX-{}us", t / us(1))
                } else {
                    format!("RXpTX-{}ns", t / 1_000)
                }
            }
            AppSpec::Iperf => "iperf".into(),
            AppSpec::IperfTcp => "iperf-tcp".into(),
            AppSpec::MemcachedDpdk => "MemcachedDPDK".into(),
            AppSpec::MemcachedKernel => "MemcachedKernel".into(),
        }
    }

    /// Whether offered load is requests/second (vs Gbps).
    pub fn uses_rps(&self) -> bool {
        matches!(self, AppSpec::MemcachedDpdk | AppSpec::MemcachedKernel)
    }

    /// Whether the node runs the kernel stack.
    pub fn kernel_stack(&self) -> bool {
        matches!(
            self,
            AppSpec::Iperf | AppSpec::IperfTcp | AppSpec::MemcachedKernel
        )
    }

    /// Builds the stack + application for a node.
    pub fn instantiate(&self, seed: u64) -> (Box<dyn NetworkStack>, Box<dyn PacketApp>) {
        self.instantiate_mq(seed, 0, 1, 1)
    }

    /// Builds the stack + application shard for worker `lcore` of an
    /// `nlcores`-worker node whose NIC exposes `nqueues` queues.
    /// `instantiate_mq(seed, 0, 1, _)` is exactly [`AppSpec::instantiate`]:
    /// the lone lcore gets the whole store and the legacy address-map
    /// bases. With more workers, the memcached store is sharded by RSS
    /// key ownership and every per-lcore footprint moves to that lcore's
    /// private 64 MiB slice.
    pub fn instantiate_mq(
        &self,
        seed: u64,
        lcore: usize,
        nlcores: usize,
        nqueues: usize,
    ) -> (Box<dyn NetworkStack>, Box<dyn PacketApp>) {
        let stack: Box<dyn NetworkStack> = if self.kernel_stack() {
            Box::new(KernelStack::for_lcore(seed, lcore))
        } else {
            Box::new(DpdkStack::for_lcore(seed, lcore))
        };
        let app: Box<dyn PacketApp> = match self {
            AppSpec::TestPmd => Box::new(TestPmd::new()),
            AppSpec::TouchFwd => Box::new(TouchFwd::new()),
            AppSpec::TouchDrop => Box::new(TouchDrop::new()),
            AppSpec::RxpTx(t) => Box::new(RxpTx::new(*t)),
            AppSpec::Iperf => Box::new(Iperf::new()),
            AppSpec::IperfTcp => Box::new(IperfTcp::new()),
            AppSpec::MemcachedDpdk => Box::new(MemcachedDpdk::for_lcore(
                shard_store(seed, lcore, nlcores, nqueues),
                lcore,
            )),
            AppSpec::MemcachedKernel => Box::new(MemcachedKernel::for_lcore(
                shard_store(seed, lcore, nlcores, nqueues),
                lcore,
            )),
        };
        (stack, app)
    }

    /// Builds the matching load generator at `offered` load (Gbps of
    /// frame bytes, or kRPS for the memcached workloads) with frames of
    /// `size` bytes.
    pub fn loadgen(&self, cfg: &SystemConfig, size: usize, offered: f64) -> EtherLoadGen {
        let server = cfg.nic.mac;
        let client = MacAddr::simulated(99);
        let mode = if let AppSpec::IperfTcp = self {
            // `offered` is the stream window, in segments.
            LoadGenMode::Tcp(TcpClientConfig::new(
                server,
                client,
                (offered.round() as usize).max(1),
                1_448,
            ))
        } else if self.uses_rps() {
            LoadGenMode::Memcached(MemcachedClientConfig::paper_client(
                offered * 1_000.0,
                server,
                client,
            ))
        } else {
            let mut syn =
                SyntheticConfig::fixed_rate(size, Bandwidth::gbps(offered), server, client);
            // On a multi-queue NIC, raw LoadGen shells carry no tuple and
            // RSS pins every frame to queue 0; switch to UDP frames whose
            // source ports round-robin one port per queue so the offered
            // stream actually exercises every queue.
            if cfg.nic.num_queues > 1 {
                syn = syn.with_rss_ports(
                    [10, 0, 0, 2],
                    [10, 0, 0, 1],
                    9,
                    simnet_net::rss::ports_for_queues(
                        [10, 0, 0, 2],
                        [10, 0, 0, 1],
                        9,
                        cfg.nic.num_queues,
                    ),
                );
            }
            LoadGenMode::Synthetic(syn)
        };
        EtherLoadGen::new(mode, cfg.seed ^ 0x10AD)
    }
}

fn warmed_store(seed: u64) -> KvStore {
    let mut store = KvStore::new(8192);
    store.warm(5_000, &Zipf::paper_lengths(), &mut SimRng::seed_from(seed));
    store
}

/// `lcore`'s shard of the paper's 5000-key store. With one lcore this is
/// exactly [`warmed_store`] (every key, legacy heap layout); otherwise
/// the shard holds the keys RSS steers to this lcore, in a disjoint
/// 64 MiB heap slice, with value lengths identical to the whole-store
/// warm (the RNG is consumed for every key on every shard).
fn shard_store(seed: u64, lcore: usize, nlcores: usize, nqueues: usize) -> KvStore {
    if nlcores == 1 {
        return warmed_store(seed);
    }
    let mut store = KvStore::new(8192).with_base_offset(lcore as u64 * (64 << 20));
    store.warm_shard(
        5_000,
        &Zipf::paper_lengths(),
        &mut SimRng::seed_from(seed),
        lcore,
        nlcores,
        nqueues,
    );
    store
}

/// Attaches worker lcores `1..cfg.num_lcores` to the test node and, for
/// request workloads on a multi-queue NIC, steers each client request's
/// source port onto the RSS queue owning its key's shard. No-op for the
/// single-queue single-core legacy configuration.
fn add_workers(sim: &mut Simulation, cfg: &SystemConfig, spec: &AppSpec) {
    let nq = cfg.nic.num_queues;
    for lcore in 1..cfg.num_lcores {
        let (stack, app) = spec.instantiate_mq(cfg.seed, lcore, cfg.num_lcores, nq);
        sim.add_worker(0, stack, app);
    }
    if nq > 1 {
        if let Some(lg) = &mut sim.loadgen {
            lg.set_memcached_shard_ports(simnet_net::rss::ports_for_queues(
                [10, 0, 0, 2],
                [10, 0, 0, 1],
                11_211,
                nq,
            ));
        }
    }
}

/// Run configuration for a measurement point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Warm-up + measurement windows.
    pub phases: Phases,
}

impl RunConfig {
    /// Fast default: 300 µs warm-up, 1 ms measurement (the paper warms
    /// for 200 ms on gem5; our event granularity reaches steady state in
    /// hundreds of microseconds).
    pub fn fast() -> Self {
        Self {
            phases: Phases {
                warmup: us(300),
                measure: us(1_000),
            },
        }
    }

    /// Longer windows for low-rate workloads (memcached, kernel stack).
    pub fn long() -> Self {
        Self {
            phases: Phases {
                warmup: us(1_000),
                measure: us(10_000),
            },
        }
    }

    /// Default windows appropriate for an app.
    pub fn for_app(spec: &AppSpec) -> Self {
        if spec.uses_rps() || spec.kernel_stack() {
            Self::long()
        } else {
            Self::fast()
        }
    }
}

/// Assembles a loadgen-mode simulation exactly as
/// [`run_point`]/[`run_observed`](crate::run_observed) do — stack, app,
/// worker lcores, and RSS shard steering included — without running it.
/// Integration tests use this to attach their own observability layers
/// (trace, faults, burst factor) before driving the phases themselves.
pub fn build_loadgen_sim(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
) -> Simulation {
    if !cfg.topo.is_point_to_point() {
        return build_topo_sim(cfg, spec, size, offered);
    }
    let (stack, app) = spec.instantiate_mq(cfg.seed, 0, cfg.num_lcores, cfg.nic.num_queues);
    let loadgen = spec.loadgen(cfg, size, offered);
    let mut sim = Simulation::loadgen_mode(cfg, stack, app, loadgen);
    add_workers(&mut sim, cfg, spec);
    sim
}

/// Assembles a topology-mode simulation: `cfg.topo.clients` fleet
/// endpoints behind a MAC switch feeding the test node over a
/// (optionally congestible) trunk. `offered` is the *aggregate* load in
/// Gbps of frame bytes, split evenly across clients. Open-loop
/// bandwidth workloads only: the fleet speaks fixed-rate UDP, not the
/// memcached or TCP client state machines.
pub fn build_topo_sim(cfg: &SystemConfig, spec: &AppSpec, size: usize, offered: f64) -> Simulation {
    assert!(
        !spec.uses_rps() && !matches!(spec, AppSpec::IperfTcp),
        "topology mode drives open-loop synthetic traffic only"
    );
    let (stack, app) = spec.instantiate_mq(cfg.seed, 0, cfg.num_lcores, cfg.nic.num_queues);
    let fleet = ClientFleet::fixed_rate(
        cfg.topo.clients,
        size,
        Bandwidth::gbps(offered),
        cfg.nic.mac,
        cfg.seed ^ 0x10AD,
    )
    .with_flows(cfg.topo.flows_per_client, cfg.topo.zipf_skew);
    let mut sim = Simulation::topo_mode(cfg, stack, app, fleet);
    add_workers(&mut sim, cfg, spec);
    sim
}

/// Runs one (config, app, size, offered-load) measurement point.
pub fn run_point(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
) -> RunSummary {
    // A software client (the altra setup's Pktgen) cannot exceed its
    // per-packet rate ceiling; clamp the offered load accordingly.
    let offered = match (cfg.client_pps_cap, spec.uses_rps()) {
        (Some(cap), false) => {
            let cap_gbps = cap * size as f64 * 8.0 / 1e9;
            offered.min(cap_gbps)
        }
        (Some(cap), true) => offered.min(cap / 1_000.0),
        (None, _) => offered,
    };
    let mut sim = build_loadgen_sim(cfg, spec, size, offered);
    run_phases(&mut sim, rc.phases)
}

/// Runs one measurement point in **dual-mode** (Fig. 1a): the traffic
/// source is a software load-generator application on a fully simulated
/// Drive Node instead of the hardware `EtherLoadGen`. Used by the Fig. 20
/// simulation-speed comparison.
pub fn run_dual_point(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
) -> RunSummary {
    let (server_stack, server_app) =
        spec.instantiate_mq(cfg.seed, 0, cfg.num_lcores, cfg.nic.num_queues);
    // The Drive Node runs the matching client as a DPDK app (Pktgen-like).
    let mut client_gen = spec.loadgen(cfg, size, offered);
    if cfg.nic.num_queues > 1 {
        client_gen.set_memcached_shard_ports(simnet_net::rss::ports_for_queues(
            [10, 0, 0, 2],
            [10, 0, 0, 1],
            11_211,
            cfg.nic.num_queues,
        ));
    }
    let client_app = Box::new(crate::client_app::SoftwareClient::new(client_gen));
    let drive_stack: Box<dyn NetworkStack> = Box::new(DpdkStack::new(cfg.seed ^ 0xD21E));
    let mut sim = Simulation::dual_mode(cfg, server_stack, server_app, drive_stack, client_app);
    add_workers(&mut sim, cfg, spec);
    run_phases(&mut sim, rc.phases)
}

/// A completed MSB search.
#[derive(Debug, Clone)]
pub struct MsbResult {
    /// The knee (Gbps or kRPS), `None` if even the lowest load dropped.
    pub msb: Option<f64>,
    /// The measured ramp.
    pub points: Vec<RatePoint>,
}

impl MsbResult {
    /// The MSB, or 0.0 when the server could not sustain any probed load.
    pub fn msb_or_zero(&self) -> f64 {
        self.msb.unwrap_or(0.0)
    }
}

/// The drop-rate metric and knee threshold for a spec.
///
/// Bandwidth workloads use the NIC-FSM drop rate against the paper's 1%
/// threshold (§VII.C). Request workloads use the load generator's view —
/// unanswered requests within the window, which captures queue collapse
/// the way Fig. 18's client-side measurement does — with a slightly
/// higher threshold to absorb in-flight requests at the window edge.
fn drop_metric(spec: &AppSpec, summary: &RunSummary) -> (f64, f64) {
    if spec.uses_rps() {
        (summary.report.drop_rate, 0.05)
    } else {
        let mut drop = summary.drop_rate;
        // Near the knee, the RX ring + FIFO can absorb the surplus for
        // the whole measurement window without a FIFO overrun. A ring
        // that ends the window majority-full is the §VII.A "core is
        // behind" state: the load is not sustainable.
        if drop <= MSB_DROP_THRESHOLD && summary.rx_backlog_ratio > 0.5 {
            drop = MSB_DROP_THRESHOLD * 2.0;
        }
        (drop, MSB_DROP_THRESHOLD)
    }
}

/// Sweeps offered load geometrically from `lo` to `hi` (Gbps or kRPS) and
/// finds the drop knee (§VII.C's MSB definition).
pub fn find_msb(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    lo: f64,
    hi: f64,
    steps: usize,
    rc: RunConfig,
) -> MsbResult {
    let mut points = Vec::with_capacity(steps + 4);
    let mut threshold = MSB_DROP_THRESHOLD;
    let measure = |offered: f64, points: &mut Vec<RatePoint>| -> (f64, f64) {
        let summary = run_point(cfg, spec, size, offered, rc);
        let achieved = if spec.uses_rps() {
            summary.achieved_rps() / 1_000.0
        } else {
            summary.achieved_gbps()
        };
        let (drop, thr) = drop_metric(spec, &summary);
        points.push(RatePoint {
            offered,
            achieved,
            drop_rate: drop,
        });
        (drop, thr)
    };

    for offered in simnet_loadgen::ramp::geometric_ramp(lo, hi, steps) {
        let (drop, thr) = measure(offered, &mut points);
        threshold = thr;
        // Ramp early-exit: past the knee with heavy drops, higher loads
        // only waste simulation time.
        if drop > 0.25 {
            break;
        }
    }

    // Refine the knee bracket by geometric bisection: coarse ramps badly
    // underestimate the knee when the bracketing interval is wide.
    for _ in 0..4 {
        let thr = threshold;
        let good = points
            .iter()
            .filter(|p| p.drop_rate <= thr)
            .map(|p| p.offered)
            .fold(f64::NAN, f64::max);
        let bad = points
            .iter()
            .filter(|p| p.drop_rate > thr)
            .map(|p| p.offered)
            .fold(f64::NAN, f64::min);
        if !good.is_finite() || !bad.is_finite() {
            break;
        }
        if bad / good < 1.15 {
            break; // bracket tight enough
        }
        let mid = (good * bad).sqrt();
        let (_, thr) = measure(mid, &mut points);
        threshold = thr;
    }
    points.sort_by(|a, b| a.offered.partial_cmp(&b.offered).expect("finite loads"));

    MsbResult {
        msb: find_knee(&points, threshold),
        points,
    }
}
