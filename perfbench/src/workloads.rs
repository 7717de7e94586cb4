//! The four benchmark workloads, each a fixed list of measurement
//! points built from the workload seed.
//!
//! Every point reproduces a configuration the `repro` experiments or the
//! committed `BENCH_*.json` ledgers run; the comments name which one.
//! All simulated traffic is open-loop: the load generator (or client
//! fleet) sends on its own schedule regardless of how the server keeps up.

use simnet_harness::config::TopoConfig;
use simnet_harness::experiments::Effort;
use simnet_harness::summary::Phases;
use simnet_harness::{AppSpec, RunConfig, SystemConfig};
use simnet_loadgen::ramp::geometric_ramp;
use simnet_sim::tick::{ns, us};

/// Every workload the benchmark can run. `BENCHMARK.json` gates
/// `cache-sweep` and `incast-8`; see the README for why.
pub const NAMES: [&str; 4] = ["fig6-ramp", "cache-sweep", "mc-4q4l", "incast-8"];

/// What one point does.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// One `build_loadgen_sim` + `run_phases` at a fixed offered load.
    Run { offered: f64, rc: RunConfig },
    /// One `find_msb` search over `geometric_ramp(lo, hi, steps)` plus
    /// its bisection probes.
    Search {
        lo: f64,
        hi: f64,
        steps: usize,
        rc: RunConfig,
    },
}

/// One measurement point: the unit the benchmark counts as an operation.
#[derive(Debug, Clone)]
pub struct Point {
    /// Stable identifier, unique within the workload.
    pub id: String,
    /// The application under test.
    pub app: AppSpec,
    /// Frame size in bytes (0 for request workloads, as `repro` passes).
    pub size: usize,
    /// Human-readable configuration label.
    pub config: &'static str,
    /// The system configuration, seeded with the workload seed.
    pub cfg: SystemConfig,
    /// The operation.
    pub op: Op,
}

impl Point {
    /// The offered load the point is assembled at: its own for a run,
    /// the bottom of the ramp for a search.
    pub fn assembly_load(&self) -> f64 {
        match self.op {
            Op::Run { offered, .. } => offered,
            Op::Search { lo, .. } => lo,
        }
    }

    /// Key/value attributes recorded on the point's span.
    pub fn attrs(&self) -> String {
        let load = match self.op {
            Op::Run { offered, .. } => format!("{offered}"),
            Op::Search { lo, hi, steps, .. } => format!("search {lo}..{hi}/{steps}"),
        };
        format!(
            "point={} app={} size={} offered={} config={}",
            self.id,
            self.app.label(),
            self.size,
            load,
            self.config
        )
    }
}

/// The points of workload `name` for `seed`, or `None` for an unknown name.
pub fn points(name: &str, seed: u64) -> Option<Vec<Point>> {
    let gem5 = SystemConfig::gem5().with_seed(seed);
    Some(match name {
        "fig6-ramp" => fig6_ramp(gem5),
        "cache-sweep" => cache_sweep(gem5),
        "mc-4q4l" => mc_4q4l(gem5),
        "incast-8" => incast_8(gem5),
        _ => return None,
    })
}

/// Fig. 6: TestPMD on DPDK, point to point, the `--quick` offered-load
/// ramp (`geometric_ramp(1, 90 Gbps)`) at 64 B and 1518 B, fast phases.
fn fig6_ramp(gem5: SystemConfig) -> Vec<Point> {
    let spec = AppSpec::TestPmd;
    let mut out = Vec::new();
    for size in [64usize, 1518] {
        for offered in geometric_ramp(1.0, 90.0, Effort::Quick.ramp_steps()) {
            out.push(Point {
                id: format!("{size}B@{offered:.2}Gbps"),
                app: spec,
                size,
                config: "gem5",
                cfg: gem5,
                op: Op::Run {
                    offered,
                    rc: RunConfig::for_app(&spec),
                },
            });
        }
    }
    out
}

/// Figs. 10–12, thinned: each of the seven sensitivity apps runs one MSB
/// search with every cache level at the smallest size the figures sweep
/// (16 KiB L1, 256 KiB L2, 4 MiB LLC) and one with every level at the
/// largest (1 MiB L1, 8 MiB L2, 64 MiB LLC). Bandwidth apps use one of
/// the `--quick` bar sizes each (128 B where per-packet work dominates,
/// 1518 B where payload work does), so one pass fits a run.
fn cache_sweep(gem5: SystemConfig) -> Vec<Point> {
    let apps: [(AppSpec, usize); 7] = [
        (AppSpec::TestPmd, 128),
        (AppSpec::TouchFwd, 1518),
        (AppSpec::Iperf, 128),
        (AppSpec::RxpTx(ns(10)), 1518),
        (AppSpec::RxpTx(us(1)), 128),
        (AppSpec::MemcachedDpdk, 0),
        (AppSpec::MemcachedKernel, 0),
    ];
    let extremes: [(&'static str, SystemConfig); 2] = [
        (
            "caches-min(L1=16KiB,L2=256KiB,LLC=4MiB)",
            gem5.with_l1_size(16 << 10)
                .with_l2_size(256 << 10)
                .with_llc_size(4 << 20),
        ),
        (
            "caches-max(L1=1MiB,L2=8MiB,LLC=64MiB)",
            gem5.with_l1_size(1 << 20)
                .with_l2_size(8 << 20)
                .with_llc_size(64 << 20),
        ),
    ];
    let mut out = Vec::new();
    for (spec, size) in apps {
        let (lo, hi) = search_bounds(&spec);
        for (label, cfg) in extremes {
            out.push(Point {
                id: format!(
                    "{}/{}/{}",
                    spec.label(),
                    if size == 0 {
                        "req".to_string()
                    } else {
                        format!("{size}B")
                    },
                    if label.starts_with("caches-min") {
                        "min"
                    } else {
                        "max"
                    }
                ),
                app: spec,
                // `find_msb` needs a real frame size; the figures pass
                // `size.max(64)` for the request workloads too.
                size: size.max(64),
                config: label,
                cfg,
                op: Op::Search {
                    lo,
                    hi,
                    steps: Effort::Quick.ramp_steps(),
                    rc: RunConfig::for_app(&spec),
                },
            });
        }
    }
    out
}

/// The search bounds the cache-sweep figures use (Gbps, or kRPS for the
/// memcached apps).
fn search_bounds(spec: &AppSpec) -> (f64, f64) {
    if spec.uses_rps() {
        (50.0, 2_000.0)
    } else if matches!(spec, AppSpec::TouchFwd | AppSpec::Iperf) {
        (0.25, 30.0)
    } else {
        (0.5, 90.0)
    }
}

/// Memcached on DPDK at 4 queues × 4 lcores over the `mq-sweep --quick`
/// ramp (`geometric_ramp(200, 3200 kRPS)`), long phases. The client sends
/// Poisson requests, 80% GET / 20% SET, RSS-steered onto key shards.
fn mc_4q4l(gem5: SystemConfig) -> Vec<Point> {
    let cfg = gem5.with_queues(4).with_lcores(4);
    geometric_ramp(200.0, 3_200.0, 3)
        .into_iter()
        .map(|krps| Point {
            id: format!("4q4l@{krps:.0}kRPS"),
            app: AppSpec::MemcachedDpdk,
            size: 0,
            config: "gem5/4q4l",
            cfg,
            op: Op::Run {
                offered: krps,
                rc: RunConfig::long(),
            },
        })
        .collect()
}

/// 8 fleet clients → static-MAC switch → trunk → host, 1518 B TestPMD:
/// the `topo_bench` point (10 µs latency spread, 120 Gbps, long phases)
/// and the `topo-sweep --quick` bounded-trunk ramp (64-frame trunk queue,
/// `geometric_ramp(20, 120 Gbps)`, 300 µs + 1 ms phases).
fn incast_8(gem5: SystemConfig) -> Vec<Point> {
    let spec = AppSpec::TestPmd;
    let mut out = vec![Point {
        id: "spread10us@120Gbps".into(),
        app: spec,
        size: 1518,
        config: "incast8/spread=10us",
        cfg: gem5.with_topo(TopoConfig::incast(8).with_latency_spread(us(10))),
        op: Op::Run {
            offered: 120.0,
            rc: RunConfig::long(),
        },
    }];
    let sweep_phases = RunConfig {
        phases: Phases {
            warmup: us(300),
            measure: us(1_000),
        },
    };
    for offered in geometric_ramp(20.0, 120.0, 3) {
        out.push(Point {
            id: format!("trunk64@{offered:.1}Gbps"),
            app: spec,
            size: 1518,
            config: "incast8/trunk=64",
            cfg: gem5.with_topo(TopoConfig::incast(8).with_trunk_queue(64)),
            op: Op::Run {
                offered,
                rc: sweep_phases,
            },
        });
    }
    out
}
