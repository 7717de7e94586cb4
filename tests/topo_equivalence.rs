//! The load-bearing proof for the topology tentpole: the fabric is
//! configuration-gated, so the degenerate point-to-point topology must
//! be observationally indistinguishable from the default assembly —
//! byte-identical traces, full stats dumps, event counts, and
//! throughput bits — and the pure-wire [`TopoLink`] must compute the
//! closed-form serialize-then-propagate arrival tick on any offer
//! schedule. (The committed goldens in `tests/golden/` separately pin
//! the degenerate schedule against the pre-topology history.)
//!
//! Incast runs themselves (`clients > 1`) are covered by replay
//! determinism, burst invariance, and the per-link drop/queue stats the
//! full dump must expose.

mod ledger;

use proptest::prelude::*;
use simnet::harness::config::TopoConfig;
use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::{
    build_loadgen_sim, run_point, stats_text_all, AppSpec, RunConfig, Simulation, SystemConfig,
};
use simnet::net::ethernet::WIRE_OVERHEAD;
use simnet::net::pool;
use simnet::net::topo::{LinkPolicy, TopoLink, Verdict};
use simnet::sim::tick::{ns, us, Bandwidth, Tick};
use simnet::sim::trace::{canonical_text, trace_hash, Component};

/// Everything observable about one run, serialized for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    trace_hash: u64,
    stats: String,
    events: u64,
    achieved_gbps_bits: u64,
    drop_rate_bits: u64,
    pool_live_after_drop: u64,
}

/// Drives an assembled simulation and captures the observable surface.
fn observe(mut sim: Simulation, burst: usize, phases: Phases) -> Observed {
    sim.set_burst(burst);
    sim.enable_trace(1 << 20, Component::ALL_MASK);
    let summary = run_phases(&mut sim, phases);
    let events = sim.take_trace();
    let trace = canonical_text(&events);
    let stats = stats_text_all(&sim, 0);
    drop(sim);
    Observed {
        trace,
        trace_hash: trace_hash(&events),
        stats,
        events: summary.events,
        achieved_gbps_bits: summary.achieved_gbps().to_bits(),
        drop_rate_bits: summary.report.drop_rate.to_bits(),
        pool_live_after_drop: pool::stats().live(),
    }
}

fn assert_equivalent(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.trace, b.trace, "{label}: canonical traces diverged");
    assert_eq!(a.trace_hash, b.trace_hash, "{label}: trace hashes diverged");
    assert_eq!(a.stats, b.stats, "{label}: stats dumps diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        a.achieved_gbps_bits, b.achieved_gbps_bits,
        "{label}: throughput diverged"
    );
    assert_eq!(
        a.drop_rate_bits, b.drop_rate_bits,
        "{label}: drop rates diverged"
    );
    assert_eq!(
        a.pool_live_after_drop, 0,
        "{label}: first run stranded buffers"
    );
    assert_eq!(
        b.pool_live_after_drop, 0,
        "{label}: second run stranded buffers"
    );
}

const SHORT: Phases = Phases {
    warmup: us(50),
    measure: us(150),
};

/// Builds the single-point simulation for `cfg` the way `run_point`,
/// `run_observed`, and `repro` all do.
fn build(cfg: &SystemConfig, size: usize, gbps: f64) -> Simulation {
    build_loadgen_sim(cfg, &AppSpec::TestPmd, size, gbps)
}

/// An incast config: `clients` endpoints, heterogeneous access
/// latencies, a bounded trunk queue, and a little seeded access loss.
fn incast_cfg(clients: usize) -> SystemConfig {
    SystemConfig::gem5().with_topo(
        TopoConfig::incast(clients)
            .with_latency_spread(us(5))
            .with_trunk_queue(256)
            .with_loss_ppm(200),
    )
}

/// The degenerate differential matrix: an explicit point-to-point
/// `TopoConfig` must assemble the exact same simulation as the default
/// config across sizes, rates, and burst settings.
#[test]
fn explicit_point_to_point_topology_matches_default_assembly() {
    for (size, gbps) in [(1518usize, 30.0f64), (64, 70.0), (256, 10.0)] {
        for burst in [1usize, 32] {
            let default_cfg = SystemConfig::gem5();
            let topo_cfg = SystemConfig::gem5().with_topo(TopoConfig::point_to_point());
            let a = observe(build(&default_cfg, size, gbps), burst, SHORT);
            let b = observe(build(&topo_cfg, size, gbps), burst, SHORT);
            assert_equivalent(&a, &b, &format!("{size}B @{gbps}Gbps burst={burst}"));
        }
    }
}

/// The degenerate fabric registers nothing: no `system.topo` block and
/// no `loadgen.clients` fleet block may appear in the frozen-format
/// stats dump of a point-to-point run.
#[test]
fn degenerate_runs_keep_the_stats_dump_clean() {
    let cfg = SystemConfig::gem5().with_topo(TopoConfig::point_to_point());
    let obs = observe(build(&cfg, 1518, 30.0), 32, SHORT);
    assert!(
        !obs.stats.contains("system.topo"),
        "degenerate topology must not register fabric stats"
    );
}

/// Incast replay determinism: two fresh builds of an 8-client incast —
/// heterogeneous RTTs, bounded trunk, seeded loss — agree on every
/// observable byte, and the run actually moves traffic.
#[test]
fn incast_replay_is_deterministic() {
    let phases = Phases {
        warmup: us(100),
        measure: us(400),
    };
    let a = observe(build(&incast_cfg(8), 1518, 40.0), 32, phases);
    let b = observe(build(&incast_cfg(8), 1518, 40.0), 32, phases);
    assert_equivalent(&a, &b, "incast 8-client replay");
    assert!(!a.trace.is_empty(), "incast run captured no events");
    assert_ne!(
        a.achieved_gbps_bits,
        0f64.to_bits(),
        "incast moved no traffic"
    );
}

/// Burst batching composes with the fabric: the coalesced trunk
/// transport leaves an incast schedule bit-identical to its scalar
/// (`burst=1`) reference.
#[test]
fn incast_runs_are_burst_invariant() {
    let scalar = observe(build(&incast_cfg(8), 1518, 40.0), 1, SHORT);
    for burst in [2usize, 32, 33] {
        let batched = observe(build(&incast_cfg(8), 1518, 40.0), burst, SHORT);
        assert_equivalent(&scalar, &batched, &format!("incast burst={burst}"));
    }
}

/// The full stats dump of an incast run exposes the per-link ledger:
/// fleet block, fabric aggregates, trunk drop/queue gauges, and one
/// block per access link.
#[test]
fn incast_stats_expose_the_per_link_ledger() {
    // Overdrive a tight trunk so tail-drops actually happen.
    let cfg = SystemConfig::gem5().with_topo(
        TopoConfig::incast(8)
            .with_latency_spread(us(5))
            .with_trunk_queue(16),
    );
    let obs = observe(build(&cfg, 1518, 120.0), 32, SHORT);
    for needle in [
        "loadgen.clients",
        "system.topo.clients",
        "system.topo.unroutable",
        "system.topo.trunk.txFrames",
        "system.topo.trunk.tailDrops",
        "system.topo.trunk.queuePeak",
        "system.topo.uplinks.txFrames",
        "system.topo.downlinks.txFrames",
        "system.topo.uplink0.txFrames",
        "system.topo.downlink7.txFrames",
    ] {
        assert!(obs.stats.contains(needle), "stats dump missing {needle}");
    }
    let tail_drops: u64 = obs
        .stats
        .lines()
        .find(|l| l.starts_with("system.topo.trunk.tailDrops"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("tailDrops line parses");
    assert!(
        tail_drops > 0,
        "overdriven 16-frame trunk never tail-dropped"
    );
    assert_ne!(obs.drop_rate_bits, 0f64.to_bits(), "clients saw no drops");
}

/// The committed fan-in ledger: TestPMD offered 120 Gbps of 1518 B
/// frames, past the host's knee, through the point-to-point wire and
/// through 4- and 8-client incast fabrics with a 10 µs latency spread.
/// The achieved rate is a pure function of the seed and config, so each
/// row must equal `BENCH_topo.json` to the printed digit, and eight
/// clients must hold at least 0.8× the point-to-point rate.
#[test]
fn incast_fan_in_matches_the_committed_ledger() {
    let mut krps = Vec::new();
    for clients in [1usize, 4, 8] {
        let topo = if clients == 1 {
            TopoConfig::point_to_point()
        } else {
            TopoConfig::incast(clients).with_latency_spread(us(10))
        };
        let cfg = SystemConfig::gem5().with_topo(topo);
        let s = run_point(&cfg, &AppSpec::TestPmd, 1518, 120.0, RunConfig::long());
        let name = format!("topo_incast_{clients}c");
        let got = s.achieved_rps() / 1e3;
        assert_eq!(
            format!("{got:.1}"),
            ledger::krps("BENCH_topo.json", &name),
            "{name}: achieved kRPS differs from BENCH_topo.json"
        );
        krps.push(got);
    }
    let ratio = krps[2] / krps[0];
    assert!(
        ratio >= 0.8,
        "8 clients hold {ratio:.2}x the point-to-point rate, below the 0.8x floor"
    );
}

/// The closed-form point-to-point wire every degenerate schedule rests
/// on: a frame starts serializing when the wire is free, occupies it for
/// its bytes plus preamble and inter-frame gap, and arrives one
/// propagation latency later.
struct ReferenceWire {
    bw: Bandwidth,
    latency: Tick,
    busy: Tick,
    frames: u64,
    bytes: u64,
}

impl ReferenceWire {
    fn transmit(&mut self, now: Tick, len: usize) -> Tick {
        let start = now.max(self.busy);
        let done = start + self.bw.bytes_to_ticks((len + WIRE_OVERHEAD) as u64);
        self.busy = done;
        self.frames += 1;
        self.bytes += len as u64;
        done + self.latency
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// The pure-wire `TopoLink` computes the reference arrival tick — same
    /// serialization overhead, same busy horizon — on any offer
    /// schedule, which is the arithmetic the byte-identical degenerate
    /// schedule rests on.
    #[test]
    fn wire_link_is_tick_identical_to_reference_wire(
        gbps in prop_oneof![Just(10.0f64), Just(40.0), Just(100.0)],
        latency in 0u64..=5_000,
        offers in proptest::collection::vec((0u64..=2_000, 64usize..=1518), 1..100),
        seed in any::<u64>(),
    ) {
        let bw = Bandwidth::gbps(gbps);
        let mut reference = ReferenceWire { bw, latency: ns(latency), busy: 0, frames: 0, bytes: 0 };
        let mut topo = TopoLink::new(LinkPolicy::wire(bw, ns(latency)), seed);
        let mut now = 0;
        for &(gap, len) in &offers {
            now += ns(gap);
            let expected = reference.transmit(now, len);
            let got = topo.transmit(now, len);
            prop_assert_eq!(got, Verdict::Deliver(expected));
        }
        prop_assert_eq!(topo.frames.value(), reference.frames);
        prop_assert_eq!(topo.bytes.value(), reference.bytes);
        prop_assert_eq!(topo.next_free(), reference.busy);
    }
}
