//! Packet-pool benchmark: pooled [`Packet`] (mempool + COW handles) vs
//! a deep-copy `Vec<u8>` packet — the representation the hot path used
//! before the mempool — emitting/checking the committed
//! `BENCH_pkt_pool.json`.
//!
//! ```text
//! pkt_bench [--scale F] [--out FILE] [--check BASELINE] [--max-regress PCT]
//! ```
//!
//! The flags are the shared layer-bench flags (see `simnet_bench`);
//! `--check` compares the pooled-vs-vec speedup per scenario.
//!
//! The workloads mirror the simulator's real per-packet life cycle: an
//! allocate-touch-free churn (loadgen builds, NIC consumes), a clone
//! fan-out (the per-hop `completion.packet.clone()` the mempool
//! removed), and the full RX→app→TX forwarding trip with a MAC swap.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use simnet_bench::{finish, median, Args};
use simnet_harness::{run_point, AppSpec, RunConfig, SystemConfig};
use simnet_net::Packet;

/// The pre-mempool packet: id + owned bytes, deep-copied on clone. This
/// is byte-for-byte what `simnet-net::Packet` stored before the pool.
#[derive(Clone)]
struct VecPacket {
    id: u64,
    data: Vec<u8>,
}

impl VecPacket {
    fn zeroed(id: u64, len: usize) -> Self {
        Self {
            id,
            data: vec![0u8; len],
        }
    }

    fn macswap(&mut self) {
        for i in 0..6 {
            self.data.swap(i, 6 + i);
        }
    }
}

/// Allocate-touch-free churn: the loadgen/NIC edge of the pipeline.
/// Every iteration allocates a frame, stamps a header word, reads the
/// tail, and drops it. Pooled allocation recycles one freelist slot;
/// the Vec baseline round-trips the allocator every time.
fn alloc_touch_free_pooled(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut p = Packet::zeroed(i, len);
        black_box(p.bytes_mut())[0] = i as u8;
        acc = acc.wrapping_add(u64::from(black_box(p.bytes())[len - 1]) ^ p.id());
    }
    acc
}

fn alloc_touch_free_vec(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut p = VecPacket::zeroed(i, len);
        black_box(&mut p.data)[0] = i as u8;
        acc = acc.wrapping_add(u64::from(black_box(&p.data)[len - 1]) ^ p.id);
    }
    acc
}

/// Clone fan-out: one live frame handed to `n` observers that only
/// read — the exact shape of the per-hop `completion.packet.clone()`
/// the zero-copy handoff removed. Pooled clones bump a refcount; Vec
/// clones memcpy the full frame.
fn clone_fanout_pooled(n: u64, len: usize) -> u64 {
    let source = Packet::zeroed(1, len);
    let mut acc = 0u64;
    for i in 0..n {
        let c = black_box(source.clone());
        acc = acc.wrapping_add(u64::from(c.bytes()[(i as usize) % len]));
    }
    acc
}

fn clone_fanout_vec(n: u64, len: usize) -> u64 {
    let source = VecPacket::zeroed(1, len);
    let mut acc = 0u64;
    for i in 0..n {
        let c = black_box(source.clone());
        acc = acc.wrapping_add(u64::from(c.data[(i as usize) % len]));
    }
    acc
}

/// The full forwarding trip. Pooled semantics: the frame moves by value
/// through RX completion → app → TX request, and the app's MAC swap
/// mutates the unique buffer in place. Vec semantics (the old code):
/// RX clones into the completion, the app clones again for the TX
/// request, and the swap runs on the second copy.
fn forward_trip_pooled(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut rx = Packet::zeroed(i, len); // DMA writeback
        black_box(rx.bytes_mut())[12] = 0x08; // ethertype stamp
        let mut owned = black_box(rx); // by-value handoff to the app
        owned.macswap();
        acc = acc.wrapping_add(u64::from(black_box(owned.bytes())[6])); // TX consumes
    }
    acc
}

fn forward_trip_vec(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut wire = VecPacket::zeroed(i, len); // DMA writeback
        black_box(&mut wire.data)[12] = 0x08;
        let rx = black_box(wire.clone()); // completion kept a copy
        let mut tx = black_box(rx.clone()); // app forwarded a copy
        tx.macswap();
        acc = acc.wrapping_add(u64::from(black_box(&tx.data)[6]));
    }
    acc
}

/// Times the two representations over `reps` **interleaved** repetitions
/// (pooled, vec, pooled, vec, …) and returns the median ns/packet for
/// each. Interleaving means ambient host noise hits both alike, keeping
/// the *ratio* stable even when absolute numbers wobble; the median
/// discards stray slow reps entirely.
fn time_pair_ns_per_pkt(
    reps: u64,
    pkts_per_rep: u64,
    mut pooled: impl FnMut() -> u64,
    mut vec: impl FnMut() -> u64,
) -> (f64, f64) {
    // One warm-up rep each (also pre-populates the freelist), then the
    // timed ones; black-box the checksum.
    let mut sink = pooled().wrapping_add(vec());
    let mut pooled_reps = Vec::with_capacity(reps as usize);
    let mut vec_reps = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let start = Instant::now();
        sink = sink.wrapping_add(pooled());
        pooled_reps.push(start.elapsed().as_nanos() as f64 / pkts_per_rep as f64);
        let start = Instant::now();
        sink = sink.wrapping_add(vec());
        vec_reps.push(start.elapsed().as_nanos() as f64 / pkts_per_rep as f64);
    }
    std::hint::black_box(sink);
    (median(&mut pooled_reps), median(&mut vec_reps))
}

struct Scenario {
    name: &'static str,
    pooled_ns: f64,
    vec_ns: f64,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        self.vec_ns / self.pooled_ns
    }
}

fn run_scenarios(args: &Args) -> Vec<Scenario> {
    let s = |n: u64| args.scaled(n);
    let mut out = Vec::new();

    // Scenario 1: allocation churn on full-size frames.
    let n = s(1_000_000);
    let (pooled_ns, vec_ns) = time_pair_ns_per_pkt(
        9,
        n,
        || alloc_touch_free_pooled(n, 1518),
        || alloc_touch_free_vec(n, 1518),
    );
    out.push(Scenario {
        name: "alloc_touch_free_1518",
        pooled_ns,
        vec_ns,
    });

    // Scenario 2: allocation churn on mid-size frames (the 512 B
    // class), where allocator traffic rather than frame zeroing
    // dominates the per-packet cost.
    let n = s(1_000_000);
    let (pooled_ns, vec_ns) = time_pair_ns_per_pkt(
        9,
        n,
        || alloc_touch_free_pooled(n, 256),
        || alloc_touch_free_vec(n, 256),
    );
    out.push(Scenario {
        name: "alloc_touch_free_256",
        pooled_ns,
        vec_ns,
    });

    // Scenario 3: clone fan-out on full-size frames (the removed
    // per-hop deep copy).
    let n = s(1_000_000);
    let (pooled_ns, vec_ns) = time_pair_ns_per_pkt(
        9,
        n,
        || clone_fanout_pooled(n, 1518),
        || clone_fanout_vec(n, 1518),
    );
    out.push(Scenario {
        name: "clone_fanout_1518",
        pooled_ns,
        vec_ns,
    });

    // Scenario 4: the full RX→app→TX trip, by-value vs clone-per-hop.
    let n = s(1_000_000);
    let (pooled_ns, vec_ns) = time_pair_ns_per_pkt(
        9,
        n,
        || forward_trip_pooled(n, 1518),
        || forward_trip_vec(n, 1518),
    );
    out.push(Scenario {
        name: "forward_trip_1518",
        pooled_ns,
        vec_ns,
    });

    // Scenario 5: minimum-size frames through the smallest (128 B)
    // class — the dominant workload of the paper's 64 B sweeps.
    let n = s(1_000_000);
    let (pooled_ns, vec_ns) = time_pair_ns_per_pkt(
        9,
        n,
        || alloc_touch_free_pooled(n, 64),
        || alloc_touch_free_vec(n, 64),
    );
    out.push(Scenario {
        name: "alloc_touch_free_64",
        pooled_ns,
        vec_ns,
    });
    out
}

/// End-to-end: testpmd moving 1518B frames at 40 Gbps — the
/// handler-bound regime where per-packet storage costs dominate the
/// host profile. The Vec representation is no longer pluggable into the
/// simulation, so this row records the pooled build's absolute
/// events/second for trending.
fn end_to_end() -> (f64, u64, f64) {
    let cfg = SystemConfig::gem5();
    let start = Instant::now();
    let s = run_point(&cfg, &AppSpec::TestPmd, 1518, 40.0, RunConfig::fast());
    let host_secs = start.elapsed().as_secs_f64();
    (host_secs, s.events, s.events as f64 / host_secs)
}

fn fmt_json(scenarios: &[Scenario], e2e: (f64, u64, f64), scale: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bench-pkt-pool-v1\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"pooled_ns_per_pkt\": {:.2}, \"vec_ns_per_pkt\": {:.2}, \"speedup\": {:.3}}}{}\n",
            sc.name,
            sc.pooled_ns,
            sc.vec_ns,
            sc.speedup(),
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"end_to_end\": {{\"name\": \"testpmd_1518B_40gbps\", \"host_secs\": {:.3}, \"events\": {}, \"events_per_host_sec\": {:.0}}}\n",
        e2e.0, e2e.1, e2e.2
    ));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let Some(args) = Args::from_env("pkt_bench") else {
        return ExitCode::FAILURE;
    };
    let scale = args.scale;

    println!("packet-pool bench (scale {scale}):");
    let scenarios = run_scenarios(&args);
    for sc in &scenarios {
        println!(
            "  {:<24} pooled {:>7.2} ns/pkt   vec {:>7.2} ns/pkt   speedup {:.2}x",
            sc.name,
            sc.pooled_ns,
            sc.vec_ns,
            sc.speedup()
        );
    }
    let e2e = end_to_end();
    println!(
        "  {:<24} {:.3} host-s for {} events ({:.0} events/host-s)",
        "testpmd_1518B_40gbps", e2e.0, e2e.1, e2e.2
    );

    let json = fmt_json(&scenarios, e2e, scale);
    let measured: Vec<_> = scenarios.iter().map(|s| (s.name, s.speedup())).collect();
    finish(&args, &json, &measured, "pooled-packet speedup")
}
