//! Event-queue benchmark: ladder [`EventQueue`] vs the
//! [`BinaryHeapQueue`] reference, plus an end-to-end testpmd-at-knee
//! run, emitting/checking the committed `BENCH_event_queue.json`.
//!
//! ```text
//! queue_bench [--scale F] [--out FILE] [--check BASELINE] [--max-regress PCT]
//! ```
//!
//! The flags are the shared layer-bench flags (see `simnet_bench`);
//! `--check` compares the ladder-vs-heap speedup per scenario.
//!
//! The microbench workloads mirror the simulator's real event mix (see
//! `PROFILE_KINDS` in `simnet-harness`): a deep steady-state pending set
//! with near-future churn, same-tick multi-priority cohorts, and
//! far-future timers crossing the ladder's overflow boundary.

use std::process::ExitCode;
use std::time::Instant;

use simnet_bench::{finish, median, Args};
use simnet_harness::{run_point, AppSpec, RunConfig, SystemConfig};
use simnet_sim::event::BinaryHeapQueue;
use simnet_sim::{EventQueue, Priority, Tick};

/// The queue surface both implementations share, for generic workloads.
trait Queue {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64);
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)>;
    fn now(&self) -> Tick;
}

impl Queue for EventQueue<u64> {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64) {
        EventQueue::schedule_with_priority(self, tick, priority, payload);
    }
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)> {
        self.pop().map(|e| (e.tick, e.priority.0, e.payload))
    }
    fn now(&self) -> Tick {
        EventQueue::now(self)
    }
}

impl Queue for BinaryHeapQueue<u64> {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64) {
        BinaryHeapQueue::schedule_with_priority(self, tick, priority, payload);
    }
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)> {
        self.pop().map(|e| (e.tick, e.priority.0, e.payload))
    }
    fn now(&self) -> Tick {
        BinaryHeapQueue::now(self)
    }
}

/// Deterministic xorshift; the workloads must be identical across
/// implementations and runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Priorities in the simulator's real mix.
const PRIORITIES: &[Priority] = &[
    Priority::LINK,
    Priority::DMA,
    Priority::DEVICE,
    Priority::NORMAL,
    Priority::CPU,
];

/// Bulk load `n` events over a ~4 µs horizon (the span the simulator's
/// pending set actually occupies), then drain everything.
fn bulk_push_pop<Q: Queue>(q: &mut Q, n: u64) -> u64 {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for i in 0..n {
        let tick = rng.next() % 4_000_000; // within 4 µs
        let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
        q.schedule_with_priority(tick, prio, i);
    }
    let mut acc = 0u64;
    while let Some((t, _, p)) = q.pop_key() {
        acc = acc.wrapping_add(t ^ p);
    }
    acc
}

/// Steady-state churn: `depth` pending events; each step pops one and
/// schedules a near-future successor, with a same-tick kick every 4th
/// step and a far-future timer every 64th — the simulator's pattern.
fn steady_churn<Q: Queue>(q: &mut Q, depth: u64, steps: u64) -> u64 {
    let mut rng = Rng(0xD1B54A32D192ED03);
    let mut label = 0u64;
    for _ in 0..depth {
        let tick = rng.next() % 2_000_000; // 2 µs spread
        let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
        q.schedule_with_priority(tick, prio, label);
        label += 1;
    }
    let mut acc = 0u64;
    for step in 0..steps {
        let Some((t, _, p)) = q.pop_key() else { break };
        acc = acc.wrapping_add(t ^ p);
        let now = q.now();
        let (delta, prio) = if step % 64 == 63 {
            (100_000_000, Priority::MAXIMUM) // 100 µs sampling timer
        } else if step % 4 == 3 {
            (0, Priority::DMA) // same-tick DMA kick
        } else {
            (
                rng.next() % 200_000, // within 200 ns
                PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize],
            )
        };
        q.schedule_with_priority(now + delta, prio, label);
        label += 1;
    }
    acc
}

/// Shallow sparse churn: the `repro` sweep's dominant regime — a handful
/// of pending events with 0.1–10 µs gaps (memcached timers, low-rate
/// iperf points), where a binary heap is nearly free because it is tiny
/// and L1-resident.
fn shallow_sparse<Q: Queue>(q: &mut Q, steps: u64) -> u64 {
    let mut rng = Rng(0x2545F4914F6CDD1D);
    let mut label = 0u64;
    for _ in 0..6 {
        q.schedule_with_priority(rng.next() % 2_000_000, Priority::NORMAL, label);
        label += 1;
    }
    let mut acc = 0u64;
    for step in 0..steps {
        let Some((t, _, p)) = q.pop_key() else { break };
        acc = acc.wrapping_add(t ^ p);
        let now = q.now();
        let delta = if step % 32 == 31 {
            100_000_000 // 100 µs sampling timer -> overflow
        } else {
            100_000 + rng.next() % 10_000_000 // 0.1-10 µs gap
        };
        q.schedule_with_priority(
            now + delta,
            PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize],
            label,
        );
        label += 1;
    }
    acc
}

/// Same-tick cohorts: `cohorts` ticks, each flooded with `width` events
/// at mixed priorities, drained tick by tick.
fn cohort_flood<Q: Queue>(q: &mut Q, cohorts: u64, width: u64) -> u64 {
    let mut rng = Rng(0xA0761D6478BD642F);
    let mut label = 0u64;
    for c in 0..cohorts {
        let tick = c * 512; // one cohort every 512 ps
        for _ in 0..width {
            let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
            q.schedule_with_priority(tick, prio, label);
            label += 1;
        }
    }
    let mut acc = 0u64;
    while let Some((t, _, p)) = q.pop_key() {
        acc = acc.wrapping_add(t ^ p);
    }
    acc
}

/// Times the two implementations over `reps` **interleaved** repetitions
/// (ladder, heap, ladder, heap, …) and returns the median ns/event for
/// each. Interleaving means ambient host noise (a stolen core, a
/// frequency dip) hits both implementations alike, keeping the *ratio*
/// stable even when absolute numbers wobble; the median discards stray
/// slow reps entirely.
fn time_pair_ns_per_event(
    reps: u64,
    events_per_rep: u64,
    mut ladder: impl FnMut() -> u64,
    mut heap: impl FnMut() -> u64,
) -> (f64, f64) {
    // One warm-up rep each, then the timed ones; black-box the checksum.
    let mut sink = ladder().wrapping_add(heap());
    let mut ladder_reps = Vec::with_capacity(reps as usize);
    let mut heap_reps = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let start = Instant::now();
        sink = sink.wrapping_add(ladder());
        ladder_reps.push(start.elapsed().as_nanos() as f64 / events_per_rep as f64);
        let start = Instant::now();
        sink = sink.wrapping_add(heap());
        heap_reps.push(start.elapsed().as_nanos() as f64 / events_per_rep as f64);
    }
    std::hint::black_box(sink);
    (median(&mut ladder_reps), median(&mut heap_reps))
}

struct Scenario {
    name: &'static str,
    ladder_ns: f64,
    heap_ns: f64,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        self.heap_ns / self.ladder_ns
    }
}

fn run_scenarios(args: &Args) -> Vec<Scenario> {
    let s = |n: u64| args.scaled(n);
    let mut out = Vec::new();

    // Scenario 1: bulk load + full drain, 64k events.
    let n = s(65_536);
    let (ladder_ns, heap_ns) = time_pair_ns_per_event(
        9,
        2 * n,
        || bulk_push_pop(&mut EventQueue::new(), n),
        || bulk_push_pop(&mut BinaryHeapQueue::new(), n),
    );
    out.push(Scenario {
        name: "bulk_push_pop_64k",
        ladder_ns,
        heap_ns,
    });

    // Scenario 2: steady-state churn at simulator-realistic depth.
    let (depth, steps) = (8_192, s(400_000));
    let (ladder_ns, heap_ns) = time_pair_ns_per_event(
        9,
        2 * steps,
        || steady_churn(&mut EventQueue::new(), depth, steps),
        || steady_churn(&mut BinaryHeapQueue::new(), depth, steps),
    );
    out.push(Scenario {
        name: "steady_churn_8k",
        ladder_ns,
        heap_ns,
    });

    // Scenario 3: shallow sparse churn (the heap's best case).
    let steps = s(400_000);
    let (ladder_ns, heap_ns) = time_pair_ns_per_event(
        9,
        2 * steps,
        || shallow_sparse(&mut EventQueue::new(), steps),
        || shallow_sparse(&mut BinaryHeapQueue::new(), steps),
    );
    out.push(Scenario {
        name: "shallow_sparse_6",
        ladder_ns,
        heap_ns,
    });

    // Scenario 4: same-tick cohort floods.
    let (cohorts, width) = (s(8_192), 8);
    let (ladder_ns, heap_ns) = time_pair_ns_per_event(
        9,
        2 * cohorts * width,
        || cohort_flood(&mut EventQueue::new(), cohorts, width),
        || cohort_flood(&mut BinaryHeapQueue::new(), cohorts, width),
    );
    out.push(Scenario {
        name: "same_tick_cohorts_8x",
        ladder_ns,
        heap_ns,
    });
    out
}

/// End-to-end: testpmd at the 70 Gbps knee (the Fig. 5 operating point),
/// timed on the host. The heap is not pluggable into the simulation, so
/// this row records the ladder's absolute events/second for trending.
fn end_to_end() -> (f64, u64, f64) {
    let cfg = SystemConfig::gem5();
    let start = Instant::now();
    let s = run_point(&cfg, &AppSpec::TestPmd, 64, 70.0, RunConfig::fast());
    let host_secs = start.elapsed().as_secs_f64();
    (host_secs, s.events, s.events as f64 / host_secs)
}

fn fmt_json(scenarios: &[Scenario], e2e: (f64, u64, f64), scale: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bench-event-queue-v1\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ladder_ns_per_event\": {:.2}, \"heap_ns_per_event\": {:.2}, \"speedup\": {:.3}}}{}\n",
            sc.name,
            sc.ladder_ns,
            sc.heap_ns,
            sc.speedup(),
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"end_to_end\": {{\"name\": \"testpmd_64B_70gbps_knee\", \"host_secs\": {:.3}, \"events\": {}, \"events_per_host_sec\": {:.0}}}\n",
        e2e.0, e2e.1, e2e.2
    ));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let Some(args) = Args::from_env("queue_bench") else {
        return ExitCode::FAILURE;
    };
    let scale = args.scale;

    println!("event-queue bench (scale {scale}):");
    let scenarios = run_scenarios(&args);
    for sc in &scenarios {
        println!(
            "  {:<24} ladder {:>7.2} ns/ev   heap {:>7.2} ns/ev   speedup {:.2}x",
            sc.name,
            sc.ladder_ns,
            sc.heap_ns,
            sc.speedup()
        );
    }
    let e2e = end_to_end();
    println!(
        "  {:<24} {:.3} host-s for {} events ({:.0} events/host-s)",
        "testpmd_64B_70gbps_knee", e2e.0, e2e.1, e2e.2
    );

    let json = fmt_json(&scenarios, e2e, scale);
    let measured: Vec<_> = scenarios.iter().map(|s| (s.name, s.speedup())).collect();
    finish(&args, &json, &measured, "ladder speedup")
}
