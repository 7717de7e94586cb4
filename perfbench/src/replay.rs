//! The traced replay: every point is run again with the simulator's
//! self-profiler on, inside benchmark-owned spans
//! (point → setup / warm-up / measure / collect, profiler kinds as
//! children of warm-up and measure), and the layer counters are read out.

use std::collections::BTreeMap;

use simnet_harness::summary::{run_phases, RunSummary};
use simnet_harness::{build_loadgen_sim, AppSpec, MsbResult, RunConfig};
use simnet_loadgen::MSB_DROP_THRESHOLD;
use simnet_sim::stats::Profiler;

use crate::checks::{self, per_lcore_sum, stat_u64};
use crate::spans::Spans;
use crate::workloads::{Op, Point};

/// Profiler coverage a traced phase must reach.
pub const MIN_COVERAGE: f64 = 0.95;

/// Everything one traced pass accumulates over its points.
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    /// Profiler `(events, ns)` per kind over warm-up and measure.
    pub kinds: BTreeMap<&'static str, (u64, u64)>,
    /// Profiler `(events, ns)` per kind over the measure windows only.
    pub measure_kinds: BTreeMap<&'static str, (u64, u64)>,
    pub loop_ns: u64,
    pub attributed_ns: u64,
    pub measure_loop_ns: u64,
    pub measure_events: u64,
    pub setup_ns: u64,
    pub phase_ns: u64,
    pub collect_ns: u64,
    pub sims: u64,
    pub nic_rx_frames: u64,
    pub burst_flushed: u64,
    pub burst_constituents: u64,
    pub tail_drops: u64,
    pub pool_allocs: u64,
    pub pool_heap_fallbacks: u64,
    pub stack_iterations: u64,
    pub stack_idle: u64,
    pub insts: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub llc_misses: u64,
    pub dram_reads: u64,
}

impl LayerAcc {
    fn add_profile(&mut self, p: &Profiler, measure: bool) {
        for (kind, _, events, ns) in p.kinds() {
            let e = self.kinds.entry(kind).or_default();
            e.0 += events;
            e.1 += ns;
            if measure {
                let m = self.measure_kinds.entry(kind).or_default();
                m.0 += events;
                m.1 += ns;
            }
        }
        self.loop_ns += p.loop_nanos();
        self.attributed_ns += p.attributed_nanos();
        if measure {
            self.measure_loop_ns += p.loop_nanos();
        }
    }

    /// Summed host ns of `kinds` over warm-up and measure.
    pub fn ns(&self, kinds: &[&str]) -> u64 {
        kinds
            .iter()
            .filter_map(|k| self.kinds.get(k))
            .map(|e| e.1)
            .sum()
    }

    /// Summed host ns of `kinds` over the measure windows.
    pub fn measure_ns(&self, kinds: &[&str]) -> u64 {
        kinds
            .iter()
            .filter_map(|k| self.measure_kinds.get(k))
            .map(|e| e.1)
            .sum()
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, o: &LayerAcc) {
        for (k, v) in &o.kinds {
            let e = self.kinds.entry(k).or_default();
            e.0 += v.0;
            e.1 += v.1;
        }
        for (k, v) in &o.measure_kinds {
            let e = self.measure_kinds.entry(k).or_default();
            e.0 += v.0;
            e.1 += v.1;
        }
        self.loop_ns += o.loop_ns;
        self.attributed_ns += o.attributed_ns;
        self.measure_loop_ns += o.measure_loop_ns;
        self.measure_events += o.measure_events;
        self.setup_ns += o.setup_ns;
        self.phase_ns += o.phase_ns;
        self.collect_ns += o.collect_ns;
        self.sims += o.sims;
        self.nic_rx_frames += o.nic_rx_frames;
        self.burst_flushed += o.burst_flushed;
        self.burst_constituents += o.burst_constituents;
        self.tail_drops += o.tail_drops;
        self.pool_allocs += o.pool_allocs;
        self.pool_heap_fallbacks += o.pool_heap_fallbacks;
        self.stack_iterations += o.stack_iterations;
        self.stack_idle += o.stack_idle;
        self.insts += o.insts;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.llc_misses += o.llc_misses;
        self.dram_reads += o.dram_reads;
    }
}

/// What one traced simulation produced.
struct Replayed {
    summary: RunSummary,
    digest: u64,
    problems: Vec<String>,
}

/// Assembles and runs one simulation under spans, with the profiler on.
fn replay_sim(
    p: &Point,
    offered: f64,
    rc: RunConfig,
    spans: &mut Spans,
    parent: usize,
    acc: &mut LayerAcc,
) -> Replayed {
    let live_before = simnet_net::pool::stats().live();

    let setup = spans.open("setup", Some(parent), String::new());
    let mut sim = build_loadgen_sim(&p.cfg, &p.app, p.size, offered);
    acc.setup_ns += spans.close(setup);

    sim.enable_profiler();
    let warm = spans.open("warm-up", Some(parent), String::new());
    sim.run_until(rc.phases.warmup);
    acc.phase_ns += spans.close(warm);
    let warm_profile = sim.take_profile().expect("profiler was enabled");

    sim.enable_profiler();
    let measure = spans.open("measure", Some(parent), String::new());
    // `run_phases` runs to the warm-up tick again (a no-op: the queue is
    // already drained to it), resets the statistics, and measures.
    let summary = run_phases(&mut sim, rc.phases);
    acc.phase_ns += spans.close(measure);
    let measure_profile = sim.take_profile().expect("profiler was enabled");

    for (span, profile) in [(warm, &warm_profile), (measure, &measure_profile)] {
        for (kind, _, events, ns) in profile.kinds() {
            if events > 0 {
                spans.aggregate(span, kind, ns, events);
            }
        }
    }
    acc.add_profile(&warm_profile, false);
    acc.add_profile(&measure_profile, true);

    let collect = spans.open("collect", Some(parent), String::new());
    let reg = checks::full_registry(&sim);
    let pool = simnet_net::pool::stats();
    let burst = sim.burst_stats();
    let digest = checks::run_digest(&sim, &summary);
    let mut problems = checks::ledgers(&sim, &summary, &reg);
    drop(sim);
    problems.extend(checks::pool_leak(live_before));
    acc.collect_ns += spans.close(collect);

    acc.sims += 1;
    acc.measure_events += summary.events;
    acc.nic_rx_frames += stat_u64(&reg, "system.nic.rxPackets");
    acc.burst_flushed += burst.flushed;
    acc.burst_constituents += burst.constituents;
    acc.tail_drops += stat_u64(&reg, "system.topo.trunk.tailDrops");
    acc.pool_allocs += pool.total_allocs();
    acc.pool_heap_fallbacks += pool.heap_fallback;
    acc.stack_iterations += per_lcore_sum(&reg, "system.stack", "iterations");
    acc.stack_idle += per_lcore_sum(&reg, "system.stack", "idleIterations");
    acc.insts += per_lcore_sum(&reg, "system.cpu", "committedInsts");
    acc.l1d_misses += per_lcore_sum(&reg, "system.cpu", "dcache.overall_misses");
    acc.l2_misses += per_lcore_sum(&reg, "system.cpu", "l2cache.overall_misses");
    acc.llc_misses += stat_u64(&reg, "system.llc.overall_misses");
    acc.dram_reads += stat_u64(&reg, "system.mem_ctrls.num_reads");

    let coverage = measure_profile.coverage();
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "profiler coverage {:.1}% < {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    Replayed {
        summary,
        digest,
        problems,
    }
}

/// The drop metric `find_msb` judges a probe by: the client's view for
/// request workloads, otherwise the NIC-FSM drop rate, doubled past the
/// threshold when the RX ring ends the window majority-full.
fn probe_drop(spec: &AppSpec, s: &RunSummary) -> f64 {
    if spec.uses_rps() {
        s.report.drop_rate
    } else if s.drop_rate <= MSB_DROP_THRESHOLD && s.rx_backlog_ratio > 0.5 {
        MSB_DROP_THRESHOLD * 2.0
    } else {
        s.drop_rate
    }
}

/// The untraced result a replay must reproduce.
pub enum Expected<'a> {
    /// A single run's digest.
    Run(u64),
    /// A search's probes.
    Search(&'a MsbResult),
}

/// Replays point `p` traced. Returns the problems found (empty when the
/// replay matched the untraced outputs and every ledger held).
pub fn replay_point(
    p: &Point,
    expected: Expected<'_>,
    spans: &mut Spans,
    workload_span: usize,
    acc: &mut LayerAcc,
) -> Vec<String> {
    let point_span = spans.open("point", Some(workload_span), p.attrs());
    let mut problems = Vec::new();
    match (p.op, expected) {
        (Op::Run { offered, rc }, Expected::Run(digest)) => {
            let r = replay_sim(p, offered, rc, spans, point_span, acc);
            problems.extend(r.problems);
            if r.digest != digest {
                problems.push(format!(
                    "traced replay digest {:016x} != untraced {digest:016x}",
                    r.digest
                ));
            }
        }
        (Op::Search { rc, .. }, Expected::Search(result)) => {
            for probe in &result.points {
                let probe_span = spans.open(
                    "probe",
                    Some(point_span),
                    format!("offered={}", probe.offered),
                );
                let r = replay_sim(p, probe.offered, rc, spans, probe_span, acc);
                spans.close(probe_span);
                problems.extend(r.problems);
                let achieved = if p.app.uses_rps() {
                    r.summary.achieved_rps() / 1_000.0
                } else {
                    r.summary.achieved_gbps()
                };
                let drop = probe_drop(&p.app, &r.summary);
                if achieved.to_bits() != probe.achieved.to_bits()
                    || drop.to_bits() != probe.drop_rate.to_bits()
                {
                    problems.push(format!(
                        "probe {}: traced replay achieved/drop {achieved}/{drop} != \
                         search {}/{}",
                        probe.offered, probe.achieved, probe.drop_rate
                    ));
                }
            }
        }
        _ => problems.push("replay kind does not match the point".into()),
    }
    spans.close(point_span);
    problems
}
