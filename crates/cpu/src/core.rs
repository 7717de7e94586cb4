//! The core timing engine.

use std::collections::VecDeque;

use simnet_mem::system::HitLevel;
use simnet_mem::MemorySystem;
use simnet_sim::stats::Counter;
use simnet_sim::tick::{Frequency, Tick};

use crate::ops::Op;

/// Pipeline style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Stall-on-use in-order pipeline: every memory access serializes.
    InOrder,
    /// Out-of-order pipeline: independent misses overlap within the
    /// ROB/LQ/MSHR window.
    OutOfOrder,
}

/// Core microarchitecture parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Pipeline style.
    pub kind: CoreKind,
    /// Superscalar issue width.
    pub width: u64,
    /// Reorder-buffer entries (bounds how far execution runs ahead of an
    /// incomplete load).
    pub rob: usize,
    /// Load-queue entries.
    pub lq: usize,
    /// Store-queue entries.
    pub sq: usize,
    /// Core clock.
    pub frequency: Frequency,
}

impl CoreConfig {
    /// The paper's simulated out-of-order core (Table I): 4-wide, ROB 128,
    /// LQ/SQ 68/72, 3 GHz.
    pub fn table1_ooo() -> Self {
        Self {
            kind: CoreKind::OutOfOrder,
            width: 4,
            rob: 128,
            lq: 68,
            sq: 72,
            frequency: Frequency::ghz(3.0),
        }
    }

    /// A simple in-order core at the same clock (Fig. 16's comparison
    /// point): 2-wide, no memory-level parallelism.
    pub fn in_order() -> Self {
        Self {
            kind: CoreKind::InOrder,
            width: 2,
            rob: 1,
            lq: 1,
            sq: 4,
            frequency: Frequency::ghz(3.0),
        }
    }

    /// Returns this configuration with a different ROB size (Fig. 17d–f).
    pub fn with_rob(mut self, rob: usize) -> Self {
        self.rob = rob.max(1);
        self
    }

    /// Returns this configuration at a different clock (Fig. 15).
    pub fn with_frequency(mut self, freq: Frequency) -> Self {
        self.frequency = freq;
        self
    }

    fn validate(&self) {
        assert!(self.width > 0, "width must be positive");
        assert!(
            self.rob > 0 && self.lq > 0 && self.sq > 0,
            "queues must be positive"
        );
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table1_ooo()
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: Counter,
    /// Loads issued.
    pub loads: Counter,
    /// Stores issued.
    pub stores: Counter,
    /// Ticks spent in pure compute.
    pub compute_ticks: Counter,
    /// Total ticks from `execute` calls (compute + memory stalls).
    pub total_ticks: Counter,
}

impl CoreStats {
    /// Instructions per cycle over everything executed (0.0 when idle).
    pub fn ipc(&self, freq: Frequency) -> f64 {
        let total = self.total_ticks.value();
        if total == 0 {
            return 0.0;
        }
        self.instructions.value() as f64 / freq.ticks_to_cycles(total) as f64
    }

    /// Fraction of time stalled on memory.
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_ticks.value();
        if total == 0 {
            return 0.0;
        }
        1.0 - (self.compute_ticks.value() as f64 / total as f64).min(1.0)
    }
}

impl Core {
    /// Registers the `system.cpu.*` statistics section.
    pub fn register_stats(&self, reg: &mut simnet_sim::stats::StatsRegistry) {
        self.register_stats_at("system.cpu", reg);
    }

    /// Registers this core's statistics under an arbitrary scope — the
    /// multi-lcore harness uses `system.cpu.lcore<i>` per worker core.
    pub fn register_stats_at(&self, scope: &str, reg: &mut simnet_sim::stats::StatsRegistry) {
        let c = &self.stats;
        reg.scoped(scope, |reg| {
            reg.scalar(
                "committedInsts",
                c.instructions.value(),
                "instructions committed",
            );
            reg.scalar("num_loads", c.loads.value(), "loads issued");
            reg.scalar("num_stores", c.stores.value(), "stores issued");
            reg.float("ipc", c.ipc(self.cfg.frequency), "instructions per cycle");
            reg.float(
                "stall_fraction",
                c.stall_fraction(),
                "fraction of time memory-stalled",
            );
            if reg.full() {
                reg.scalar(
                    "compute_ticks",
                    c.compute_ticks.value(),
                    "ticks spent in pure compute",
                );
                reg.scalar(
                    "total_ticks",
                    c.total_ticks.value(),
                    "ticks across all execute calls",
                );
            }
        });
    }
}

/// A single core executing op streams against a memory system.
///
/// ```
/// use simnet_cpu::{Core, CoreConfig, Op};
/// use simnet_mem::{MemoryConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
/// let mut core = Core::new(CoreConfig::table1_ooo());
/// let done = core.execute(0, &[Op::Compute(400)], &mut mem);
/// // 400 instructions, 4-wide at 3 GHz -> 100 cycles = ~33.3 ns.
/// assert!((33_000..34_000).contains(&done));
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    stats: CoreStats,
}

impl Core {
    /// Creates a core.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            stats: CoreStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Changes the clock frequency (Fig. 15 sweeps this).
    pub fn set_frequency(&mut self, freq: Frequency) {
        self.cfg.frequency = freq;
    }

    /// Executes `ops` starting at `now`; returns the completion tick.
    /// The pipeline drains at the end of the stream (a run-to-completion
    /// loop iteration boundary).
    pub fn execute(&mut self, now: Tick, ops: &[Op], mem: &mut MemorySystem) -> Tick {
        // Keep the memory system's notion of the core clock in sync so
        // L1/L2 hit latencies scale with frequency.
        if mem.core_frequency() != self.cfg.frequency {
            mem.set_core_frequency(self.cfg.frequency);
        }
        let done = match self.cfg.kind {
            CoreKind::InOrder => self.execute_in_order(now, ops, mem),
            CoreKind::OutOfOrder => self.execute_ooo(now, ops, mem),
        };
        self.stats.total_ticks.add(done - now);
        done
    }

    fn compute_ticks(&self, instructions: u64) -> Tick {
        self.cfg
            .frequency
            .cycles_f64_to_ticks(instructions as f64 / self.cfg.width as f64)
    }

    fn execute_in_order(&mut self, now: Tick, ops: &[Op], mem: &mut MemorySystem) -> Tick {
        let mut cursor = now;
        // Even a stall-on-use core has a small store buffer; it uses the
        // same drain mechanism as the OoO core, just with far fewer
        // entries, so store-heavy streams back-pressure sooner.
        let mut stores: VecDeque<Tick> = VecDeque::new();
        let issue_slot = self
            .cfg
            .frequency
            .cycles_f64_to_ticks(1.0 / self.cfg.width as f64);
        for op in ops {
            match *op {
                Op::Compute(n) => {
                    let t = self.compute_ticks(n);
                    cursor += t;
                    self.stats.compute_ticks.add(t);
                    self.stats.instructions.add(n);
                }
                Op::Load(addr) | Op::DependentLoad(addr) => {
                    let (lat, _) = mem.core_read(cursor, addr, 8);
                    cursor += lat; // stall-on-use: every load serializes
                    self.stats.loads.inc();
                    self.stats.instructions.inc();
                }
                Op::Store(addr) => {
                    while stores.len() >= self.cfg.sq {
                        let comp = stores.pop_front().expect("non-empty");
                        cursor = cursor.max(comp);
                    }
                    let (lat, _) = mem.core_write(cursor, addr, 8);
                    stores.push_back(cursor + lat);
                    cursor += issue_slot;
                    self.stats.stores.inc();
                    self.stats.instructions.inc();
                }
                Op::Ifetch(addr) => {
                    let (lat, level) = mem.instr_fetch(cursor, addr);
                    if level != HitLevel::L1 {
                        cursor += lat;
                    }
                }
            }
        }
        for comp in stores {
            cursor = cursor.max(comp);
        }
        cursor
    }

    fn execute_ooo(&mut self, now: Tick, ops: &[Op], mem: &mut MemorySystem) -> Tick {
        let mut cursor = now;
        // (completion tick, instruction index at issue).
        let mut loads: VecDeque<(Tick, u64)> = VecDeque::new();
        let mut stores: VecDeque<Tick> = VecDeque::new();
        let mut instr: u64 = 0;
        let mlp_limit = self.cfg.lq.min(mem.config().l1d_mshrs.max(1));
        let issue_slot = self
            .cfg
            .frequency
            .cycles_f64_to_ticks(1.0 / self.cfg.width as f64);

        for op in ops {
            // Retire any loads that have completed by now.
            while loads.front().is_some_and(|&(c, _)| c <= cursor) {
                loads.pop_front();
            }
            // ROB pressure: cannot run more than `rob` instructions past
            // the oldest incomplete load.
            while let Some(&(comp, idx)) = loads.front() {
                if instr.saturating_sub(idx) >= self.cfg.rob as u64 {
                    cursor = cursor.max(comp);
                    loads.pop_front();
                } else {
                    break;
                }
            }

            match *op {
                Op::Compute(n) => {
                    let t = self.compute_ticks(n);
                    cursor += t;
                    self.stats.compute_ticks.add(t);
                    self.stats.instructions.add(n);
                    instr += n;
                }
                Op::Load(addr) => {
                    // MSHR/LQ limit: wait for the oldest load if full.
                    while loads.len() >= mlp_limit {
                        let (comp, _) = loads.pop_front().expect("non-empty");
                        cursor = cursor.max(comp);
                    }
                    let (lat, level) = mem.core_read(cursor, addr, 8);
                    if level != HitLevel::L1 {
                        loads.push_back((cursor + lat, instr));
                    }
                    cursor += issue_slot;
                    self.stats.loads.inc();
                    self.stats.instructions.inc();
                    instr += 1;
                }
                Op::DependentLoad(addr) => {
                    let (lat, _) = mem.core_read(cursor, addr, 8);
                    cursor += lat; // serializes the dependence chain
                    self.stats.loads.inc();
                    self.stats.instructions.inc();
                    instr += 1;
                }
                Op::Store(addr) => {
                    while stores.len() >= self.cfg.sq {
                        let comp = stores.pop_front().expect("non-empty");
                        cursor = cursor.max(comp);
                    }
                    let (lat, _) = mem.core_write(cursor, addr, 8);
                    stores.push_back(cursor + lat);
                    cursor += issue_slot;
                    self.stats.stores.inc();
                    self.stats.instructions.inc();
                    instr += 1;
                }
                Op::Ifetch(addr) => {
                    let (lat, level) = mem.instr_fetch(cursor, addr);
                    if level != HitLevel::L1 {
                        // Front-end stall; fetch is in-order even OoO.
                        cursor += lat;
                    }
                }
            }
        }

        // Drain: the loop iteration is complete when all in-flight memory
        // operations have retired.
        for (comp, _) in loads {
            cursor = cursor.max(comp);
        }
        for comp in stores {
            cursor = cursor.max(comp);
        }
        cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_mem::MemoryConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig::table1_gem5())
    }

    fn miss_addrs(n: usize, stride: u64) -> Vec<Op> {
        (0..n as u64)
            .map(|i| Op::Load(0x7000_0000 + i * stride))
            .collect()
    }

    #[test]
    fn compute_throughput_matches_width() {
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        let done = core.execute(0, &[Op::Compute(1200)], &mut m);
        // 1200 instr / 4-wide = 300 cycles at 3 GHz ≈ 100 ns.
        assert!((99_000..101_000).contains(&done), "done={done}");
    }

    #[test]
    fn frequency_scales_compute() {
        let mut m = mem();
        let mut slow = Core::new(CoreConfig::table1_ooo().with_frequency(Frequency::ghz(1.0)));
        let mut fast = Core::new(CoreConfig::table1_ooo().with_frequency(Frequency::ghz(4.0)));
        let t_slow = slow.execute(0, &[Op::Compute(400)], &mut m);
        let t_fast = fast.execute(0, &[Op::Compute(400)], &mut m);
        assert_eq!(t_slow, 4 * t_fast);
    }

    #[test]
    fn cores_sharing_memory_see_their_own_hit_latency() {
        // Two stall-on-use cores at different clocks share one memory
        // system; each must pay an L1 hit priced at its own clock, however
        // their executions interleave.
        let mut m = mem();
        let addr = 0x7300_0000;
        m.core_read(0, addr, 8); // warm the line into L1D
        let l1d = m.config().l1d_cycles;
        let slow_f = Frequency::ghz(1.5);
        let fast_f = Frequency::ghz(3.7);
        let mut slow = Core::new(CoreConfig::in_order().with_frequency(slow_f));
        let mut fast = Core::new(CoreConfig::in_order().with_frequency(fast_f));
        for _ in 0..2 {
            for (core, f) in [(&mut slow, slow_f), (&mut fast, fast_f)] {
                let done = core.execute(1_000, &[Op::DependentLoad(addr)], &mut m);
                assert_eq!(done - 1_000, f.cycles_to_ticks(l1d));
                assert_eq!(m.core_frequency(), f);
            }
        }
    }

    #[test]
    fn ooo_overlaps_independent_misses() {
        let ops = miss_addrs(6, 4096); // distinct lines, all DRAM misses
        let mut m1 = mem();
        let mut ooo = Core::new(CoreConfig::table1_ooo());
        let t_ooo = ooo.execute(0, &ops, &mut m1);

        let mut m2 = mem();
        let mut ino = Core::new(CoreConfig::in_order());
        let t_ino = ino.execute(0, &ops, &mut m2);

        assert!(
            t_ooo * 2 < t_ino,
            "OoO ({t_ooo}) should be far faster than in-order ({t_ino})"
        );
    }

    #[test]
    fn dependent_loads_serialize_even_ooo() {
        let dep: Vec<Op> = (0..6u64)
            .map(|i| Op::DependentLoad(0x7100_0000 + i * 4096))
            .collect();
        let indep = miss_addrs(6, 4096);
        let mut m1 = mem();
        let mut c1 = Core::new(CoreConfig::table1_ooo());
        let t_dep = c1.execute(0, &dep, &mut m1);
        let mut m2 = mem();
        let mut c2 = Core::new(CoreConfig::table1_ooo());
        let t_indep = c2.execute(0, &indep, &mut m2);
        assert!(t_dep > t_indep * 2, "dep {t_dep} vs indep {t_indep}");
    }

    #[test]
    fn small_rob_limits_mlp_with_spaced_misses() {
        // Misses separated by enough compute that a small ROB cannot hold
        // two in flight, but a large ROB can.
        let mut ops = Vec::new();
        for i in 0..8u64 {
            ops.push(Op::Load(0x7200_0000 + i * 4096));
            ops.push(Op::Compute(100));
        }
        let mut m1 = mem();
        let mut small = Core::new(CoreConfig::table1_ooo().with_rob(32));
        let t_small = small.execute(0, &ops, &mut m1);
        let mut m2 = mem();
        let mut large = Core::new(CoreConfig::table1_ooo().with_rob(512));
        let t_large = large.execute(0, &ops, &mut m2);
        assert!(
            t_large < t_small,
            "ROB 512 ({t_large}) should beat ROB 32 ({t_small})"
        );
    }

    #[test]
    fn l1_hits_do_not_stall() {
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        // Warm one line, then hammer it.
        core.execute(0, &[Op::Load(0x7300_0000)], &mut m);
        let start = 1_000_000;
        let ops = vec![Op::Load(0x7300_0000); 100];
        let done = core.execute(start, &ops, &mut m);
        // 100 issue slots at 4-wide 3 GHz ≈ 25 cycles ≈ 8.3 ns.
        assert!(done - start < 10_000, "hits took {}", done - start);
    }

    #[test]
    fn ifetch_miss_stalls_but_hot_code_is_free() {
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        let cold = core.execute(0, &[Op::Ifetch(0x4000_0000)], &mut m);
        let start = cold + 1;
        let warm = core.execute(start, &[Op::Ifetch(0x4000_0000)], &mut m) - start;
        assert!(cold > 0);
        assert_eq!(warm, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        core.execute(
            0,
            &[Op::Compute(10), Op::Load(0x1000), Op::Store(0x2000)],
            &mut m,
        );
        assert_eq!(core.stats().instructions.value(), 12);
        assert_eq!(core.stats().loads.value(), 1);
        assert_eq!(core.stats().stores.value(), 1);
        assert!(core.stats().total_ticks.value() > 0);
        core.reset_stats();
        assert_eq!(core.stats().instructions.value(), 0);
    }

    #[test]
    fn ipc_and_stall_fraction_are_sane() {
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        core.execute(0, &miss_addrs(20, 4096), &mut m);
        let ipc = core.stats().ipc(core.config().frequency);
        assert!(ipc > 0.0 && ipc < 4.0);
        let stall = core.stats().stall_fraction();
        assert!(
            stall > 0.5,
            "miss-bound stream should mostly stall: {stall}"
        );
    }

    #[test]
    fn store_queue_backpressure() {
        // More DRAM-missing stores than SQ entries must eventually stall.
        let ops: Vec<Op> = (0..100u64)
            .map(|i| Op::Store(0x7400_0000 + i * 4096))
            .collect();
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        let done = core.execute(0, &ops, &mut m);
        // If stores were free this would be ~100 issue slots (~8 ns).
        assert!(done > 100_000, "SQ pressure must show: {done}");
    }

    #[test]
    fn register_stats_reports_the_legacy_cpu_set() {
        use simnet_sim::stats::{DumpLevel, StatValue, StatsRegistry};
        let mut m = mem();
        let mut core = Core::new(CoreConfig::table1_ooo());
        core.execute(0, &[Op::Compute(10), Op::Load(0x1000)], &mut m);
        let mut reg = StatsRegistry::new();
        core.register_stats(&mut reg);
        assert_eq!(
            reg.get("system.cpu.committedInsts"),
            Some(&StatValue::Scalar(11))
        );
        assert!(reg.get("system.cpu.ipc").is_some());
        assert!(
            reg.get("system.cpu.total_ticks").is_none(),
            "compat level omits post-migration extras"
        );
        let mut full = StatsRegistry::with_level(DumpLevel::Full);
        core.register_stats(&mut full);
        assert!(full.get("system.cpu.total_ticks").is_some());
    }

    #[test]
    fn in_order_core_is_deterministic() {
        let run = || {
            let mut m = mem();
            let mut core = Core::new(CoreConfig::in_order());
            core.execute(0, &miss_addrs(10, 4096), &mut m)
        };
        assert_eq!(run(), run());
    }
}
