//! Model-based test of [`Cache`]: random lookup/fill/invalidate/probe
//! sequences run against the cache and against a plain reference model
//! kept here, and both must agree on every result, every statistic and the
//! resident set, way by way.

use proptest::prelude::*;
use simnet_mem::cache::{AccessClass, Cache, CacheConfig, Eviction};
use simnet_mem::{Addr, CACHE_LINE};

/// One occupied way of the model: the line base, its dirty bit and the
/// step at which it was last used.
#[derive(Debug, Clone, Copy)]
struct Way {
    line: Addr,
    dirty: bool,
    last_use: u64,
}

/// Counters mirroring [`simnet_mem::cache::CacheStats`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    core_hits: u64,
    core_misses: u64,
    dma_hits: u64,
    dma_misses: u64,
    evictions: u64,
    writebacks: u64,
    invalidations: u64,
}

/// The reference model: a vector of optional ways per set and a 64-bit use
/// counter that never wraps within a test.
struct Model {
    cfg: CacheConfig,
    sets: Vec<Vec<Option<Way>>>,
    now: u64,
    counts: Counts,
}

impl Model {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![vec![None; cfg.assoc]; cfg.sets()],
            now: 0,
            counts: Counts::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    fn line(addr: Addr) -> Addr {
        addr - addr % CACHE_LINE
    }

    fn set(&self, addr: Addr) -> usize {
        (addr / CACHE_LINE) as usize % self.cfg.sets()
    }

    fn way_of(&self, addr: Addr) -> Option<usize> {
        let line = Self::line(addr);
        self.sets[self.set(addr)]
            .iter()
            .position(|w| w.is_some_and(|w| w.line == line))
    }

    fn lookup(&mut self, addr: Addr, class: AccessClass, write: bool) -> bool {
        let hit = match self.way_of(addr) {
            Some(way) => {
                let now = self.tick();
                let set = self.set(addr);
                let w = self.sets[set][way].as_mut().unwrap();
                w.last_use = now;
                w.dirty |= write;
                true
            }
            None => false,
        };
        let c = &mut self.counts;
        match (class, hit) {
            (AccessClass::Core, true) => c.core_hits += 1,
            (AccessClass::Core, false) => c.core_misses += 1,
            (AccessClass::Dma, true) => c.dma_hits += 1,
            (AccessClass::Dma, false) => c.dma_misses += 1,
        }
        hit
    }

    fn probe(&self, addr: Addr) -> bool {
        self.way_of(addr).is_some()
    }

    fn fill(&mut self, addr: Addr, class: AccessClass, dirty: bool) -> Eviction {
        let now = self.tick();
        let set = self.set(addr);
        if let Some(way) = self.way_of(addr) {
            let w = self.sets[set][way].as_mut().unwrap();
            w.last_use = now;
            w.dirty |= dirty;
            return Eviction::None;
        }
        let ways = match (self.cfg.dca_ways, class) {
            (0, _) => 0..self.cfg.assoc,
            (d, AccessClass::Dma) => 0..d,
            (d, AccessClass::Core) => d..self.cfg.assoc,
        };
        // An empty way if the partition has one (the first), else the least
        // recently used way (the first among equals).
        let ways: Vec<usize> = ways.collect();
        let victim = ways
            .iter()
            .copied()
            .find(|&w| self.sets[set][w].is_none())
            .unwrap_or_else(|| {
                let oldest = ways
                    .iter()
                    .map(|&w| self.sets[set][w].unwrap().last_use)
                    .min()
                    .unwrap();
                ways.iter()
                    .copied()
                    .find(|&w| self.sets[set][w].unwrap().last_use == oldest)
                    .unwrap()
            });
        let evicted = match self.sets[set][victim] {
            None => Eviction::None,
            Some(old) => {
                self.counts.evictions += 1;
                if old.dirty {
                    self.counts.writebacks += 1;
                    Eviction::Dirty(old.line)
                } else {
                    Eviction::Clean(old.line)
                }
            }
        };
        self.sets[set][victim] = Some(Way {
            line: Self::line(addr),
            dirty,
            last_use: now,
        });
        evicted
    }

    fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let way = self.way_of(addr)?;
        let set = self.set(addr);
        let old = self.sets[set][way].take().unwrap();
        self.counts.invalidations += 1;
        Some(old.dirty)
    }

    /// Resident lines in storage order (set by set, way by way).
    fn resident_lines(&self) -> Vec<Addr> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|w| w.line)
            .collect()
    }
}

fn counts_of(cache: &Cache) -> Counts {
    let s = cache.stats();
    Counts {
        core_hits: s.core_hits.value(),
        core_misses: s.core_misses.value(),
        dma_hits: s.dma_hits.value(),
        dma_misses: s.dma_misses.value(),
        evictions: s.evictions.value(),
        writebacks: s.writebacks.value(),
        invalidations: s.invalidations.value(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(Addr, AccessClass, bool),
    Probe(Addr),
    Fill(Addr, AccessClass, bool),
    /// A fill that goes through [`Cache::fill_absent`] when the line is
    /// not resident (the core miss path), else through [`Cache::fill`].
    FillAfterMiss(Addr, AccessClass, bool),
    Invalidate(Addr),
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    prop_oneof![
        // A few dozen lines over a handful of sets, any byte offset.
        4 => (0u64..40, 0u64..CACHE_LINE).prop_map(|(l, off)| l * CACHE_LINE + off),
        // The top of the address space, next to the empty-way encoding.
        1 => (0u64..8).prop_map(|l| u64::MAX - l * CACHE_LINE),
    ]
}

fn class_strategy() -> impl Strategy<Value = AccessClass> {
    prop_oneof![Just(AccessClass::Core), Just(AccessClass::Dma)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, addr_strategy(), class_strategy(), any::<bool>()).prop_map(|(k, a, c, b)| match k {
        0 => Op::Lookup(a, c, b),
        1 => Op::Probe(a),
        2 => Op::Fill(a, c, b),
        3 => Op::FillAfterMiss(a, c, b),
        _ => Op::Invalidate(a),
    })
}

fn config_strategy() -> impl Strategy<Value = CacheConfig> {
    prop_oneof![
        // 1-way (direct mapped), 4 sets.
        Just(CacheConfig::new(4 * CACHE_LINE, 1)),
        // 2-way, 4 sets.
        Just(CacheConfig::new(8 * CACHE_LINE, 2)),
        // 4-way with one DCA way, 2 sets.
        Just(CacheConfig::with_dca(8 * CACHE_LINE, 4, 1)),
        // 4-way split evenly between DMA and core, 1 set.
        Just(CacheConfig::with_dca(4 * CACHE_LINE, 4, 2)),
    ]
}

fn run(cfg: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cache = Cache::new("model", cfg);
    let mut model = Model::new(cfg);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(a, c, w) => {
                prop_assert_eq!(
                    cache.lookup(a, c, w),
                    model.lookup(a, c, w),
                    "step {} {:?}",
                    i,
                    op
                );
            }
            Op::Probe(a) => {
                prop_assert_eq!(cache.probe(a), model.probe(a), "step {} {:?}", i, op);
            }
            Op::Fill(a, c, d) => {
                prop_assert_eq!(
                    cache.fill(a, c, d),
                    model.fill(a, c, d),
                    "step {} {:?}",
                    i,
                    op
                );
            }
            Op::FillAfterMiss(a, c, d) => {
                let got = if model.probe(a) {
                    cache.fill(a, c, d)
                } else {
                    cache.fill_absent(a, c, d)
                };
                prop_assert_eq!(got, model.fill(a, c, d), "step {} {:?}", i, op);
            }
            Op::Invalidate(a) => {
                prop_assert_eq!(
                    cache.invalidate(a),
                    model.invalidate(a),
                    "step {} {:?}",
                    i,
                    op
                );
            }
        }
        prop_assert_eq!(&counts_of(&cache), &model.counts, "step {} {:?}", i, op);
        prop_assert_eq!(
            cache.resident_lines(),
            model.resident_lines(),
            "step {} {:?}",
            i,
            op
        );
        prop_assert_eq!(cache.occupancy(), model.resident_lines().len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every operation's result, every counter and the resident set match
    /// the reference model after every step.
    #[test]
    fn cache_matches_reference_model(
        cfg in config_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        run(cfg, &ops)?;
    }
}
