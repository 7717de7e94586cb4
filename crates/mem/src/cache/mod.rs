//! Set-associative write-back caches with optional DCA way partitioning.

mod stats;

pub use stats::CacheStats;

use crate::{line_base, Addr, CACHE_LINE};

/// Who is accessing the cache. DCA-partitioned caches choose the victim way
/// from the matching partition (§III.A.4: "partitioning LLC ways between
/// DCA ways and core ways").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// CPU load/store/fetch path.
    Core,
    /// NIC DMA path (cache stashing).
    Dma,
}

/// Cache geometry and partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Ways reserved for DMA (DCA) fills; 0 disables partitioning and DMA
    /// fills use the whole set.
    pub dca_ways: usize,
}

impl CacheConfig {
    /// Creates an unpartitioned configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (size/associativity/set-count).
    pub fn new(size: u64, assoc: usize) -> Self {
        let cfg = Self {
            size,
            assoc,
            dca_ways: 0,
        };
        cfg.validate();
        cfg
    }

    /// Creates a DCA-partitioned configuration (`dca_ways` of `assoc`).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry or if `dca_ways >= assoc`.
    pub fn with_dca(size: u64, assoc: usize, dca_ways: usize) -> Self {
        let cfg = Self {
            size,
            assoc,
            dca_ways,
        };
        cfg.validate();
        cfg
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / CACHE_LINE) as usize / self.assoc
    }

    fn validate(&self) {
        assert!(self.assoc > 0, "associativity must be positive");
        assert!(
            self.size.is_multiple_of(CACHE_LINE * self.assoc as u64) && self.size > 0,
            "cache size {} must be a positive multiple of line * assoc",
            self.size
        );
        let sets = self.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(
            self.dca_ways < self.assoc,
            "dca_ways {} must leave at least one core way of {}",
            self.dca_ways,
            self.assoc
        );
    }
}

/// One way of a set, packed so a tag scan compares a single word: an
/// empty way holds [`Line::EMPTY`]'s tag, which is not 64-byte aligned and
/// so never equals the line base of a real address. An empty way's age is
/// always 0: only resident lines are touched, and emptying a way or
/// wrapping the LRU clock zeroes its age.
#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    /// Higher = more recently used.
    lru: u32,
    dirty: bool,
}

impl Line {
    const EMPTY: Line = Line {
        tag: u64::MAX,
        lru: 0,
        dirty: false,
    };

    #[inline]
    fn is_valid(&self) -> bool {
        self.tag != Self::EMPTY.tag
    }
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// An invalid way was used; nothing displaced.
    None,
    /// A clean line was displaced (silent drop).
    Clean(Addr),
    /// A dirty line was displaced and must be written back.
    Dirty(Addr),
}

impl Eviction {
    /// The displaced line's address, if any.
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Eviction::None => None,
            Eviction::Clean(a) | Eviction::Dirty(a) => Some(a),
        }
    }
}

/// A set-associative, write-back, write-allocate cache tag array.
///
/// This models *contents and replacement*, not timing — latencies live in
/// [`crate::system::MemorySystem`], which also wires evictions into
/// writebacks and inclusive back-invalidations.
///
/// ```
/// use simnet_mem::{AccessClass, Cache, CacheConfig};
/// let mut c = Cache::new("l1d", CacheConfig::new(32 * 1024, 4));
/// assert!(!c.lookup(0x1000, AccessClass::Core, false));
/// c.fill(0x1000, AccessClass::Core, false);
/// assert!(c.lookup(0x1000, AccessClass::Core, false));
/// ```
pub struct Cache {
    name: &'static str,
    cfg: CacheConfig,
    /// `sets - 1`; the set count is a power of two.
    set_mask: usize,
    sets: Vec<Line>,
    lru_clock: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        cfg.validate();
        Self {
            name,
            cfg,
            set_mask: cfg.sets() - 1,
            sets: vec![Line::EMPTY; cfg.sets() * cfg.assoc],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's name (for stats dumps).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (post-warm-up reset); contents are kept.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Index of way 0 of the set holding `addr`.
    #[inline]
    fn set_base(&self, addr: Addr) -> usize {
        (((addr / CACHE_LINE) as usize) & self.set_mask) * self.cfg.assoc
    }

    /// Index of the way holding line `tag` in the set starting at `base`.
    /// A line is resident in at most one way, so the scan visits every way
    /// without an early exit: the host branch predictor then sees a fixed
    /// trip count instead of a data-dependent hit position.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let mut hit = usize::MAX;
        for (way, line) in self.sets[base..base + self.cfg.assoc].iter().enumerate() {
            if line.tag == tag {
                hit = way;
            }
        }
        (hit != usize::MAX).then(|| base + hit)
    }

    fn touch_lru(&mut self, idx: usize) {
        self.lru_clock = self.lru_clock.wrapping_add(1);
        // On wrap, age everything to keep relative order sane.
        if self.lru_clock == 0 {
            for line in &mut self.sets {
                line.lru = 0;
            }
            self.lru_clock = 1;
        }
        self.sets[idx].lru = self.lru_clock;
    }

    /// Looks up `addr`; on hit updates LRU (and the dirty bit if `write`)
    /// and records a hit. On miss records a miss. Returns whether it hit.
    pub fn lookup(&mut self, addr: Addr, class: AccessClass, write: bool) -> bool {
        let tag = line_base(addr);
        match self.find(self.set_base(addr), tag) {
            Some(idx) => {
                self.touch_lru(idx);
                if write {
                    self.sets[idx].dirty = true;
                }
                self.stats.record_hit(class);
                true
            }
            None => {
                self.stats.record_miss(class);
                false
            }
        }
    }

    /// Checks residency without updating LRU or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find(self.set_base(addr), line_base(addr)).is_some()
    }

    /// Inserts the line for `addr`, choosing a victim from the partition
    /// belonging to `class`. Returns what was displaced.
    ///
    /// If the line is already present this just updates LRU/dirty state.
    pub fn fill(&mut self, addr: Addr, class: AccessClass, dirty: bool) -> Eviction {
        let tag = line_base(addr);
        let base = self.set_base(addr);
        // Already present (e.g. raced by an earlier fill on this path).
        if let Some(idx) = self.find(base, tag) {
            self.touch_lru(idx);
            if dirty {
                self.sets[idx].dirty = true;
            }
            return Eviction::None;
        }
        self.insert(base, tag, class, dirty)
    }

    /// [`Cache::fill`] for a line the caller knows is not resident (it
    /// just missed a [`Cache::lookup`] and nothing was inserted since):
    /// skips the presence scan. Replacement is identical to `fill`.
    pub fn fill_absent(&mut self, addr: Addr, class: AccessClass, dirty: bool) -> Eviction {
        let tag = line_base(addr);
        let base = self.set_base(addr);
        debug_assert!(
            self.find(base, tag).is_none(),
            "{}: fill_absent of resident line {tag:#x}",
            self.name
        );
        self.insert(base, tag, class, dirty)
    }

    /// Places absent line `tag` in the set starting at `base`.
    fn insert(&mut self, base: usize, tag: u64, class: AccessClass, dirty: bool) -> Eviction {
        // Partition: with dca_ways = d, ways [0, d) belong to DMA fills and
        // ways [d, assoc) to core fills. Unpartitioned caches use the whole
        // set for both classes.
        let (lo, hi) = if self.cfg.dca_ways == 0 {
            (0, self.cfg.assoc)
        } else {
            match class {
                AccessClass::Dma => (0, self.cfg.dca_ways),
                AccessClass::Core => (self.cfg.dca_ways, self.cfg.assoc),
            }
        };

        // The first empty way in the partition, else its first LRU way: an
        // empty way always has age 0, so ranking every way by (valid, age)
        // and taking the first minimum picks exactly that.
        let mut victim = base + lo;
        let mut victim_rank = u64::MAX;
        for idx in base + lo..base + hi {
            let line = &self.sets[idx];
            let rank = (u64::from(line.is_valid()) << 32) | u64::from(line.lru);
            if rank < victim_rank {
                victim = idx;
                victim_rank = rank;
            }
        }

        let old = self.sets[victim];
        let evicted = if !old.is_valid() {
            Eviction::None
        } else {
            self.stats.evictions.inc();
            if old.dirty {
                self.stats.writebacks.inc();
                Eviction::Dirty(old.tag)
            } else {
                Eviction::Clean(old.tag)
            }
        };

        self.sets[victim] = Line { tag, lru: 0, dirty };
        self.touch_lru(victim);
        evicted
    }

    /// Removes the line for `addr` if present. Returns whether the removed
    /// line was dirty (the caller owns the writeback).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let idx = self.find(self.set_base(addr), line_base(addr))?;
        let dirty = self.sets[idx].dirty;
        self.sets[idx] = Line::EMPTY;
        self.stats.invalidations.inc();
        Some(dirty)
    }

    /// Number of currently valid lines (test/diagnostic aid).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|l| l.is_valid()).count()
    }

    /// Addresses of all resident lines (diagnostic aid for invariant
    /// checks, e.g. hierarchy inclusion).
    pub fn resident_lines(&self) -> Vec<Addr> {
        self.sets
            .iter()
            .filter(|l| l.is_valid())
            .map(|l| l.tag)
            .collect()
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.name)
            .field("size", &self.cfg.size)
            .field("assoc", &self.cfg.assoc)
            .field("dca_ways", &self.cfg.dca_ways)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new("tiny", CacheConfig::new(512, 2))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(0x40, AccessClass::Core, false));
        c.fill(0x40, AccessClass::Core, false);
        assert!(c.lookup(0x40, AccessClass::Core, false));
        assert_eq!(c.stats().core_hits.value(), 1);
        assert_eq!(c.stats().core_misses.value(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x80, AccessClass::Core, false);
        assert!(c.lookup(0x81, AccessClass::Core, false));
        assert!(c.lookup(0xBF, AccessClass::Core, false));
        assert!(!c.lookup(0xC0, AccessClass::Core, false));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x100, 0x200, ... (4 sets * 64B stride).
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Core, false);
        // Touch 0x000 so 0x100 is LRU.
        c.lookup(0x000, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false);
        assert_eq!(ev, Eviction::Clean(0x100));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, true);
        c.fill(0x100, AccessClass::Core, false);
        c.lookup(0x100, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false);
        assert_eq!(ev, Eviction::Dirty(0x000));
        assert_eq!(c.stats().writebacks.value(), 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, false);
        c.lookup(0x000, AccessClass::Core, true);
        c.fill(0x100, AccessClass::Core, false);
        c.lookup(0x100, AccessClass::Core, false);
        // Force eviction of 0x000 (LRU after 0x100 was touched later).
        c.lookup(0x100, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false);
        assert_eq!(ev, Eviction::Dirty(0x000));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x40, AccessClass::Core, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.probe(0x40));
    }

    #[test]
    fn refill_existing_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x40, AccessClass::Core, false);
        assert_eq!(c.fill(0x40, AccessClass::Core, true), Eviction::None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn dca_partition_isolates_core_from_dma() {
        // 2 sets x 4 ways, 1 DCA way.
        let mut c = Cache::new("llc", CacheConfig::with_dca(512, 4, 1));
        // Fill the core partition of set 0 (3 ways): lines 0, 0x80, 0x100.
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x080, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Core, false);
        // DMA fills go to the single DCA way and never evict core lines.
        for i in 0..16 {
            c.fill(0x1000 + i * 0x80, AccessClass::Dma, true);
        }
        assert!(c.probe(0x000));
        assert!(c.probe(0x080));
        assert!(c.probe(0x100));
        // Only the most recent DMA line of set 0 survives in the DCA way.
        assert!(c.probe(0x1000 + 15 * 0x80));
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn dma_thrash_in_small_partition_is_the_dma_leak() {
        // The Fig. 13 mechanism: DMA writes exceeding the DCA partition
        // evict each other, so later core reads miss.
        let mut c = Cache::new("llc", CacheConfig::with_dca(4096, 4, 1));
        let lines = 64; // 4 KiB of packet data, partition holds 16 lines
        for i in 0..lines {
            c.fill(0x10000 + i * CACHE_LINE, AccessClass::Dma, true);
        }
        let resident = (0..lines)
            .filter(|i| c.probe(0x10000 + i * CACHE_LINE))
            .count();
        assert_eq!(resident, 16, "only one DCA way per set survives");
    }

    #[test]
    fn unpartitioned_dma_uses_whole_set() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Dma, true);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.fill(i * CACHE_LINE, AccessClass::Core, i % 3 == 0);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn lru_clock_wrap_resets_every_age() {
        let mut c = tiny();
        // Set 0: 0x000 in way 0, 0x100 in way 1; 0x100 is the more recent.
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Core, false);
        c.lru_clock = u32::MAX - 1;
        c.lookup(0x100, AccessClass::Core, false);
        assert_eq!(c.lru_clock, u32::MAX, "no wrap yet");
        // The next touch wraps: every age resets to 0, the clock restarts
        // at 1 and only the touched line (set 1) is younger than the rest.
        c.fill(0x040, AccessClass::Core, false);
        assert_eq!(c.lru_clock, 1);
        let aged: Vec<u32> = c.sets.iter().map(|l| l.lru).filter(|&a| a != 0).collect();
        assert_eq!(aged, [1]);
        // Both ways of set 0 now tie at age 0, so the lowest-index way is
        // the victim even though 0x100 was used more recently.
        assert_eq!(
            c.fill(0x200, AccessClass::Core, false),
            Eviction::Clean(0x000)
        );
        assert!(c.probe(0x100));
    }

    #[test]
    fn empty_way_encoding_is_not_a_line_base() {
        assert_ne!(line_base(Line::EMPTY.tag), Line::EMPTY.tag);
        let mut c = tiny();
        let top = line_base(u64::MAX);
        assert!(!c.lookup(top, AccessClass::Core, false));
        assert_eq!(c.fill_absent(top, AccessClass::Core, true), Eviction::None);
        assert!(c.probe(u64::MAX));
        assert_eq!(c.resident_lines(), [top]);
        assert_eq!(c.invalidate(top), Some(true));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        Cache::new("bad", CacheConfig::new(3 * 64 * 2, 2));
    }

    #[test]
    #[should_panic(expected = "dca_ways")]
    fn rejects_full_dca_partition() {
        CacheConfig::with_dca(512, 2, 2);
    }
}
