//! Multi-channel DRAM with an open-page row-buffer policy.
//!
//! Cache lines interleave across channels; within a channel, consecutive
//! lines fill a row before moving to the next bank/row. Each access pays
//! CAS latency on a row-buffer hit and an additional precharge+activate
//! penalty on a row miss, plus queuing behind the channel's data bus. This
//! is the substrate for the paper's memory-channel sweep (Fig. 17a–c),
//! where going from 8 to 16 channels *hurts* TestPMD-1518B because
//! row-buffer locality per channel collapses.

use simnet_sim::stats::Counter;
use simnet_sim::tick::{ns, Bandwidth, Tick};

use crate::{line_base, Addr, CACHE_LINE};

/// DRAM geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels (the paper sweeps 1/4/8/16).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Column access latency on a row-buffer hit.
    pub hit_latency: Tick,
    /// Additional precharge + activate penalty on a row miss.
    pub miss_penalty: Tick,
    /// Per-channel data-bus bandwidth.
    pub channel_bandwidth: Bandwidth,
    /// Bus-turnaround penalty when a channel switches between reads and
    /// writes (tWTR/tRTW). Mixed DMA-write + DMA-read + core streams pay
    /// this constantly when few consecutive same-direction accesses land
    /// on a channel — the mechanism behind Fig. 17a's channel-count
    /// sensitivities.
    pub turnaround: Tick,
}

impl DramConfig {
    /// DDR4-2400-like timing (the paper's simulated DRAM, Table I).
    pub fn ddr4_2400(channels: usize) -> Self {
        Self {
            channels,
            banks_per_channel: 8,
            row_bytes: 2048,
            hit_latency: ns(14),
            miss_penalty: ns(28),
            channel_bandwidth: Bandwidth::gbps(153.6), // 19.2 GB/s
            turnaround: ns(5),
        }
    }

    /// DDR4-3200-like timing (the real Ampere Altra's DRAM, Table I).
    pub fn ddr4_3200(channels: usize) -> Self {
        Self {
            channels,
            banks_per_channel: 8,
            row_bytes: 2048,
            hit_latency: ns(12),
            miss_penalty: ns(24),
            channel_bandwidth: Bandwidth::gbps(204.8), // 25.6 GB/s
            turnaround: ns(4),
        }
    }

    fn validate(&self) {
        assert!(self.channels > 0, "need at least one channel");
        assert!(self.banks_per_channel > 0, "need at least one bank");
        assert!(
            self.row_bytes >= CACHE_LINE && self.row_bytes.is_multiple_of(CACHE_LINE),
            "row must be a multiple of the cache line"
        );
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400(2)
    }
}

#[derive(Debug, Clone, Copy)]
struct Location {
    channel: usize,
    bank: usize,
    row: u64,
}

/// DRAM access statistics.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Read accesses.
    pub reads: Counter,
    /// Write accesses.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses (activations).
    pub row_misses: Counter,
    /// Bytes transferred.
    pub bytes: Counter,
}

impl DramStats {
    /// Registers the `system.mem_ctrls.*` statistics section.
    pub fn register_stats(&self, reg: &mut simnet_sim::stats::StatsRegistry) {
        reg.scoped("system.mem_ctrls", |reg| {
            reg.scalar("num_reads", self.reads.value(), "DRAM read accesses");
            reg.scalar("num_writes", self.writes.value(), "DRAM write accesses");
            reg.scalar("bytes", self.bytes.value(), "DRAM bytes transferred");
            reg.float("row_hit_rate", self.row_hit_rate(), "row-buffer hit rate");
            if reg.full() {
                reg.scalar("row_hits", self.row_hits.value(), "row-buffer hits");
                reg.scalar(
                    "row_misses",
                    self.row_misses.value(),
                    "row-buffer misses (activations)",
                );
            }
        });
    }

    /// Row-buffer hit rate (0.0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.value() + self.row_misses.value();
        if total == 0 {
            0.0
        } else {
            self.row_hits.value() as f64 / total as f64
        }
    }
}

/// The DRAM controller: per-channel queues and per-bank open rows.
///
/// ```
/// use simnet_mem::{DramConfig, DramController};
/// let mut dram = DramController::new(DramConfig::ddr4_2400(1));
/// let first = dram.access(0, 0x1000, false);  // row miss: activate
/// let second = dram.access(first, 0x1040, false); // same row: hit
/// assert!(second - first < first);
/// ```
#[derive(Debug)]
pub struct DramController {
    cfg: DramConfig,
    /// Data-bus availability per channel.
    busy_until: Vec<Tick>,
    /// Last access direction per channel (true = write).
    last_write: Vec<bool>,
    /// Open row per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
    stats: DramStats,
    line_transfer: Tick,
    /// Cache lines per DRAM row.
    lines_per_row: u64,
}

impl DramController {
    /// Creates the controller.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate();
        Self {
            busy_until: vec![0; cfg.channels],
            last_write: vec![false; cfg.channels],
            open_rows: vec![u64::MAX; cfg.channels * cfg.banks_per_channel],
            line_transfer: cfg.channel_bandwidth.bytes_to_ticks(CACHE_LINE),
            lines_per_row: cfg.row_bytes / CACHE_LINE,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics; open rows and queues persist.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    fn locate(&self, addr: Addr) -> Location {
        let line = line_base(addr) / CACHE_LINE;
        let channel = (line % self.cfg.channels as u64) as usize;
        let local = line / self.cfg.channels as u64;
        let bank_row = local / self.lines_per_row;
        let bank = (bank_row % self.cfg.banks_per_channel as u64) as usize;
        let row = bank_row / self.cfg.banks_per_channel as u64;
        Location { channel, bank, row }
    }

    /// Performs one cache-line access; returns the completion tick.
    ///
    /// The access waits for the channel data bus, pays CAS (plus the
    /// activate penalty on a row miss), transfers the line, and holds the
    /// data bus for the transfer time.
    pub fn access(&mut self, now: Tick, addr: Addr, write: bool) -> Tick {
        let loc = self.locate(addr);
        if write {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }
        self.stats.bytes.add(CACHE_LINE);

        let bank_slot = loc.channel * self.cfg.banks_per_channel + loc.bank;
        let row_hit = self.open_rows[bank_slot] == loc.row;
        let access_latency = if row_hit {
            self.stats.row_hits.inc();
            self.cfg.hit_latency
        } else {
            self.stats.row_misses.inc();
            self.open_rows[bank_slot] = loc.row;
            self.cfg.hit_latency + self.cfg.miss_penalty
        };

        let turnaround = if self.last_write[loc.channel] != write {
            self.last_write[loc.channel] = write;
            self.cfg.turnaround
        } else {
            0
        };
        let start = now.max(self.busy_until[loc.channel]) + turnaround;
        let finish = start + access_latency + self.line_transfer;
        // The data bus is held for the transfer; row activation overlaps
        // with other banks' transfers, but a miss still stretches this
        // access's own occupancy window slightly (command bus pressure).
        self.busy_until[loc.channel] = start
            + self.line_transfer
            + if row_hit {
                0
            } else {
                self.cfg.miss_penalty / 4
            };
        finish
    }

    /// An *interleaved* access: used by agents whose issue timestamps are
    /// not globally ordered against the DMA streams (the core model prices
    /// a whole software iteration at once, so its accesses carry future
    /// cursor timestamps). The access consumes channel capacity and pays a
    /// bounded contention penalty when the channel is backlogged, but
    /// neither waits for nor blocks the in-order DMA queue at its own
    /// timestamp.
    pub fn access_interleaved(&mut self, now: Tick, addr: Addr, write: bool) -> Tick {
        let loc = self.locate(addr);
        if write {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }
        self.stats.bytes.add(CACHE_LINE);

        let bank_slot = loc.channel * self.cfg.banks_per_channel + loc.bank;
        let row_hit = self.open_rows[bank_slot] == loc.row;
        let access_latency = if row_hit {
            self.stats.row_hits.inc();
            self.cfg.hit_latency
        } else {
            self.stats.row_misses.inc();
            self.open_rows[bank_slot] = loc.row;
            self.cfg.hit_latency + self.cfg.miss_penalty
        };

        let turnaround = if self.last_write[loc.channel] != write {
            self.last_write[loc.channel] = write;
            self.cfg.turnaround
        } else {
            0
        };
        // Bounded contention: a backlogged channel slows this access by up
        // to two CAS times, rather than serializing behind the queue.
        let backlog = self.busy_until[loc.channel].saturating_sub(now);
        let contention = backlog.min(self.cfg.hit_latency * 2);
        // Capacity consumption: the channel's horizon absorbs the work.
        self.busy_until[loc.channel] += turnaround
            + self.line_transfer
            + if row_hit {
                0
            } else {
                self.cfg.miss_penalty / 4
            };
        now + access_latency + self.line_transfer + contention + turnaround
    }

    /// Completion tick for accessing every line of `[addr, addr+size)`,
    /// issuing line accesses in address order (DMA burst helper).
    pub fn access_range(&mut self, now: Tick, addr: Addr, size: u64, write: bool) -> Tick {
        let mut done = now;
        let lines = crate::lines_touched(addr, size);
        let first = line_base(addr);
        for i in 0..lines {
            done = done.max(self.access(now, first + i * CACHE_LINE, write));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_channel() -> DramController {
        DramController::new(DramConfig::ddr4_2400(1))
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = one_channel();
        let miss_done = d.access(0, 0, false);
        let t1 = miss_done;
        let hit_done = d.access(t1, 64, false) - t1;
        assert!(hit_done < miss_done);
        assert_eq!(d.stats().row_hits.value(), 1);
        assert_eq!(d.stats().row_misses.value(), 1);
    }

    #[test]
    fn sequential_lines_stay_in_row_until_boundary() {
        let mut d = one_channel();
        let lines_per_row = d.config().row_bytes / CACHE_LINE;
        let mut now = 0;
        for i in 0..lines_per_row + 1 {
            now = d.access(now, i * CACHE_LINE, false);
        }
        assert_eq!(d.stats().row_misses.value(), 2); // first access + boundary
        assert_eq!(d.stats().row_hits.value(), lines_per_row - 1);
    }

    #[test]
    fn channels_interleave_by_line() {
        let mut d = DramController::new(DramConfig::ddr4_2400(4));
        // Four consecutive lines go to four different channels, so they all
        // complete without queuing behind each other.
        let completions: Vec<Tick> = (0..4).map(|i| d.access(0, i * CACHE_LINE, false)).collect();
        assert!(completions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_channel_accesses_queue() {
        let mut d = DramController::new(DramConfig::ddr4_2400(4));
        let cfg = *d.config();
        let first = d.access(0, 0, false);
        // Line 4 maps to channel 0 again and must queue behind the first's
        // data transfer: its completion exceeds an unqueued row hit.
        let second = d.access(0, 4 * CACHE_LINE, false);
        let unqueued_hit = cfg.hit_latency + cfg.channel_bandwidth.bytes_to_ticks(CACHE_LINE);
        assert!(
            second > unqueued_hit,
            "queued access {second} did not wait (unqueued hit = {unqueued_hit}, first = {first})"
        );
    }

    #[test]
    fn different_banks_have_independent_rows() {
        let mut d = one_channel();
        let row_span = d.config().row_bytes; // one bank's row of lines
        d.access(0, 0, false); // opens bank 0 row 0
        d.access(0, row_span, false); // opens bank 1 row 0
        d.access(1_000_000, 64, false); // bank 0 row 0 still open
        assert_eq!(d.stats().row_hits.value(), 1);
    }

    #[test]
    fn writes_and_reads_both_counted() {
        let mut d = one_channel();
        d.access(0, 0, true);
        d.access(0, 64, false);
        assert_eq!(d.stats().writes.value(), 1);
        assert_eq!(d.stats().reads.value(), 1);
        assert_eq!(d.stats().bytes.value(), 128);
    }

    #[test]
    fn access_range_touches_all_lines() {
        let mut d = one_channel();
        d.access_range(0, 0, 1518, true);
        assert_eq!(d.stats().writes.value(), 24);
    }

    #[test]
    fn more_channels_finish_a_burst_sooner() {
        let mut d1 = DramController::new(DramConfig::ddr4_2400(1));
        let mut d8 = DramController::new(DramConfig::ddr4_2400(8));
        let t1 = d1.access_range(0, 0, 4096, true);
        let t8 = d8.access_range(0, 0, 4096, true);
        assert!(t8 < t1, "8-channel burst {t8} should beat 1-channel {t1}");
    }

    #[test]
    fn hit_rate_reporting() {
        let mut d = one_channel();
        assert_eq!(d.stats().row_hit_rate(), 0.0);
        d.access(0, 0, false);
        d.access(0, 64, false);
        assert!((d.stats().row_hit_rate() - 0.5).abs() < 1e-12);
        d.reset_stats();
        assert_eq!(d.stats().reads.value(), 0);
    }
}
