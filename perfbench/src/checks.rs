//! Output checks: simulated-output digests, the conservation ledgers the
//! program exposes, the stored reference digests, and the cross-checks
//! against the committed `BENCH_*.json` ledgers.

use std::collections::BTreeMap;

use simnet_harness::config::TopoConfig;
use simnet_harness::summary::RunSummary;
use simnet_harness::{
    build_registry, run_point, stats_text, AppSpec, MsbResult, RunConfig, Simulation, SystemConfig,
};
use simnet_sim::stats::{DumpLevel, StatValue, StatsRegistry};
use simnet_sim::tick::us;

/// The seed `SystemConfig::gem5()` carries and the reference digests use.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Where the reference digests live, relative to the checkout root.
pub const REFERENCE_PATH: &str = "perfbench/reference.txt";

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The simulated summary with its one host-side field (`host_seconds`)
/// zeroed, rendered so every float keeps all its bits.
pub fn summary_text(summary: &RunSummary) -> String {
    let mut s = summary.clone();
    s.host_seconds = 0.0;
    format!("{s:?}")
}

/// Digest of one run: the summary fields plus the Compat `stats_text`.
pub fn run_digest(sim: &Simulation, summary: &RunSummary) -> u64 {
    let mut h = Fnv::new();
    h.write(summary_text(summary).as_bytes());
    h.write(stats_text(sim, 0).as_bytes());
    h.finish()
}

/// Digest of one MSB search: the knee and every probe's offered,
/// achieved and drop-rate bits.
pub fn search_digest(result: &MsbResult) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{:?}", result.msb).as_bytes());
    for p in &result.points {
        h.write(format!("{:?}/{:?}/{:?};", p.offered, p.achieved, p.drop_rate).as_bytes());
    }
    h.finish()
}

/// A count statistic (0 when absent).
pub fn stat_u64(reg: &StatsRegistry, path: &str) -> u64 {
    match reg.get(path) {
        Some(StatValue::Scalar(v)) => *v,
        _ => 0,
    }
}

/// Sums `prefix.lcoreN.suffix` over every lcore the dump has, falling
/// back to `prefix.suffix` on single-lcore runs (whose aggregate section
/// is the only one).
pub fn per_lcore_sum(reg: &StatsRegistry, prefix: &str, suffix: &str) -> u64 {
    let head = format!("{prefix}.lcore");
    let tail = format!(".{suffix}");
    let mut sum = 0;
    let mut found = false;
    for e in reg.entries() {
        if let Some(rest) = e.path.strip_prefix(&head) {
            if let Some(idx) = rest.strip_suffix(&tail) {
                if idx.bytes().all(|b| b.is_ascii_digit()) {
                    if let StatValue::Scalar(v) = e.value {
                        sum += v;
                        found = true;
                    }
                }
            }
        }
    }
    if found {
        sum
    } else {
        stat_u64(reg, &format!("{prefix}.{suffix}"))
    }
}

/// Checks the conservation ledgers one finished run exposes. Returns
/// every broken ledger, or an empty list.
pub fn ledgers(sim: &Simulation, summary: &RunSummary, reg: &StatsRegistry) -> Vec<String> {
    let mut broken = Vec::new();
    let node = &sim.nodes[0];
    let fsm = node.nic.drop_fsm();
    let accepted = fsm.accepted.value();
    let received = accepted + fsm.total_drops();

    // NIC: every frame the drop FSM judged is either accepted or dropped,
    // the NIC's own accepted-frame counter agrees, and the summary's
    // per-cause counts are those drops.
    let rx_frames = node.nic.stats().rx_frames.value();
    if rx_frames != accepted {
        broken.push(format!(
            "nic rx_frames {rx_frames} != fsm accepted {accepted}"
        ));
    }
    let (dma, core, tx) = summary.drop_counts;
    if dma + core + tx + summary.fault_drops != fsm.total_drops() {
        broken.push(format!(
            "nic drops {dma}+{core}+{tx}+{} != fsm total {}",
            summary.fault_drops,
            fsm.total_drops()
        ));
    }
    let expected_rate = if received == 0 {
        0.0
    } else {
        fsm.total_drops() as f64 / received as f64
    };
    if (summary.drop_rate - expected_rate).abs() > 1e-12 {
        broken.push(format!(
            "nic drop rate {} != drops/received {expected_rate}",
            summary.drop_rate
        ));
    }
    // Multi-queue: the per-queue RX counters partition the NIC total.
    let nq = node.nic.num_queues();
    if nq > 1 {
        let per_queue: u64 = (0..nq)
            .map(|q| stat_u64(reg, &format!("system.nic.rxq{q}.rxPackets")))
            .sum();
        if per_queue != rx_frames {
            broken.push(format!("per-queue rx {per_queue} != nic rx {rx_frames}"));
        }
    }
    // Load generator: one RTT sample per echoed packet.
    let report = &summary.report;
    if report.latency.count != report.rx_packets {
        broken.push(format!(
            "loadgen rtt samples {} != rx packets {}",
            report.latency.count, report.rx_packets
        ));
    }
    // Topology: each client uplink's offered frames (the fleet's
    // injections) are its delivered frames plus its drops.
    if reg.get("system.topo.clients").is_some() {
        let offered = stat_u64(reg, "loadgen.txPackets");
        let frames = stat_u64(reg, "system.topo.uplinks.txFrames");
        let loss = stat_u64(reg, "system.topo.uplinks.lossDrops");
        if offered != frames + loss {
            broken.push(format!(
                "uplinks offered {offered} != frames {frames} + loss {loss}"
            ));
        }
    }
    broken
}

/// Checks that a point leaked no pooled packet buffers: after the
/// simulation is dropped, the thread's pool holds as many live buffers
/// as before it was built.
pub fn pool_leak(live_before: u64) -> Option<String> {
    let live = simnet_net::pool::stats().live();
    (live != live_before)
        .then(|| format!("mempool leak: {live} live buffers, {live_before} before"))
}

/// The full-level registry of node 0.
pub fn full_registry(sim: &Simulation) -> StatsRegistry {
    build_registry(sim, 0, DumpLevel::Full)
}

/// Reads the stored reference digests: `workload point-id digest` lines.
pub fn load_reference(workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(REFERENCE_PATH)
        .map_err(|e| format!("cannot read {REFERENCE_PATH}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.split_whitespace();
        let (Some(w), Some(id), Some(d)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("malformed reference line: {line}"));
        };
        if w == workload {
            let digest =
                u64::from_str_radix(d, 16).map_err(|e| format!("bad digest in {line}: {e}"))?;
            out.insert(id.to_string(), digest);
        }
    }
    Ok(out)
}

/// Finds `"key": <number>` in `text` after the first occurrence of
/// `anchor`, returning the number as written.
fn json_number_after<'a>(text: &'a str, anchor: &str, key: &str) -> Option<&'a str> {
    let from = text.find(anchor)?;
    let rest = &text[from..];
    let at = rest.find(&format!("\"{key}\":"))? + key.len() + 3;
    let value = rest[at..].trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(value.len());
    Some(&value[..end])
}

/// One cross-check against a committed `BENCH_*.json` ledger.
pub struct LegacyCheck {
    /// What was compared.
    pub what: String,
    /// Value in the committed file.
    pub expected: String,
    /// Value the shipped code produces now.
    pub actual: String,
}

impl LegacyCheck {
    pub fn ok(&self) -> bool {
        self.expected == self.actual
    }
}

fn read_ledger(file: &str, anchor: &str, key: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    json_number_after(&text, anchor, key)
        .map(str::to_string)
        .ok_or_else(|| format!("{file}: no \"{key}\" after {anchor}"))
}

/// Runs the three points the committed bench ledgers record, at the
/// default seed (the seed those files were made with), and pairs each
/// committed value with what the shipped code produces now.
pub fn legacy_checks() -> Result<Vec<LegacyCheck>, String> {
    let gem5 = SystemConfig::gem5().with_seed(DEFAULT_SEED);
    let mut out = Vec::new();

    let s = run_point(&gem5, &AppSpec::TestPmd, 64, 70.0, RunConfig::fast());
    for file in ["BENCH_event_queue.json", "BENCH_burst.json"] {
        out.push(LegacyCheck {
            what: format!("TestPMD 64B@70Gbps fast events ({file})"),
            expected: read_ledger(file, "\"end_to_end\"", "events")?,
            actual: s.events.to_string(),
        });
    }

    let cfg = gem5.with_queues(4).with_lcores(4);
    let s = run_point(&cfg, &AppSpec::MemcachedDpdk, 0, 3_200.0, RunConfig::long());
    out.push(LegacyCheck {
        what: "memcached 4q4l@3200kRPS achieved kRPS (BENCH_mq.json)".into(),
        expected: read_ledger("BENCH_mq.json", "\"mc_dpdk_4q4l\"", "krps")?,
        actual: format!("{:.1}", s.achieved_rps() / 1e3),
    });

    let cfg = gem5.with_topo(TopoConfig::incast(8).with_latency_spread(us(10)));
    let s = run_point(&cfg, &AppSpec::TestPmd, 1518, 120.0, RunConfig::long());
    out.push(LegacyCheck {
        what: "incast-8@120Gbps achieved kRPS (BENCH_topo.json)".into(),
        expected: read_ledger("BENCH_topo.json", "\"topo_incast_8c\"", "krps")?,
        actual: format!("{:.1}", s.achieved_rps() / 1e3),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_lookup_reads_the_anchored_row() {
        let text = r#"{"rows": [{"name": "a", "krps": 1.5}, {"name": "b", "krps": 3193.2}]}"#;
        assert_eq!(json_number_after(text, "\"b\"", "krps"), Some("3193.2"));
        assert_eq!(json_number_after(text, "\"a\"", "krps"), Some("1.5"));
        assert_eq!(json_number_after(text, "\"c\"", "krps"), None);
    }

    #[test]
    fn fnv_matches_the_published_vector() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
