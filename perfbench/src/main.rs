//! End-to-end host-time benchmark of the simnet simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless            # print reference digests (default seed)
//! ```
//!
//! Each workload is a fixed list of measurement points (see
//! [`workloads`]). A run repeats whole passes over the points, back to
//! back on one thread, for about `--seconds`, with rounds that time the
//! points' assembly in between, and checks every point's simulated
//! outputs. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced passes with traced replays and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod host;
mod replay;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use simnet_harness::summary::run_phases;
use simnet_harness::{build_loadgen_sim, find_msb, MsbResult};

use checks::DEFAULT_SEED;
use host::{median, quantile, Stopwatch};
use replay::{Expected, LayerAcc};
use spans::Spans;
use workloads::{Op, Point};

/// Set-up is timed in rounds that assemble every point once:
/// `SETUP_FIRST_ROUNDS` before the first pass, then before every pass as
/// many as fit in `SETUP_SHARE` of the previous pass's host time (at
/// least one), so set-up is sampled across the whole run as the passes
/// are. `setup_s` is the median round.
const SETUP_FIRST_ROUNDS: usize = 15;
const SETUP_SHARE: f64 = 0.04;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value)?,
            "--seconds" => args.seconds = parse_u64(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.bless && workloads::points(&args.workload, args.seed).is_none() {
        return Err(format!(
            "--workload must be one of {:?}, not {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// One untraced execution of a point.
struct Exec {
    /// Host seconds of warm-up + measurement (assembly excluded for runs;
    /// for searches it is inside `find_msb` and subtracted later).
    wall: f64,
    cpu: f64,
    digest: u64,
    /// The search result, for searches.
    search: Option<MsbResult>,
}

/// Runs one point untraced, checking its ledgers. `Err` is a failure.
fn exec_point(p: &Point) -> Result<Exec, String> {
    let live_before = simnet_net::pool::stats().live();
    let outcome = catch_unwind(AssertUnwindSafe(|| match p.op {
        Op::Run { offered, rc } => {
            let mut sim = build_loadgen_sim(&p.cfg, &p.app, p.size, offered);
            let sw = Stopwatch::start();
            let summary = run_phases(&mut sim, rc.phases);
            let (wall, cpu) = sw.stop();
            let reg = checks::full_registry(&sim);
            let broken = checks::ledgers(&sim, &summary, &reg);
            let digest = checks::run_digest(&sim, &summary);
            (
                Exec {
                    wall,
                    cpu,
                    digest,
                    search: None,
                },
                broken,
            )
        }
        Op::Search { lo, hi, steps, rc } => {
            let sw = Stopwatch::start();
            let result = find_msb(&p.cfg, &p.app, p.size, lo, hi, steps, rc);
            let (wall, cpu) = sw.stop();
            let mut broken = Vec::new();
            if result.points.is_empty() {
                broken.push("search probed no load".to_string());
            }
            let digest = checks::search_digest(&result);
            (
                Exec {
                    wall,
                    cpu,
                    digest,
                    search: Some(result),
                },
                broken,
            )
        }
    }));
    let (exec, mut broken) = outcome.map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })?;
    broken.extend(checks::pool_leak(live_before));
    if broken.is_empty() {
        Ok(exec)
    } else {
        Err(broken.join("; "))
    }
}

/// Operation counts and failure reporting.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            println!("FAIL {what}: {}", problems.join("; "));
        }
    }
}

/// Per-point state across the passes of one run.
#[derive(Default)]
struct PointState {
    /// Host `(wall, cpu)` seconds of every untraced execution, as timed:
    /// a search's still include the assembly of its probes.
    runs: Vec<(f64, f64)>,
    /// Host `(wall, cpu)` seconds of every timed assembly.
    setup: Vec<(f64, f64)>,
    digest: Option<u64>,
    probes: usize,
    last_search: Option<MsbResult>,
}

impl PointState {
    /// Untraced `(wall, cpu)` samples without assembly: `find_msb`
    /// assembles its probes inside the timed call, so a search's samples
    /// lose the probe count times the point's median assembly time.
    fn run_samples(&self) -> (Vec<f64>, Vec<f64>) {
        let probes = self.probes as f64;
        let setup_wall = median(&self.setup.iter().map(|s| s.0).collect::<Vec<_>>());
        let setup_cpu = median(&self.setup.iter().map(|s| s.1).collect::<Vec<_>>());
        self.runs
            .iter()
            .map(|&(w, c)| {
                (
                    (w - probes * setup_wall).max(0.0),
                    (c - probes * setup_cpu).max(0.0),
                )
            })
            .unzip()
    }
}

struct Bench {
    workload: String,
    points: Vec<Point>,
    reference: Option<BTreeMap<String, u64>>,
    state: Vec<PointState>,
    /// Host seconds of every set-up round.
    setup_rounds: Vec<f64>,
    tally: Tally,
}

impl Bench {
    /// Times set-up rounds until at least `min_rounds` ran and `budget_s`
    /// host seconds passed.
    fn setup_rounds(&mut self, min_rounds: usize, budget_s: f64) {
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < budget_s {
            let mut total = 0.0;
            for (p, st) in self.points.iter().zip(&mut self.state) {
                let sw = Stopwatch::start();
                let sim = build_loadgen_sim(&p.cfg, &p.app, p.size, p.assembly_load());
                let (wall, cpu) = sw.stop();
                drop(sim);
                total += wall;
                st.setup.push((wall, cpu));
            }
            self.setup_rounds.push(total);
            rounds += 1;
        }
    }

    /// Runs every point once untraced, checking outputs.
    fn untraced_pass(&mut self) {
        for (i, p) in self.points.iter().enumerate() {
            let what = format!("{}/{}", self.workload, p.id);
            let st = &mut self.state[i];
            let mut problems = Vec::new();
            match exec_point(p) {
                Err(e) => problems.push(e),
                Ok(exec) => {
                    // Every repetition must reproduce the first, and on the
                    // default seed the stored reference.
                    match st.digest {
                        None => st.digest = Some(exec.digest),
                        Some(d) if d != exec.digest => problems.push(format!(
                            "digest {:016x} differs from this run's first {d:016x}",
                            exec.digest
                        )),
                        Some(_) => {}
                    }
                    if let Some(reference) = &self.reference {
                        match reference.get(&p.id) {
                            None => problems.push("no reference digest".into()),
                            Some(&r) if r != exec.digest => problems
                                .push(format!("digest {:016x} != reference {r:016x}", exec.digest)),
                            Some(_) => {}
                        }
                    }
                    st.probes = exec.search.as_ref().map_or(0, |s| s.points.len());
                    st.runs.push((exec.wall, exec.cpu));
                    st.last_search = exec.search;
                }
            }
            self.tally.record(&what, &problems);
        }
    }

    /// Host `(wall, cpu)` seconds of one pass: the sums of per-point
    /// medians.
    fn wall_and_cpu(&self) -> (f64, f64) {
        self.state.iter().fold((0.0, 0.0), |(w, c), st| {
            let (walls, cpus) = st.run_samples();
            (w + median(&walls), c + median(&cpus))
        })
    }

    /// Replays every point traced, after an untraced pass.
    fn traced_pass(&mut self, spans: &mut Spans) -> LayerAcc {
        let mut acc = LayerAcc::default();
        let root = spans.open("workload", None, format!("workload={}", self.workload));
        for (i, p) in self.points.iter().enumerate() {
            let st = &self.state[i];
            let expected = match (&st.last_search, st.digest) {
                (Some(s), _) => Expected::Search(s),
                (None, Some(d)) => Expected::Run(d),
                (None, None) => continue, // the untraced run failed
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                replay::replay_point(p, expected, spans, root, &mut acc)
            }));
            let problems = match outcome {
                Ok(problems) => problems,
                Err(_) => vec!["traced replay panicked".into()],
            };
            self.tally
                .record(&format!("{}/{} (traced)", self.workload, p.id), &problems);
        }
        spans.close(root);
        acc
    }
}

/// Formats a metric map as the result's `metrics` object.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(acc: &LayerAcc) -> Vec<(&'static str, f64, &'static str)> {
    let loadgen_tx = acc.ns(&["loadgen_tx", "fleet_tx"]) as f64;
    let loadgen_rx = acc.ns(&["loadgen_rx", "fleet_rx"]) as f64;
    let software_measure = acc.measure_ns(&["software"]) as f64;
    let dma_measure = acc.measure_ns(&["rx_dma", "tx_dma"]) as f64;
    let events = acc.measure_events as f64;
    let loop_s = acc.measure_loop_ns as f64 * 1e-9;
    vec![
        (
            "harness.setup_ms_per_point",
            ratio(acc.setup_ns as f64 * 1e-6, acc.sims as f64),
            "ms",
        ),
        ("sim.events", events, "count"),
        ("sim.events_per_host_s", ratio(events, loop_s), "1/s"),
        (
            "sim.host_ns_per_event",
            ratio(acc.measure_loop_ns as f64, events),
            "ns/event",
        ),
        ("loadgen.tx_ns", loadgen_tx, "ns"),
        ("loadgen.rx_ns", loadgen_rx, "ns"),
        ("net.wire_rx_ns", acc.ns(&["nic_rx"]) as f64, "ns"),
        ("net.wire_tx_ns", acc.ns(&["tx_wire"]) as f64, "ns"),
        (
            "net.burst_pkts_per_event",
            ratio(acc.burst_constituents as f64, acc.burst_flushed as f64),
            "pkts/event",
        ),
        ("net.switch_ns", acc.ns(&["switch_rx"]) as f64, "ns"),
        ("net.topo_tail_drops", acc.tail_drops as f64, "count"),
        ("net.pool_allocs", acc.pool_allocs as f64, "count"),
        (
            "net.pool_heap_fallbacks",
            acc.pool_heap_fallbacks as f64,
            "count",
        ),
        ("nic.rx_dma_ns", acc.ns(&["rx_dma"]) as f64, "ns"),
        ("nic.tx_dma_ns", acc.ns(&["tx_dma"]) as f64, "ns"),
        (
            "nic.host_ns_per_pkt",
            ratio(dma_measure, acc.nic_rx_frames as f64),
            "ns/pkt",
        ),
        ("stack.software_ns", acc.ns(&["software"]) as f64, "ns"),
        (
            "stack.busy_frac",
            1.0 - ratio(acc.stack_idle as f64, acc.stack_iterations as f64),
            "frac",
        ),
        ("cpu.committed_insts", acc.insts as f64, "count"),
        (
            "cpu.host_ns_per_kinst",
            ratio(software_measure, acc.insts as f64 / 1e3),
            "ns/kinst",
        ),
        ("mem.l1d_misses", acc.l1d_misses as f64, "count"),
        ("mem.l2_misses", acc.l2_misses as f64, "count"),
        ("mem.llc_misses", acc.llc_misses as f64, "count"),
        ("mem.dram_reads", acc.dram_reads as f64, "count"),
        (
            "trace.coverage",
            ratio(acc.attributed_ns as f64, acc.loop_ns as f64),
            "frac",
        ),
    ]
}

/// Prints each layer's share of the traced warm-up + measure time and the
/// most a 2× faster layer could save of `wall_s`.
fn print_layer_shares(acc: &LayerAcc, wall_s: f64) {
    let total = acc.phase_ns.max(1) as f64;
    let rows: [(&str, f64); 6] = [
        (
            "loadgen (loadgen_*, fleet_*)",
            acc.ns(&["loadgen_tx", "loadgen_rx", "fleet_tx", "fleet_rx"]) as f64,
        ),
        (
            "net (nic_rx, tx_wire, switch_rx)",
            acc.ns(&["nic_rx", "tx_wire", "switch_rx"]) as f64,
        ),
        ("nic (rx_dma, tx_dma)", acc.ns(&["rx_dma", "tx_dma"]) as f64),
        (
            "stack+apps+cpu+mem (software)",
            acc.ns(&["software"]) as f64,
        ),
        (
            "sim (queue + loop, probe, sample)",
            (acc.loop_ns.saturating_sub(acc.attributed_ns) + acc.ns(&["probe", "sample"])) as f64,
        ),
        (
            "harness (phase control, reset, report)",
            (acc.phase_ns.saturating_sub(acc.loop_ns)) as f64,
        ),
    ];
    println!(
        "layer shares of wall_s ({wall_s:.3} s a pass untraced; traced warm-up + measure \
         {:.3} s over all traced passes):",
        total * 1e-9
    );
    for (layer, ns) in rows {
        let share = ns / total;
        println!(
            "  {layer:<40} {:>6.1}%  -> 2x faster saves at most {:>5.1}% of wall_s ({:.3} s)",
            share * 100.0,
            share * 50.0,
            wall_s * share / 2.0
        );
    }
    println!(
        "  outside wall_s: assembly {:.3} s, output collection {:.3} s",
        acc.setup_ns as f64 * 1e-9,
        acc.collect_ns as f64 * 1e-9
    );
}

fn run(args: &Args) -> Result<(bool, u64, u64, String), String> {
    let points = workloads::points(&args.workload, args.seed).expect("validated by parse_args");
    let reference = if args.seed == DEFAULT_SEED {
        Some(checks::load_reference(&args.workload)?)
    } else {
        None
    };
    println!(
        "provenance: {}",
        host::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    println!(
        "workload {}: {} points, seed {:#x}{}",
        args.workload,
        points.len(),
        args.seed,
        if reference.is_some() {
            " (reference digests checked)"
        } else {
            ""
        }
    );
    let state = points.iter().map(|_| PointState::default()).collect();
    let mut bench = Bench {
        workload: args.workload.clone(),
        points,
        reference,
        state,
        setup_rounds: Vec::new(),
        tally: Tally::default(),
    };

    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut spans = Spans::new();
    let mut traced: Vec<LayerAcc> = Vec::new();
    let mut passes = 0;
    let mut pass_seconds = Vec::new();
    let mut peak_rss_mb = 0.0;
    bench.setup_rounds(SETUP_FIRST_ROUNDS, 0.0);
    loop {
        let pass_start = Instant::now();
        bench.untraced_pass();
        if passes == 0 {
            // Later passes reuse a heap whose fragmentation varies from
            // run to run; set-up plus one pass is the workload's peak.
            peak_rss_mb = host::peak_rss_mb();
        }
        if args.trace {
            traced.push(bench.traced_pass(&mut spans));
        }
        passes += 1;
        let pass = pass_start.elapsed().as_secs_f64();
        pass_seconds.push(format!("{pass:.3}"));
        if start.elapsed().as_secs_f64() + pass * (1.0 + SETUP_SHARE) > budget {
            break;
        }
        bench.setup_rounds(1, pass * SETUP_SHARE);
    }
    let (wall_s, cpu_s) = bench.wall_and_cpu();
    let setup_s = median(&bench.setup_rounds);

    // Pin the benchmark to the committed legacy ledgers (after the peak
    // memory reading, which they would otherwise raise).
    let legacy =
        catch_unwind(checks::legacy_checks).map_err(|_| "legacy check panicked".to_string())??;
    for check in &legacy {
        println!(
            "legacy {}: committed {} vs now {} -> {}",
            check.what,
            check.expected,
            check.actual,
            if check.ok() { "ok" } else { "MISMATCH" }
        );
        let problems = if check.ok() {
            vec![]
        } else {
            vec![format!("{} mismatch", check.what)]
        };
        bench.tally.record(&check.what, &problems);
    }

    println!("pass host seconds: {}", pass_seconds.join(" "));
    for (p, st) in bench.points.iter().zip(&bench.state) {
        let (walls, _) = st.run_samples();
        println!(
            "  point {:<28} median {:>9.3} ms over {} runs, set-up {:.3} ms{}",
            p.id,
            median(&walls) * 1e3,
            walls.len(),
            median(&st.setup.iter().map(|s| s.0).collect::<Vec<_>>()) * 1e3,
            if st.probes > 0 {
                format!(", {} probes", st.probes)
            } else {
                String::new()
            }
        );
    }
    println!(
        "{} passes and {} set-up rounds in {:.2} s; per pass: wall {:.4} s, cpu {:.4} s; \
         set-up {:.4} s",
        passes,
        bench.setup_rounds.len(),
        start.elapsed().as_secs_f64(),
        wall_s,
        cpu_s,
        setup_s
    );

    let metrics = if !args.trace {
        vec![
            ("wall_s", wall_s, "s"),
            ("cpu_s", cpu_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    } else {
        let point_ms: Vec<f64> = bench
            .state
            .iter()
            .flat_map(|s| s.run_samples().0.into_iter().map(|w| w * 1e3))
            .collect();
        let searches = bench
            .state
            .iter()
            .filter(|s| s.last_search.is_some())
            .count();
        let probes: usize = bench.state.iter().map(|s| s.probes).sum();
        let mut total = LayerAcc::default();
        for acc in &traced {
            total.merge(acc);
        }
        print_layer_shares(&total, wall_s);
        // Per-layer values are per pass: the median over traced passes.
        let per_pass: Vec<Vec<(&str, f64, &str)>> = traced.iter().map(layer_metrics).collect();
        let mut metrics: Vec<(&str, f64, &str)> = vec![
            ("harness.point_ms_p50", quantile(&point_ms, 0.5), "ms"),
            ("harness.point_ms_p90", quantile(&point_ms, 0.9), "ms"),
            ("harness.point_samples", point_ms.len() as f64, "count"),
            (
                "harness.search_points",
                ratio(probes as f64, searches as f64),
                "count",
            ),
        ];
        for (k, (name, _, unit)) in per_pass[0].iter().enumerate() {
            let values: Vec<f64> = per_pass.iter().map(|m| m[k].1).collect();
            metrics.push((name, median(&values), unit));
        }
        let traced_phase_s = median(
            &traced
                .iter()
                .map(|a| a.phase_ns as f64 * 1e-9)
                .collect::<Vec<_>>(),
        );
        metrics.push((
            "trace.overhead_frac",
            ratio(traced_phase_s, wall_s) - 1.0,
            "frac",
        ));
        let path = format!(
            "perfbench/out/spans-{}-seed{}.ndjson",
            args.workload, args.seed
        );
        match spans.write(std::path::Path::new(&path)) {
            Ok(()) => println!("wrote spans to {path}"),
            Err(e) => println!("could not write spans to {path}: {e}"),
        }
        metrics
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{}: {} failed of {} attempted",
        args.workload, bench.tally.failed, bench.tally.attempted
    );
    Ok((
        bench.tally.failed == 0,
        bench.tally.attempted,
        bench.tally.failed,
        metrics_json(&metrics),
    ))
}

/// Prints `workload point-id digest` for one pass of every workload at
/// the default seed: the content of the reference file.
fn bless() -> Result<(), String> {
    println!("# simulated-output digests at seed {DEFAULT_SEED:#x}: workload point digest");
    for name in workloads::NAMES {
        for p in workloads::points(name, DEFAULT_SEED).expect("known workload") {
            let exec = exec_point(&p).map_err(|e| format!("{name}/{}: {e}", p.id))?;
            println!("{name} {} {:016x}", p.id, exec.digest);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {metrics}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
