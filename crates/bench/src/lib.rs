//! Layer benchmarks: three binaries that time one simulator layer against
//! a reference implementation of the same job and write or check a
//! committed baseline of speedup ratios.
//!
//! * `queue_bench` — the two-level ladder [`simnet_sim::EventQueue`]
//!   against the [`simnet_sim::event::BinaryHeapQueue`] reference
//!   (`BENCH_event_queue.json`).
//! * `pkt_bench` — pooled copy-on-write packets against deep-copied
//!   `Vec<u8>` packets (`BENCH_pkt_pool.json`).
//! * `burst_bench` — burst-coalesced wire deliveries against one queue
//!   event per packet (`BENCH_burst.json`).
//!
//! Every binary takes the same flags, parsed by [`Args::from_env`]:
//!
//! ```text
//! <bench> [--scale F] [--out FILE] [--check BASELINE] [--max-regress PCT]
//! ```
//!
//! `--scale` multiplies iteration counts, `--out` writes the measured
//! JSON, and `--check` fails the run if any scenario's speedup fell more
//! than `--max-regress` percent (default 20) below the baseline's.
//! Ratios, not absolute nanoseconds, so the check holds across hosts.
//! [`finish`] does the writing and checking for all three.
//!
//! Each binary keeps its own timing loop: the timed region's code
//! generation moves the measured ratios by several percent, so it stays
//! in the crate whose closures it calls.
//!
//! The simulated outputs these layers produce are pinned by tests and by
//! `perfbench`, not here: only host-time ratios are benchmarked.

use std::process::ExitCode;

/// The flags every layer bench takes.
#[derive(Debug)]
pub struct Args {
    /// Iteration-count multiplier (`--scale`, default 1).
    pub scale: f64,
    /// Where to write the measured JSON (`--out`).
    pub out: Option<String>,
    /// Baseline JSON to check the measured speedups against (`--check`).
    pub check: Option<String>,
    /// Largest tolerated speedup drop below the baseline, in percent
    /// (`--max-regress`, default 20).
    pub max_regress: f64,
}

impl Args {
    /// Parses `args` (without the program name). Errors name the bad
    /// flag; an unknown argument also gets the usage line for `bench`.
    fn parse(bench: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            scale: 1.0,
            out: None,
            check: None,
            max_regress: 20.0,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v > 0.0 => parsed.scale = v,
                    _ => return Err("--scale requires a positive number".into()),
                },
                "--out" => match args.next() {
                    Some(p) => parsed.out = Some(p),
                    None => return Err("--out requires a file path".into()),
                },
                "--check" => match args.next() {
                    Some(p) => parsed.check = Some(p),
                    None => return Err("--check requires a baseline file path".into()),
                },
                "--max-regress" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v > 0.0 => parsed.max_regress = v,
                    _ => return Err("--max-regress requires a positive percentage".into()),
                },
                other => {
                    return Err(format!(
                        "unknown argument {other}\n\
                         usage: {bench} [--scale F] [--out FILE] [--check BASELINE] [--max-regress PCT]"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments, printing the error on failure.
    pub fn from_env(bench: &str) -> Option<Self> {
        Self::parse(bench, std::env::args().skip(1))
            .map_err(|e| eprintln!("{e}"))
            .ok()
    }

    /// `n` scaled by `--scale`, at least 1.
    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(1)
    }
}

/// The median of `samples` (the upper one for an even count); the
/// event-queue and packet-pool benches report the median of their reps.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Pulls `"name": ..., "speedup": ...` pairs out of a baseline JSON.
/// Hand-rolled (no serde in the workspace), tied to the benches' own
/// one-scenario-per-line writer.
fn parse_baseline_speedups(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = &rest[..name_end];
        let Some(sp_at) = line.find("\"speedup\": ") else {
            continue;
        };
        let sp_rest = &line[sp_at + 11..];
        let digits: String = sp_rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(speedup) = digits.parse::<f64>() {
            out.push((name.to_string(), speedup));
        }
    }
    out
}

/// Writes `json` to `--out` and checks the measured `(name, speedup)`
/// pairs against the `--check` baseline. `what` names the speedup in the
/// failure message (e.g. "ladder speedup").
pub fn finish(args: &Args, json: &str, measured: &[(&str, f64)], what: &str) -> ExitCode {
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let Some(path) = &args.check else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: could not read baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = parse_baseline_speedups(&baseline);
    if base.is_empty() {
        eprintln!("error: no speedup entries found in baseline {path}");
        return ExitCode::FAILURE;
    }
    let max_regress = args.max_regress;
    let mut failed = false;
    for (name, base_speedup) in &base {
        let Some(&(_, speedup)) = measured.iter().find(|(n, _)| n == name) else {
            eprintln!("warning: baseline scenario {name} not measured; skipping");
            continue;
        };
        let floor = base_speedup / (1.0 + max_regress / 100.0);
        let status = if speedup < floor {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  check {name}: speedup {speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x) {status}"
        );
    }
    if failed {
        eprintln!("error: {what} regressed more than {max_regress}% vs {path}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse("bench", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_default_and_parse() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.scale, a.max_regress, a.out, a.check),
            (1.0, 20.0, None, None)
        );
        let a = parse(&[
            "--scale",
            "0.2",
            "--out",
            "o.json",
            "--check",
            "b.json",
            "--max-regress",
            "25",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.2);
        assert_eq!(a.out.as_deref(), Some("o.json"));
        assert_eq!(a.check.as_deref(), Some("b.json"));
        assert_eq!(a.max_regress, 25.0);
        assert_eq!(a.scaled(10), 2);
        assert_eq!(a.scaled(1), 1);
    }

    #[test]
    fn bad_flags_are_named() {
        assert!(parse(&["--scale", "0"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--max-regress", "-1"])
            .unwrap_err()
            .contains("--max-regress"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("usage: bench"));
    }

    #[test]
    fn baseline_speedups_are_read_per_row() {
        let json = "{\n  \"scenarios\": [\n    {\"name\": \"a\", \"x\": 1.00, \"speedup\": 1.385},\n    {\"name\": \"b\", \"speedup\": 2.080}\n  ],\n  \"end_to_end\": {\"name\": \"e2e\", \"events\": 5}\n}\n";
        assert_eq!(
            parse_baseline_speedups(json),
            vec![("a".to_string(), 1.385), ("b".to_string(), 2.080)]
        );
    }
}
