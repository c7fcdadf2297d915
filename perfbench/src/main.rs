//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sor-phases|adjoint-imbalance|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on one `Pool` of P = online CPUs workers (default
//! spin barrier, unpinned) under AFS with k = P, driven by this process's
//! main thread alone. `--trace 0` times only calls into the library's
//! public entry points and prints the end-to-end metrics; `--trace 1`
//! additionally wraps loop bodies and serving calls in benchmark-side
//! spans and prints the per-layer metrics. Both measure the host floors
//! and the empty-dispatch round trip, and both check every result: a
//! solve must equal the sequential reference bit for bit, and the serving
//! ledger must balance against the server's own counts. The last stdout
//! line is one JSON object; the exit code is non-zero when any check
//! failed or the arguments are invalid.

mod floors;
mod serve;
mod solve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), printed by the untraced run on every
/// workload. On the solve workloads a request is one solve (a closed loop
/// of one); on `serve-mix` a solve is one `dispatch_next` batch. Only
/// medians are gated: on a shared two-vCPU host the tails and throughput
/// follow how often the hypervisor deschedules a vCPU, so from run to run
/// they spread wider than any useful bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms.p50", "ms"),
    ("latency_us.p50", "us"),
];

/// Per-layer metrics (name, unit), printed by the traced run: first the
/// ungated end-to-end tails, throughput and failure share, then the
/// layers. A metric a workload's layers do not exercise prints as 0 (and
/// `n/a` in the table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solve_ms.p90", "ms"),
    ("latency_us.p99", "us"),
    ("req_per_s", "1/s"),
    ("failed_frac", "frac"),
    ("kernels.seq_ms", "ms"),
    ("runtime.dispatch_us.p50", "us"),
    ("runtime.dispatch_us.p99", "us"),
    ("runtime.phase_gap_us.p50", "us"),
    ("runtime.wake_skew_us.p50", "us"),
    ("runtime.body_busy_frac", "frac"),
    ("runtime.imbalance", "ratio"),
    ("runtime.grabs_local", "count"),
    ("runtime.grabs_remote", "count"),
    ("runtime.cas_retries", "count"),
    ("runtime.affinity_hit", "frac"),
    ("runtime.barrier_park_frac", "frac"),
    ("serve.admit_us.p50", "us"),
    ("serve.pump_us.p50", "us"),
    ("serve.dispatch_us.p50", "us"),
    ("serve.dispatch_us.p99", "us"),
    ("serve.batch_size.mean", "req"),
    ("serve.queue_us.p50", "us"),
    ("serve.shed_frac", "frac"),
    ("serve.affinity_hit", "frac"),
    ("floor.spin_rt_us", "us"),
    ("floor.wake_rt_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("ledger.unexplained_frac", "frac"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Workers per pool: one per online CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Failed-check messages kept for printing; a systematic fault repeats.
const KEPT_ERRORS: usize = 20;

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (the first [`KEPT_ERRORS`]); empty when
    /// every check passed.
    pub errors: Vec<String>,
    /// Failed checks beyond the ones kept.
    more_errors: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Records `value` under a catalog name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalog"
        );
        self.values.insert(name, value);
    }

    /// Records `setup_s` as the median of the set-ups a run made.
    pub fn setup(&mut self, samples: Vec<f64>) {
        let shown: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        println!("set-ups: {} s", shown.join(" "));
        self.set("setup_s", stats::median(samples));
    }

    /// Records a failed check.
    pub fn error(&mut self, why: String) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        } else {
            self.more_errors += 1;
        }
    }
}

/// Where a workload writes its traced spans, once, at the end of the run.
pub fn span_path(workload: &str, what: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.{what}.csv"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_line(m: &Measured, catalog: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            // Unmeasured or non-finite values print as 0; the latter also
            // fail the run (see `main`).
            let v = m
                .values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.errors.is_empty(),
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sor-phases|adjoint-imbalance|serve-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let p = workers();
    println!(
        "perfbench {} seed={} seconds={} trace={} P={p}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut m = Measured::default();
    floors::record_floors(&mut m);
    let cfg = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "sor-phases" => solve::run(solve::Kernel::Sor, cfg, &mut m),
        "adjoint-imbalance" => solve::run(solve::Kernel::Adjoint, cfg, &mut m),
        "serve-mix" => serve::run(cfg, &mut m),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    m.set(
        "failed_frac",
        stats::ratio(m.failed as f64, m.attempted as f64),
    );
    // End-to-end metrics must be measured and positive on every workload;
    // a per-layer metric may be n/a.
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let bad: Vec<&str> = catalog
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| match m.values.get(n) {
            Some(v) => !v.is_finite() || (!args.trace && *v <= 0.0),
            None => !args.trace,
        })
        .collect();
    if !bad.is_empty() {
        m.error(format!(
            "metrics not measured, not positive or not finite: {bad:?}"
        ));
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        match m.values.get(name) {
            Some(v) => println!("  {name:<26} {v:>14.4} {unit}"),
            None => println!("  {name:<26} {:>14} {unit}", "n/a"),
        }
    }
    for e in &m.errors {
        println!("CHECK FAILED: {e}");
    }
    if m.more_errors > 0 {
        println!("CHECK FAILED: {} more", m.more_errors);
    }
    println!("{}", json_line(&m, catalog));
    if m.errors.is_empty() && m.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(args("--workload serve-mix --seed 7 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
    }

    #[test]
    fn result_line_carries_every_catalog_metric() {
        let mut m = Measured {
            attempted: 3,
            ..Measured::default()
        };
        m.set("solve_ms.p50", 1.25);
        let line = json_line(&m, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"solve_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        m.error("mismatch".into());
        assert!(json_line(&m, PER_LAYER).starts_with("{\"correct\": false,"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = doc.matches("\"unit\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len());
    }
}
