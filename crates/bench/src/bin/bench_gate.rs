//! CI bench-regression gate.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--threshold 0.20]
//! ```
//!
//! Both files are the flat `{"case": ms_per_run, ...}` objects the
//! bench harness writes under `BENCH_JSON=<path>`. Exits non-zero when
//! any baseline case is more than `threshold` (a fraction, default
//! 0.20 = 20%) slower in the current run, or missing from it. Cases
//! only present in the current run are reported but do not gate (they
//! start gating once the baseline is refreshed).
//!
//! Whenever at least `MIN_NORMALIZE_CASES` (3) cases are shared
//! between baseline and current run, the gate compares *ratios*: every
//! current value is divided by the machine-speed factor (the median
//! `current / baseline` ratio across shared cases) before gating, so a
//! runner slower or faster than the machine that recorded the baseline
//! does not move the verdict — only per-case relative regressions do.
//! It compares ratios because CI runner hardware is unknown; the
//! trade-off is that a *uniform* slowdown across all cases is absorbed
//! into the factor (re-run on the baseline's own machine to catch
//! those).
//!
//! With fewer than 3 shared cases the median ratio *is* (or is
//! dominated by) whatever regressed — any slowdown would normalize
//! itself away to 1.0 and the gate could never fire — so the gate
//! warns and compares absolute values instead.

use cloudqc_bench::results::{gate, parse_results, MIN_NORMALIZE_CASES};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_gate <baseline.json> <current.json> [--threshold 0.20]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.20f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                let Some(value) = args.get(i).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                threshold = value;
                if !threshold.is_finite() || threshold < 0.0 {
                    return usage();
                }
            }
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage();
    };

    let load = |path: &str| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_results(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };

    println!(
        "bench gate: {} baseline case(s), threshold +{:.0}%",
        baseline.len(),
        threshold * 100.0
    );
    let (verdicts, factor) = gate(&baseline, &current, threshold);
    match factor {
        Some(factor) => {
            println!("machine-speed factor {factor:.3} divided out of the current run");
        }
        None => {
            eprintln!(
                "warning: fewer than {MIN_NORMALIZE_CASES} cases shared with the \
                 baseline; a median over so few would absorb the very regressions \
                 the gate watches for — gating absolute values instead"
            );
        }
    }
    for v in &verdicts {
        println!("{v}");
    }
    for (case, ms) in &current {
        if !baseline.iter().any(|(b, _)| b == case) {
            println!(" new {case}: {ms:.3} ms (not gated; refresh the baseline)");
        }
    }
    let failures = verdicts.iter().filter(|v| v.failed).count();
    if failures > 0 {
        eprintln!("bench gate FAILED: {failures} case(s) regressed beyond the threshold");
        return ExitCode::FAILURE;
    }
    println!("bench gate passed");
    ExitCode::SUCCESS
}
