//! Machine-readable bench results and the CI regression gate.
//!
//! The vendored criterion stand-in writes a flat JSON object mapping
//! benchmark ids to ms/run (minimum sample) when `BENCH_JSON=<path>`
//! is set. This module parses that format and compares a current run
//! against a checked-in baseline (`BENCH_*.json` at the repo root):
//! any case slower than `baseline × (1 + threshold)` — or missing from
//! the current run — fails the gate. The `bench_gate` binary wraps
//! [`compare`] for CI.

use std::fmt;

/// Parses the flat `{"case": ms, ...}` JSON the bench harness emits.
///
/// Only the exact shape the harness writes is supported: one object,
/// string keys without escape sequences, finite non-negative numbers.
///
/// # Errors
///
/// A human-readable description of the first malformed construct.
///
/// # Example
///
/// ```
/// use cloudqc_bench::results::parse_results;
///
/// let cases = parse_results("{\n  \"a/b\": 12.5,\n  \"c\": 3\n}\n").unwrap();
/// assert_eq!(cases, vec![("a/b".to_owned(), 12.5), ("c".to_owned(), 3.0)]);
/// assert!(parse_results("[1, 2]").is_err());
/// ```
pub fn parse_results(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut rest = json.trim();
    rest = rest
        .strip_prefix('{')
        .ok_or("expected a top-level JSON object")?
        .trim_start();
    let mut out = Vec::new();
    if let Some(tail) = rest.strip_prefix('}') {
        if tail.trim().is_empty() {
            return Ok(out);
        }
        return Err("trailing content after closing brace".into());
    }
    loop {
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at: {}", snippet(rest)))?;
        let end = rest.find('"').ok_or("unterminated key string")?;
        let key = &rest[..end];
        if key.contains('\\') {
            return Err(format!("escape sequences unsupported in key {key:?}"));
        }
        rest = rest[end + 1..].trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?
            .trim_start();
        let num_len = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        let value: f64 = rest[..num_len]
            .parse()
            .map_err(|_| format!("malformed number for key {key:?}: {}", snippet(rest)))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("value for key {key:?} must be finite and >= 0"));
        }
        if out.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        out.push((key.to_owned(), value));
        rest = rest[num_len..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
            continue;
        }
        let tail = rest
            .strip_prefix('}')
            .ok_or_else(|| format!("expected ',' or '}}' at: {}", snippet(rest)))?;
        if !tail.trim().is_empty() {
            return Err("trailing content after closing brace".into());
        }
        return Ok(out);
    }
}

fn snippet(s: &str) -> String {
    s.chars().take(20).collect()
}

/// Minimum shared cases for [`speed_factor`] to produce a
/// machine-speed estimate.
///
/// The median-ratio normalization assumes the *majority* of cases did
/// not regress, so the median tracks hardware speed rather than real
/// slowdowns. With one shared case the "median" **is** that case's
/// ratio: any regression divides itself out to exactly 1.0 and the
/// gate can never fire. Two cases are no better — the midpoint of two
/// ratios still absorbs half of any single regression and all of a
/// correlated one. Three is the smallest count where a lone regressed
/// case cannot move the median at all.
pub const MIN_NORMALIZE_CASES: usize = 3;

/// The machine-speed factor between a current run and the baseline:
/// the median `current / baseline` ratio over shared cases with a
/// positive baseline. Dividing every current value by this factor
/// centres the typical case on its baseline, so a subsequent
/// [`compare`] tracks *per-case relative* regressions instead of the
/// hardware difference between the CI runner and the machine that
/// recorded the baseline. The median makes the factor robust both to
/// per-case noise and to a minority of genuinely regressed cases.
///
/// Returns `None` when fewer than [`MIN_NORMALIZE_CASES`] shared cases
/// exist: with so few, the median *is* (or is dominated by) whatever
/// regressed, and normalizing would cancel the very signal the gate
/// exists to catch — callers must fall back to the absolute
/// comparison.
///
/// The assumption is that at most half the cases regressed: a uniform
/// slowdown across every case is absorbed into the factor and
/// invisible to the normalized gate — run the absolute gate on stable
/// hardware to catch those.
pub fn speed_factor(baseline: &[(String, f64)], current: &[(String, f64)]) -> Option<f64> {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter(|(_, base)| *base > 0.0)
        .filter_map(|(case, base)| {
            current
                .iter()
                .find(|(c, _)| c == case)
                .map(|(_, v)| v / base)
        })
        .collect();
    if ratios.len() < MIN_NORMALIZE_CASES {
        return None;
    }
    ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    if median.is_finite() && median > 0.0 {
        Some(median)
    } else {
        Some(1.0)
    }
}

/// One baseline case's verdict against the current run.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseVerdict {
    /// Benchmark id.
    pub case: String,
    /// Checked-in baseline, ms/run.
    pub baseline_ms: f64,
    /// Current measurement, ms/run (`None` if the case disappeared).
    pub current_ms: Option<f64>,
    /// `current / baseline` (1.0 when the case is missing).
    pub ratio: f64,
    /// Whether this case fails the gate.
    pub failed: bool,
}

impl fmt::Display for CaseVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.current_ms {
            Some(current) => write!(
                f,
                "{} {}: baseline {:.3} ms, current {current:.3} ms ({:+.1}%)",
                if self.failed { "FAIL" } else { "  ok" },
                self.case,
                self.baseline_ms,
                (self.ratio - 1.0) * 100.0
            ),
            None => write!(
                f,
                "FAIL {}: baseline {:.3} ms, missing from current run",
                self.case, self.baseline_ms
            ),
        }
    }
}

/// Gates `current` against `baseline`: a case fails when it is slower
/// than `baseline × (1 + threshold)` or absent from the current run.
/// Cases only present in `current` (newly added benches) are ignored —
/// they gate once the baseline is refreshed. Returns one verdict per
/// baseline case, in baseline order.
///
/// A `0.0` baseline (a sub-resolution recording from the harness's old
/// 3-decimal format) can never express a *relative* regression, so it
/// never fails — refresh such baselines; the harness now records six
/// decimals.
///
/// # Panics
///
/// Panics if `threshold` is not finite and non-negative.
pub fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold: f64,
) -> Vec<CaseVerdict> {
    assert!(
        threshold.is_finite() && threshold >= 0.0,
        "threshold must be a finite non-negative fraction"
    );
    baseline
        .iter()
        .map(|(case, base)| {
            let current_ms = current.iter().find(|(c, _)| c == case).map(|(_, v)| *v);
            match current_ms {
                Some(v) => {
                    let ratio = if *base == 0.0 { 1.0 } else { v / base };
                    CaseVerdict {
                        case: case.clone(),
                        baseline_ms: *base,
                        current_ms: Some(v),
                        ratio,
                        failed: *base > 0.0 && v > base * (1.0 + threshold),
                    }
                }
                None => CaseVerdict {
                    case: case.clone(),
                    baseline_ms: *base,
                    current_ms: None,
                    ratio: 1.0,
                    failed: true,
                },
            }
        })
        .collect()
}

/// The gate's whole comparison policy in one call: *ratio mode* —
/// divide the machine-speed factor ([`speed_factor`]) out of the
/// current run, then [`compare`] — whenever at least
/// [`MIN_NORMALIZE_CASES`] shared cases exist, falling back to the
/// absolute comparison below that. Ratio mode is the default because
/// the gate typically runs on hardware that did not record the
/// baseline; the fallback keeps sparse baselines gated rather than
/// silently normalized into meaninglessness.
///
/// Returns the per-case verdicts and the factor that was divided out
/// (`None` = absolute fallback).
///
/// # Panics
///
/// Panics if `threshold` is not finite and non-negative (see
/// [`compare`]).
pub fn gate(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold: f64,
) -> (Vec<CaseVerdict>, Option<f64>) {
    match speed_factor(baseline, current) {
        Some(factor) => {
            let normalized: Vec<(String, f64)> = current
                .iter()
                .map(|(case, v)| (case.clone(), v / factor))
                .collect();
            (compare(baseline, &normalized, threshold), Some(factor))
        }
        None => (compare(baseline, current, threshold), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cases(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn parses_harness_output_shape() {
        let json = "{\n  \"g/a\": 12.345,\n  \"g/b\": 0.5\n}\n";
        assert_eq!(
            parse_results(json).unwrap(),
            cases(&[("g/a", 12.345), ("g/b", 0.5)])
        );
        assert_eq!(parse_results("{}").unwrap(), vec![]);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "[]",
            "{\"a\": }",
            "{\"a\": 1",
            "{\"a\": -1}",
            "{\"a\": 1} extra",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": nan}",
        ] {
            assert!(parse_results(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn within_threshold_passes() {
        let verdicts = compare(&cases(&[("a", 100.0)]), &cases(&[("a", 115.0)]), 0.20);
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].failed);
        assert!((verdicts[0].ratio - 1.15).abs() < 1e-12);
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let verdicts = compare(&cases(&[("a", 100.0)]), &cases(&[("a", 121.0)]), 0.20);
        assert!(verdicts[0].failed);
    }

    #[test]
    fn missing_case_fails_new_case_ignored() {
        let verdicts = compare(&cases(&[("old", 10.0)]), &cases(&[("new", 1.0)]), 0.20);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].failed);
        assert_eq!(verdicts[0].current_ms, None);
        assert!(verdicts[0].to_string().contains("missing"));
    }

    #[test]
    fn zero_baseline_reports_but_never_gates() {
        // Legacy 3-decimal baselines collapse sub-microsecond cases to
        // 0.000; any nonzero current would otherwise fail unconditionally.
        let verdicts = compare(&cases(&[("a", 0.0)]), &cases(&[("a", 0.001)]), 0.20);
        assert!(!verdicts[0].failed);
        assert_eq!(verdicts[0].ratio, 1.0);
        // Absence still fails: the case disappeared, precision aside.
        assert!(compare(&cases(&[("a", 0.0)]), &cases(&[("b", 1.0)]), 0.20)[0].failed);
    }

    #[test]
    fn faster_is_fine() {
        let verdicts = compare(&cases(&[("a", 100.0)]), &cases(&[("a", 40.0)]), 0.0);
        assert!(!verdicts[0].failed);
        assert!(verdicts[0].to_string().contains("ok"));
    }

    #[test]
    fn speed_factor_tracks_the_typical_case() {
        // A machine 1.5× slower across the board, plus one case that
        // really regressed 2× on top: the median ratio is 1.5 (the
        // unregressed majority), and dividing it out exposes only the
        // real regression.
        let baseline = cases(&[("a", 10.0), ("b", 20.0), ("c", 30.0)]);
        let current = cases(&[("a", 15.0), ("b", 30.0), ("c", 90.0)]);
        let factor = speed_factor(&baseline, &current).expect("three shared cases");
        assert!((factor - 1.5).abs() < 1e-12);
        let normalized: Vec<(String, f64)> = current
            .iter()
            .map(|(c, v)| (c.clone(), v / factor))
            .collect();
        let verdicts = compare(&baseline, &normalized, 0.20);
        let failed: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.failed)
            .map(|v| v.case.as_str())
            .collect();
        assert_eq!(failed, vec!["c"]);
    }

    #[test]
    fn speed_factor_requires_three_shared_cases() {
        // The single-case trap this guards against: a 30% regression's
        // own ratio was the "median", so normalizing divided the
        // regression out to exactly 1.0 and the gate could never fire.
        let baseline = cases(&[("a", 100.0)]);
        let current = cases(&[("a", 130.0)]);
        assert_eq!(speed_factor(&baseline, &current), None);
        // The absolute fallback catches what normalization would hide.
        assert!(compare(&baseline, &current, 0.20)[0].failed);

        // Two shared cases still under-determine the median.
        let baseline = cases(&[("a", 100.0), ("b", 50.0)]);
        let current = cases(&[("a", 130.0), ("b", 50.0)]);
        assert_eq!(speed_factor(&baseline, &current), None);

        // Three baseline cases but only two measured: still refused —
        // what matters is the *shared* count.
        let baseline = cases(&[("a", 100.0), ("b", 50.0), ("c", 10.0)]);
        let current = cases(&[("a", 130.0), ("b", 50.0)]);
        assert_eq!(speed_factor(&baseline, &current), None);
    }

    #[test]
    fn gate_defaults_to_ratio_comparison_with_enough_cases() {
        // A runner 2× slower than the baseline machine, with one case
        // regressed 4× on top: ratio mode divides the hardware factor
        // out and flags only the true regression — the absolute
        // comparison would have failed every case.
        let baseline = cases(&[("a", 10.0), ("b", 20.0), ("c", 30.0), ("d", 40.0)]);
        let current = cases(&[("a", 20.0), ("b", 40.0), ("c", 60.0), ("d", 160.0)]);
        let (verdicts, factor) = gate(&baseline, &current, 0.20);
        assert_eq!(factor, Some(2.0));
        let failed: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.failed)
            .map(|v| v.case.as_str())
            .collect();
        assert_eq!(failed, vec!["d"]);
        // A uniformly *faster* runner normalizes to all-ok, no phantom
        // verdicts in either direction.
        let faster = cases(&[("a", 5.0), ("b", 10.0), ("c", 15.0), ("d", 20.0)]);
        let (verdicts, factor) = gate(&baseline, &faster, 0.20);
        assert_eq!(factor, Some(0.5));
        assert!(verdicts.iter().all(|v| !v.failed));
    }

    #[test]
    fn gate_falls_back_to_absolute_below_three_shared_cases() {
        // Two shared cases: normalizing would absorb the regression, so
        // the gate must compare absolute values instead — and fire.
        let baseline = cases(&[("a", 100.0), ("b", 50.0)]);
        let current = cases(&[("a", 130.0), ("b", 50.0)]);
        let (verdicts, factor) = gate(&baseline, &current, 0.20);
        assert_eq!(factor, None);
        assert!(verdicts[0].failed);
        assert!(!verdicts[1].failed);
    }

    #[test]
    fn speed_factor_degenerate_inputs_refuse_to_normalize() {
        assert_eq!(speed_factor(&[], &[]), None);
        assert_eq!(
            speed_factor(&cases(&[("a", 10.0)]), &cases(&[("b", 5.0)])),
            None
        );
        // Zero-baseline cases contribute no ratio.
        assert_eq!(
            speed_factor(&cases(&[("a", 0.0)]), &cases(&[("a", 5.0)])),
            None
        );
    }
}
