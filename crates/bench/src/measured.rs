//! The MAD-allowance reference: min-of-k aggregation and a noise-tolerant comparison,
//! held by the five property tests of `tests/measured_stats.rs`.  It has no CLI and
//! reads no file — the numbers of record come from `benchmark/`, whose interleaved
//! ratios repeat on a shared host where absolute medians do not.
//!
//! * **min-of-k aggregation** ([`aggregate`]): of `k` repeated runs, the *minimum* of
//!   the `k` per-run medians estimates the noise-free cost (scheduler interference and
//!   frequency transitions only ever add time);
//! * **MAD-based allowance** ([`compare_measured`]): a bench fails only if it regresses
//!   beyond `max(threshold_pct · baseline, mad_k · MAD)` where the MAD (the median
//!   absolute deviation, a robust dispersion estimate immune to a few wild outliers)
//!   is *recorded in the baseline itself* — a noisy bench earns itself a
//!   proportionally wider allowance, a quiet bench stays tightly held;
//! * **host fingerprints** ([`HostFingerprint`]): medians taken on differently shaped
//!   machines are not comparable, so [`aggregate`] refuses runs that disagree on it.

/// The shape of the machine a measured report was taken on.  Reports from different
/// fingerprints are never gated against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Hardware parallelism at measurement time.
    pub cpus: u64,
    /// The `PARLO_THREADS` pin of the run (0 when the variable was unset).
    pub parlo_threads: u64,
}

/// One bench's record in a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriterionBench {
    /// `group/name` of the bench.
    pub name: String,
    /// Median per-iteration time of the run, seconds.
    pub median_s: f64,
    /// Within-run median absolute deviation, seconds.
    pub mad_s: f64,
}

/// The output of a single bench process.
#[derive(Debug, Clone, PartialEq)]
pub struct CriterionRun {
    /// Fingerprint of the machine/environment that produced the run.
    pub host: HostFingerprint,
    /// Per-bench medians.
    pub benches: Vec<CriterionBench>,
}

/// One bench's aggregated row in a measured report/baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// `group/name` of the bench.
    pub name: String,
    /// Min-of-k of the per-run medians, seconds: the noise-free cost estimate.
    pub min_s: f64,
    /// Recorded dispersion, seconds: the larger of the across-run MAD of the medians
    /// and the median within-run MAD (so single-run baselines still carry noise).
    pub mad_s: f64,
    /// Number of runs this bench appeared in.
    pub runs: u64,
}

/// A measured report: the min-of-k aggregate of `k` runs, on either side of a
/// comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredReport {
    /// Fingerprint shared by every aggregated run.
    pub host: HostFingerprint,
    /// Number of runs aggregated.
    pub runs: u64,
    /// Per-bench aggregated rows, in first-seen order.
    pub rows: Vec<MeasuredRow>,
}

// ---------------------------------------------------------------------------------
// Robust statistics
// ---------------------------------------------------------------------------------

/// Median of a non-empty sample set (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median absolute deviation around the median (raw, unscaled): the robust
/// dispersion estimate the gate thresholds are built from.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|s| (s - m).abs()).collect();
    median(&deviations)
}

/// Aggregates `k` runs into a measured report: per bench the min of the
/// per-run medians, with the recorded dispersion taken as
/// `max(MAD of the k medians, median within-run MAD)`.  All runs must carry the same
/// host fingerprint (they are supposed to be repeats on one machine).
pub fn aggregate(runs: &[CriterionRun]) -> Result<MeasuredReport, String> {
    let first = runs.first().ok_or("no runs to aggregate")?;
    for run in runs {
        if run.host != first.host {
            return Err(format!(
                "runs disagree on the host fingerprint ({:?} vs {:?}); aggregate only \
                 repeats taken on one machine",
                run.host, first.host
            ));
        }
    }
    let mut names: Vec<String> = Vec::new();
    for run in runs {
        for bench in &run.benches {
            if !names.contains(&bench.name) {
                names.push(bench.name.clone());
            }
        }
    }
    let rows = names
        .into_iter()
        .map(|name| {
            let medians: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.benches.iter())
                .filter(|b| b.name == name)
                .map(|b| b.median_s)
                .collect();
            let within: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.benches.iter())
                .filter(|b| b.name == name)
                .map(|b| b.mad_s)
                .collect();
            MeasuredRow {
                name,
                min_s: medians.iter().cloned().fold(f64::INFINITY, f64::min),
                mad_s: mad(&medians).max(median(&within)),
                runs: medians.len() as u64,
            }
        })
        .collect();
    Ok(MeasuredReport {
        host: first.host,
        runs: runs.len() as u64,
        rows,
    })
}

// ---------------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------------

/// One bench's baseline-vs-current measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredGateRow {
    /// `group/name` of the bench.
    pub name: String,
    /// Baseline min-of-k, seconds.
    pub baseline_s: f64,
    /// Current min-of-k, seconds.
    pub current_s: f64,
    /// Allowed regression for this row, seconds:
    /// `max(threshold_pct/100 · baseline_s, mad_k · baseline MAD)`.
    pub allowed_s: f64,
}

impl MeasuredGateRow {
    /// Absolute regression, seconds (positive = slower than baseline).
    pub fn delta_s(&self) -> f64 {
        self.current_s - self.baseline_s
    }

    /// Relative change in percent (infinite for degenerate current values).
    pub fn delta_pct(&self) -> f64 {
        if !(self.current_s.is_finite() && self.current_s > 0.0) || self.baseline_s <= 0.0 {
            return f64::INFINITY;
        }
        (self.current_s / self.baseline_s - 1.0) * 100.0
    }

    /// Whether this row regresses beyond its noise-tolerant allowance.  A current
    /// value that is not a finite positive number always fails (a degenerate
    /// measurement must never sail through as an improvement).
    pub fn regressed(&self) -> bool {
        if !(self.current_s.is_finite() && self.current_s > 0.0) {
            return true;
        }
        self.delta_s() > self.allowed_s
    }
}

/// The result of gating a current measured report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredOutcome {
    /// Per-bench comparisons for benches present on both sides.
    pub rows: Vec<MeasuredGateRow>,
    /// Benches in the baseline that the current report is missing (a gate failure:
    /// a silently vanished bench must not pass).
    pub missing: Vec<String>,
    /// Benches only in the current report (informational).
    pub added: Vec<String>,
}

impl MeasuredOutcome {
    /// The rows that regressed beyond their allowance.
    pub fn regressions(&self) -> Vec<&MeasuredGateRow> {
        self.rows.iter().filter(|r| r.regressed()).collect()
    }

    /// `true` when no row regressed and no baseline bench is missing.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.regressions().is_empty()
    }

    /// Human-readable failure descriptions (empty when [`passed`](Self::passed)).
    pub fn failure_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .missing
            .iter()
            .map(|name| format!("bench {name:?} is missing from the current report"))
            .collect();
        lines.extend(self.regressions().iter().map(|r| {
            format!(
                "bench {:?} regressed: {:.3} µs -> {:.3} µs ({:+.1}%, allowed +{:.3} µs)",
                r.name,
                r.baseline_s * 1e6,
                r.current_s * 1e6,
                r.delta_pct(),
                r.allowed_s * 1e6,
            )
        }));
        lines
    }
}

/// Gates `current` against `baseline` with the noise-tolerant allowance
/// `max(threshold_pct/100 · baseline, mad_k · baseline MAD)` per bench.
pub fn compare_measured(
    current: &MeasuredReport,
    baseline: &MeasuredReport,
    threshold_pct: f64,
    mad_k: f64,
) -> MeasuredOutcome {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.rows {
        match current.rows.iter().find(|r| r.name == base.name) {
            Some(cur) => rows.push(MeasuredGateRow {
                name: base.name.clone(),
                baseline_s: base.min_s,
                current_s: cur.min_s,
                allowed_s: (threshold_pct / 100.0 * base.min_s).max(mad_k * base.mad_s),
            }),
            None => missing.push(base.name.clone()),
        }
    }
    let added = current
        .rows
        .iter()
        .filter(|r| !baseline.rows.iter().any(|b| b.name == r.name))
        .map(|r| r.name.clone())
        .collect();
    MeasuredOutcome {
        rows,
        missing,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostFingerprint {
        HostFingerprint {
            cpus: 4,
            parlo_threads: 2,
        }
    }

    fn run(medians: &[(&str, f64, f64)]) -> CriterionRun {
        CriterionRun {
            host: host(),
            benches: medians
                .iter()
                .map(|&(name, median_s, mad_s)| CriterionBench {
                    name: name.to_string(),
                    median_s,
                    mad_s,
                })
                .collect(),
        }
    }

    fn report(rows: &[(&str, f64, f64)]) -> MeasuredReport {
        MeasuredReport {
            host: host(),
            runs: 5,
            rows: rows
                .iter()
                .map(|&(name, min_s, mad_s)| MeasuredRow {
                    name: name.to_string(),
                    min_s,
                    mad_s,
                    runs: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(mad(&[7.0]), 0.0);
    }

    #[test]
    fn aggregate_takes_min_of_k_and_records_dispersion() {
        let runs = vec![
            run(&[("g/a", 110e-6, 1e-6)]),
            run(&[("g/a", 100e-6, 2e-6)]),
            run(&[("g/a", 130e-6, 1e-6)]),
        ];
        let agg = aggregate(&runs).unwrap();
        assert_eq!(agg.runs, 3);
        assert_eq!(agg.rows.len(), 1);
        let row = &agg.rows[0];
        assert_eq!(row.min_s, 100e-6, "min of the per-run medians");
        // MAD of medians [110, 100, 130] µs: median 110, deviations [0, 10, 20],
        // MAD 10 µs — larger than the 1 µs median within-run MAD.
        assert!((row.mad_s - 10e-6).abs() < 1e-12);
        assert_eq!(row.runs, 3);
    }

    #[test]
    fn aggregate_of_one_run_falls_back_to_within_run_mad() {
        let agg = aggregate(&[run(&[("g/a", 100e-6, 3e-6)])]).unwrap();
        assert_eq!(agg.rows[0].mad_s, 3e-6, "across-run MAD is 0 for k=1");
    }

    #[test]
    fn aggregate_refuses_mixed_fingerprints() {
        let mut other = run(&[("g/a", 1e-6, 0.0)]);
        other.host.cpus = 48;
        let err = aggregate(&[run(&[("g/a", 1e-6, 0.0)]), other]).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn gate_tolerates_noise_within_recorded_dispersion() {
        // Baseline: 100 µs with 5 µs MAD. Current drifted +4.5%: over the 2%
        // percentage threshold but inside the 6·MAD=30 µs noise allowance.
        let baseline = report(&[("g/a", 100e-6, 5e-6)]);
        let current = report(&[("g/a", 104.5e-6, 5e-6)]);
        let outcome = compare_measured(&current, &baseline, 2.0, 6.0);
        assert!(outcome.passed(), "{:?}", outcome.failure_lines());
    }

    #[test]
    fn gate_catches_a_2x_regression_regardless_of_noise() {
        let baseline = report(&[("g/a", 100e-6, 5e-6)]);
        let current = report(&[("g/a", 200e-6, 5e-6)]);
        let outcome = compare_measured(&current, &baseline, 25.0, 6.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions().len(), 1);
        assert!(outcome.failure_lines()[0].contains("g/a"));
    }

    #[test]
    fn gate_fails_on_missing_bench_and_reports_added_ones() {
        let baseline = report(&[("g/a", 100e-6, 0.0), ("g/b", 50e-6, 0.0)]);
        let current = report(&[("g/a", 100e-6, 0.0), ("g/new", 1e-6, 0.0)]);
        let outcome = compare_measured(&current, &baseline, 25.0, 6.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing, vec!["g/b".to_string()]);
        assert_eq!(outcome.added, vec!["g/new".to_string()]);
    }

    #[test]
    fn degenerate_current_value_always_fails() {
        let baseline = report(&[("g/a", 100e-6, 5e-6)]);
        let mut current = report(&[("g/a", 100e-6, 5e-6)]);
        current.rows[0].min_s = f64::INFINITY;
        let outcome = compare_measured(&current, &baseline, 25.0, 6.0);
        assert!(!outcome.passed());
    }
}
