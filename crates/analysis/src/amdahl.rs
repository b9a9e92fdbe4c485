//! Amdahl's-law burden estimation.
//!
//! The paper estimates the *scheduling burden* `d` of each runtime by measuring the
//! speedup `S` of a micro-benchmark loop for varying amounts of work `T` and fitting
//! the model
//!
//! ```text
//!             T
//!   S(T) = --------          (P = 48 threads in the paper)
//!          d + T/P
//! ```
//!
//! to the measurements with least squares (the burden `d` is the only free parameter).
//! This module implements the model, the per-measurement burden estimate, and the
//! least-squares fit (by golden-section search on the sum of squared speedup errors,
//! which is smooth and unimodal in `d`).

/// One micro-benchmark measurement: sequential execution time `t_seq` (seconds) of the
/// loop body and the speedup observed when the loop is run by the scheduler under test
/// on `P` threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurdenMeasurement {
    /// Sequential execution time of the loop, in seconds.
    pub t_seq: f64,
    /// Observed speedup of the parallel loop over the sequential loop.
    pub speedup: f64,
}

/// The Amdahl-style model of the paper: `S(T) = T / (d + T/P)`.
#[inline]
pub fn model_speedup(t_seq: f64, burden: f64, threads: usize) -> f64 {
    let p = threads.max(1) as f64;
    t_seq / (burden + t_seq / p)
}

/// Inverts the model for a single measurement: the burden that would explain this
/// (T, S) pair exactly, `d = T/S − T/P`.  Negative values (super-linear artefacts /
/// measurement noise) are clamped to zero.
#[inline]
pub fn burden_of_measurement(m: &BurdenMeasurement, threads: usize) -> f64 {
    let p = threads.max(1) as f64;
    if m.speedup <= 0.0 {
        return 0.0;
    }
    (m.t_seq / m.speedup - m.t_seq / p).max(0.0)
}

/// Sum of squared speedup errors of the model with burden `d` against the measurements.
pub fn sse(measurements: &[BurdenMeasurement], burden: f64, threads: usize) -> f64 {
    measurements
        .iter()
        .map(|m| {
            let s = model_speedup(m.t_seq, burden, threads);
            (s - m.speedup) * (s - m.speedup)
        })
        .sum()
}

/// Result of a burden fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurdenFit {
    /// The fitted burden `d`, in seconds.
    pub burden: f64,
    /// The residual sum of squared speedup errors at the fitted burden.
    pub residual: f64,
    /// The number of threads the fit assumed.
    pub threads: usize,
}

impl BurdenFit {
    /// The fitted burden expressed in microseconds (the unit Table 1 uses).
    pub fn burden_us(&self) -> f64 {
        self.burden * 1e6
    }
}

/// Least-squares fit of the burden `d ≥ 0` to a set of measurements, using
/// golden-section search over `[0, d_max]` where `d_max` is derived from the
/// per-measurement estimates.
///
/// Returns `None` if no measurement is usable (empty input or all non-positive
/// speedups).
pub fn fit_burden(measurements: &[BurdenMeasurement], threads: usize) -> Option<BurdenFit> {
    let usable: Vec<BurdenMeasurement> = measurements
        .iter()
        .copied()
        .filter(|m| m.speedup > 0.0 && m.t_seq > 0.0)
        .collect();
    if usable.is_empty() {
        return None;
    }
    let d_hint = usable
        .iter()
        .map(|m| burden_of_measurement(m, threads))
        .fold(0.0f64, f64::max);
    let mut lo = 0.0f64;
    let mut hi = (d_hint * 4.0).max(1e-9);
    // Golden-section search: SSE(d) is unimodal in d on [0, hi] for this model.
    const PHI: f64 = 0.618_033_988_749_894_8;
    let mut c = hi - PHI * (hi - lo);
    let mut d = lo + PHI * (hi - lo);
    let mut f_c = sse(&usable, c, threads);
    let mut f_d = sse(&usable, d, threads);
    for _ in 0..200 {
        if f_c < f_d {
            hi = d;
            d = c;
            f_d = f_c;
            c = hi - PHI * (hi - lo);
            f_c = sse(&usable, c, threads);
        } else {
            lo = c;
            c = d;
            f_c = f_d;
            d = lo + PHI * (hi - lo);
            f_d = sse(&usable, d, threads);
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    let burden = 0.5 * (lo + hi);
    Some(BurdenFit {
        burden,
        residual: sse(&usable, burden, threads),
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_measurements(burden: f64, threads: usize) -> Vec<BurdenMeasurement> {
        // Work sizes spanning the fine-grain regime: 1 µs .. 10 ms.
        let mut out = Vec::new();
        let mut t = 1e-6;
        while t < 1e-2 {
            out.push(BurdenMeasurement {
                t_seq: t,
                speedup: model_speedup(t, burden, threads),
            });
            t *= 1.8;
        }
        out
    }

    #[test]
    fn model_limits() {
        // With zero burden the speedup is exactly P.
        assert!((model_speedup(1e-3, 0.0, 48) - 48.0).abs() < 1e-9);
        // With huge burden the speedup collapses towards zero.
        assert!(model_speedup(1e-6, 1.0, 48) < 1e-3);
        // Large work amortises the burden: speedup approaches P.
        assert!(model_speedup(10.0, 1e-6, 48) > 47.9);
    }

    #[test]
    fn per_measurement_burden_inverts_model() {
        for &d in &[1e-6, 5.67e-6, 68.8e-6] {
            let m = BurdenMeasurement {
                t_seq: 1e-4,
                speedup: model_speedup(1e-4, d, 48),
            };
            assert!((burden_of_measurement(&m, 48) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_recovers_known_burden_exactly() {
        for &d in &[5.67e-6, 8.12e-6, 31.94e-6, 68.80e-6] {
            let ms = synthetic_measurements(d, 48);
            let fit = fit_burden(&ms, 48).expect("fit");
            assert!(
                (fit.burden - d).abs() / d < 1e-3,
                "expected {d}, fitted {}",
                fit.burden
            );
            assert!(fit.residual < 1e-6);
        }
    }

    #[test]
    fn fit_recovers_burden_under_noise() {
        let d = 10e-6;
        let mut ms = synthetic_measurements(d, 48);
        // Deterministic ±3% multiplicative "noise".
        for (i, m) in ms.iter_mut().enumerate() {
            let eps = if i % 2 == 0 { 1.03 } else { 0.97 };
            m.speedup *= eps;
        }
        let fit = fit_burden(&ms, 48).expect("fit");
        assert!((fit.burden - d).abs() / d < 0.25, "fitted {}", fit.burden);
    }

    #[test]
    fn fit_rejects_empty_and_degenerate_input() {
        assert!(fit_burden(&[], 48).is_none());
        assert!(fit_burden(
            &[BurdenMeasurement {
                t_seq: 1e-3,
                speedup: 0.0
            }],
            48
        )
        .is_none());
    }

    #[test]
    fn burden_us_converts() {
        let fit = BurdenFit {
            burden: 5.67e-6,
            residual: 0.0,
            threads: 48,
        };
        assert!((fit.burden_us() - 5.67).abs() < 1e-9);
    }
}
