//! The granularity micro-benchmark used to estimate scheduler burden (Table 1).
//!
//! The paper "use\[s\] a micro-benchmark to measure loop scheduling overhead by varying
//! the amount of work in the parallel loop".  Our micro-benchmark is a loop of `n`
//! iterations, each performing `units` rounds of a small floating-point kernel whose
//! result is fed back into itself so the compiler cannot elide it.  Varying `units`
//! sweeps the loop's sequential duration through the fine-grain regime (a few hundred
//! nanoseconds to a few milliseconds), which is exactly the range where the scheduling
//! burden dominates.

/// One iteration's worth of synthetic work: `units` rounds of a dependent
/// multiply-add chain seeded by the iteration index.
///
/// Returns a value that must be consumed (e.g. summed into an accumulator or passed to
/// `black_box`) so the optimiser keeps the computation.
#[inline]
pub fn work_unit(i: usize, units: usize) -> f64 {
    let mut x = (i as f64).mul_add(1e-9, 1.000_000_1);
    for _ in 0..units {
        // A dependent chain: each step needs the previous result.
        x = x.mul_add(1.000_000_119, 1.000_000_7e-7);
        x = x - x * x * 3.0e-8;
    }
    x
}

/// Sequentially executes the micro-benchmark loop and returns the folded result.
pub fn sequential(n: usize, units: usize) -> f64 {
    let mut acc = 0.0;
    for i in 0..n {
        acc += work_unit(i, units);
    }
    acc
}

/// The parameters of one point of the granularity sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Number of loop iterations.
    pub iterations: usize,
    /// Work units per iteration.
    pub units: usize,
}

/// The default granularity sweep: a fixed iteration count with per-iteration work
/// growing geometrically, so the loop's sequential time spans roughly three orders of
/// magnitude around the scheduler burden.
pub fn default_sweep() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &units in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        points.push(SweepPoint {
            iterations: 512,
            units,
        });
    }
    points
}

/// A reduced sweep for quick runs / CI.
pub fn quick_sweep() -> Vec<SweepPoint> {
    vec![
        SweepPoint {
            iterations: 256,
            units: 4,
        },
        SweepPoint {
            iterations: 256,
            units: 32,
        },
        SweepPoint {
            iterations: 256,
            units: 256,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_unit_depends_on_units() {
        let a = work_unit(3, 1);
        let b = work_unit(3, 100);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b);
    }

    #[test]
    fn work_unit_depends_on_index() {
        assert_ne!(work_unit(1, 16), work_unit(2, 16));
    }

    #[test]
    fn sequential_is_deterministic() {
        assert_eq!(sequential(1000, 8), sequential(1000, 8));
        assert!(sequential(0, 8).abs() < 1e-12);
    }

    #[test]
    fn sweeps_are_nonempty_and_increasing_in_work() {
        let sweep = default_sweep();
        assert!(sweep.len() >= 8);
        assert!(sweep.windows(2).all(|w| w[1].units > w[0].units));
        assert!(!quick_sweep().is_empty());
    }

    #[test]
    fn more_units_takes_longer() {
        // Coarse sanity check of the work generator's monotonicity in wall-clock time.
        let t_small = timing::min_time(|| {
            std::hint::black_box(sequential(2000, 1));
        });
        let t_big = timing::min_time(|| {
            std::hint::black_box(sequential(2000, 64));
        });
        assert!(t_big > t_small, "64 units {t_big:?} vs 1 unit {t_small:?}");
    }

    mod timing {
        use std::time::{Duration, Instant};

        pub fn min_time(mut f: impl FnMut()) -> Duration {
            let mut best = Duration::MAX;
            for _ in 0..5 {
                let s = Instant::now();
                f();
                best = best.min(s.elapsed());
            }
            best
        }
    }
}
