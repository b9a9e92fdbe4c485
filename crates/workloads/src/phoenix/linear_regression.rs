//! Linear regression map-reduce (the Figure 3 workload).
//!
//! Phoenix++'s `linear_regression` computes, over a large array of (x, y) points, the
//! five sums `Σx, Σy, Σxx, Σyy, Σxy` and derives the regression line from them.  The
//! map side is embarrassingly parallel; the entire cost of parallelisation is the
//! reduction of the per-thread accumulators — which is exactly what the paper's merged
//! half-barrier reduction (and Cilk reducer optimisation) targets.

use parlo_core::{FineGrainPool, Loops};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point of the regression input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

/// The five accumulated sums (plus the count) of the regression.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegressionSums {
    /// Number of points.
    pub n: f64,
    /// Σx.
    pub sx: f64,
    /// Σy.
    pub sy: f64,
    /// Σx².
    pub sxx: f64,
    /// Σy².
    pub syy: f64,
    /// Σx·y.
    pub sxy: f64,
}

impl RegressionSums {
    /// Folds one point into the sums.
    #[inline]
    pub fn accumulate(mut self, p: Point) -> Self {
        self.n += 1.0;
        self.sx += p.x;
        self.sy += p.y;
        self.sxx += p.x * p.x;
        self.syy += p.y * p.y;
        self.sxy += p.x * p.y;
        self
    }

    /// Merges two partial sums (associative and commutative).
    #[inline]
    pub fn merge(mut self, other: RegressionSums) -> Self {
        self.n += other.n;
        self.sx += other.sx;
        self.sy += other.sy;
        self.sxx += other.sxx;
        self.syy += other.syy;
        self.sxy += other.sxy;
        self
    }

    /// The fitted slope and intercept `(b, a)` of `y ≈ a + b·x`.
    pub fn line(&self) -> Option<(f64, f64)> {
        let denom = self.n * self.sxx - self.sx * self.sx;
        if denom.abs() < 1e-300 || self.n < 2.0 {
            return None;
        }
        let slope = (self.n * self.sxy - self.sx * self.sy) / denom;
        let intercept = (self.sy - slope * self.sx) / self.n;
        Some((slope, intercept))
    }
}

/// Generates a deterministic regression input of `n` points scattered around the line
/// `y = slope·x + intercept` with the given noise amplitude.
pub fn generate_points(n: usize, slope: f64, intercept: f64, noise: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y = slope * x + intercept + rng.gen_range(-noise..=noise);
            Point { x, y }
        })
        .collect()
}

/// The size of the Phoenix++ "medium" linear-regression input expressed in points
/// (50 MiB of `(x, y)` pairs of 16-bit values in the original ≈ 26 M points; we default
/// to a round 25 M points, and the benchmark harness scales it down for quick runs).
pub const MEDIUM_POINTS: usize = 25_000_000;

/// Sequential reference: folds all points into the sums.
pub fn sequential(points: &[Point]) -> RegressionSums {
    points
        .iter()
        .fold(RegressionSums::default(), |acc, &p| acc.accumulate(p))
}

/// Runs the regression on any parallel runtime: one reduction loop over the points.
pub fn parallel(rt: &mut impl Loops, points: &[Point]) -> RegressionSums {
    rt.reduce(
        0..points.len(),
        RegressionSums::default,
        |acc, i| acc.accumulate(points[i]),
        RegressionSums::merge,
    )
}

/// [`parallel`] on the fine-grain scheduler (merged half-barrier reduction).
pub fn with_fine_grain(pool: &mut FineGrainPool, points: &[Point]) -> RegressionSums {
    parallel(pool, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn sums_close(a: &RegressionSums, b: &RegressionSums) -> bool {
        close(a.n, b.n, 0.0)
            && close(a.sx, b.sx, 1e-9)
            && close(a.sy, b.sy, 1e-9)
            && close(a.sxx, b.sxx, 1e-9)
            && close(a.syy, b.syy, 1e-9)
            && close(a.sxy, b.sxy, 1e-9)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_points(1000, 2.0, 1.0, 0.5, 7);
        let b = generate_points(1000, 2.0, 1.0, 0.5, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn sequential_recovers_the_line() {
        let points = generate_points(50_000, 3.5, -2.0, 0.01, 11);
        let sums = sequential(&points);
        let (slope, intercept) = sums.line().unwrap();
        assert!(close(slope, 3.5, 1e-3), "slope {slope}");
        assert!(close(intercept, -2.0, 1e-2), "intercept {intercept}");
    }

    #[test]
    fn degenerate_inputs_have_no_line() {
        assert!(RegressionSums::default().line().is_none());
        let same_x: Vec<Point> = (0..10)
            .map(|i| Point {
                x: 1.0,
                y: i as f64,
            })
            .collect();
        assert!(sequential(&same_x).line().is_none());
    }

    #[test]
    fn all_runtimes_agree_with_sequential() {
        let points = generate_points(40_000, 1.25, 4.0, 0.1, 23);
        let expected = sequential(&points);

        let mut fine = FineGrainPool::with_threads(4);
        assert!(sums_close(&with_fine_grain(&mut fine, &points), &expected));
        let mut team = parlo_omp::ScheduledTeam::with_threads(3, parlo_omp::Schedule::Static);
        assert!(sums_close(&parallel(&mut team, &points), &expected));
        let mut hybrid = parlo_cilk::CilkFineGrain::with_threads(3);
        assert!(sums_close(&parallel(&mut hybrid.pool, &points), &expected));
        assert!(sums_close(&parallel(&mut hybrid, &points), &expected));
    }
}
