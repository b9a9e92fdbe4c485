//! K-means clustering map-reduce (a third Phoenix++ kernel).
//!
//! Each iteration is a map over the points (assign each point to its nearest centroid,
//! accumulating per-cluster coordinate sums and counts) followed by a reduction of the
//! per-thread accumulators and a small centroid update.  Iterating the kernel produces
//! a *sequence* of reduction loops — the same structural pattern as MPDATA but with a
//! reduction-heavy body, which is why Phoenix++ includes it and why it rounds out the
//! map-reduce workload set here.

use parlo_core::{FineGrainPool, Loops};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

/// Per-iteration accumulator: per-cluster coordinate sums and member counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSums {
    /// Σx per cluster.
    pub sx: Vec<f64>,
    /// Σy per cluster.
    pub sy: Vec<f64>,
    /// Member count per cluster.
    pub count: Vec<u64>,
}

impl ClusterSums {
    /// An empty accumulator for `k` clusters.
    pub fn new(k: usize) -> Self {
        ClusterSums {
            sx: vec![0.0; k],
            sy: vec![0.0; k],
            count: vec![0; k],
        }
    }

    /// Folds one point assigned to cluster `c`.
    #[inline]
    pub fn accumulate(mut self, c: usize, p: Point2) -> Self {
        self.sx[c] += p.x;
        self.sy[c] += p.y;
        self.count[c] += 1;
        self
    }

    /// Merges two accumulators (associative and commutative).
    pub fn merge(mut self, other: ClusterSums) -> Self {
        for c in 0..self.sx.len() {
            self.sx[c] += other.sx[c];
            self.sy[c] += other.sy[c];
            self.count[c] += other.count[c];
        }
        self
    }
}

/// Generates `n` points around `k` well-separated cluster centres.
pub fn generate_points(n: usize, k: usize, seed: u64) -> (Vec<Point2>, Vec<Point2>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Point2> = (0..k)
        .map(|c| Point2 {
            x: (c as f64) * 25.0,
            y: ((c * 7) % k.max(1)) as f64 * 25.0,
        })
        .collect();
    let points = (0..n)
        .map(|i| {
            let c = centres[i % k];
            Point2 {
                x: c.x + rng.gen_range(-3.0..3.0),
                y: c.y + rng.gen_range(-3.0..3.0),
            }
        })
        .collect();
    (points, centres)
}

fn nearest(centroids: &[Point2], p: Point2) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centre) in centroids.iter().enumerate() {
        let d = (p.x - centre.x).powi(2) + (p.y - centre.y).powi(2);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn update_centroids(sums: &ClusterSums, centroids: &mut [Point2]) -> f64 {
    let mut movement = 0.0;
    for (c, centroid) in centroids.iter_mut().enumerate() {
        if sums.count[c] > 0 {
            let nx = sums.sx[c] / sums.count[c] as f64;
            let ny = sums.sy[c] / sums.count[c] as f64;
            movement += (nx - centroid.x).abs() + (ny - centroid.y).abs();
            *centroid = Point2 { x: nx, y: ny };
        }
    }
    movement
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Final centroids.
    pub centroids: Vec<Point2>,
    /// Iterations executed.
    pub iterations: usize,
    /// Total centroid movement in the final iteration.
    pub final_movement: f64,
}

/// Sequential reference k-means.
pub fn sequential(points: &[Point2], mut centroids: Vec<Point2>, iters: usize) -> KmeansResult {
    let k = centroids.len();
    let mut movement = 0.0;
    for _ in 0..iters {
        let sums = points.iter().fold(ClusterSums::new(k), |acc, &p| {
            let c = nearest(&centroids, p);
            acc.accumulate(c, p)
        });
        movement = update_centroids(&sums, &mut centroids);
    }
    KmeansResult {
        centroids,
        iterations: iters,
        final_movement: movement,
    }
}

/// K-means on any parallel runtime: one reduction loop per iteration.
pub fn parallel(
    rt: &mut impl Loops,
    points: &[Point2],
    mut centroids: Vec<Point2>,
    iters: usize,
) -> KmeansResult {
    let k = centroids.len();
    let mut movement = 0.0;
    for _ in 0..iters {
        let snapshot = centroids.clone();
        let sums = rt.reduce(
            0..points.len(),
            || ClusterSums::new(k),
            |acc, i| {
                let c = nearest(&snapshot, points[i]);
                acc.accumulate(c, points[i])
            },
            ClusterSums::merge,
        );
        movement = update_centroids(&sums, &mut centroids);
    }
    KmeansResult {
        centroids,
        iterations: iters,
        final_movement: movement,
    }
}

/// [`parallel`] on the fine-grain scheduler: one merged-reduction loop per iteration.
pub fn with_fine_grain(
    pool: &mut FineGrainPool,
    points: &[Point2],
    centroids: Vec<Point2>,
    iters: usize,
) -> KmeansResult {
    parallel(pool, points, centroids, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let (points, centres) = generate_points(1000, 4, 3);
        assert_eq!(points.len(), 1000);
        assert_eq!(centres.len(), 4);
    }

    #[test]
    fn sequential_converges_to_cluster_centres() {
        let (points, centres) = generate_points(4000, 4, 17);
        // Start centroids perturbed from the truth.
        let start: Vec<Point2> = centres
            .iter()
            .map(|c| Point2 {
                x: c.x + 1.5,
                y: c.y - 1.5,
            })
            .collect();
        let result = sequential(&points, start, 10);
        assert_eq!(result.iterations, 10);
        assert!(
            result.final_movement < 1e-6,
            "movement {}",
            result.final_movement
        );
        for (got, truth) in result.centroids.iter().zip(&centres) {
            assert!((got.x - truth.x).abs() < 1.0);
            assert!((got.y - truth.y).abs() < 1.0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (points, centres) = generate_points(5000, 3, 29);
        let start: Vec<Point2> = centres
            .iter()
            .map(|c| Point2 {
                x: c.x + 2.0,
                y: c.y + 2.0,
            })
            .collect();
        let expected = sequential(&points, start.clone(), 5);

        let mut pool = FineGrainPool::with_threads(4);
        let fine = with_fine_grain(&mut pool, &points, start.clone(), 5);
        let mut team = parlo_omp::ScheduledTeam::with_threads(2, parlo_omp::Schedule::Static);
        let omp = parallel(&mut team, &points, start, 5);
        for got in [fine, omp] {
            for (a, b) in got.centroids.iter().zip(&expected.centroids) {
                assert!((a.x - b.x).abs() < 1e-9);
                assert!((a.y - b.y).abs() < 1e-9);
            }
        }
    }
}
