//! Histogram map-reduce (a second Phoenix++ kernel).
//!
//! Phoenix++'s `histogram` counts the frequency of each 8-bit value in the red, green
//! and blue channels of a bitmap.  The reduction object is a 3 × 256 array of counters,
//! which stresses reductions with a *large* view (copying and combining the view is
//! itself noticeable work), complementing the small-view linear regression.

use parlo_core::{FineGrainPool, Loops};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of bins per channel.
pub const BINS: usize = 256;

/// Histogram of the three colour channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Red-channel counts.
    pub r: Vec<u64>,
    /// Green-channel counts.
    pub g: Vec<u64>,
    /// Blue-channel counts.
    pub b: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            r: vec![0; BINS],
            g: vec![0; BINS],
            b: vec![0; BINS],
        }
    }
}

impl Histogram {
    /// Folds one RGB pixel into the histogram.
    #[inline]
    pub fn accumulate(mut self, pixel: [u8; 3]) -> Self {
        self.r[pixel[0] as usize] += 1;
        self.g[pixel[1] as usize] += 1;
        self.b[pixel[2] as usize] += 1;
        self
    }

    /// Merges two histograms (associative and commutative).
    pub fn merge(mut self, other: Histogram) -> Self {
        for i in 0..BINS {
            self.r[i] += other.r[i];
            self.g[i] += other.g[i];
            self.b[i] += other.b[i];
        }
        self
    }

    /// Total number of pixels accounted for (identical across channels).
    pub fn total(&self) -> u64 {
        self.r.iter().sum()
    }
}

/// Generates a deterministic synthetic "image" of `n` RGB pixels.
pub fn generate_image(n: usize, seed: u64) -> Vec<[u8; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| [rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()])
        .collect()
}

/// Sequential reference.
pub fn sequential(pixels: &[[u8; 3]]) -> Histogram {
    pixels
        .iter()
        .fold(Histogram::default(), |acc, &p| acc.accumulate(p))
}

/// Histogram on any parallel runtime: one reduction loop over the pixels.
pub fn parallel(rt: &mut impl Loops, pixels: &[[u8; 3]]) -> Histogram {
    rt.reduce(
        0..pixels.len(),
        Histogram::default,
        |acc, i| acc.accumulate(pixels[i]),
        Histogram::merge,
    )
}

/// [`parallel`] on the fine-grain scheduler (merged half-barrier reduction).
pub fn with_fine_grain(pool: &mut FineGrainPool, pixels: &[[u8; 3]]) -> Histogram {
    parallel(pool, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_counts_every_pixel() {
        let pixels = generate_image(10_000, 5);
        let h = sequential(&pixels);
        assert_eq!(h.total(), 10_000);
        assert_eq!(h.g.iter().sum::<u64>(), 10_000);
        assert_eq!(h.b.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn parallel_runtimes_match_sequential() {
        let pixels = generate_image(30_000, 9);
        let expected = sequential(&pixels);
        let mut fine = FineGrainPool::with_threads(4);
        assert_eq!(with_fine_grain(&mut fine, &pixels), expected);
        let mut team = parlo_omp::ScheduledTeam::with_threads(3, parlo_omp::Schedule::Static);
        assert_eq!(parallel(&mut team, &pixels), expected);
        let mut cilk = parlo_cilk::CilkPool::with_threads(3);
        assert_eq!(parallel(&mut cilk, &pixels), expected);
    }

    #[test]
    fn merge_is_commutative() {
        let a = sequential(&generate_image(1000, 1));
        let b = sequential(&generate_image(500, 2));
        assert_eq!(a.clone().merge(b.clone()), b.merge(a));
    }

    #[test]
    fn empty_image() {
        let h = sequential(&[]);
        assert_eq!(h.total(), 0);
    }
}
