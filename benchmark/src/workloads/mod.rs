//! The four workloads.  Each builds everything it needs — executor, pools, problem —
//! in `setup`, so that set-up time covers all of it, and ends set-up with a fixed
//! number of warm-up ops.

pub mod irregular;
pub mod micro_sweep;
pub mod mpdata;
pub mod serve;

use parlo::affinity::PlacementConfig;
use parlo::exec::Executor;
use std::sync::Arc;

/// What every set-up starts from.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Threads in total, calling thread included.
    pub threads: usize,
    /// Seeds the generated inputs.
    pub seed: u64,
    /// Test-only: corrupt the reference values so that every check fails.
    pub corrupt: bool,
}

impl Ctx {
    /// Detected machine, compact pinning, socket-composed barriers: the library default.
    pub fn placement(&self) -> PlacementConfig {
        PlacementConfig::default()
    }

    /// The one executor every pool of a run leases its `threads - 1` workers from.
    pub fn executor(&self) -> Arc<Executor> {
        Executor::for_placement(&self.placement())
    }
}

/// SplitMix64: turns `--seed` into the salts and shuffles of the generated inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Sums agree to a relative 1e-9 (the parallel fold associates differently).
pub fn close(a: f64, b: f64) -> bool {
    a.is_finite() && (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}
