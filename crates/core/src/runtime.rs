//! The unified loop-runtime abstraction.
//!
//! Every scheduler in the workspace — the paper's fine-grain half-barrier pool, the
//! OpenMP-like team, the Cilk-like work-stealing pool (both paths) and the adaptive
//! selection runtime built on top of them — implements [`LoopRuntime`]: an
//! **object-safe** interface of a `parallel_for` and an `f64`-typed `parallel_reduce`
//! over a `Range<usize>`, plus a [`SyncStats`] snapshot of the synchronization work the
//! runtime has performed.  Workloads, benchmark harnesses and the adaptive router all
//! program against `dyn LoopRuntime`, so a new backend only has to implement this one
//! trait to become reachable from every driver.
//!
//! The trait deliberately mirrors the structure the paper measures: a loop is a range
//! plus a body, a reduction is a loop plus a commutative combine, and the per-loop
//! synchronization cost (barrier phases, combines, dynamic chunks, steals) is
//! observable through [`SyncStats`] — the counters behind the burden model
//! `S = T / (d + T/P)`.

use crate::pool::FineGrainPool;
use crate::{static_for, static_reduce};
use std::ops::Range;

crate::stats_family! {
    /// Cumulative synchronization counters of a loop runtime, in one shape shared by
    /// every backend.  Counters a backend does not have (e.g. steals for a barrier
    /// runtime) stay zero.  Take a snapshot before and after a loop and subtract with
    /// [`SyncStats::since`] to obtain per-loop costs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SyncStats: "sync" {
        /// Parallel loops executed (reductions included).
        pub loops: u64,
        /// Parallel reductions executed.
        pub reductions: u64,
        /// Barrier phases executed (a release phase or a join phase each count as
        /// one, so a half-barrier loop costs 2 and a full-barrier loop 4).
        pub barrier_phases: u64,
        /// Reduction-view combine operations performed.
        pub combine_ops: u64,
        /// Dynamically dispensed chunks (OpenMP `dynamic`/`guided`) or executed leaf
        /// tasks (Cilk-like splitting), i.e. units of dynamic work distribution paid
        /// for.
        pub dynamic_chunks: u64,
        /// Successful steals (work-stealing backends only).
        pub steals: u64,
    }
}

/// An object-safe parallel loop runtime.
///
/// Implementations must execute `body(i)` **exactly once** per index of the range, for
/// every call, regardless of how the iterations are scheduled.  `parallel_reduce` must
/// be given the neutral element of `combine` as `init` (each partition starts its fold
/// from `init`, and the number of partitions is schedule-dependent).
///
/// Loop methods take `&mut self`: a runtime serves one master thread and loops do not
/// nest, which is the structural property the half-barrier exploits.
pub trait LoopRuntime {
    /// Human-readable name of the runtime configuration (used for report labels).
    fn name(&self) -> String;

    /// Number of threads the runtime uses (master included).
    fn threads(&self) -> usize;

    /// Executes `body(i)` exactly once for every `i` in `range`.
    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync));

    /// Folds `fold` over `range` starting from `init` on each partition and merges the
    /// partial results with `combine` (which must be associative and commutative, with
    /// `init` as its neutral element).
    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64;

    /// A snapshot of the runtime's cumulative synchronization counters.
    fn sync_stats(&self) -> SyncStats;

    /// Sums `f(i)` over `range` (provided in terms of [`LoopRuntime::parallel_reduce`]).
    fn parallel_sum(&mut self, range: Range<usize>, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        self.parallel_reduce(range, 0.0, &|acc, i| acc + f(i), &|a, b| a + b)
    }
}

/// The sequential reference runtime: runs every loop inline on the calling thread.
///
/// Its [`SyncStats`] are always zero — sequential execution pays no synchronization,
/// which is exactly the baseline the burden model compares against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sequential;

impl LoopRuntime for Sequential {
    fn name(&self) -> String {
        "sequential".into()
    }

    fn threads(&self) -> usize {
        1
    }

    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        for i in range {
            body(i);
        }
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        _combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let mut acc = init;
        for i in range {
            acc = fold(acc, i);
        }
        acc
    }

    fn sync_stats(&self) -> SyncStats {
        SyncStats::default()
    }
}

impl LoopRuntime for FineGrainPool {
    fn name(&self) -> String {
        format!("fine-grain ({})", self.config().barrier.label())
    }

    fn threads(&self) -> usize {
        self.num_threads()
    }

    // The `&dyn` body and operators go into the loop's harness as they are, so a worker
    // finds them in the line that released it rather than behind a reference into this
    // frame.
    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `&mut self` is the single-driver guarantee.
        unsafe { static_for(&self.team, &self.stats, self.phases_per_loop(), range, body) };
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let (team, stats, phases) = (&self.team, &self.stats, self.phases_per_loop());
        // SAFETY: `&mut self` is the single-driver guarantee.
        unsafe { static_reduce(team, stats, phases, range, move || init, fold, combine) }
    }

    fn sync_stats(&self) -> SyncStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn sequential_runtime_covers_range_and_reduces() {
        let mut seq = Sequential;
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        LoopRuntime::parallel_for(&mut seq, 0..100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let sum = seq.parallel_sum(0..1000, &|i| i as f64);
        assert!((sum - 499_500.0).abs() < 1e-9);
        assert_eq!(seq.sync_stats(), SyncStats::default());
        assert_eq!(seq.threads(), 1);
    }

    #[test]
    fn fine_grain_pool_behind_dyn_loop_runtime() {
        let mut pool = FineGrainPool::with_threads(3);
        let rt: &mut dyn LoopRuntime = &mut pool;
        assert_eq!(rt.threads(), 3);
        assert!(rt.name().contains("fine-grain"));
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(0..257, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let before = rt.sync_stats();
        let sum = rt.parallel_sum(0..1000, &|i| i as f64);
        assert!((sum - 499_500.0).abs() < 1e-9);
        let delta = rt.sync_stats().since(&before);
        assert_eq!(delta.loops, 1);
        assert_eq!(delta.reductions, 1);
        assert_eq!(delta.barrier_phases, 2, "one half-barrier per loop");
        assert_eq!(delta.combine_ops, 2, "P-1 combines");
    }

    #[test]
    fn sync_stats_since_and_merged() {
        let a = SyncStats {
            loops: 3,
            reductions: 1,
            barrier_phases: 6,
            combine_ops: 2,
            dynamic_chunks: 5,
            steals: 4,
        };
        let b = SyncStats {
            loops: 1,
            reductions: 0,
            barrier_phases: 2,
            combine_ops: 1,
            dynamic_chunks: 2,
            steals: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.loops, 2);
        assert_eq!(d.steals, 3);
        let m = a.merged(&b);
        assert_eq!(m.loops, 4);
        assert_eq!(m.barrier_phases, 8);
    }
}
