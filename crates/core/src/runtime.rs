//! The two faces of a loop runtime: the generic [`Loops`], which every runtime
//! implements, and the object-safe [`LoopRuntime`], its `dyn` face.
//!
//! Every scheduler in the workspace — the [`Sequential`] reference, the paper's
//! fine-grain half-barrier pool, the OpenMP-like team, the Cilk-like work-stealing pool
//! (both paths) and the stealing pool — implements [`Loops`]: a block loop and a block
//! reduction over any accumulator type, each with the runtime's own loop, the per-index
//! [`Loops::for_each`] / [`Loops::reduce`] built on them once, and the runtime's name,
//! thread count and [`SyncStats`].  A generic workload (the Phoenix kernels) is written
//! once against it and runs on all of them.
//!
//! One blanket `impl<R: Loops> LoopRuntime for R`, here, makes each of them a
//! [`LoopRuntime`]: an **object-safe** interface of a `parallel_for` and an
//! `f64`-typed `parallel_reduce` over a `Range<usize>`, each in a per-index and a block
//! form, plus the [`SyncStats`] snapshot.  The `f64` workloads, the benchmark harnesses
//! and the adaptive router program against `dyn LoopRuntime`, so a new pool or dealer is
//! written once, as a `Loops` impl, and is reachable from every driver.  The one
//! hand-written `LoopRuntime` impl is `parlo_adaptive::AdaptivePool`'s: it picks its
//! backend at run time, behind `dyn`, and does not implement `Loops`.
//!
//! The traits deliberately mirror the structure the paper measures: a loop is a range
//! plus a body, a reduction is a loop plus a commutative combine, and the per-loop
//! synchronization cost (barrier phases, combines, dynamic chunks, steals) is
//! observable through [`SyncStats`] — the counters behind the burden model
//! `S = T / (d + T/P)`.
//!
//! A runtime dispatches *contiguous pieces*: the static block, the OpenMP chunk, the
//! Cilk leaf, the stolen or lent piece.  The block methods hand each piece to the body
//! whole, one call per piece, as the paper's OpenMP and Cilk loops run the iteration
//! loop inside the outlined body; the per-index methods are the same loop with
//! `parlo_exec::walk_range` / `fold_range` as the block body, so a `dyn` per-index body
//! pays one `dyn` call per index on every runtime, `Sequential` included.
//!
//! Every team-based runtime but the Cilk baseline implements its block methods with
//! the same two harnesses, [`deal_for`](crate::deal_for) and
//! [`deal_reduce`](crate::deal_reduce) (`loops.rs` and `reduce.rs`), and supplies only
//! a [`Deal`](crate::Deal): the dealer calls `piece` once per non-empty piece a
//! participant runs, in the order it runs them, threading one accumulator through
//! them, and the pieces of all participants cover the range exactly once.

use crate::pool::FineGrainPool;
use crate::{static_for, static_reduce};
use parlo_exec::{fold_range, walk_range};
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

/// An object-safe parallel loop runtime: the `dyn` face of [`Loops`].  Every `Loops`
/// runtime implements it through the one blanket impl below; a new runtime implements
/// `Loops`, not this.
///
/// Implementations must execute `body(i)` **exactly once** per index of the range, for
/// every call, regardless of how the iterations are scheduled.  The block methods call
/// their body only with non-empty pieces that are disjoint and cover the range exactly
/// once.  A reduction must be given the neutral element of `combine` as `init` (each
/// participant starts its fold from `init`, and the number of participants is
/// schedule-dependent); a participant threads one accumulator through its pieces in
/// the order it runs them, so `parallel_reduce_blocks` with a fold that walks its piece
/// returns `parallel_reduce`'s result bit for bit.
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

    /// Executes `body(piece)` once for every piece the runtime deals: non-empty,
    /// disjoint contiguous ranges that cover `range` exactly once.
    fn parallel_for_blocks(&mut self, range: Range<usize>, body: &(dyn Fn(Range<usize>) + Sync));

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

    /// [`LoopRuntime::parallel_reduce`] with a block fold: `fold(acc, piece)` folds a
    /// whole piece (non-empty, as in [`LoopRuntime::parallel_for_blocks`]) into the
    /// accumulator of the participant that runs it.
    fn parallel_reduce_blocks(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, Range<usize>) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64;

    /// A snapshot of the runtime's cumulative synchronization counters.
    fn sync_stats(&self) -> SyncStats;

    /// Sums `f(i)` over `range`: each participant folds its pieces from `0.0` in order,
    /// `acc + f(i)`, and the partial sums are added up — bit for bit the result of
    /// `parallel_reduce(range, 0.0, &|acc, i| acc + f(i), &|a, b| a + b)`, which is
    /// this default.  Every [`Loops`] runtime overrides it through the blanket impl so
    /// that the job carries `f` itself and each index costs one `dyn` call, not two.
    fn parallel_sum(&mut self, range: Range<usize>, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        self.parallel_reduce(range, 0.0, &|acc, i| acc + f(i), &|a, b| a + b)
    }
}

/// The sequential reference runtime: runs every loop inline on the calling thread, as
/// one piece.
///
/// Its [`SyncStats`] are always zero — sequential execution pays no synchronization,
/// which is exactly the baseline the burden model compares against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sequential;

impl Loops for Sequential {
    fn name(&self) -> String {
        "sequential".into()
    }

    fn threads(&self) -> usize {
        1
    }

    fn sync_stats(&self) -> SyncStats {
        SyncStats::default()
    }

    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy,
    {
        if !range.is_empty() {
            body(range);
        }
    }

    fn reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        _combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Copy,
        Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
        Comb: Fn(T, T) -> T + Sync + Copy,
    {
        if range.is_empty() {
            identity()
        } else {
            fold(identity(), range)
        }
    }
}

/// The generic loop vocabulary: one block loop and one block reduction, which every
/// parallel runtime of the workspace implements with the loop it already has, and the
/// per-index loop and reduction built on them once, here.  A loop written against
/// `Loops` runs on all of them — the comparison the paper makes.
///
/// The operators are *handles*, `Sync + Copy`: references to closures, the `&dyn`
/// operators of a [`LoopRuntime`] call, or adapters holding either by value, so a
/// runtime that carries its job by value copies the handle, never the closure.  The
/// contract is [`LoopRuntime`]'s: pieces are non-empty, disjoint and cover the range
/// exactly once; `identity()` is the neutral element of an associative and commutative
/// `combine`; a participant threads one accumulator through its pieces in the order it
/// runs them; an empty range runs nothing, counts nothing and reduces to `identity()`.
/// Every `Loops` runtime is a [`LoopRuntime`] through the one blanket impl below, so
/// `name`, `threads` and `sync_stats` are found twice on a concrete runtime when both
/// traits are in scope (as in `parlo::prelude`): name the trait there,
/// `Loops::sync_stats(&pool)`.  Through `dyn LoopRuntime` there is one of each.
pub trait Loops {
    /// Human-readable name of the runtime configuration (used for report labels).
    fn name(&self) -> String;

    /// Number of threads the runtime uses (master included).
    fn threads(&self) -> usize;

    /// A snapshot of the runtime's cumulative synchronization counters.
    fn sync_stats(&self) -> SyncStats;

    /// Runs `body(piece)` once for every piece the runtime deals over `range`.
    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy;

    /// Folds every piece a participant runs into its accumulator, seeded with
    /// `identity()`, and merges the accumulators with `combine`.
    fn reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Copy,
        Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
        Comb: Fn(T, T) -> T + Sync + Copy;

    /// Runs `body(i)` exactly once for every `i` in `range`: the block loop over the
    /// adapter `move |r| walk_range(&body, r)`.
    fn for_each<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let body = &body;
        self.for_blocks(range, move |r| walk_range(&body, r));
    }

    /// Folds `fold(acc, i)` over `range` into per-participant accumulators seeded with
    /// `identity()` and merges them with `combine`: the block reduction over the
    /// adapter `move |acc, r| fold_range(&fold, acc, r)`.
    fn reduce<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let fold = &fold;
        let blocks = move |acc, r| fold_range(&fold, acc, r);
        self.reduce_blocks(range, &identity, blocks, &combine)
    }
}

/// Every [`Loops`] runtime is a [`LoopRuntime`]: the `&dyn` body and operators go into
/// the runtime's generic block methods as they are — a per-index one inside its adapter
/// closure, by value — so a worker finds them in the line that released it rather than
/// behind a reference into this frame (which is why these bodies do not go through
/// [`Loops::for_each`] / [`Loops::reduce`]).  `parallel_sum` is the same: its adapter
/// holds the summand's fat pointer and builds the per-index fold in the participant's
/// own frame, so a worker reads nothing of the caller's but `f`'s environment, and each
/// index pays the one `dyn` call to `f` (the trait default pays a second, to a fold
/// closure it builds in its own frame, which a worker must also read).
impl<R: Loops> LoopRuntime for R {
    fn name(&self) -> String {
        Loops::name(self)
    }

    fn threads(&self) -> usize {
        Loops::threads(self)
    }

    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        self.for_blocks(range, move |r| walk_range(&body, r));
    }

    fn parallel_for_blocks(&mut self, range: Range<usize>, body: &(dyn Fn(Range<usize>) + Sync)) {
        self.for_blocks(range, body);
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let fold = move |acc, r| fold_range(&fold, acc, r);
        self.reduce_blocks(range, move || init, fold, combine)
    }

    fn parallel_reduce_blocks(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, Range<usize>) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.reduce_blocks(range, move || init, fold, combine)
    }

    fn sync_stats(&self) -> SyncStats {
        Loops::sync_stats(self)
    }

    fn parallel_sum(&mut self, range: Range<usize>, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        let fold = move |acc, r| fold_range(&move |a, i| a + f(i), acc, r);
        self.reduce_blocks(range, || 0.0, fold, |a, b| a + b)
    }
}

/// One [`static_block`](crate::static_block) per participant under one half-barrier,
/// and the reduction merged into its join phase.
impl Loops for FineGrainPool {
    fn name(&self) -> String {
        format!("fine-grain ({})", self.config().barrier.label())
    }

    fn threads(&self) -> usize {
        self.num_threads()
    }

    fn sync_stats(&self) -> SyncStats {
        self.stats()
    }

    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy,
    {
        // SAFETY: `&mut self` is the single-driver guarantee.
        unsafe { static_for(&self.team, &self.stats, self.phases_per_loop(), range, body) };
    }

    fn reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Copy,
        Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
        Comb: Fn(T, T) -> T + Sync + Copy,
    {
        let (team, stats, phases) = (&self.team, &self.stats, self.phases_per_loop());
        // SAFETY: `&mut self` makes this thread the pool's one driver, between loops.
        unsafe { static_reduce(team, stats, phases, range, identity, fold, combine) }
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
        assert_eq!(Loops::sync_stats(&seq), SyncStats::default());
        assert_eq!(Loops::threads(&seq), 1);
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
