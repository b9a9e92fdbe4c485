//! Parallel reductions merged into the join half-barrier.
//!
//! This is the second half of the paper's contribution: for loops with reduction
//! variables, the Intel OpenMP runtime executes an *extra* tree barrier (three full
//! barriers per loop), and baseline Cilk creates reducer views lazily on steals and may
//! perform many more than `P − 1` reduce operations.  The fine-grain scheduler instead
//!
//! * keeps one **statically allocated** view per participant — a cache-line-padded
//!   block the team allocates when it is built and every reduction reuses (see
//!   [`parlo_exec::ReduceViews`]), so a reduction allocates nothing,
//! * lets every participant fold its block into its own view, and
//! * merges the views **pairwise inside the join phase of the half-barrier**: when a
//!   join-tree child arrives, its parent immediately folds the child's view into its
//!   own.  Exactly `P − 1` combine operations are performed per reduction, and the loop
//!   still costs only the one half-barrier.
//!
//! [`static_reduce`], the merged reduction itself — the pool's
//! [`Loops::reduce_blocks`] — runs on any team (the Cilk-like pool's too).  It requires
//! the combine operator to be commutative (and associative) because the join tree does
//! not preserve the index order of the blocks;
//! [`FineGrainPool::parallel_reduce_ordered`] keeps non-commutative operators correct
//! by folding the views in thread order at the master after the join phase (still
//! `P − 1` combines, but all executed by the master).

use crate::pool::FineGrainPool;
use crate::range::static_block;
use crate::runtime::Loops;
use crate::stats::PoolStats;
use parlo_exec::{fold_range, Job, ReduceViews, Team, TeamSync};
use std::ops::Range;

/// Harness shared by both reduction flavors.  It travels by value in the loop's job,
/// so `identity`, `fold` and `combine` are handles: references to the caller's
/// closures, or — from a `LoopRuntime` call — `move || init` and the `&dyn` operators
/// themselves.  `fold` is a block fold, called once with a participant's whole block;
/// a per-index reduction passes the adapter `move |acc, r| fold_range(&fold, acc, r)`,
/// which holds its per-index handle by value.
struct ReduceHarness<'a, T, Id, Fold, Comb> {
    identity: Id,
    fold: Fold,
    combine: Comb,
    /// The team's view blocks for this loop: each participant writes its own before it
    /// arrives at the join, and its join parent folds it afterwards.
    views: ReduceViews<'a, T>,
    start: usize,
    end: usize,
    nthreads: usize,
    stats: &'a PoolStats,
}

impl<T, Id: Copy, Fold: Copy, Comb: Copy> Clone for ReduceHarness<'_, T, Id, Fold, Comb> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T, Id: Copy, Fold: Copy, Comb: Copy> Copy for ReduceHarness<'_, T, Id, Fold, Comb> {}

impl<T, Id: Fn() -> T, Fold: Fn(T, Range<usize>) -> T, Comb> ReduceHarness<'_, T, Id, Fold, Comb> {
    /// The `execute` entry point of a job carrying this harness.
    fn execute(&self) -> unsafe fn(*const (), usize) {
        exec_reduce::<T, Id, Fold, Comb>
    }
}

unsafe fn exec_reduce<T, Id, Fold, Comb>(data: *const (), id: usize)
where
    Id: Fn() -> T,
    Fold: Fn(T, Range<usize>) -> T,
{
    // SAFETY: the job carries a `ReduceHarness` of exactly these types, and `data`
    // points at this participant's copy of it.
    let h = unsafe { &*(data as *const ReduceHarness<'_, T, Id, Fold, Comb>) };
    let block = static_block(&(h.start..h.end), h.nthreads, id);
    let acc = if block.is_empty() {
        (h.identity)()
    } else {
        (h.fold)((h.identity)(), block)
    };
    // SAFETY: each participant writes only its own view before arriving at the join.
    unsafe { h.views.put(id, acc) };
}

unsafe fn combine_reduce<T, Id, Fold, Comb>(data: *const (), into: usize, from: usize)
where
    Comb: Fn(T, T) -> T + Copy,
{
    // SAFETY: as in `exec_reduce`.
    let h = unsafe { &*(data as *const ReduceHarness<'_, T, Id, Fold, Comb>) };
    h.stats.record_combine(into);
    // SAFETY: the join phase guarantees `from` has arrived (its view is final and its
    // owner no longer touches it) and that only the parent accesses both views here.
    unsafe { h.views.combine(into, from, h.combine) };
}

impl FineGrainPool {
    /// Parallel reduction that preserves the left-to-right (iteration-order) combination
    /// of the per-thread partial results, so non-commutative (but associative) operators
    /// are reduced exactly as the sequential loop would.
    ///
    /// The loop itself still uses the half-barrier; the `P − 1` combines are performed
    /// by the master after the join phase, in thread order.
    pub fn parallel_reduce_ordered<T, Id, Fold, Comb>(
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
        if range.is_empty() {
            return identity();
        }
        let fold = &fold;
        let blocks = move |acc, r| fold_range(&fold, acc, r);
        // SAFETY: `&mut self` makes this thread the pool's one driver, between loops.
        let harness =
            unsafe { reduce_harness(&self.team, &self.stats, range, &identity, blocks, &combine) };
        self.stats.record_reduction();
        // SAFETY: the closures outlive `run_job`, `exec_reduce` reads exactly the
        // harness type the job carries, and with no combine attached to the job each
        // view is written only by its owner during the loop.
        unsafe {
            self.run_job(Job::new(harness, harness.execute(), None));
        }
        // Fold the per-thread views in thread order: thread t's block precedes thread
        // t+1's block in iteration order, so this reproduces the sequential fold.
        for t in 1..harness.nthreads {
            self.stats.record_combine(0);
            // SAFETY: all workers have arrived; the master is the only remaining
            // accessor.
            unsafe { harness.views.combine(0, t, &combine) };
        }
        // SAFETY: as above.
        unsafe { harness.views.take(0) }.expect("master view present after the fold")
    }

    /// Convenience wrapper: parallel sum of `f(i)` over `range` ([`Loops::reduce`]).
    pub fn parallel_sum<F>(&mut self, range: Range<usize>, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.reduce(range, || 0.0, |acc, i| acc + f(i), |a, b| a + b)
    }
}

/// The harness of one reduction over `team`'s view blocks.
///
/// # Safety
/// The caller drives `team` and no loop is in flight.
unsafe fn reduce_harness<'a, S: TeamSync, T, Id, Fold, Comb>(
    team: &'a Team<S>,
    stats: &'a PoolStats,
    range: Range<usize>,
    identity: Id,
    fold: Fold,
    combine: Comb,
) -> ReduceHarness<'a, T, Id, Fold, Comb> {
    ReduceHarness {
        identity,
        fold,
        combine,
        // SAFETY: forwarded contract; the previous reduction's handle is gone.
        views: unsafe { team.views() },
        start: range.start,
        end: range.end,
        nthreads: team.num_threads(),
        stats,
    }
}

/// The merged reduction on `team`: each participant folds its [`static_block`] of
/// `range` into its own view with one `fold(identity(), block)` call (none for an empty
/// block), and join parents combine their children's views on the way up (`P − 1`
/// combines, `combine` associative and commutative).  `stats` counts
/// them, the reduction and one loop of `phases` phases.  The handles travel by value
/// in the job.  An empty range returns `identity()` without a cycle.
///
/// # Safety
/// The caller drives `team` and no loop is in flight: no other thread runs a loop on
/// it concurrently.
pub unsafe fn static_reduce<S, T, Id, Fold, Comb>(
    team: &Team<S>,
    stats: &PoolStats,
    phases: u64,
    range: Range<usize>,
    identity: Id,
    fold: Fold,
    combine: Comb,
) -> T
where
    S: TeamSync,
    T: Send,
    Id: Fn() -> T + Sync + Copy,
    Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
    Comb: Fn(T, T) -> T + Sync + Copy,
{
    if range.is_empty() {
        return identity();
    }
    // SAFETY: forwarded contract.
    let harness = unsafe { reduce_harness(team, stats, range, identity, fold, combine) };
    stats.record_reduction();
    stats.record_loop(phases);
    // SAFETY: the handles' referents outlive `run`; the entry points read exactly
    // `ReduceHarness<'_, T, Id, Fold, Comb>`; view accesses are serialized by the
    // join-phase protocol (see `combine_reduce`).
    unsafe {
        team.run(Job::new(
            harness,
            exec_reduce::<T, Id, Fold, Comb>,
            Some(combine_reduce::<T, Id, Fold, Comb>),
        ));
    }
    // After the master's join phase its view holds the fully combined result.
    // SAFETY: all workers have arrived; no concurrent access remains.
    unsafe { harness.views.take(0) }.expect("master view present after the join")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BarrierKind, Config};

    fn pool(kind: BarrierKind, threads: usize) -> FineGrainPool {
        FineGrainPool::new(Config::builder(threads).barrier(kind).build())
    }

    #[test]
    fn sum_matches_sequential_for_all_barrier_kinds() {
        let n = 10_001usize;
        let expected: u64 = (0..n as u64).sum();
        for kind in BarrierKind::ALL {
            let mut p = pool(kind, 4);
            let got = p.reduce(0..n, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
            assert_eq!(got, expected, "kind {kind:?}");
        }
    }

    #[test]
    fn reduction_performs_exactly_p_minus_one_combines() {
        for kind in BarrierKind::ALL {
            for threads in [1usize, 2, 3, 4, 6] {
                let mut p = pool(kind, threads);
                let before = p.stats();
                let _ = p.reduce(0..1000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
                let delta = p.stats().since(&before);
                assert_eq!(
                    delta.combine_ops,
                    (threads - 1) as u64,
                    "kind {kind:?} threads {threads}"
                );
                assert_eq!(delta.reductions, 1);
            }
        }
    }

    #[test]
    fn ordered_reduction_preserves_non_commutative_order() {
        // String concatenation is associative but not commutative.
        let input: Vec<String> = (0..40).map(|i| format!("[{i}]")).collect();
        let expected: String = input.concat();
        for threads in [1usize, 2, 3, 5] {
            let mut p = FineGrainPool::with_threads(threads);
            let got = p.parallel_reduce_ordered(
                0..input.len(),
                String::new,
                |mut acc: String, i| {
                    acc.push_str(&input[i]);
                    acc
                },
                |mut a: String, b: String| {
                    a.push_str(&b);
                    a
                },
            );
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn ordered_reduction_also_counts_p_minus_one_combines() {
        let mut p = FineGrainPool::with_threads(4);
        let before = p.stats();
        let _ = p.parallel_reduce_ordered(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(p.stats().since(&before).combine_ops, 3);
    }

    #[test]
    fn empty_range_returns_identity() {
        let mut p = FineGrainPool::with_threads(3);
        let got = p.reduce(5..5, || 42u32, |acc, _| acc + 1, |a, b| a.min(b));
        assert_eq!(got, 42);
    }

    #[test]
    fn sum_helper() {
        let mut p = FineGrainPool::with_threads(4);
        let s = p.parallel_sum(0..1000, |i| i as f64);
        assert!((s - 499_500.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_with_nontrivial_type() {
        // Component-wise vector sum, the shape of the linear-regression workload.
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Sums {
            x: f64,
            y: f64,
            xy: f64,
        }
        let n = 4096usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 + 1.0).collect();
        let mut p = pool(BarrierKind::TreeHalf, 4);
        let got = p.reduce(
            0..n,
            || Sums {
                x: 0.0,
                y: 0.0,
                xy: 0.0,
            },
            |acc, i| Sums {
                x: acc.x + xs[i],
                y: acc.y + ys[i],
                xy: acc.xy + xs[i] * ys[i],
            },
            |a, b| Sums {
                x: a.x + b.x,
                y: a.y + b.y,
                xy: a.xy + b.xy,
            },
        );
        let expected_x: f64 = xs.iter().sum();
        let expected_y: f64 = ys.iter().sum();
        let expected_xy: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((got.x - expected_x).abs() < 1e-6);
        assert!((got.y - expected_y).abs() < 1e-6);
        assert!((got.xy - expected_xy).abs() < 1e-6);
    }

    #[test]
    fn repeated_reductions_reuse_the_pool() {
        let mut p = pool(BarrierKind::CentralizedHalf, 4);
        for round in 1..=50u64 {
            let got = p.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(got, 4950);
            assert_eq!(p.stats().reductions, round);
        }
    }
}
