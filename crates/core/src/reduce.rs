//! Parallel reductions merged into the join half-barrier.
//!
//! This is the second half of the paper's contribution: for loops with reduction
//! variables, the Intel OpenMP runtime executes an *extra* tree barrier (three full
//! barriers per loop), and baseline Cilk creates reducer views lazily on steals and may
//! perform many more than `P − 1` reduce operations.  The fine-grain scheduler instead
//!
//! * lets every participant fold the pieces it runs into **one accumulator**, seeded
//!   once with `identity()`, on its own stack,
//! * merges the accumulators **pairwise inside the join phase of the half-barrier**:
//!   when a join-tree child arrives, its parent immediately folds the child's
//!   accumulator into its own, and then arrives itself.  Exactly `P − 1` combine
//!   operations are performed per reduction, and the loop still costs only the one
//!   half-barrier,
//! * and passes each accumulator **in the arrival it signals**: every arrival flag is a
//!   padded line with a payload (`parlo_barrier`'s signal line), a participant arrives
//!   with its folded accumulator as that payload, and its parent reads it from the line
//!   whose `Acquire` load told it the child had arrived.  A reduction crosses cores on
//!   no line the plain loop does not, and allocates nothing.
//!
//! Which way an accumulator travels is decided at compile time by its type: a `T` that
//! [`payload_fits`] — at most 15 words at an alignment of at most 8, which covers
//! every reduction of the workspace (an `f64`, the linear regression's three sums, the
//! histogram's and the k-means clusters' 72 bytes) — rides the payload; a wider one
//! waits in its owner's block of the team's views ([`parlo_exec::ReduceViews`], padded
//! blocks the team allocates once and every such reduction reuses), written before its
//! owner arrives and folded by the parent from there.
//!
//! [`deal_reduce`] is that harness, generic over the runtime's [`Deal`]er like
//! [`deal_for`](crate::deal_for): the fine-grain pool and the Cilk-like pool's hybrid
//! path run it over the static block ([`static_reduce`], the pool's
//! [`Loops::reduce_blocks`]), the OpenMP-like team over its worksharing (its sync
//! shape runs the join as a third full barrier) and the stealing pool over its deque
//! sweep.  It requires the combine operator to be commutative (and associative)
//! because the join tree does not preserve the index order of the pieces;
//! [`FineGrainPool::parallel_reduce_ordered`] runs the same harness with no combine
//! attached — its accumulators always in the view blocks — and keeps non-commutative
//! operators correct by folding the views in thread order at the master after the join
//! phase (still `P − 1` combines, but all executed by the master).

use crate::loops::{Deal, StaticBlocks};
use crate::pool::FineGrainPool;
use crate::runtime::Loops;
use crate::stats::PoolStats;
use parlo_barrier::Payload;
use parlo_exec::{
    fold_range, payload_fits, put_payload, take_payload, Job, ReduceViews, Team, TeamSync,
};
use std::ops::Range;

/// Harness of one reduction.  It travels by value in the loop's job, so the dealer,
/// `identity`, `fold` and `combine` are handles: references to the caller's closures,
/// or — from a `LoopRuntime` call — `move || init` and the `&dyn` operators
/// themselves.  `fold` is a block fold, called once per piece; a per-index reduction
/// passes the adapter `move |acc, r| fold_range(&fold, acc, r)`, which holds its
/// per-index handle by value.
struct ReduceHarness<'a, D, T, Id, Fold, Comb> {
    deal: D,
    identity: Id,
    fold: Fold,
    combine: Comb,
    /// Where each participant's accumulator waits for its join parent.  `None`: in the
    /// payload it arrives with, for every `T` that [`payload_fits`].  `Some`: in its
    /// block of the team's views, written once before it arrives — a wider `T`, and the
    /// ordered reduction, which folds every view at the master after the join.
    views: Option<ReduceViews<'a, T>>,
    stats: &'a PoolStats,
}

impl<D: Copy, T, Id: Copy, Fold: Copy, Comb: Copy> Clone
    for ReduceHarness<'_, D, T, Id, Fold, Comb>
{
    fn clone(&self) -> Self {
        *self
    }
}

impl<D: Copy, T, Id: Copy, Fold: Copy, Comb: Copy> Copy
    for ReduceHarness<'_, D, T, Id, Fold, Comb>
{
}

impl<'a, D, T, Id, Fold, Comb> ReduceHarness<'a, D, T, Id, Fold, Comb>
where
    D: Deal,
    T: Send,
    Id: Fn() -> T + Sync + Copy,
    Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
    Comb: Fn(T, T) -> T + Sync + Copy,
{
    /// Counts one reduction and one loop of `phases` phases, and runs the harness on
    /// `team` — with the accumulators folded in the join phase when `merged` — and
    /// returns the master's accumulator payload (every participant's folded into it if
    /// `merged` and the accumulators travel in the payloads).
    ///
    /// # Safety
    /// As for [`deal_reduce`]; `views`, if any, are `team`'s for this loop.
    unsafe fn run<S: TeamSync>(self, team: &Team<S>, phases: u64, merged: bool) -> Payload {
        self.stats.record_reduction();
        self.stats.record_loop(phases);
        let combine = merged.then_some(combine_reduce::<D, T, Id, Fold, Comb> as _);
        // SAFETY: the handles' referents outlive `run`; the entry points read exactly
        // this harness type; an accumulator is accessed by its owner until it arrives
        // and by its join parent afterwards (see `combine_reduce`), or, with no combine
        // attached, each view is written only by its owner during the loop.
        unsafe { team.run(Job::new(self, exec_reduce::<D, T, Id, Fold, Comb>, combine)) }
    }
}

unsafe fn exec_reduce<D, T, Id, Fold, Comb>(data: *const (), id: usize, acc: &mut Payload)
where
    D: Deal,
    Id: Fn() -> T,
    Fold: Fn(T, Range<usize>) -> T,
{
    // SAFETY: the job carries a `ReduceHarness` of exactly these types, and `data`
    // points at this participant's copy of it.
    let h = unsafe { &*(data as *const ReduceHarness<'_, D, T, Id, Fold, Comb>) };
    let value = h.deal.deal(id, (h.identity)(), &h.fold);
    match h.views {
        // SAFETY: each participant writes only its own view before arriving at the join.
        Some(views) => unsafe { views.put(id, value) },
        // SAFETY: `views` is empty only for a `T` that fits a payload; the participant
        // arrives with `acc`, which holds nothing yet.
        None => unsafe { put_payload(acc, value) },
    }
}

unsafe fn combine_reduce<D, T, Id, Fold, Comb>(
    data: *const (),
    into: usize,
    acc: &mut Payload,
    from: usize,
    child: &Payload,
) where
    Comb: Fn(T, T) -> T + Copy,
{
    // SAFETY: as in `exec_reduce`.
    let h = unsafe { &*(data as *const ReduceHarness<'_, D, T, Id, Fold, Comb>) };
    h.stats.record_combine(into);
    match h.views {
        // SAFETY: the join phase guarantees `from` has arrived (its view is final and
        // its owner no longer touches it) and that only the parent accesses both views
        // here.
        Some(views) => unsafe { views.combine(into, from, h.combine) },
        // SAFETY: `acc` holds `into`'s accumulator and `child` the one `from` arrived
        // with, each put by `exec_reduce` or an earlier fold and read exactly once: the
        // child's is moved out of its arrival line, which its owner does not touch
        // again before the next loop.
        None => unsafe {
            let folded = (h.combine)(take_payload::<T>(acc), take_payload::<T>(child));
            put_payload(acc, folded);
        },
    }
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
        let (team, fold, nthreads) = (&self.team, &fold, self.num_threads());
        let harness = ReduceHarness {
            deal: StaticBlocks::new(range, nthreads),
            identity: &identity,
            fold: move |acc, r| fold_range(&fold, acc, r),
            combine: &combine,
            // SAFETY: `&mut self` makes this thread the pool's one driver, between
            // loops; the previous reduction's handle is gone.
            views: Some(unsafe { team.views() }),
            stats: &self.stats,
        };
        // SAFETY: as above.
        unsafe { harness.run(team, self.phases_per_loop(), false) };
        let views = harness
            .views
            .expect("the ordered reduction keeps every view");
        // Fold the per-thread views in thread order: thread t's block precedes thread
        // t+1's block in iteration order, so this reproduces the sequential fold.
        for t in 1..nthreads {
            self.stats.record_combine(0);
            // SAFETY: all workers have arrived; the master is the only remaining
            // accessor.
            unsafe { views.combine(0, t, &combine) };
        }
        // SAFETY: as above.
        unsafe { views.take(0) }.expect("master view present after the fold")
    }

    /// Convenience wrapper: parallel sum of `f(i)` over `range` ([`Loops::reduce`]).
    pub fn parallel_sum<F>(&mut self, range: Range<usize>, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.reduce(range, || 0.0, |acc, i| acc + f(i), |a, b| a + b)
    }
}

/// The merged reduction harness: each participant of `team` folds every piece `deal`
/// hands it into one accumulator seeded with `identity()`; join parents fold their
/// children's accumulators into their own on the way up (`P − 1` combines, `combine`
/// associative and commutative), so the master's holds the result when its join
/// completes.  A `T` that [`payload_fits`] travels in the arrival payloads — each
/// participant arrives with its folded accumulator, and its parent reads it from the
/// line that signalled the arrival — a wider `T` in the team's view blocks.  `stats`
/// counts the combines, the reduction and one loop of `phases` phases.  The handles
/// travel by value in the job.  The caller returns `identity()` before this for an
/// empty range, which runs no cycle and counts nothing.
///
/// # Safety
/// The caller drives `team` and no loop is in flight: no other thread runs a loop on
/// it concurrently.
pub unsafe fn deal_reduce<S, D, T, Id, Fold, Comb>(
    team: &Team<S>,
    stats: &PoolStats,
    phases: u64,
    deal: D,
    identity: Id,
    fold: Fold,
    combine: Comb,
) -> T
where
    S: TeamSync,
    D: Deal,
    T: Send,
    Id: Fn() -> T + Sync + Copy,
    Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
    Comb: Fn(T, T) -> T + Sync + Copy,
{
    let harness = ReduceHarness {
        deal,
        identity,
        fold,
        combine,
        // SAFETY: forwarded contract; the previous reduction's handle is gone.
        views: (!payload_fits::<T>()).then(|| unsafe { team.views() }),
        stats,
    };
    // SAFETY: forwarded contract.
    let acc = unsafe { harness.run(team, phases, true) };
    // After the master's join phase its accumulator holds the fully combined result.
    match harness.views {
        // SAFETY: the master's `exec_reduce` put a `T` into `acc`, and every fold left
        // one there.
        None => unsafe { take_payload(&acc) },
        // SAFETY: all workers have arrived; no concurrent access remains.
        Some(views) => unsafe { views.take(0) }.expect("master view present after the join"),
    }
}

/// The merged reduction over the static block: [`deal_reduce`] over the static dealer,
/// so each participant folds its [`static_block`](crate::static_block) of `range` with
/// one `fold(identity(), block)` call (none for an empty block).  An empty range
/// returns `identity()` without a cycle.
///
/// # Safety
/// As for [`deal_reduce`].
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
    let deal = StaticBlocks::new(range, team.num_threads());
    // SAFETY: forwarded contract.
    unsafe { deal_reduce(team, stats, phases, deal, identity, fold, combine) }
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
