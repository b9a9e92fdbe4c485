//! The loop harness every team-based runtime runs, and its static instance.
//!
//! Runtimes differ in one thing only: how a participant gets its pieces.  That part is
//! a [`Deal`] — the static block ([`StaticBlocks`]), the OpenMP worksharing descriptor,
//! the stealing pool's loop descriptor — and the rest is here, once.  [`deal_for`]
//! carries the dealer and the block body by value in the loop's [`Job`], so a worker
//! reads both from the release line that released it, and every participant calls the
//! body once per piece its dealer hands it.  [`deal_reduce`](crate::deal_reduce) is
//! the same harness with the merged reduction.  This file and `reduce.rs` are where
//! the loop layer's type erasure lives: no runtime builds a job of its own.
//!
//! The body is a *handle*: a reference to the caller's closure, the `&dyn` block body
//! of a `LoopRuntime` call, or a per-index entry point's adapter closure
//! `move |r| walk_range(&body, r)`, which holds the per-index handle by value — never a
//! reference to a closure in the caller's frame.  [`static_for`], [`deal_for`] over
//! [`StaticBlocks`], is the statically scheduled loop: one contiguous block per
//! participant, computed by each from the published range without communication
//! (step 1 of the paper's scheduling recipe).  It runs on any team (the Cilk-like
//! pool's too) and is the pool's [`Loops::for_blocks`].

use crate::pool::{FineGrainPool, WorkerInfo};
use crate::range::static_block;
use crate::runtime::Loops;
use crate::stats::PoolStats;
use parlo_barrier::{Payload, EMPTY_PAYLOAD};
use parlo_exec::{walk_range, Job, Team, TeamSync};
use std::ops::Range;

/// How a runtime deals one loop's pieces to its participants: the only per-runtime
/// part of a loop.  A dealer is `Copy` and small, as it travels by value in the loop's
/// job (a runtime whose dealer holds shared state deals through a reference to it).
pub trait Deal: Copy + Sync {
    /// Calls `piece(acc, r)` once for every non-empty piece `r` participant `id` runs,
    /// in the order it runs them, threading `acc` through (a plain loop threads `()`, a
    /// reduction its accumulator), and returns the accumulator.  Over all participants
    /// the pieces are disjoint and cover the loop's range exactly once.
    fn deal<A>(&self, id: usize, acc: A, piece: impl FnMut(A, Range<usize>) -> A) -> A;
}

/// The static dealer: participant `id` runs its [`static_block`] of the range, whole.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StaticBlocks {
    start: usize,
    end: usize,
    nthreads: usize,
}

impl StaticBlocks {
    /// The block partition of `range` over `nthreads` participants.
    pub(crate) fn new(range: Range<usize>, nthreads: usize) -> Self {
        StaticBlocks {
            start: range.start,
            end: range.end,
            nthreads,
        }
    }
}

impl Deal for StaticBlocks {
    #[inline]
    fn deal<A>(&self, id: usize, acc: A, mut piece: impl FnMut(A, Range<usize>) -> A) -> A {
        let block = static_block(&(self.start..self.end), self.nthreads, id);
        if block.is_empty() {
            acc
        } else {
            piece(acc, block)
        }
    }
}

/// Harness for [`FineGrainPool::broadcast`].
#[derive(Clone, Copy)]
struct BroadcastHarness<B> {
    body: B,
    nthreads: usize,
}

unsafe fn exec_broadcast<B: Fn(WorkerInfo)>(data: *const (), id: usize, _: &mut Payload) {
    // SAFETY: the job carries a `BroadcastHarness<B>`, and `data` points at this
    // participant's copy of it.
    let h = unsafe { &*(data as *const BroadcastHarness<B>) };
    (h.body)(WorkerInfo {
        id,
        num_threads: h.nthreads,
    });
}

/// Harness of [`deal_for`].
#[derive(Clone, Copy)]
struct ForHarness<D, B> {
    deal: D,
    body: B,
}

unsafe fn exec_for<D: Deal, B: Fn(Range<usize>)>(data: *const (), id: usize, _: &mut Payload) {
    // SAFETY: the job carries a `ForHarness<D, B>`, and `data` points at this
    // participant's copy of it.
    let h = unsafe { &*(data as *const ForHarness<D, B>) };
    h.deal.deal(id, (), |(), piece| (h.body)(piece));
}

impl FineGrainPool {
    /// Runs `body` once on every participant of the pool (an SPMD region).  This is the
    /// lowest-level entry point; the loop methods are built on the same machinery.
    pub fn broadcast<F>(&mut self, body: F)
    where
        F: Fn(WorkerInfo) + Sync,
    {
        let harness = BroadcastHarness {
            body: &body,
            nthreads: self.num_threads(),
        };
        self.stats.record_loop(self.phases_per_loop());
        let mut unused = EMPTY_PAYLOAD;
        // SAFETY: `&mut self` is the single-driver guarantee, `body` lives until `run`
        // returns, and `exec_broadcast::<&F>` reads exactly the harness type the job
        // carries.
        unsafe {
            let job = Job::new(harness, exec_broadcast::<&F>, None);
            self.team.run(job, &mut unused);
        }
    }

    /// Statically scheduled parallel loop over `range`: [`Loops::for_each`], one
    /// contiguous block per participant.  An empty range is a fast-path no-op — no
    /// barrier cycle runs and no counter moves, as on every runtime in the workspace.
    pub fn parallel_for<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_each(range, body);
    }

    /// [`FineGrainPool::parallel_for`] through `&self`: without the `&mut`
    /// single-driver exclusivity it is the regression hook for the
    /// concurrent-drivers battery, not an API (a second simultaneous caller panics on
    /// the team's in-flight `swap` guard, which is exactly what the battery asserts).
    ///
    /// # Safety
    /// The caller asserts that no other thread drives this pool concurrently, or
    /// accepts the deterministic panic when one does.
    #[doc(hidden)]
    pub unsafe fn parallel_for_unsynchronized<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let (phases, body) = (self.phases_per_loop(), &body);
        let blocks = move |r| walk_range(&body, r);
        // SAFETY: forwarded contract.
        unsafe { static_for(&self.team, &self.stats, phases, range, blocks) };
    }
}

/// The loop harness: each participant of `team` calls `body` once with every piece
/// `deal` hands it, and `stats` counts one loop of `phases` barrier phases.  The
/// dealer and the body are handles the job carries by value.  The caller returns
/// before this for an empty range, which runs no cycle and counts nothing.
///
/// # Safety
/// The caller drives `team`: no other thread runs a loop on it concurrently (one that
/// does panics on the team's in-flight guard).
pub unsafe fn deal_for<S, D, B>(team: &Team<S>, stats: &PoolStats, phases: u64, deal: D, body: B)
where
    S: TeamSync,
    D: Deal,
    B: Fn(Range<usize>) + Sync + Copy,
{
    stats.record_loop(phases);
    let mut unused = EMPTY_PAYLOAD;
    // SAFETY: the handles' referents outlive this call, and `exec_for::<D, B>` reads
    // exactly the harness type the job carries.
    unsafe {
        let job = Job::new(ForHarness { deal, body }, exec_for::<D, B>, None);
        team.run(job, &mut unused);
    }
}

/// The statically scheduled loop on `team`: [`deal_for`] over the static dealer, so each
/// participant calls `body` once with its [`static_block`] of `range` (not at all when
/// the block is empty).  An empty range runs no cycle and counts nothing.
///
/// # Safety
/// As for [`deal_for`].
pub unsafe fn static_for<S, B>(
    team: &Team<S>,
    stats: &PoolStats,
    phases: u64,
    range: Range<usize>,
    body: B,
) where
    S: TeamSync,
    B: Fn(Range<usize>) + Sync + Copy,
{
    if !range.is_empty() {
        let deal = StaticBlocks::new(range, team.num_threads());
        // SAFETY: forwarded contract.
        unsafe { deal_for(team, stats, phases, deal, body) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BarrierKind, Config};
    use parlo_sync::{AtomicUsize, Ordering};

    fn pools() -> Vec<FineGrainPool> {
        BarrierKind::ALL
            .iter()
            .map(|&k| FineGrainPool::new(Config::builder(3).barrier(k).build()))
            .collect()
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        for mut p in pools() {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            p.parallel_for(0..257, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_blocks_covers_range() {
        let mut p = FineGrainPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        p.for_blocks(0..100, |block| {
            for i in block {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_ranges_are_noops() {
        let mut p = FineGrainPool::with_threads(2);
        p.parallel_for(10..10, |_| panic!("must not run"));
        p.for_blocks(10..10, |_| panic!("must not run"));
    }

    #[test]
    fn loops_can_borrow_outside_state_mutably_via_interior_mutability() {
        let mut p = FineGrainPool::with_threads(3);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..=5usize {
            p.parallel_for(0..64, |i| {
                data[i].fetch_add(round, Ordering::Relaxed);
            });
        }
        let expected: usize = (1..=5).sum();
        assert!(data.iter().all(|d| d.load(Ordering::Relaxed) == expected));
    }

    #[test]
    fn many_consecutive_fine_grain_loops() {
        // The fine-grain regime: lots of tiny loops back to back.
        let mut p = FineGrainPool::with_threads(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..200 {
            p.parallel_for(0..8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
        assert_eq!(p.stats().loops, 200);
    }
}
