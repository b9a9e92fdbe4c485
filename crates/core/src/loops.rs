//! Parallel loop entry points of the fine-grain scheduler.
//!
//! All loops are *statically scheduled by default* (one contiguous block per thread,
//! computed independently by each participant from the published range — step 1 of the
//! paper's scheduling recipe happens implicitly and without communication).
//!
//! Every harness is `Copy` and travels by value in the loop's [`Job`], so a worker
//! reads the range, the thread count and the body's address from the release line that
//! released it.  The body is a *block body*, called once with a participant's whole
//! block, and a *handle*: a reference to the caller's closure, the `&dyn` block body of
//! a `LoopRuntime` call, or a per-index entry point's adapter closure
//! `move |r| walk_range(&body, r)`, which holds the per-index handle by value — never
//! a reference to a closure in the caller's frame.  [`static_for`], the loop itself,
//! runs on any team (the Cilk-like pool's too); it is the pool's [`Loops::for_blocks`].

use crate::pool::{FineGrainPool, WorkerInfo};
use crate::range::static_block;
use crate::runtime::Loops;
use crate::stats::PoolStats;
use parlo_exec::{walk_range, Job, Team, TeamSync};
use std::ops::Range;

/// Harness for [`FineGrainPool::broadcast`].
#[derive(Clone, Copy)]
struct BroadcastHarness<B> {
    body: B,
    nthreads: usize,
}

unsafe fn exec_broadcast<B: Fn(WorkerInfo)>(data: *const (), id: usize) {
    // SAFETY: the job carries a `BroadcastHarness<B>`, and `data` points at this
    // participant's copy of it.
    let h = unsafe { &*(data as *const BroadcastHarness<B>) };
    (h.body)(WorkerInfo {
        id,
        num_threads: h.nthreads,
    });
}

/// Harness of [`static_for`].
#[derive(Clone, Copy)]
struct ForHarness<B> {
    body: B,
    start: usize,
    end: usize,
    nthreads: usize,
}

impl<B> ForHarness<B> {
    fn block(&self, id: usize) -> Range<usize> {
        static_block(&(self.start..self.end), self.nthreads, id)
    }
}

unsafe fn exec_for<B: Fn(Range<usize>)>(data: *const (), id: usize) {
    // SAFETY: the job carries a `ForHarness<B>`, and `data` points at this
    // participant's copy of it.
    let h = unsafe { &*(data as *const ForHarness<B>) };
    let block = h.block(id);
    if !block.is_empty() {
        (h.body)(block);
    }
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
        // SAFETY: `body` lives until `run_job` returns, and `exec_broadcast::<&F>`
        // reads exactly the harness type the job carries.
        unsafe {
            self.run_job(Job::new(harness, exec_broadcast::<&F>, None));
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

/// The statically scheduled loop on `team`: each participant calls `body` once with its
/// [`static_block`] of `range` (not at all when the block is empty), and `stats` counts
/// one loop of `phases` barrier phases.  `body` is a handle the job carries by value.
/// An empty range runs no cycle and counts nothing.
///
/// # Safety
/// The caller drives `team`: no other thread runs a loop on it concurrently (one that
/// does panics on the team's in-flight guard).
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
    if range.is_empty() {
        return;
    }
    let harness = ForHarness {
        body,
        start: range.start,
        end: range.end,
        nthreads: team.num_threads(),
    };
    stats.record_loop(phases);
    // SAFETY: the body's referents outlive this call, and `exec_for::<B>` reads
    // exactly the harness type the job carries.
    unsafe { team.run(Job::new(harness, exec_for::<B>, None)) };
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
