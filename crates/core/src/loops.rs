//! Parallel loop entry points of the fine-grain scheduler.
//!
//! All loops are *statically scheduled by default* (one contiguous block per thread,
//! computed independently by each participant from the published range — step 1 of the
//! paper's scheduling recipe happens implicitly and without communication).  A
//! block-cyclic and a dynamically scheduled variant are provided for load-imbalanced
//! bodies; the dynamic variant still uses the half-barrier, so its extra cost relative
//! to the static loop is exactly the per-chunk atomic traffic, mirroring the
//! OpenMP-static vs OpenMP-dynamic comparison of Table 1.

use crate::pool::{FineGrainPool, WorkerInfo};
use crate::range::{static_block, static_chunks, DynamicChunks};
use crate::stats::PoolStats;
use parlo_exec::{walk_range, Job};
use std::ops::Range;

/// Harness for [`FineGrainPool::broadcast`].
struct BroadcastHarness<'a, F> {
    body: &'a F,
    nthreads: usize,
}

unsafe fn exec_broadcast<F: Fn(WorkerInfo) + Sync>(data: *const (), id: usize) {
    // SAFETY: the caller passes a pointer to a live harness (the master's
    // stack frame keeps it alive until the loop's join phase completes).
    let h = unsafe { &*(data as *const BroadcastHarness<'_, F>) };
    (h.body)(WorkerInfo {
        id,
        num_threads: h.nthreads,
    });
}

/// Harness for [`FineGrainPool::parallel_for`] and
/// [`FineGrainPool::parallel_for_blocks`].
struct ForHarness<'a, F> {
    body: &'a F,
    range: Range<usize>,
    nthreads: usize,
}

unsafe fn exec_for<F: Fn(usize) + Sync>(data: *const (), id: usize) {
    // SAFETY: the caller passes a pointer to a live harness (the master's
    // stack frame keeps it alive until the loop's join phase completes).
    let h = unsafe { &*(data as *const ForHarness<'_, F>) };
    walk_range(h.body, static_block(&h.range, h.nthreads, id));
}

unsafe fn exec_for_block<F: Fn(Range<usize>) + Sync>(data: *const (), id: usize) {
    // SAFETY: the caller passes a pointer to a live harness (the master's
    // stack frame keeps it alive until the loop's join phase completes).
    let h = unsafe { &*(data as *const ForHarness<'_, F>) };
    let block = static_block(&h.range, h.nthreads, id);
    if !block.is_empty() {
        (h.body)(block);
    }
}

/// Harness for [`FineGrainPool::parallel_for_chunked`].
struct ChunkedHarness<'a, F> {
    body: &'a F,
    range: Range<usize>,
    nthreads: usize,
    chunk: usize,
}

unsafe fn exec_for_chunked<F: Fn(usize) + Sync>(data: *const (), id: usize) {
    // SAFETY: the caller passes a pointer to a live harness (the master's
    // stack frame keeps it alive until the loop's join phase completes).
    let h = unsafe { &*(data as *const ChunkedHarness<'_, F>) };
    for chunk in static_chunks(&h.range, h.nthreads, id, h.chunk) {
        walk_range(h.body, chunk);
    }
}

/// Harness for [`FineGrainPool::parallel_for_dynamic`].
struct DynamicHarness<'a, F> {
    body: &'a F,
    chunks: DynamicChunks,
    stats: &'a PoolStats,
}

unsafe fn exec_for_dynamic<F: Fn(usize) + Sync>(data: *const (), id: usize) {
    // SAFETY: the caller passes a pointer to a live harness (the master's
    // stack frame keeps it alive until the loop's join phase completes).
    let h = unsafe { &*(data as *const DynamicHarness<'_, F>) };
    // Chunks are counted locally and added once: the dispenser's own RMW is the only
    // contended one a chunk pays.
    let mut dispensed = 0;
    while let Some(chunk) = h.chunks.next_chunk() {
        dispensed += 1;
        walk_range(h.body, chunk);
    }
    h.stats.record_dynamic_chunks(id, dispensed);
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
        // SAFETY: `harness` lives until `run_job` returns, and `exec_broadcast::<F>`
        // reinterprets the pointer as exactly `BroadcastHarness<'_, F>`.
        unsafe {
            self.run_job(Job::new(&harness, exec_broadcast::<F>, None));
        }
    }

    /// Statically scheduled parallel loop over `range`: each participant executes one
    /// contiguous block of iterations.  `body` is called exactly once per index.
    ///
    /// An empty range is a fast-path no-op — no barrier cycle runs and no
    /// instrumentation counter moves, a guarantee every runtime in the workspace
    /// shares so empty loops have identical (zero) `SyncStats` everywhere.
    pub fn parallel_for<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        // SAFETY: `&mut self` is the single-driver guarantee the hook asks for.
        unsafe { self.parallel_for_unsynchronized(range, body) };
    }

    /// Statically scheduled parallel loop that hands each participant its whole
    /// contiguous block at once.  Useful when the body can exploit the block structure
    /// (e.g. vectorised kernels over slices, as the serving layer's block bodies do).
    pub fn parallel_for_blocks<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let harness = ForHarness {
            body: &body,
            range,
            nthreads: self.num_threads(),
        };
        // SAFETY: as in `broadcast`.
        unsafe {
            self.run_job(Job::new(&harness, exec_for_block::<F>, None));
        }
    }

    /// The body of [`FineGrainPool::parallel_for`], through `&self`: without the
    /// `&mut` single-driver exclusivity it is the regression hook for the
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
        if range.is_empty() {
            return;
        }
        let harness = ForHarness {
            body: &body,
            range,
            nthreads: self.num_threads(),
        };
        // SAFETY: as in `broadcast`; single-driver coordination is the caller's.
        unsafe {
            self.run_job(Job::new(&harness, exec_for::<F>, None));
        }
    }

    /// Block-cyclic statically scheduled loop: chunks of `chunk` iterations are dealt to
    /// the participants round-robin before the loop starts.
    pub fn parallel_for_chunked<F>(&mut self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let harness = ChunkedHarness {
            body: &body,
            range,
            nthreads: self.num_threads(),
            chunk: chunk.max(1),
        };
        // SAFETY: as in `broadcast`.
        unsafe {
            self.run_job(Job::new(&harness, exec_for_chunked::<F>, None));
        }
    }

    /// Dynamically scheduled loop: participants repeatedly grab chunks of `chunk`
    /// iterations from a shared dispenser.  The fork/join synchronization is still the
    /// half-barrier; only the work distribution differs from [`FineGrainPool::parallel_for`].
    pub fn parallel_for_dynamic<F>(&mut self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let harness = DynamicHarness {
            body: &body,
            chunks: DynamicChunks::new(range, chunk),
            stats: &self.stats,
        };
        // SAFETY: as in `broadcast`.
        unsafe {
            self.run_job(Job::new(&harness, exec_for_dynamic::<F>, None));
        }
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
    fn parallel_for_blocks_covers_range() {
        let mut p = FineGrainPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_blocks(0..100, |block| {
            for i in block {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_chunked_covers_range() {
        let mut p = FineGrainPool::with_threads(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_chunked(0..1000, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_dynamic_covers_range_and_counts_chunks() {
        let mut p = FineGrainPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_dynamic(0..500, 16, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(p.stats().dynamic_chunks, 500_u64.div_ceil(16));
    }

    #[test]
    fn empty_ranges_are_noops() {
        let mut p = FineGrainPool::with_threads(2);
        p.parallel_for(10..10, |_| panic!("must not run"));
        p.parallel_for_blocks(10..10, |_| panic!("must not run"));
        p.parallel_for_chunked(10..10, 4, |_| panic!("must not run"));
        p.parallel_for_dynamic(10..10, 4, |_| panic!("must not run"));
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
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(p.stats().loops, 200);
    }
}
