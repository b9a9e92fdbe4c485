//! Reductions on the Cilk-like pool.
//!
//! Two implementations live here, matching the comparison in §2 of the paper:
//!
//! * **Baseline Cilk reducers** ([`CilkPool::cilk_reduce`]): every worker lazily owns a
//!   *view* of the reduction variable.  Whenever a worker obtains work by **stealing**,
//!   it closes out its current view (the view is handed to a shared list and will need
//!   its own reduce operation later) and starts a fresh one, mimicking the
//!   view-per-steal behaviour of Cilk hyperobjects.  The number of reduce operations is
//!   therefore `(#workers that touched the loop) + (#steals that closed a view) − 1`,
//!   which "may be significantly higher" than `P − 1` and grows with the amount of
//!   stealing.
//! * **Fine-grain reducers** ([`CilkPool::fine_grain_reduce`]): the paper's optimised
//!   implementation — one statically allocated view per participant (the team's padded
//!   view blocks, allocated when the pool is built and reused by every reduction),
//!   reduced pairwise in the join phase of the half-barrier, exactly `P − 1` reduce
//!   operations.
//!
//! Both keep their per-worker views in the team's blocks.  A baseline view is stored as
//! an `Option`: closing it out on a steal leaves `None` behind, not a view that would
//! be folded twice.

use crate::scheduler::{CilkPool, CilkStats, LoopDescriptor};
use parking_lot::Mutex;
use parlo_core::static_block;
use parlo_exec::{fold_range, Job, ReduceViews};
use std::ops::Range;

// ----------------------------------------------------------------------------------
// Baseline Cilk reducers
// ----------------------------------------------------------------------------------

/// Harness of a baseline reduction: on the master's stack, owning the identity and the
/// fold (a `LoopRuntime` call's `move || init` and `&dyn` fold are held as they are).
struct CilkReduceHarness<'a, T, Id, Fold> {
    identity: Id,
    fold: Fold,
    /// The per-worker *current* views (lazily created on first fold; `None` once closed
    /// out by a steal).
    views: ReduceViews<'a, Option<T>>,
    /// Views closed out when their owner stole work; each will cost a reduce operation.
    retired: Mutex<Vec<T>>,
}

unsafe fn cilk_reduce_range<T, Id, Fold>(data: *const (), worker: usize, lo: usize, hi: usize)
where
    Id: Fn() -> T + Sync,
    Fold: Fn(T, usize) -> T + Sync,
    T: Send,
{
    // SAFETY: the caller passes a pointer to a harness the master keeps alive
    // until the loop's join completes.
    let h = unsafe { &*(data as *const CilkReduceHarness<'_, T, Id, Fold>) };
    // SAFETY: `worker` is the calling worker; only it touches its current view.
    let value = unsafe { h.views.take(worker) }
        .flatten()
        .unwrap_or_else(&h.identity);
    let value = fold_range(&h.fold, value, lo..hi);
    // SAFETY: as above.
    unsafe { h.views.put(worker, Some(value)) };
}

unsafe fn cilk_reduce_on_steal<T, Id, Fold>(data: *const (), worker: usize)
where
    Id: Fn() -> T + Sync,
    Fold: Fn(T, usize) -> T + Sync,
    T: Send,
{
    // SAFETY: the caller passes a pointer to a harness the master keeps alive
    // until the loop's join completes.
    let h = unsafe { &*(data as *const CilkReduceHarness<'_, T, Id, Fold>) };
    // SAFETY: `worker` is the calling worker; only it touches its current view.
    if let Some(view) = unsafe { h.views.take(worker) }.flatten() {
        h.retired.lock().push(view);
        // SAFETY: as above; the view just retired must not be taken again.
        unsafe { h.views.put(worker, None) };
    }
}

// ----------------------------------------------------------------------------------
// Fine-grain (merged half-barrier) reducers
// ----------------------------------------------------------------------------------

/// Harness of a fine-grain reduction: `Copy`, carried by value in the loop's job, with
/// `identity`, `fold` and `combine` as handles (references to the caller's closures,
/// or a `LoopRuntime` call's `move || init` and `&dyn` operators themselves).
struct FineReduceHarness<'a, T, Id, Fold, Comb> {
    identity: Id,
    fold: Fold,
    combine: Comb,
    views: ReduceViews<'a, T>,
    start: usize,
    end: usize,
    nthreads: usize,
    stats: &'a CilkStats,
}

impl<T, Id: Copy, Fold: Copy, Comb: Copy> Clone for FineReduceHarness<'_, T, Id, Fold, Comb> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T, Id: Copy, Fold: Copy, Comb: Copy> Copy for FineReduceHarness<'_, T, Id, Fold, Comb> {}

unsafe fn fine_reduce_exec<T, Id, Fold, Comb>(data: *const (), id: usize)
where
    Id: Fn() -> T,
    Fold: Fn(T, usize) -> T,
{
    // SAFETY: the job carries a `FineReduceHarness` of exactly these types, and `data`
    // points at this participant's copy of it.
    let h = unsafe { &*(data as *const FineReduceHarness<'_, T, Id, Fold, Comb>) };
    let block = static_block(&(h.start..h.end), h.nthreads, id);
    let acc = fold_range(&h.fold, (h.identity)(), block);
    // SAFETY: each participant writes only its own view before arriving.
    unsafe { h.views.put(id, acc) };
}

unsafe fn fine_reduce_combine<T, Id, Fold, Comb>(data: *const (), into: usize, from: usize)
where
    Comb: Fn(T, T) -> T + Copy,
{
    // SAFETY: as in `fine_reduce_exec`.
    let h = unsafe { &*(data as *const FineReduceHarness<'_, T, Id, Fold, Comb>) };
    h.stats.fine_combine_ops.add(into, 1);
    // SAFETY: serialized by the join-phase protocol of the half-barrier.
    unsafe { h.views.combine(into, from, h.combine) };
}

impl CilkPool {
    /// Baseline Cilk reduction over `range` with an explicit grain size.
    ///
    /// `combine` must be associative and commutative (the order in which retired views
    /// are merged follows the stealing pattern, not the iteration order).
    pub fn cilk_reduce_with_grain<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        grain: usize,
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
        // Empty reductions return the identity without touching any counter.
        if range.is_empty() {
            return identity();
        }
        let nthreads = self.num_threads();
        let harness = CilkReduceHarness {
            identity,
            fold,
            // SAFETY: `&mut self` makes this thread the pool's one driver, between
            // loops; the previous reduction's handle is gone.
            views: unsafe { self.views() },
            retired: Mutex::new(Vec::new()),
        };
        let stats = &self.work().stats;
        stats.master.loops.add(1);
        stats.master.reductions.add(1);
        // SAFETY: the harness outlives the loop; the entry points match its type.
        unsafe {
            self.run_cilk_loop(
                range,
                LoopDescriptor {
                    data: &harness as *const _ as *const (),
                    run_range: cilk_reduce_range::<T, Id, Fold>,
                    on_steal: Some(cilk_reduce_on_steal::<T, Id, Fold>),
                    grain,
                },
            );
        }
        // The loop has completed: merge every remaining current view and every retired
        // view.  Each merge is one reduce operation (this is where baseline Cilk pays
        // more than P − 1 operations when stealing occurred).
        let mut pending: Vec<T> = harness.retired.into_inner();
        // SAFETY: the loop has completed; the master is the only remaining accessor.
        pending.extend((0..nthreads).filter_map(|id| unsafe { harness.views.take(id) }.flatten()));
        let mut acc = (harness.identity)();
        for v in pending {
            stats.master.reduce_ops.add(1);
            acc = combine(acc, v);
        }
        acc
    }

    /// Baseline Cilk reduction with the default grain size.
    pub fn cilk_reduce<T, Id, Fold, Comb>(
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
        let grain = self.effective_grain(range.end.saturating_sub(range.start));
        self.cilk_reduce_with_grain(range, grain, identity, fold, combine)
    }

    /// Fine-grain reduction through the embedded half-barrier: statically allocated
    /// views, combined pairwise inside the join phase — exactly `P − 1` reduce
    /// operations.  `combine` must be associative and commutative.
    pub fn fine_grain_reduce<T, Id, Fold, Comb>(
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
        self.fine_reduce(range, &identity, &fold, &combine)
    }

    /// [`CilkPool::fine_grain_reduce`] over handles the harness carries by value:
    /// references to the caller's closures from the generic entry point, and from a
    /// `LoopRuntime` call a `move || init` and the `&dyn` operators themselves.
    pub(crate) fn fine_reduce<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Copy,
        Fold: Fn(T, usize) -> T + Sync + Copy,
        Comb: Fn(T, T) -> T + Sync + Copy,
    {
        // Empty reductions return the identity without a barrier cycle.
        if range.is_empty() {
            return identity();
        }
        let harness = FineReduceHarness {
            identity,
            fold,
            combine,
            // SAFETY: as in `cilk_reduce_with_grain`.
            views: unsafe { self.views() },
            start: range.start,
            end: range.end,
            nthreads: self.num_threads(),
            stats: &self.work().stats,
        };
        harness.stats.master.fine_loops.add(1);
        harness.stats.master.reductions.add(1);
        // SAFETY: as in `cilk_reduce_with_grain`; the entry points read exactly the
        // harness type the job carries.
        unsafe {
            self.run_fine_loop(Job::new(
                harness,
                fine_reduce_exec::<T, Id, Fold, Comb>,
                Some(fine_reduce_combine::<T, Id, Fold, Comb>),
            ));
        }
        // SAFETY: the loop has completed; the master's view holds the combined result.
        unsafe { harness.views.take(0) }.expect("master view present after the join")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cilk_reduce_matches_sequential() {
        let n = 20_000usize;
        let expected: u64 = (0..n as u64).sum();
        for threads in [1usize, 2, 4] {
            let mut p = CilkPool::with_threads(threads);
            let got =
                p.cilk_reduce_with_grain(0..n, 64, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn fine_grain_reduce_matches_sequential() {
        let n = 20_000usize;
        let expected: u64 = (0..n as u64).map(|i| i * 3).sum();
        for threads in [1usize, 2, 4] {
            let mut p = CilkPool::with_threads(threads);
            let got = p.fine_grain_reduce(0..n, || 0u64, |a, i| a + 3 * i as u64, |a, b| a + b);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn fine_grain_reduce_uses_exactly_p_minus_one_combines() {
        for threads in [1usize, 2, 3, 4] {
            let mut p = CilkPool::with_threads(threads);
            let _ = p.fine_grain_reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(
                p.stats().fine_combine_ops,
                (threads - 1) as u64,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cilk_reduce_ops_at_least_views_touched() {
        let mut p = CilkPool::with_threads(4);
        let _ = p.cilk_reduce_with_grain(0..50_000, 32, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        let s = p.stats();
        // At least the master's view is merged; with stealing, retired views add more.
        assert!(s.reduce_ops >= 1);
        assert_eq!(s.reductions, 1);
        // The baseline can never do fewer reduce operations than views that were
        // retired by steals.
        assert!(s.reduce_ops as usize <= 4 + s.steals as usize + 1);
    }

    #[test]
    fn floating_point_regression_sums() {
        // The exact shape of the Figure 3 workload: component-wise sums.
        #[derive(Clone, Copy, Default)]
        struct S {
            sx: f64,
            sy: f64,
            sxx: f64,
            sxy: f64,
        }
        let n = 10_000usize;
        let xs: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 5.0).collect();
        let mut p = CilkPool::with_threads(3);
        let got = p.cilk_reduce(
            0..n,
            S::default,
            |mut acc, i| {
                acc.sx += xs[i];
                acc.sy += ys[i];
                acc.sxx += xs[i] * xs[i];
                acc.sxy += xs[i] * ys[i];
                acc
            },
            |mut a, b| {
                a.sx += b.sx;
                a.sy += b.sy;
                a.sxx += b.sxx;
                a.sxy += b.sxy;
                a
            },
        );
        let sx: f64 = xs.iter().sum();
        assert!((got.sx - sx).abs() < 1e-6);
        // Regression slope from the sums should recover 2.0.
        let nf = n as f64;
        let slope = (nf * got.sxy - got.sx * got.sy) / (nf * got.sxx - got.sx * got.sx);
        assert!((slope - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_range_reductions_return_identity() {
        let mut p = CilkPool::with_threads(2);
        assert_eq!(
            p.cilk_reduce(3..3, || 7u32, |a, _| a + 1, |a, b| a.max(b)),
            7
        );
        assert_eq!(
            p.fine_grain_reduce(3..3, || 9u32, |a, _| a + 1, |a, b| a.max(b)),
            9
        );
    }
}
