//! Reductions on the Cilk-like pool.
//!
//! Two implementations live here, matching the comparison in §2 of the paper:
//!
//! * **Baseline Cilk reducers** (`reduce` on a [`CilkPool`]): every worker lazily owns a
//!   *view* of the reduction variable.  Whenever a worker obtains work by **stealing**,
//!   it closes out its current view (the view is handed to a shared list and will need
//!   its own reduce operation later) and starts a fresh one, mimicking the
//!   view-per-steal behaviour of Cilk hyperobjects.  The number of reduce operations is
//!   therefore `(#workers that touched the loop) + (#steals that closed a view) − 1`,
//!   which "may be significantly higher" than `P − 1` and grows with the amount of
//!   stealing.
//! * **Fine-grain reducers** (`reduce` on a [`crate::CilkFineGrain`]): the paper's optimised
//!   implementation — one statically allocated view per participant (the team's padded
//!   view blocks, allocated when the pool is built and reused by every reduction),
//!   reduced pairwise in the join phase of the half-barrier, exactly `P − 1` reduce
//!   operations.  This is `parlo-core`'s merged-reduction harness over the static
//!   block ([`parlo_core::static_reduce`]) run on the pool's team.
//!
//! Both keep their per-worker views in the team's blocks.  A baseline view is stored as
//! an `Option`: closing it out on a steal leaves `None` behind, not a view that would
//! be folded twice.

use crate::scheduler::{CilkPool, LoopDescriptor};
use parking_lot::Mutex;
use parlo_exec::ReduceViews;
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
    Fold: Fn(T, Range<usize>) -> T + Sync,
    T: Send,
{
    // SAFETY: the caller passes a pointer to a harness the master keeps alive
    // until the loop's join completes.
    let h = unsafe { &*(data as *const CilkReduceHarness<'_, T, Id, Fold>) };
    // SAFETY: `worker` is the calling worker; only it touches its current view.
    let value = unsafe { h.views.take(worker) }
        .flatten()
        .unwrap_or_else(&h.identity);
    let value = (h.fold)(value, lo..hi);
    // SAFETY: as above.
    unsafe { h.views.put(worker, Some(value)) };
}

unsafe fn cilk_reduce_on_steal<T, Id, Fold>(data: *const (), worker: usize)
where
    Id: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
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

impl CilkPool {
    /// The baseline Cilk reduction: `cilk_for`'s recursive splitting down to
    /// [`CilkPool::effective_grain`], with reducer views created lazily on steals;
    /// `fold(view, leaf)` folds each leaf task a worker runs into its current view.
    ///
    /// `combine` must be associative and commutative (the order in which retired views
    /// are merged follows the stealing pattern, not the iteration order).
    pub(crate) fn cilk_reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, Range<usize>) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        // Empty reductions return the identity without touching any counter.
        if range.is_empty() {
            return identity();
        }
        let grain = self.effective_grain(range.len());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::grained_pool;
    use crate::CilkFineGrain;
    use parlo_core::Loops;

    #[test]
    fn cilk_reduce_matches_sequential() {
        let n = 20_000usize;
        let expected: u64 = (0..n as u64).sum();
        for threads in [1usize, 2, 4] {
            let mut p = grained_pool(threads, 64);
            let got = p.reduce(0..n, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn fine_grain_reduce_matches_sequential() {
        let n = 20_000usize;
        let expected: u64 = (0..n as u64).map(|i| i * 3).sum();
        for threads in [1usize, 2, 4] {
            let mut p = CilkFineGrain::with_threads(threads);
            let got = p.reduce(0..n, || 0u64, |a, i| a + 3 * i as u64, |a, b| a + b);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn fine_grain_reduce_uses_exactly_p_minus_one_combines() {
        for threads in [1usize, 2, 3, 4] {
            let mut p = CilkFineGrain::with_threads(threads);
            let _ = p.reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(
                p.pool.stats().fine_combine_ops,
                (threads - 1) as u64,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cilk_reduce_ops_at_least_views_touched() {
        let mut p = grained_pool(4, 32);
        let _ = p.reduce(0..50_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
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
        let got = p.reduce(
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
        let mut p = CilkFineGrain::with_threads(2);
        assert_eq!(
            p.pool.reduce(3..3, || 7u32, |a, _| a + 1, |a, b| a.max(b)),
            7
        );
        assert_eq!(p.reduce(3..3, || 9u32, |a, _| a + 1, |a, b| a.max(b)), 9);
    }
}
