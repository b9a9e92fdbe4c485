//! The Cilk-like pool's two faces, each as [`Loops`] and as [`LoopRuntime`]: the
//! baseline work-stealing path (implemented directly on [`CilkPool`]) and the hybrid
//! fine-grain path (the [`CilkFineGrain`] wrapper).

use crate::scheduler::CilkPool;
use parlo_core::{static_for, static_reduce, LoopRuntime, Loops, SyncStats};
use parlo_exec::{fold_range, walk_range};
use std::ops::Range;

fn pool_sync_stats(pool: &CilkPool) -> SyncStats {
    let s = pool.stats();
    SyncStats {
        loops: s.loops + s.fine_loops,
        reductions: s.reductions,
        // Only the embedded half-barrier path executes barrier phases; the baseline
        // Cilk loop synchronizes through the outstanding-iteration count.
        barrier_phases: pool.work().fine.snapshot().barrier_phases,
        combine_ops: s.reduce_ops + s.fine_combine_ops,
        dynamic_chunks: s.tasks_executed,
        steals: s.steals,
    }
}

/// The baseline path: `cilk_for` splitting and lazily created reducer views.
impl Loops for CilkPool {
    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy,
    {
        self.cilk_for_blocks(range, body);
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
        self.cilk_reduce_blocks(range, identity, fold, combine)
    }
}

impl LoopRuntime for CilkPool {
    fn name(&self) -> String {
        "Cilk".into()
    }

    fn threads(&self) -> usize {
        self.num_threads()
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
        pool_sync_stats(self)
    }
}

/// The hybrid pool's fine-grain path: statically scheduled loops through the
/// half-barrier embedded in the Cilk-like scheduler (workers notice them by polling
/// between steal cycles), generically ([`Loops`]) and as a [`LoopRuntime`].
pub struct CilkFineGrain {
    /// The underlying pool (its baseline path remains directly usable).
    pub pool: CilkPool,
}

impl CilkFineGrain {
    /// Wraps an existing pool.
    pub fn new(pool: CilkPool) -> Self {
        CilkFineGrain { pool }
    }

    /// Creates a pool with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(CilkPool::with_threads(threads))
    }

    /// Creates a pool with `threads` workers placed according to a shared
    /// [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(CilkPool::with_placement(threads, placement))
    }

    /// [`CilkFineGrain::with_placement`] with the workers leased from a shared
    /// [`parlo_exec::Executor`] instead of a private one.
    pub fn with_placement_on(
        threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &std::sync::Arc<parlo_exec::Executor>,
    ) -> Self {
        Self::new(CilkPool::with_placement_on(threads, placement, executor))
    }
}

/// `parlo-core`'s static harness ([`parlo_core::static_for`], [`parlo_core::static_reduce`])
/// on the pool's team: one half-barrier (two phases) per loop, `P − 1` combines each.
impl Loops for CilkFineGrain {
    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy,
    {
        let pool = &self.pool;
        // SAFETY: `&mut self` makes this thread the pool's one driver.
        unsafe { static_for(&pool.team, &pool.work().fine, 2, range, body) };
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
        let (team, fine) = (&self.pool.team, &self.pool.work().fine);
        // SAFETY: `&mut self` makes this thread the pool's one driver, between loops.
        unsafe { static_reduce(team, fine, 2, range, identity, fold, combine) }
    }
}

impl LoopRuntime for CilkFineGrain {
    fn name(&self) -> String {
        "fine-grain Cilk".into()
    }

    fn threads(&self) -> usize {
        self.pool.num_threads()
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
        pool_sync_stats(&self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn both_paths_work_behind_dyn_loop_runtime() {
        let mut base = CilkPool::with_threads(3);
        let mut fine = CilkFineGrain::with_threads(3);
        let mut runtimes: Vec<&mut dyn LoopRuntime> = vec![&mut base, &mut fine];
        for rt in runtimes.iter_mut() {
            let hits: Vec<AtomicUsize> = (0..513).map(|_| AtomicUsize::new(0)).collect();
            rt.parallel_for(0..513, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "runtime {}",
                rt.name()
            );
            let sum = rt.parallel_sum(0..1000, &|i| i as f64);
            assert!((sum - 499_500.0).abs() < 1e-6, "runtime {}", rt.name());
            assert_eq!(rt.threads(), 3);
        }
    }

    #[test]
    fn fine_path_counts_half_barrier_phases_and_p_minus_one_combines() {
        let mut fine = CilkFineGrain::with_threads(4);
        let before = fine.sync_stats();
        let fold: &(dyn Fn(f64, usize) -> f64 + Sync) = &|a, i| a + i as f64;
        let combine: &(dyn Fn(f64, f64) -> f64 + Sync) = &|a, b| a + b;
        let _ = LoopRuntime::parallel_reduce(&mut fine, 0..100, 0.0, fold, combine);
        let d = fine.sync_stats().since(&before);
        assert_eq!(d.loops, 1);
        assert_eq!(d.barrier_phases, 2, "one half-barrier");
        assert_eq!(d.combine_ops, 3, "P-1 combines");
    }
}
