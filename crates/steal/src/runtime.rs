//! [`LoopRuntime`] adapter for the stealing pool, making it reachable from every
//! workload, the cross-runtime rosters and the adaptive router.

use crate::pool::StealPool;
use parlo_core::{LoopRuntime, SyncStats};
use std::ops::Range;

impl LoopRuntime for StealPool {
    fn name(&self) -> String {
        "fine-grain stealing".into()
    }

    fn threads(&self) -> usize {
        self.num_threads()
    }

    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        self.steal_for(range, body);
    }

    fn parallel_for_blocks(&mut self, range: Range<usize>, body: &(dyn Fn(Range<usize>) + Sync)) {
        self.for_loop(None, range, body);
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.steal_reduce(range, move || init, fold, combine)
    }

    fn parallel_reduce_blocks(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, Range<usize>) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.reduce_loop(None, range, move || init, fold, combine)
    }

    fn sync_stats(&self) -> SyncStats {
        let s = self.stats();
        SyncStats {
            // Every chunk is a unit of dynamic work distribution the pool paid for.
            dynamic_chunks: s.chunks_executed(),
            steals: s.steals_hit,
            ..self.pool_stats().snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn works_behind_dyn_loop_runtime() {
        let mut pool = StealPool::with_threads(3);
        let rt: &mut dyn LoopRuntime = &mut pool;
        assert_eq!(rt.name(), "fine-grain stealing");
        assert_eq!(rt.threads(), 3);
        let hits: Vec<AtomicUsize> = (0..613).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(0..613, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let before = rt.sync_stats();
        let sum = rt.parallel_sum(0..1000, &|i| i as f64);
        assert!((sum - 499_500.0).abs() < 1e-9);
        let d = rt.sync_stats().since(&before);
        assert_eq!(d.loops, 1);
        assert_eq!(d.reductions, 1);
        assert_eq!(d.barrier_phases, 2, "one half-barrier per loop");
        assert_eq!(d.combine_ops, 2, "P-1 combines");
        assert!(d.dynamic_chunks >= 1, "chunks are accounted");
    }
}
