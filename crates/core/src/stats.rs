//! Scheduler instrumentation counters.
//!
//! The counters are cheap (relaxed atomics bumped by the master or, for combines, by
//! whichever thread performs the combine) and are used by the tests to verify the
//! structural claims of the paper — e.g. that a merged reduction performs exactly
//! `P − 1` combine operations, or that a half-barrier loop issues exactly one release
//! and one join phase.
//!
//! Building the crate with the `stats-off` feature swaps [`PoolStats`] for a
//! zero-sized stand-in whose `record_*` methods are empty inline functions: the hot
//! path carries no atomics at all and [`PoolStats::snapshot`] returns all zeros.
//! Scheduling behaviour and results are identical — only the accounting is gone.

#[cfg(not(feature = "stats-off"))]
use parlo_sync::{AtomicU64, Ordering};

/// Instrumentation counters of a pool.  All counters are monotonically increasing.
#[cfg(not(feature = "stats-off"))]
#[derive(Debug, Default)]
pub struct PoolStats {
    loops: AtomicU64,
    reductions: AtomicU64,
    combine_ops: AtomicU64,
    dynamic_chunks: AtomicU64,
    barrier_phases: AtomicU64,
}

/// Compile-time-zero stand-in for the pool counters (`stats-off` build): no fields,
/// no atomics, every recording call an empty `#[inline(always)]` function.
#[cfg(feature = "stats-off")]
#[derive(Debug, Default)]
pub struct PoolStats;

crate::stats_family! {
    /// A point-in-time copy of the pool's instrumentation counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsSnapshot: "pool" {
        /// Number of parallel loops (of any kind) executed.
        pub loops: u64,
        /// Number of parallel reductions executed.
        pub reductions: u64,
        /// Number of view-combine operations performed across all reductions.
        pub combine_ops: u64,
        /// Number of dynamically dispensed chunks across all dynamic loops.
        pub dynamic_chunks: u64,
        /// Number of barrier *phases* (a release phase or a join phase each count as
        /// one; a full barrier counts as two, so a half-barrier loop costs 2 and a
        /// full-barrier loop costs 4).
        pub barrier_phases: u64,
    }
}

#[cfg(not(feature = "stats-off"))]
impl PoolStats {
    /// Fresh all-zero counters (cfg-stable constructor for both feature states).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_loop(&self, phases: u64) {
        self.loops.fetch_add(1, Ordering::Relaxed);
        self.barrier_phases.fetch_add(phases, Ordering::Relaxed);
    }

    pub(crate) fn record_reduction(&self) {
        self.reductions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_combine(&self) {
        self.combine_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// One participant's chunk count for a whole dynamic loop (it counts locally, so
    /// a dispensed chunk pays no shared RMW beyond the dispenser's own).
    pub(crate) fn record_dynamic_chunks(&self, n: u64) {
        if n > 0 {
            self.dynamic_chunks.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            loops: self.loops.load(Ordering::Relaxed),
            reductions: self.reductions.load(Ordering::Relaxed),
            combine_ops: self.combine_ops.load(Ordering::Relaxed),
            dynamic_chunks: self.dynamic_chunks.load(Ordering::Relaxed),
            barrier_phases: self.barrier_phases.load(Ordering::Relaxed),
        }
    }
}

#[cfg(feature = "stats-off")]
impl PoolStats {
    /// Fresh all-zero counters (cfg-stable constructor for both feature states).
    pub(crate) fn new() -> Self {
        PoolStats
    }

    #[inline(always)]
    pub(crate) fn record_loop(&self, _phases: u64) {}

    #[inline(always)]
    pub(crate) fn record_reduction(&self) {}

    #[inline(always)]
    pub(crate) fn record_combine(&self) {}

    #[inline(always)]
    pub(crate) fn record_dynamic_chunks(&self, _n: u64) {}

    /// Takes a snapshot of the counters — always all-zero in a `stats-off` build.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "stats-off"))]
    #[test]
    fn counters_accumulate() {
        let s = PoolStats::default();
        s.record_loop(2);
        s.record_loop(4);
        s.record_reduction();
        s.record_combine();
        s.record_combine();
        s.record_dynamic_chunks(1);
        let snap = s.snapshot();
        assert_eq!(snap.loops, 2);
        assert_eq!(snap.barrier_phases, 6);
        assert_eq!(snap.reductions, 1);
        assert_eq!(snap.combine_ops, 2);
        assert_eq!(snap.dynamic_chunks, 1);
    }

    #[cfg(feature = "stats-off")]
    #[test]
    fn stats_off_snapshot_is_all_zero() {
        let s = PoolStats::new();
        s.record_loop(2);
        s.record_reduction();
        s.record_combine();
        s.record_dynamic_chunks(1);
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let a = StatsSnapshot {
            loops: 2,
            reductions: 0,
            combine_ops: 1,
            dynamic_chunks: 0,
            barrier_phases: 4,
        };
        let b = StatsSnapshot {
            loops: 1,
            reductions: 0,
            combine_ops: 0,
            dynamic_chunks: 0,
            barrier_phases: 2,
        };
        let d = a.since(&b);
        assert_eq!(d.loops, 1);
        assert_eq!(d.combine_ops, 1);
        assert_eq!(d.barrier_phases, 2);
        let m = a.merged(&b);
        assert_eq!(m.loops, 3);
        assert_eq!(m.barrier_phases, 6);
    }
}
