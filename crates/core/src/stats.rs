//! Scheduler instrumentation counters.
//!
//! The counters are exact and cost the loop no locked read-modify-write.  The loop,
//! reduction and phase counts are bumped by the driving master alone, on a line of
//! their own ([`SingleWriterCounter`](parlo_sync::SingleWriterCounter): a relaxed load
//! and store).  Combines and dispensed chunks are bumped by whichever participant
//! performs them, each on its own line, and summed on read
//! ([`ParticipantCounter`](parlo_sync::ParticipantCounter)).  The tests use them to
//! verify the structural claims of the paper — e.g. that a merged reduction performs
//! exactly `P − 1` combine operations, or that a half-barrier loop issues exactly one
//! release and one join phase.
//!
//! Building the crate with the `stats-off` feature swaps [`PoolStats`] for a
//! zero-sized stand-in whose `record_*` methods are empty inline functions: the hot
//! path carries no atomics at all and [`PoolStats::snapshot`] returns all zeros.
//! Scheduling behaviour and results are identical — only the accounting is gone.

#[cfg(not(feature = "stats-off"))]
use crossbeam::utils::CachePadded;
#[cfg(not(feature = "stats-off"))]
use parlo_sync::{ParticipantCounter, SingleWriterCounter};

/// Instrumentation counters of a pool.  All counters are monotonically increasing.
#[cfg(not(feature = "stats-off"))]
#[derive(Debug)]
pub struct PoolStats {
    master: CachePadded<MasterCounts>,
    combine_ops: ParticipantCounter,
    dynamic_chunks: ParticipantCounter,
}

/// The counts only the driving master bumps, once per loop.
#[cfg(not(feature = "stats-off"))]
#[derive(Debug, Default)]
struct MasterCounts {
    loops: SingleWriterCounter,
    reductions: SingleWriterCounter,
    barrier_phases: SingleWriterCounter,
}

/// Compile-time-zero stand-in for the pool counters (`stats-off` build): no fields,
/// no atomics, every recording call an empty `#[inline(always)]` function.
#[cfg(feature = "stats-off")]
#[derive(Debug)]
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
    /// Fresh all-zero counters for `participants` threads (cfg-stable constructor for
    /// both feature states).
    pub(crate) fn new(participants: usize) -> Self {
        PoolStats {
            master: CachePadded::default(),
            combine_ops: ParticipantCounter::new(participants),
            dynamic_chunks: ParticipantCounter::new(participants),
        }
    }

    /// Counts one loop of `phases` barrier phases (the driving master only).
    #[inline]
    pub(crate) fn record_loop(&self, phases: u64) {
        self.master.loops.add(1);
        self.master.barrier_phases.add(phases);
    }

    /// Counts one reduction (the driving master only).
    #[inline]
    pub(crate) fn record_reduction(&self) {
        self.master.reductions.add(1);
    }

    /// Counts one combine performed by participant `id`.
    #[inline]
    pub(crate) fn record_combine(&self, id: usize) {
        self.combine_ops.add(id, 1);
    }

    /// Participant `id`'s chunk count for a whole dynamic loop (it counts locally, so
    /// a dispensed chunk pays no shared RMW beyond the dispenser's own).
    #[inline]
    pub(crate) fn record_dynamic_chunks(&self, id: usize, n: u64) {
        self.dynamic_chunks.add(id, n);
    }

    /// Takes a snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            loops: self.master.loops.get(),
            reductions: self.master.reductions.get(),
            combine_ops: self.combine_ops.sum(),
            dynamic_chunks: self.dynamic_chunks.sum(),
            barrier_phases: self.master.barrier_phases.get(),
        }
    }
}

#[cfg(feature = "stats-off")]
impl PoolStats {
    /// Fresh all-zero counters (cfg-stable constructor for both feature states).
    pub(crate) fn new(_participants: usize) -> Self {
        PoolStats
    }

    #[inline(always)]
    pub(crate) fn record_loop(&self, _phases: u64) {}

    #[inline(always)]
    pub(crate) fn record_reduction(&self) {}

    #[inline(always)]
    pub(crate) fn record_combine(&self, _id: usize) {}

    #[inline(always)]
    pub(crate) fn record_dynamic_chunks(&self, _id: usize, _n: u64) {}

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
        let s = PoolStats::new(2);
        s.record_loop(2);
        s.record_loop(4);
        s.record_reduction();
        s.record_combine(0);
        s.record_combine(1);
        s.record_dynamic_chunks(1, 1);
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
        let s = PoolStats::new(2);
        s.record_loop(2);
        s.record_reduction();
        s.record_combine(1);
        s.record_dynamic_chunks(1, 1);
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
