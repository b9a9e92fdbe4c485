//! Scheduler instrumentation counters shared by the half-barrier and full-barrier
//! runtimes: the fine-grain pool, the OpenMP-like team, the Cilk-like pool's hybrid
//! path and the stealing pool all count their loops, phases, reductions and combines
//! through one [`PoolStats`] and report it as a [`SyncStats`].
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

use crate::runtime::SyncStats;
use crossbeam::utils::CachePadded;
use parlo_sync::{ParticipantCounter, SingleWriterCounter};

/// Instrumentation counters of a barrier runtime.  All counters are monotonically
/// increasing.
#[derive(Debug)]
pub struct PoolStats {
    master: CachePadded<MasterCounts>,
    combine_ops: ParticipantCounter,
    dynamic_chunks: ParticipantCounter,
}

/// The counts only the driving master bumps, once per loop.
#[derive(Debug, Default)]
struct MasterCounts {
    loops: SingleWriterCounter,
    reductions: SingleWriterCounter,
    barrier_phases: SingleWriterCounter,
}

impl PoolStats {
    /// Fresh all-zero counters for `participants` threads.
    pub fn new(participants: usize) -> Self {
        PoolStats {
            master: CachePadded::default(),
            combine_ops: ParticipantCounter::new(participants),
            dynamic_chunks: ParticipantCounter::new(participants),
        }
    }

    /// Counts one loop of `phases` barrier phases (the driving master only).
    #[inline]
    pub fn record_loop(&self, phases: u64) {
        self.master.loops.add(1);
        self.master.barrier_phases.add(phases);
    }

    /// Loops counted so far: the driving master's own count, read without summing any
    /// participant's line.
    #[inline]
    pub fn loops(&self) -> u64 {
        self.master.loops.get()
    }

    /// Counts one reduction (the driving master only).
    #[inline]
    pub fn record_reduction(&self) {
        self.master.reductions.add(1);
    }

    /// Counts one combine performed by participant `id`.
    #[inline]
    pub fn record_combine(&self, id: usize) {
        self.combine_ops.add(id, 1);
    }

    /// Participant `id`'s chunk count for a whole dynamic loop (it counts locally, so
    /// a dispensed chunk pays no shared RMW beyond the dispenser's own).
    #[inline]
    pub fn record_dynamic_chunks(&self, id: usize, n: u64) {
        self.dynamic_chunks.add(id, n);
    }

    /// Takes a snapshot of the counters (`steals` is always zero: a barrier runtime
    /// does not steal).
    pub fn snapshot(&self) -> SyncStats {
        SyncStats {
            loops: self.master.loops.get(),
            reductions: self.master.reductions.get(),
            barrier_phases: self.master.barrier_phases.get(),
            combine_ops: self.combine_ops.sum(),
            dynamic_chunks: self.dynamic_chunks.sum(),
            steals: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(snap.steals, 0);
    }
}
