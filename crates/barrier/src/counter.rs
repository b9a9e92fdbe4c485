//! Centralized (single cache line) synchronization primitives.
//!
//! These are the simplest possible implementations of the release and join phases: one
//! shared atomic counter each.  They correspond to the "fine-grain centralized" row of
//! Table 1 in the paper.  They scale worse than the tree variants because every
//! participant contends on the same cache line, but for small thread counts the shorter
//! critical path wins.

use crate::{Epoch, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_sync::{AtomicU64, Ordering};

/// Release (fork) phase through a single broadcast epoch word.
///
/// The master publishes a new epoch; every worker spins on the same word until it
/// observes an epoch at least as large as the one it expects.
#[derive(Debug)]
pub struct CentralizedRelease {
    epoch: CachePadded<AtomicU64>,
}

impl Default for CentralizedRelease {
    fn default() -> Self {
        Self::new()
    }
}

impl CentralizedRelease {
    /// Creates a release word at epoch 0.
    pub fn new() -> Self {
        CentralizedRelease {
            epoch: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Master side: publish `epoch`, releasing all workers waiting for it.
    ///
    /// All writes the master performed before this call (e.g. storing the work
    /// descriptor) happen-before any worker that observes the new epoch.
    #[inline]
    pub fn signal(&self, epoch: Epoch) {
        self.epoch.store(epoch, Ordering::Release);
        crate::wake_parked();
    }

    /// Worker side: wait until the master has published an epoch `>= epoch`.
    #[inline]
    pub fn wait(&self, epoch: Epoch, policy: &WaitPolicy) {
        policy.wait_until(|| self.epoch.load(Ordering::Acquire) >= epoch);
    }

    /// Non-blocking probe used by the hybrid scheduler: returns `true` if epoch `>=
    /// epoch` has been published.
    #[inline]
    pub fn poll(&self, epoch: Epoch) -> bool {
        self.epoch.load(Ordering::Acquire) >= epoch
    }

    /// The most recently published epoch.
    #[inline]
    pub fn current(&self) -> Epoch {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Join phase through a single arrival counter.
///
/// Each of the `nworkers` workers adds one arrival per epoch; the master waits until the
/// cumulative count reaches `nworkers * epoch`.  Because every worker contributes
/// exactly one arrival per epoch, the cumulative comparison is race-free without ever
/// resetting the counter.
#[derive(Debug)]
pub struct CentralizedJoin {
    arrivals: CachePadded<AtomicU64>,
    nworkers: usize,
}

impl CentralizedJoin {
    /// Creates a join counter for `nworkers` workers (the master is not counted).
    pub fn new(nworkers: usize) -> Self {
        CentralizedJoin {
            arrivals: CachePadded::new(AtomicU64::new(0)),
            nworkers,
        }
    }

    /// Number of workers expected per epoch.
    pub fn num_workers(&self) -> usize {
        self.nworkers
    }

    /// Worker side: record this worker's arrival for the current epoch.
    ///
    /// All writes the worker performed before arriving (its share of the loop body,
    /// its partial reduction value) happen-before the master's return from
    /// [`CentralizedJoin::wait_all`].
    #[inline]
    pub fn arrive(&self) {
        // ordering: Release publishes the worker's pre-arrival writes to the
        // master's Acquire load in `wait_all`; release sequences through the
        // RMW chain carry every earlier arriver's writes along.  The arriving
        // worker reads nothing here, so an Acquire half would buy nothing —
        // the model battery's barrier cycle test verifies this downgrade.
        self.arrivals.fetch_add(1, Ordering::Release);
        crate::wake_parked();
    }

    /// Master side: wait until every worker has arrived for `epoch`.
    #[inline]
    pub fn wait_all(&self, epoch: Epoch, policy: &WaitPolicy) {
        let target = self.nworkers as u64 * epoch;
        policy.wait_until(|| self.arrivals.load(Ordering::Acquire) >= target);
    }

    /// Returns `true` if every worker has arrived for `epoch`.
    #[inline]
    pub fn poll_all(&self, epoch: Epoch) -> bool {
        self.arrivals.load(Ordering::Acquire) >= self.nworkers as u64 * epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn release_signal_then_wait_returns() {
        let r = CentralizedRelease::new();
        r.signal(1);
        r.wait(1, &WaitPolicy::default());
        assert!(r.poll(1));
        assert!(!r.poll(2));
        assert_eq!(r.current(), 1);
    }

    #[test]
    fn join_counts_workers_cumulatively() {
        let j = CentralizedJoin::new(3);
        assert_eq!(j.num_workers(), 3);
        for _ in 0..3 {
            j.arrive();
        }
        assert!(j.poll_all(1));
        assert!(!j.poll_all(2));
        j.wait_all(1, &WaitPolicy::default());
        for _ in 0..3 {
            j.arrive();
        }
        j.wait_all(2, &WaitPolicy::default());
    }

    #[test]
    fn release_join_cycle_across_threads() {
        let release = Arc::new(CentralizedRelease::new());
        let join = Arc::new(CentralizedJoin::new(4));
        let policy = WaitPolicy::oversubscribed();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let release = release.clone();
            let join = join.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=50u64 {
                    release.wait(epoch, &policy);
                    join.arrive();
                }
            }));
        }
        for epoch in 1..=50u64 {
            release.signal(epoch);
            join.wait_all(epoch, &policy);
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
