//! Centralized (single cache line) synchronization primitives.
//!
//! These are the simplest possible implementations of the release and join phases: one
//! shared atomic counter each.  They correspond to the "fine-grain centralized" row of
//! Table 1 in the paper.  They scale worse than the tree because every
//! participant contends on the same cache line, but for small thread counts the shorter
//! critical path wins.

use crate::line::ReleaseLine;
use crate::{Epoch, Payload, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_sync::{AtomicU64, Ordering};

/// Release (fork) phase through a single broadcast release line.
///
/// The master publishes a new epoch with its payload; every worker spins on the same
/// line until it observes an epoch at least as large as the one it expects, and reads
/// the payload from it.
#[derive(Debug)]
pub struct CentralizedRelease {
    line: CachePadded<ReleaseLine>,
}

impl Default for CentralizedRelease {
    fn default() -> Self {
        Self::new()
    }
}

impl CentralizedRelease {
    /// Creates a release line at epoch 0.
    pub fn new() -> Self {
        CentralizedRelease {
            line: CachePadded::new(ReleaseLine::new()),
        }
    }

    /// Master side: publish `epoch` with `payload`, releasing all workers waiting for
    /// it.
    ///
    /// All writes the master performed before this call happen-before any worker that
    /// observes the new epoch, and that worker reads `payload` from the line it
    /// observed it on.
    #[inline]
    pub fn signal(&self, epoch: Epoch, payload: &Payload) {
        self.line.publish(epoch, payload);
        crate::wake_parked();
    }

    /// Worker side: wait until the master has published an epoch `>= epoch`, and
    /// return the payload published with it.
    #[inline]
    pub fn wait(&self, epoch: Epoch, policy: &WaitPolicy) -> Payload {
        policy.wait_until(|| self.line.is_released(epoch));
        self.line.payload()
    }

    /// Non-blocking probe used by the hybrid scheduler: returns `true` if epoch `>=
    /// epoch` has been published.
    #[inline]
    pub fn poll(&self, epoch: Epoch) -> bool {
        self.line.is_released(epoch)
    }

    /// The payload of the epoch a [`CentralizedRelease::poll`] on this thread observed.
    #[inline]
    pub(crate) fn payload(&self) -> Payload {
        self.line.payload()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{fill_of, filled};
    use crate::EMPTY_PAYLOAD;
    use std::sync::Arc;

    #[test]
    fn release_signal_then_wait_returns_the_payload() {
        let r = CentralizedRelease::new();
        r.signal(1, &filled(7));
        assert_eq!(fill_of(r.wait(1, &WaitPolicy::default())), 7);
        assert!(r.poll(1));
        assert!(!r.poll(2));
        assert_eq!(fill_of(r.payload()), 7);
    }

    #[test]
    fn join_counts_workers_cumulatively() {
        let j = CentralizedJoin::new(3);
        assert_eq!(j.num_workers(), 3);
        for _ in 0..3 {
            j.arrive();
        }
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
                    assert_eq!(fill_of(release.wait(epoch, &policy)), epoch);
                    join.arrive();
                }
            }));
        }
        for epoch in 1..=50u64 {
            release.signal(epoch, &filled(epoch));
            join.wait_all(epoch, &policy);
        }
        // A release whose waiters read nothing carries the empty payload.
        release.signal(51, &EMPTY_PAYLOAD);
        assert!(release.poll(51));
        for h in handles {
            h.join().unwrap();
        }
    }
}
