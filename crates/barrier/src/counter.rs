//! Centralized synchronization primitives: the flat, depth-1 structure.
//!
//! These are the simplest possible implementations of the release and join phases.  The
//! release is one line every worker spins on; the join is a depth-1 tree: every worker
//! arrives on a line of its own, and the master reads them all.  They correspond to
//! the "fine-grain centralized" row of Table 1 in the paper.  They scale worse than the
//! tree because every worker spins on the one release line and the master alone
//! collects every arrival, but for small thread counts the shorter critical path wins.

use crate::line::{lines, Gather, SignalLine};
use crate::{Epoch, Payload, WaitPolicy};
use crossbeam::utils::CachePadded;

/// Release (fork) phase through a single broadcast release line.
///
/// The master publishes a new epoch with its payload; every worker spins on the same
/// line until it observes an epoch at least as large as the one it expects, and reads
/// the payload from it.
#[derive(Debug)]
pub struct CentralizedRelease {
    line: CachePadded<SignalLine>,
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
            line: CachePadded::new(SignalLine::new()),
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
        policy.wait_until(|| self.line.reached(epoch));
        self.line.payload()
    }

    /// Non-blocking probe used by the hybrid scheduler: returns `true` if epoch `>=
    /// epoch` has been published.
    #[inline]
    pub fn poll(&self, epoch: Epoch) -> bool {
        self.line.reached(epoch)
    }

    /// The payload of the epoch a [`CentralizedRelease::poll`] on this thread observed.
    #[inline]
    pub(crate) fn payload(&self) -> Payload {
        self.line.payload()
    }
}

/// Join phase through one arrival line per worker, all read by the master: a depth-1
/// tree.
///
/// Worker `w` (1-based, as participant ids are) arrives on line `w − 1` — with its
/// accumulator as the payload in a merged reduction, with the epoch alone otherwise —
/// and the master waits for the lines in worker order, folding each payload as soon as
/// its line's epoch is seen.
#[derive(Debug)]
pub struct CentralizedJoin {
    arrivals: Vec<CachePadded<SignalLine>>,
}

impl CentralizedJoin {
    /// Creates a join for `nworkers` workers (the master is not counted).
    pub fn new(nworkers: usize) -> Self {
        CentralizedJoin {
            arrivals: lines(nworkers),
        }
    }

    /// Number of workers expected per epoch.
    pub fn num_workers(&self) -> usize {
        self.arrivals.len()
    }

    /// Worker `id` (`1..=num_workers`) side: record its arrival for `epoch`, carrying
    /// `payload` to the master if it has one.
    ///
    /// All writes the worker performed before arriving (its share of the loop body,
    /// its partial reduction value) happen-before the master's return from
    /// [`CentralizedJoin::wait_all`].
    #[inline]
    pub fn arrive(&self, id: usize, epoch: Epoch, payload: Option<&Payload>) {
        self.arrivals[id - 1].arrive(epoch, payload);
        crate::wake_parked();
    }

    /// Master side: wait until every worker has arrived for `epoch`.  With an
    /// accumulator, fold each worker's payload into it in worker order,
    /// `on_child(acc, worker, payload)`; without one, nothing is called.
    #[inline]
    pub fn wait_all<F>(
        &self,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        let mut gather = Gather { acc, on_child };
        for (w, line) in self.arrivals.iter().enumerate() {
            gather.child(line, w + 1, epoch, policy);
        }
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
    fn join_waits_for_every_worker_and_folds_in_worker_order() {
        let j = CentralizedJoin::new(3);
        assert_eq!(j.num_workers(), 3);
        let policy = WaitPolicy::default();
        for id in 1..=3 {
            j.arrive(id, 1, None);
        }
        j.wait_all(1, &policy, None, |_, _, _| {
            panic!("a plain join folds nothing")
        });
        for id in (1..=3).rev() {
            j.arrive(id, 2, Some(&filled(10 * id as u64)));
        }
        let (mut acc, mut order) = (filled(1), Vec::new());
        j.wait_all(2, &policy, Some(&mut acc), |acc, w, p| {
            order.push(w);
            *acc = filled(fill_of(*acc) + fill_of(*p));
        });
        assert_eq!(order, [1, 2, 3]);
        assert_eq!(fill_of(acc), 61);
    }

    #[test]
    fn release_join_cycle_across_threads() {
        let release = Arc::new(CentralizedRelease::new());
        let join = Arc::new(CentralizedJoin::new(4));
        let policy = WaitPolicy::oversubscribed();
        let mut handles = Vec::new();
        for id in 1..=4 {
            let release = release.clone();
            let join = join.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=50u64 {
                    assert_eq!(fill_of(release.wait(epoch, &policy)), epoch);
                    join.arrive(id, epoch, Some(&filled(epoch * id as u64)));
                }
            }));
        }
        for epoch in 1..=50u64 {
            release.signal(epoch, &filled(epoch));
            let mut acc = filled(0);
            join.wait_all(epoch, &policy, Some(&mut acc), |acc, _, p| {
                *acc = filled(fill_of(*acc) + fill_of(*p));
            });
            assert_eq!(fill_of(acc), 10 * epoch, "cycle {epoch}");
        }
        // A release whose waiters read nothing carries the empty payload.
        release.signal(51, &EMPTY_PAYLOAD);
        assert!(release.poll(51));
        for h in handles {
            h.join().unwrap();
        }
    }
}
