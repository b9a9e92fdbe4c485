//! The half-barrier: the paper's core synchronization pattern.
//!
//! A parallel loop in the fine-grain scheduler executes exactly one *release* phase at
//! the fork point (the master publishes the work and signals the workers; nobody waits
//! for anybody at this point) and one *join* phase at the end of the loop (workers
//! notify completion up the tree; the master does not acknowledge).  Together the two
//! phases cost as much as **one** conventional barrier, compared to the two (or three,
//! with reductions) full barriers of the baseline runtimes.
//!
//! [`HalfBarrier`] bundles the two phases over one of the crate's two structures — the
//! centralized pair or the socket-composed tree — matching the "fine-grain centralized"
//! and "fine-grain tree" configurations of Table 1 in the paper.

use crate::{
    CentralizedJoin, CentralizedRelease, Epoch, HierarchicalHalfBarrier, HierarchyStats, Payload,
    WaitPolicy,
};
use parlo_affinity::Topology;

/// Which structure backs the two phases.  Its methods are the bare protocol:
/// [`HalfBarrier`] wraps them in trace events, [`crate::FullBarrier`] runs them in
/// reverse order without any.
// The centralized flavor is much smaller than the tree flavor, but a HalfBarrier is
// constructed once per pool and never moved on the hot path, so boxing the large
// variant would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Flavor {
    Centralized {
        release: CentralizedRelease,
        join: CentralizedJoin,
    },
    Hierarchical(HierarchicalHalfBarrier),
}

impl Flavor {
    #[inline]
    pub(crate) fn release(&self, epoch: Epoch, payload: &Payload) {
        match self {
            Flavor::Centralized { release, .. } => release.signal(epoch, payload),
            Flavor::Hierarchical(h) => h.release(epoch, payload),
        }
    }

    /// The centralized master folds every worker's arrival, in worker order.
    #[inline]
    pub(crate) fn join<F>(
        &self,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        match self {
            Flavor::Centralized { join, .. } => join.wait_all(epoch, policy, acc, on_child),
            Flavor::Hierarchical(h) => h.join(epoch, policy, acc, on_child),
        }
    }

    #[inline]
    pub(crate) fn wait_release(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) -> Payload {
        match self {
            Flavor::Centralized { release, .. } => release.wait(epoch, policy),
            Flavor::Hierarchical(h) => h.wait_release(id, epoch, policy),
        }
    }

    /// A centralized worker has no join children: it arrives with `acc` as it is.
    #[inline]
    pub(crate) fn arrive<F>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        match self {
            Flavor::Centralized { join, .. } => join.arrive(id, epoch, acc.as_deref()),
            Flavor::Hierarchical(h) => h.arrive(id, epoch, policy, acc, on_child),
        }
    }
}

/// A half-barrier over `nthreads` participants (participant 0 is the master).
///
/// Per parallel loop the master calls [`HalfBarrier::release`] once and
/// [`HalfBarrier::join`] once; each worker calls [`HalfBarrier::wait_release`] and
/// [`HalfBarrier::arrive`] once.  Epochs must increase by one per loop.
#[derive(Debug)]
pub struct HalfBarrier {
    nthreads: usize,
    pub(crate) flavor: Flavor,
}

impl HalfBarrier {
    /// Creates a centralized half-barrier (one release line every worker spins on, one
    /// arrival line per worker that the master reads).
    pub fn new_centralized(nthreads: usize) -> Self {
        assert!(
            nthreads > 0,
            "a half-barrier needs at least one participant"
        );
        HalfBarrier {
            nthreads,
            flavor: Flavor::Centralized {
                release: CentralizedRelease::new(),
                join: CentralizedJoin::new(nthreads - 1),
            },
        }
    }

    /// Creates the tree half-barrier tuned to a machine topology (see
    /// [`HierarchicalHalfBarrier`]): socket-local trees with the topology's suggested
    /// fan, and one cross-socket rendezvous line per remote socket.
    pub fn new_hierarchical(topology: &Topology, nthreads: usize) -> Self {
        HalfBarrier {
            nthreads,
            flavor: Flavor::Hierarchical(HierarchicalHalfBarrier::new(topology, nthreads)),
        }
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Instrumentation counters of the tree flavor (`None` for the centralized one).
    pub fn hierarchy_stats(&self) -> Option<HierarchyStats> {
        match &self.flavor {
            Flavor::Hierarchical(h) => Some(h.stats()),
            Flavor::Centralized { .. } => None,
        }
    }

    /// The children of participant `id` in the join structure.  For the centralized
    /// flavor the master's children are all workers and workers have none — this is the
    /// set of accumulators participant `id` is responsible for folding during a merged
    /// reduction.
    pub fn combine_children(&self, id: usize) -> Vec<usize> {
        match &self.flavor {
            Flavor::Centralized { .. } if id == 0 => (1..self.nthreads).collect(),
            Flavor::Centralized { .. } => Vec::new(),
            Flavor::Hierarchical(h) => h.combine_children(id),
        }
    }

    // ----- master side -------------------------------------------------------------

    /// Master: release phase of the fork "barrier".  Publishes `epoch` and `payload` to
    /// the workers; never waits.  Any data written before this call is visible to
    /// workers that observe the epoch, and each of them receives `payload` from the
    /// line that released it.
    #[inline]
    pub fn release(&self, epoch: Epoch, payload: &Payload) {
        parlo_trace::instant(parlo_trace::Phase::Release, epoch, 0);
        self.flavor.release(epoch, payload);
    }

    /// Master: join phase of the join "barrier".  Waits until every worker has arrived
    /// for `epoch`.  With an accumulator — a merged reduction — it calls
    /// `on_child(acc, child, payload)` once per direct child, with the payload the child
    /// arrived with, as soon as the child's arrival is seen (tree flavor: the master's
    /// local children and remote socket roots; centralized flavor: every worker, in
    /// order); without one, nothing is called.
    #[inline]
    pub fn join<F>(&self, epoch: Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, on_child: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        parlo_trace::span_begin(parlo_trace::Phase::Join, epoch, 0);
        self.flavor.join(epoch, policy, acc, on_child);
        parlo_trace::span_end(parlo_trace::Phase::Join);
    }

    // ----- worker side -------------------------------------------------------------

    /// Worker `id`: wait until released for `epoch` (forwarding the release to tree
    /// children where applicable) and return the payload it carried.
    #[inline]
    pub fn wait_release(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) -> Payload {
        debug_assert!(id > 0 && id < self.nthreads);
        parlo_trace::span_begin(parlo_trace::Phase::Dispatch, epoch, id as u64);
        let payload = self.flavor.wait_release(id, epoch, policy);
        parlo_trace::span_end(parlo_trace::Phase::Dispatch);
        payload
    }

    /// Worker `id`: non-blocking release probe, used by the hybrid scheduler which
    /// alternates a work-stealing attempt with this poll.  When it returns `true` the
    /// caller must invoke [`HalfBarrier::forward_release`] before executing the loop.
    #[inline]
    pub fn poll_release(&self, id: usize, epoch: Epoch) -> bool {
        match &self.flavor {
            Flavor::Centralized { release, .. } => release.poll(epoch),
            Flavor::Hierarchical(h) => h.poll_release(id, epoch),
        }
    }

    /// Worker `id`: take a release observed through [`HalfBarrier::poll_release`] —
    /// forward it (epoch and payload) to tree children where applicable — and return
    /// the payload it carried.
    #[inline]
    pub fn forward_release(&self, id: usize, epoch: Epoch) -> Payload {
        match &self.flavor {
            Flavor::Centralized { release, .. } => release.payload(),
            Flavor::Hierarchical(h) => h.forward_release(id, epoch),
        }
    }

    /// Worker `id`: arrive for `epoch`, waiting for any join-tree children first.  With
    /// an accumulator, each child's payload is folded into it with
    /// `on_child(acc, child, payload)` and the worker arrives with the folded `acc` as
    /// its payload; without one, it arrives with the epoch alone.
    #[inline]
    pub fn arrive<F>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        debug_assert!(id > 0 && id < self.nthreads);
        parlo_trace::span_begin(parlo_trace::Phase::Arrival, epoch, id as u64);
        self.flavor.arrive(id, epoch, policy, acc, on_child);
        parlo_trace::span_end(parlo_trace::Phase::Arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{fill_of, filled};
    use parlo_sync::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Cycles carrying the epoch down; every other one a reduction carrying each
    /// worker's id up, which the master's join must sum, one fold per direct child.
    fn run_cycles(hb: Arc<HalfBarrier>, cycles: u64) {
        let n = hb.num_threads();
        let policy = WaitPolicy::oversubscribed();
        let work = Arc::new(AtomicUsize::new(0));
        let add = |acc: &mut Payload, _: usize, child: &Payload| {
            *acc = filled(fill_of(*acc) + fill_of(*child));
        };
        let mut handles = Vec::new();
        for id in 1..n {
            let hb = hb.clone();
            let work = work.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=cycles {
                    assert_eq!(fill_of(hb.wait_release(id, epoch, &policy)), epoch);
                    // ordering: SeqCst keeps the harness counter's visibility
                    // independent of the orderings of the barrier under test.
                    work.fetch_add(1, Ordering::SeqCst);
                    let mut acc = filled(id as u64);
                    hb.arrive(
                        id,
                        epoch,
                        &policy,
                        (epoch % 2 == 0).then_some(&mut acc),
                        add,
                    );
                }
            }));
        }
        for epoch in 1..=cycles {
            hb.release(epoch, &filled(epoch));
            // ordering: SeqCst harness counter, independent of the barrier under test.
            work.fetch_add(1, Ordering::SeqCst);
            let (mut combines, mut acc) = (0, filled(0));
            let reduce = epoch % 2 == 0;
            hb.join(epoch, &policy, reduce.then_some(&mut acc), |acc, c, p| {
                combines += 1;
                add(acc, c, p);
            });
            if reduce {
                assert_eq!(combines, hb.combine_children(0).len());
                assert_eq!(fill_of(acc), (n * (n - 1) / 2) as u64, "cycle {epoch}");
            }
            // ordering: after the join phase every participant has contributed for
            // this epoch; SeqCst makes the check independent of the join's orderings.
            assert_eq!(work.load(Ordering::SeqCst) as u64, epoch * n as u64);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn centralized_cycles() {
        run_cycles(Arc::new(HalfBarrier::new_centralized(4)), 50);
    }

    #[test]
    fn topology_aware_cycles() {
        let topo = Topology::synthetic(2, 2).unwrap();
        run_cycles(Arc::new(HalfBarrier::new_hierarchical(&topo, 4)), 50);
    }

    #[test]
    fn hierarchical_cycles() {
        let topo = Topology::synthetic(2, 4).unwrap();
        let hb = Arc::new(HalfBarrier::new_hierarchical(&topo, 8));
        run_cycles(hb.clone(), 50);
        let stats = hb.hierarchy_stats().expect("hierarchical flavor");
        assert_eq!(stats.cycles, 50);
        assert_eq!(stats.cross_socket_rendezvous, 50);
    }

    #[test]
    fn single_participant() {
        let hb = HalfBarrier::new_centralized(1);
        let policy = WaitPolicy::default();
        for epoch in 1..=10 {
            hb.release(epoch, &filled(epoch));
            hb.join(epoch, &policy, Some(&mut filled(0)), |_, _, _| {
                panic!("no children expected")
            });
        }
    }

    #[test]
    fn combine_children_cover_all_workers_exactly_once() {
        for hb in [
            HalfBarrier::new_centralized(7),
            HalfBarrier::new_hierarchical(&Topology::synthetic(2, 3).unwrap(), 7),
        ] {
            let mut all: Vec<usize> = (0..hb.num_threads())
                .flat_map(|id| hb.combine_children(id))
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (1..7).collect::<Vec<_>>(),
                "every worker combined exactly once"
            );
        }
    }

    #[test]
    fn poll_release_matches_wait_release() {
        // One socket of 8 at fan 4: worker 1 wakes workers 5, 6 and 7.
        let hb = HalfBarrier::new_hierarchical(&Topology::synthetic(1, 8).unwrap(), 8);
        assert!(!hb.poll_release(1, 1));
        hb.release(1, &filled(3));
        assert!(hb.poll_release(1, 1));
        assert!(!hb.poll_release(5, 1));
        assert_eq!(fill_of(hb.forward_release(1, 1)), 3);
        assert!(hb.poll_release(5, 1));
        assert_eq!(fill_of(hb.forward_release(5, 1)), 3);
        // The centralized flavor has one line and nothing to forward.
        let hb = HalfBarrier::new_centralized(3);
        hb.release(1, &filled(4));
        assert!(hb.poll_release(2, 1));
        assert_eq!(fill_of(hb.forward_release(2, 1)), 4);
    }

    #[test]
    fn flavor_is_reported() {
        let topo = Topology::synthetic(2, 2).unwrap();
        assert!(HalfBarrier::new_hierarchical(&topo, 4)
            .hierarchy_stats()
            .is_some());
        assert!(HalfBarrier::new_centralized(2).hierarchy_stats().is_none());
    }
}
