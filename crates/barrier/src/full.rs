//! The full barrier: the half-barrier's two phases in reverse order.
//!
//! A full barrier is what conventional loop runtimes execute twice per parallel loop
//! (fork barrier and join barrier, Figure 1(b) of the paper) and what the "fine-grain
//! tree with full-barrier" configuration of Table 1 measures.  The paper obtains the
//! half-barrier by dropping the redundant phases of two full barriers; read the other
//! way round, one full barrier *is* a half-barrier's join followed by its release: the
//! master waits for every arrival and then releases, a worker arrives and then waits to
//! be released.  [`FullBarrier`] is exactly that over a [`HalfBarrier`] — the same
//! structures, the same epoch numbering — so the half-vs-full comparison is a one-line
//! configuration switch in the scheduler.  The OpenMP-like baseline team in
//! `parlo-omp` is built on it as well.
//!
//! A full-barrier episode runs the bare phases: it emits none of the half-barrier's
//! release / join / dispatch / arrival trace events.  Its release carries a payload
//! like every release of the crate: the master passes one in, a worker gets it back.

use crate::{Epoch, HalfBarrier, Payload, WaitPolicy};
use parlo_affinity::Topology;

/// A full (join + release) barrier over `nthreads` participants with explicit epochs.
///
/// Per episode the master calls [`FullBarrier::master_wait`] and every worker calls
/// [`FullBarrier::worker_wait`]; no call returns until all participants have arrived,
/// and all of them are subsequently released.
#[derive(Debug)]
pub struct FullBarrier {
    half: HalfBarrier,
}

impl FullBarrier {
    /// Creates a centralized full barrier.
    pub fn new_centralized(nthreads: usize) -> Self {
        FullBarrier {
            half: HalfBarrier::new_centralized(nthreads),
        }
    }

    /// Creates a tree full barrier tuned to a machine topology (the socket-composed
    /// tree of [`HalfBarrier::new_hierarchical`]).
    pub fn topology_aware(topology: &Topology, nthreads: usize) -> Self {
        FullBarrier {
            half: HalfBarrier::new_hierarchical(topology, nthreads),
        }
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.half.num_threads()
    }

    /// The join-structure children of participant `id` (see
    /// [`HalfBarrier::combine_children`]).
    pub fn combine_children(&self, id: usize) -> Vec<usize> {
        self.half.combine_children(id)
    }

    /// Instrumentation counters of the tree (see [`HalfBarrier::hierarchy_stats`]);
    /// every full-barrier episode counts as one cycle.
    pub fn hierarchy_stats(&self) -> Option<crate::HierarchyStats> {
        self.half.hierarchy_stats()
    }

    /// Master: execute a full barrier episode — wait for every worker's arrival
    /// (folding, with an accumulator, each direct child's arrival payload into it with
    /// `on_child`: reductions aggregated "in the join phase of the tree barrier" as the
    /// Intel OpenMP runtime does), then release all workers with `payload`.
    #[inline]
    pub fn master_wait_combine<F>(
        &self,
        epoch: Epoch,
        policy: &WaitPolicy,
        payload: &Payload,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        self.half.flavor.join(epoch, policy, acc, on_child);
        self.half.flavor.release(epoch, payload);
    }

    /// Master: execute a full barrier episode without any reduction work.
    #[inline]
    pub fn master_wait(&self, epoch: Epoch, policy: &WaitPolicy, payload: &Payload) {
        self.master_wait_combine(epoch, policy, payload, None, |_, _, _| {});
    }

    /// Worker `id`: execute a full barrier episode — announce arrival (folding, with an
    /// accumulator, its join-tree children's payloads into it and arriving with it),
    /// wait to be released, and return the payload of the release.
    #[inline]
    pub fn worker_wait_combine<F>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) -> Payload
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        debug_assert!(id > 0 && id < self.num_threads());
        self.half.flavor.arrive(id, epoch, policy, acc, on_child);
        self.half.flavor.wait_release(id, epoch, policy)
    }

    /// Worker `id`: execute a full barrier episode without reduction work.
    #[inline]
    pub fn worker_wait(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) -> Payload {
        self.worker_wait_combine(id, epoch, policy, None, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{fill_of, filled};
    use crate::EMPTY_PAYLOAD;
    use parlo_sync::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn run_cycles(fb: Arc<FullBarrier>, cycles: u64) {
        let n = fb.num_threads();
        let policy = WaitPolicy::oversubscribed();
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..cycles as usize).map(|_| AtomicUsize::new(0)).collect());
        let mut handles = Vec::new();
        for id in 1..n {
            let fb = fb.clone();
            let counters = counters.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=cycles {
                    // ordering: SeqCst keeps the harness counter's visibility
                    // independent of the orderings of the barrier under test.
                    counters[(epoch - 1) as usize].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(fill_of(fb.worker_wait(id, epoch, &policy)), epoch);
                    // ordering: as above — a full barrier releases workers only
                    // after all arrivals, and SeqCst makes the check sharp.
                    assert_eq!(counters[(epoch - 1) as usize].load(Ordering::SeqCst), n);
                }
            }));
        }
        for epoch in 1..=cycles {
            // ordering: SeqCst harness counter, independent of the barrier under test.
            counters[(epoch - 1) as usize].fetch_add(1, Ordering::SeqCst);
            fb.master_wait(epoch, &policy, &filled(epoch));
            // ordering: as above.
            assert_eq!(counters[(epoch - 1) as usize].load(Ordering::SeqCst), n);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// `(sockets, cores, threads, cycles)`: fully populated 2 × 2, 2 × 4 and 4 × 8
    /// machines, and a 2 × 4 one whose second socket holds one thread.  Their remote
    /// socket roots arrive on their socket line and are released through it, inside a
    /// full barrier.
    const SHAPES: [(usize, usize, usize, u64); 4] =
        [(2, 2, 4, 30), (2, 4, 8, 30), (4, 8, 32, 15), (2, 4, 5, 30)];

    #[test]
    fn centralized_full_barrier_cycles() {
        run_cycles(Arc::new(FullBarrier::new_centralized(4)), 30);
    }

    #[test]
    fn topology_aware_full_barrier_cycles() {
        for (sockets, cores, n, cycles) in SHAPES {
            let topo = Topology::synthetic(sockets, cores).unwrap();
            run_cycles(Arc::new(FullBarrier::topology_aware(&topo, n)), cycles);
        }
    }

    #[test]
    fn combine_children_cover_every_worker_exactly_once() {
        for (sockets, cores, n, _) in SHAPES {
            let fb = FullBarrier::topology_aware(&Topology::synthetic(sockets, cores).unwrap(), n);
            let mut all: Vec<usize> = (0..n).flat_map(|id| fb.combine_children(id)).collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (1..n).collect::<Vec<_>>(),
                "{sockets}x{cores} @ {n} threads"
            );
        }
    }

    /// Runs one episode of `master` and `worker` on two fresh threads with tracing on,
    /// and returns how many events their tracks recorded.
    #[cfg(feature = "trace")]
    fn traced_events(
        label: &str,
        master: impl FnOnce() + Send,
        worker: impl FnOnce() + Send,
    ) -> usize {
        let (m, w) = (format!("{label}-master"), format!("{label}-worker"));
        parlo_trace::enable();
        std::thread::scope(|s| {
            s.spawn(|| {
                parlo_trace::set_thread_label(&w);
                worker();
            });
            s.spawn(|| {
                parlo_trace::set_thread_label(&m);
                master();
            });
        });
        parlo_trace::disable();
        parlo_trace::snapshot()
            .tracks
            .iter()
            .filter(|t| t.label == m || t.label == w)
            .map(|t| t.events.len())
            .sum()
    }

    #[cfg(feature = "trace")]
    #[test]
    fn a_full_barrier_episode_emits_no_half_barrier_events() {
        let topo = Topology::synthetic(2, 1).unwrap();
        let policy = WaitPolicy::oversubscribed();
        let fb = FullBarrier::topology_aware(&topo, 2);
        let full = traced_events(
            "full-episode",
            || fb.master_wait(1, &policy, &EMPTY_PAYLOAD),
            || {
                fb.worker_wait(1, 1, &policy);
            },
        );
        assert_eq!(full, 0, "a full barrier runs the bare phases");
        // The control: the same tree's half-barrier cycle does record its phases.
        let hb = HalfBarrier::new_hierarchical(&topo, 2);
        let half = traced_events(
            "half-cycle",
            || {
                hb.release(1, &EMPTY_PAYLOAD);
                hb.join(1, &policy, None, |_, _, _| {});
            },
            || {
                hb.wait_release(1, 1, &policy);
                hb.arrive(1, 1, &policy, None, |_, _, _| {});
            },
        );
        assert_eq!(half, 7, "release instant, join / dispatch / arrival spans");
    }

    #[test]
    fn master_combine_sees_children() {
        let fb = FullBarrier::new_centralized(1);
        let mut acc = EMPTY_PAYLOAD;
        fb.master_wait_combine(
            1,
            &WaitPolicy::default(),
            &EMPTY_PAYLOAD,
            Some(&mut acc),
            |_, _, _| panic!("no children"),
        );
        let fb = FullBarrier::new_centralized(4);
        let mut all: Vec<usize> = (0..4).flat_map(|id| fb.combine_children(id)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }
}
