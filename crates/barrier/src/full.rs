//! The full barrier: a join phase followed by a release phase, both executed by every
//! participant.
//!
//! This is what conventional loop runtimes execute twice per parallel loop (fork barrier
//! and join barrier, Figure 1(b) of the paper) and what the "fine-grain tree with
//! full-barrier" configuration of Table 1 measures: the same pool and the same tree, but
//! without dropping the redundant phases.  The OpenMP-like baseline team in `parlo-omp`
//! is built on this structure as well.
//!
//! [`FullBarrier`] takes the epoch explicitly so it can share the persistent-pool
//! epoch numbering with [`crate::HalfBarrier`], making the half-vs-full comparison a
//! one-line configuration switch in the scheduler.

use crate::{
    CentralizedJoin, CentralizedRelease, Epoch, TreeJoin, TreeRelease, TreeShape, WaitPolicy,
};
use parlo_affinity::Topology;

// Constructed once per pool; boxing the large tree variant would only add indirection
// on the wait path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Flavor {
    Centralized {
        release: CentralizedRelease,
        join: CentralizedJoin,
    },
    Tree {
        release: TreeRelease,
        join: TreeJoin,
    },
}

/// A full (join + release) barrier over `nthreads` participants with explicit epochs.
///
/// Per episode the master calls [`FullBarrier::master_wait`] and every worker calls
/// [`FullBarrier::worker_wait`]; no call returns until all participants have arrived,
/// and all of them are subsequently released.
#[derive(Debug)]
pub struct FullBarrier {
    nthreads: usize,
    flavor: Flavor,
}

impl FullBarrier {
    /// Creates a centralized full barrier.
    pub fn new_centralized(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a barrier needs at least one participant");
        FullBarrier {
            nthreads,
            flavor: Flavor::Centralized {
                release: CentralizedRelease::new(),
                join: CentralizedJoin::new(nthreads.saturating_sub(1)),
            },
        }
    }

    /// Creates a tree full barrier over an explicit shape.
    pub fn new_tree(shape: TreeShape) -> Self {
        FullBarrier {
            nthreads: shape.len(),
            flavor: Flavor::Tree {
                release: TreeRelease::new(shape.clone()),
                join: TreeJoin::new(shape),
            },
        }
    }

    /// Creates a tree full barrier tuned to a machine topology.
    pub fn topology_aware(topology: &Topology, nthreads: usize) -> Self {
        let shape =
            TreeShape::topology_aware(topology, nthreads, topology.suggested_arrival_fanin());
        Self::new_tree(shape)
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// The join-structure children of participant `id` (see
    /// [`crate::HalfBarrier::combine_children`]).
    pub fn combine_children(&self, id: usize) -> Vec<usize> {
        match &self.flavor {
            Flavor::Centralized { .. } => {
                if id == 0 {
                    (1..self.nthreads).collect()
                } else {
                    Vec::new()
                }
            }
            Flavor::Tree { join, .. } => join.shape().children(id).to_vec(),
        }
    }

    /// Master: execute a full barrier episode — wait for every worker's arrival
    /// (invoking `on_child` per direct child, for reductions aggregated "in the join
    /// phase of the tree barrier" as the Intel OpenMP runtime does), then release all
    /// workers.
    #[inline]
    pub fn master_wait_combine<F: FnMut(usize)>(
        &self,
        epoch: Epoch,
        policy: &WaitPolicy,
        mut on_child: F,
    ) {
        match &self.flavor {
            Flavor::Centralized { release, join } => {
                join.wait_all(epoch, policy);
                for w in 1..self.nthreads {
                    on_child(w);
                }
                release.signal(epoch);
            }
            Flavor::Tree { release, join } => {
                join.arrive_and_combine(0, epoch, policy, on_child);
                release.signal_root(epoch);
            }
        }
    }

    /// Master: execute a full barrier episode without any reduction work.
    #[inline]
    pub fn master_wait(&self, epoch: Epoch, policy: &WaitPolicy) {
        self.master_wait_combine(epoch, policy, |_| {});
    }

    /// Worker `id`: execute a full barrier episode — announce arrival (combining any
    /// join-tree children via `on_child`) and wait to be released.
    #[inline]
    pub fn worker_wait_combine<F: FnMut(usize)>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        on_child: F,
    ) {
        debug_assert!(id > 0 && id < self.nthreads);
        match &self.flavor {
            Flavor::Centralized { release, join } => {
                let _ = on_child;
                join.arrive();
                release.wait(epoch, policy);
            }
            Flavor::Tree { release, join } => {
                join.arrive_and_combine(id, epoch, policy, on_child);
                release.wait_and_forward(id, epoch, policy);
            }
        }
    }

    /// Worker `id`: execute a full barrier episode without reduction work.
    #[inline]
    pub fn worker_wait(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) {
        self.worker_wait_combine(id, epoch, policy, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    fb.worker_wait(id, epoch, &policy);
                    // ordering: as above — a full barrier releases workers only
                    // after all arrivals, and SeqCst makes the check sharp.
                    assert_eq!(counters[(epoch - 1) as usize].load(Ordering::SeqCst), n);
                }
            }));
        }
        for epoch in 1..=cycles {
            // ordering: SeqCst harness counter, independent of the barrier under test.
            counters[(epoch - 1) as usize].fetch_add(1, Ordering::SeqCst);
            fb.master_wait(epoch, &policy);
            // ordering: as above.
            assert_eq!(counters[(epoch - 1) as usize].load(Ordering::SeqCst), n);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn centralized_full_barrier_cycles() {
        run_cycles(Arc::new(FullBarrier::new_centralized(4)), 30);
    }

    #[test]
    fn tree_full_barrier_cycles() {
        run_cycles(
            Arc::new(FullBarrier::new_tree(TreeShape::uniform(5, 2))),
            30,
        );
    }

    #[test]
    fn topology_aware_full_barrier_cycles() {
        let topo = Topology::synthetic(2, 2).unwrap();
        run_cycles(Arc::new(FullBarrier::topology_aware(&topo, 4)), 30);
    }

    #[test]
    fn master_combine_sees_children() {
        let fb = FullBarrier::new_centralized(1);
        fb.master_wait_combine(1, &WaitPolicy::default(), |_| panic!("no children"));
        let mut all: Vec<usize> = (0..4)
            .flat_map(|id| FullBarrier::new_tree(TreeShape::uniform(4, 2)).combine_children(id))
            .collect();
        all.sort_unstable();
        // Per-instance children are structural, so collecting across fresh instances is fine.
        assert_eq!(all, vec![1, 2, 3]);
    }
}
