//! The persistent fine-grain worker pool.
//!
//! A [`FineGrainPool`] owns `P − 1` worker threads bound to one master (the thread that
//! created the pool and calls the loop methods).  Per parallel loop the pool executes
//! exactly the synchronization the paper's half-barrier pattern prescribes:
//!
//! 1. the master performs the **release phase** of the fork barrier, whose release
//!    lines carry the work description ([`parlo_exec::Job`], the loop's harness by
//!    value) — it never waits at the fork point;
//! 2. every thread (master included) executes its statically assigned share;
//! 3. every worker performs the **join phase** of the completion barrier, folding
//!    reduction views pairwise on the way up the tree; the master waits for its join
//!    children and returns — no release phase follows, nobody acknowledges the workers.
//!
//! The tree is the socket-composed one of [`parlo_barrier::HierarchicalHalfBarrier`]
//! (socket-local trees, one cross-socket rendezvous); [`BarrierKind::CentralizedHalf`]
//! swaps it for one release word and one arrival counter.  Configured with
//! [`BarrierKind::TreeFull`], the same pool runs both phases at both ends over the same
//! tree (two full barriers per loop), which is the baseline structure of conventional
//! runtimes and the "with full-barrier" row of Table 1.
//!
//! The lease on the worker substrate, the worker scheduling loop, the detach cycle and
//! the single-driver guard are the shared [`parlo_exec::Team`] skeleton; this file only
//! selects the sync shape and owns the pool's counters.

use crate::config::{BarrierKind, Config};
use crate::runtime::SyncStats;
use crate::stats::PoolStats;
use parlo_barrier::{Epoch, FullBarrier, HalfBarrier, Payload, WaitPolicy};
use parlo_exec::{Executor, Job, Team, TeamSync};
use std::sync::Arc;

/// Identity of a participant inside a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Participant id: 0 is the master, `1..num_threads` are the workers.
    pub id: usize,
    /// Total number of participants.
    pub num_threads: usize,
}

/// The sync shape of the pool, selected by [`BarrierKind`]: either the paper's
/// half-barrier, in tree or centralized flavor, or a conventional pair of full tree
/// barriers.
#[derive(Debug)]
pub(crate) enum SyncImpl {
    Half(HalfBarrier),
    Full(FullBarrier),
}

impl SyncImpl {
    fn build(config: &Config) -> Self {
        let n = config.num_threads.max(1);
        match config.barrier {
            BarrierKind::TreeHalf => {
                SyncImpl::Half(HalfBarrier::new_hierarchical(&config.topology, n))
            }
            BarrierKind::CentralizedHalf => SyncImpl::Half(HalfBarrier::new_centralized(n)),
            BarrierKind::TreeFull => {
                SyncImpl::Full(FullBarrier::topology_aware(&config.topology, n))
            }
        }
    }
}

/// Dispatches every phase to the configured shape: the half-barrier performs a release
/// at the fork and a join at the end; the full barrier both phases at both ends.
impl TeamSync for SyncImpl {
    fn num_threads(&self) -> usize {
        match self {
            SyncImpl::Half(hb) => hb.num_threads(),
            SyncImpl::Full(fb) => fb.num_threads(),
        }
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job) {
        match self {
            SyncImpl::Half(hb) => hb.master_fork(at, policy, job),
            SyncImpl::Full(fb) => fb.master_fork(at, policy, job),
        }
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job {
        match self {
            SyncImpl::Half(hb) => hb.worker_fork(id, at, policy),
            SyncImpl::Full(fb) => fb.worker_fork(id, at, policy),
        }
    }

    #[inline]
    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        match self {
            SyncImpl::Half(hb) => hb.master_join(at, policy, acc, f),
            SyncImpl::Full(fb) => fb.master_join(at, policy, acc, f),
        }
    }

    #[inline]
    fn worker_join<F>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        f: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        match self {
            SyncImpl::Half(hb) => hb.worker_join(id, at, policy, acc, f),
            SyncImpl::Full(fb) => fb.worker_join(id, at, policy, acc, f),
        }
    }
}

/// The fine-grain parallel loop scheduler of the paper: a persistent worker pool whose
/// loops are synchronized with a single half-barrier.
///
/// Loop methods take `&mut self`: a pool serves exactly one master thread and loops may
/// not nest, which is precisely the structural property that makes the half-barrier's
/// dropped phases redundant.
#[derive(Debug)]
pub struct FineGrainPool {
    /// The shared team skeleton (lease, worker loop, detach cycle) over the
    /// configured sync shape; the pool spawns no threads itself.
    pub(crate) team: Team<SyncImpl>,
    pub(crate) stats: PoolStats,
    config: Config,
}

impl FineGrainPool {
    /// Creates a pool with the default configuration (one thread per detected core,
    /// topology-aware tree half-barrier).
    pub fn with_default_config() -> Self {
        Self::new(Config::default())
    }

    /// Creates a pool with `num_threads` threads and defaults for everything else.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(Config::builder(num_threads).build())
    }

    /// Creates a pool with `num_threads` threads placed (topology, pinning) according
    /// to a shared [`PlacementConfig`](parlo_affinity::PlacementConfig).
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(Config::builder(num_threads).placement(placement).build())
    }

    /// [`FineGrainPool::with_placement`] with the workers leased from a shared
    /// [`Executor`] instead of a private one, so several runtimes can coexist without
    /// oversubscribing the machine.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(
            Config::builder(num_threads).placement(placement).build(),
            executor,
        )
    }

    /// Creates a pool from an explicit configuration, with a private worker substrate.
    pub fn new(config: Config) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a pool from an explicit configuration, leasing its workers from the
    /// given substrate.  The pool spawns no threads of its own; the substrate grows to
    /// at most `num_threads − 1` workers on the pool's first loop.
    pub fn new_on(config: Config, executor: &Arc<Executor>) -> Self {
        Self::build(config, executor, None)
    }

    /// Creates a gang-sized pool over an explicit partition of substrate worker ids
    /// (see [`Executor::register_partition`] for the partition contract).  The
    /// configuration's `num_threads` must equal `workers.len() + 1`: the driving
    /// master plus one participant per leased worker.  Unlike the exclusive
    /// constructors this never re-pins the calling thread — a gang pool is typically
    /// constructed on a control thread and *driven* by a substrate worker that is
    /// already pinned.
    pub fn new_on_partition(config: Config, executor: &Arc<Executor>, workers: &[usize]) -> Self {
        assert_eq!(
            config.num_threads,
            workers.len() + 1,
            "a partition pool has one thread per leased worker plus its master"
        );
        Self::build(config, executor, Some(workers))
    }

    fn build(config: Config, executor: &Arc<Executor>, partition: Option<&[usize]>) -> Self {
        let team = Team::build(
            format!("fine-grain ({})", config.barrier.label()),
            SyncImpl::build(&config),
            config.wait,
            &config.topology,
            config.pin,
            executor,
            partition,
        );
        FineGrainPool {
            stats: PoolStats::new(team.num_threads()),
            team,
            config,
        }
    }

    /// The substrate this pool leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.team.executor()
    }

    /// Number of threads in the pool (master included).
    pub fn num_threads(&self) -> usize {
        self.team.num_threads()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// A snapshot of the pool's instrumentation counters.
    pub fn stats(&self) -> SyncStats {
        self.stats.snapshot()
    }

    /// Barrier phases the pool executes per loop (2 for half-barrier configurations,
    /// 4 for full-barrier configurations; a release or a join phase each count as one).
    pub fn phases_per_loop(&self) -> u64 {
        match self.team.sync() {
            SyncImpl::Half(_) => 2,
            SyncImpl::Full(_) => 4,
        }
    }

    /// Instrumentation counters of the tree (per-socket arrival counts, cross-socket
    /// rendezvous per cycle; a full-barrier pool counts two cycles per loop), or `None`
    /// when the pool uses the centralized half-barrier.
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        match self.team.sync() {
            SyncImpl::Half(hb) => hb.hierarchy_stats(),
            SyncImpl::Full(fb) => fb.hierarchy_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    fn pool(kind: BarrierKind, threads: usize) -> FineGrainPool {
        FineGrainPool::new(Config::builder(threads).barrier(kind).build())
    }

    #[test]
    fn pool_creation_and_teardown_all_kinds() {
        for kind in BarrierKind::ALL {
            for threads in [1, 2, 4] {
                let p = pool(kind, threads);
                assert_eq!(p.num_threads(), threads);
                drop(p);
            }
        }
    }

    #[test]
    fn broadcast_runs_every_participant_each_loop() {
        for kind in BarrierKind::ALL {
            let mut p = pool(kind, 4);
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..25 {
                p.broadcast(|info| {
                    hits[info.id].fetch_add(1, Ordering::Relaxed);
                    assert_eq!(info.num_threads, 4);
                });
            }
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 25, "kind {kind:?}");
            }
        }
    }

    #[test]
    fn phases_per_loop_reflects_half_vs_full() {
        assert_eq!(pool(BarrierKind::TreeHalf, 2).phases_per_loop(), 2);
        assert_eq!(pool(BarrierKind::CentralizedHalf, 2).phases_per_loop(), 2);
        assert_eq!(pool(BarrierKind::TreeFull, 2).phases_per_loop(), 4);
    }

    #[test]
    fn single_thread_pool_runs_loops() {
        let mut p = FineGrainPool::with_threads(1);
        let counter = AtomicUsize::new(0);
        p.parallel_for(0..100, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stats_count_loops_and_phases() {
        let mut p = pool(BarrierKind::TreeHalf, 2);
        p.parallel_for(0..10, |_| {});
        p.parallel_for(0..10, |_| {});
        let s = p.stats();
        assert_eq!(s.loops, 2);
        assert_eq!(s.barrier_phases, 4);

        let mut pf = pool(BarrierKind::TreeFull, 2);
        pf.parallel_for(0..10, |_| {});
        assert_eq!(pf.stats().barrier_phases, 4);
    }

    #[test]
    fn placement_pool_uses_hierarchical_half_barrier() {
        use parlo_affinity::{PinPolicy, PlacementConfig};
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = FineGrainPool::with_placement(4, &placement);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            p.parallel_for(0..100, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let h = p.hierarchy_stats().expect("hierarchical sync enabled");
        assert_eq!(h.cycles, 10);
        assert_eq!(h.cross_socket_rendezvous, 10, "one rendezvous per loop");

        // The full-barrier ablation runs the same tree, one cycle per full barrier.
        let config = Config::builder(4).placement(&placement);
        let mut full = FineGrainPool::new(config.barrier(BarrierKind::TreeFull).build());
        for _ in 0..10 {
            full.parallel_for(0..100, |_| {});
        }
        let h = full
            .hierarchy_stats()
            .expect("the full barrier runs the tree");
        assert_eq!((h.cycles, h.cross_socket_rendezvous), (20, 20));
    }

    #[test]
    fn with_default_config_works() {
        let mut p = FineGrainPool::with_default_config();
        let n = p.num_threads();
        assert!(n >= 1);
        let sum = parlo_sync::AtomicUsize::new(0);
        p.parallel_for(0..1000, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499_500);
    }
}
