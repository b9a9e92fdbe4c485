//! The OpenMP-like thread team.
//!
//! This reproduces the synchronization *structure* of the Intel OpenMP runtime that the
//! paper measures against (§2 and Table 1):
//!
//! * a persistent team of threads bound to the master;
//! * every parallel loop executes a **full fork barrier** (all threads check in, then
//!   all are released into the region) and a **full join barrier** (all threads check
//!   in, then all are released out of the region) — two full barriers per loop;
//! * a loop with a reduction clause executes an **additional full tree barrier** whose
//!   join phase aggregates the per-thread partial results — three full barriers per
//!   reduction loop.
//!
//! The work-distribution side supports `static`, `static,chunk`, `dynamic` and `guided`
//! schedules (see [`crate::Schedule`]).
//!
//! The team itself — lease, worker loop, detach cycle, single-driver guard — is the
//! shared [`parlo_exec::Team`] skeleton over the [`ExtraReductionBarrier`] sync shape.

use crate::schedule::Schedule;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{FullBarrier, WaitPolicy};
use parlo_core::{PoolStats, SyncStats};
use parlo_exec::{fold_range, walk_range, Executor, ExtraReductionBarrier, Job, ReduceViews, Team};
use std::ops::Range;
use std::sync::Arc;

/// Configuration of an [`OmpTeam`].
#[derive(Debug, Clone)]
pub struct TeamConfig {
    /// Number of threads in the team (master included).
    pub num_threads: usize,
    /// Machine topology used for the barrier tree and pinning.
    pub topology: Topology,
    /// Thread pinning policy.
    pub pin: PinPolicy,
    /// Waiting policy.
    pub wait: WaitPolicy,
}

impl Default for TeamConfig {
    fn default() -> Self {
        let topology = Topology::detect();
        let num_threads = topology.num_cores().max(1);
        TeamConfig {
            num_threads,
            pin: PinPolicy::Compact,
            wait: WaitPolicy::auto_for(num_threads),
            topology,
        }
    }
}

impl TeamConfig {
    /// A configuration with `num_threads` threads and defaults for everything else.
    pub fn with_threads(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        TeamConfig {
            num_threads,
            wait: WaitPolicy::auto_for(num_threads),
            ..TeamConfig::default()
        }
    }

    /// A configuration with `num_threads` threads placed according to a shared
    /// [`parlo_affinity::PlacementConfig`] (topology source + pin policy).  The
    /// topology shapes the team's *full* barriers exactly as it shapes the fine-grain
    /// schedulers' half-barrier: they run the same socket-composed tree
    /// ([`parlo_barrier::FullBarrier::topology_aware`]), its join and release in
    /// reverse order.
    pub fn from_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        TeamConfig {
            topology: placement.topology(),
            pin: placement.pin,
            ..Self::with_threads(num_threads)
        }
    }
}

/// An OpenMP-like persistent thread team.
///
/// Loop methods take `&mut self`; a team serves a single master thread and regions do
/// not nest (matching the single-level parallelism the paper evaluates).
#[derive(Debug)]
pub struct OmpTeam {
    /// The shared team skeleton over the OpenMP-like sync shape: each plain loop
    /// consumes two full-barrier episodes (fork + join) and each reduction loop three
    /// (fork + reduction + join).  The team spawns no threads of its own.
    team: Team<ExtraReductionBarrier>,
    stats: PoolStats,
    config: TeamConfig,
}

impl OmpTeam {
    /// Creates a team with `num_threads` threads.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(TeamConfig::with_threads(num_threads))
    }

    /// Creates a team with `num_threads` threads placed according to a shared
    /// [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(TeamConfig::from_placement(num_threads, placement))
    }

    /// [`OmpTeam::with_placement`] with the workers leased from a shared [`Executor`]
    /// instead of a private one.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(TeamConfig::from_placement(num_threads, placement), executor)
    }

    /// Creates a team from an explicit configuration, with a private worker substrate.
    pub fn new(config: TeamConfig) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a team from an explicit configuration, leasing its workers from the
    /// given substrate.
    pub fn new_on(config: TeamConfig, executor: &Arc<Executor>) -> Self {
        let nthreads = config.num_threads.max(1);
        let team = Team::build(
            "omp-team".to_string(),
            ExtraReductionBarrier(FullBarrier::topology_aware(&config.topology, nthreads)),
            config.wait,
            &config.topology,
            config.pin,
            executor,
            None,
        );
        OmpTeam {
            stats: PoolStats::new(nthreads),
            team,
            config,
        }
    }

    /// The substrate this team leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.team.executor()
    }

    /// Number of threads in the team (master included).
    pub fn num_threads(&self) -> usize {
        self.team.num_threads()
    }

    /// The configuration the team was built with.
    pub fn config(&self) -> &TeamConfig {
        &self.config
    }

    /// A snapshot of the team's instrumentation counters.
    pub fn stats(&self) -> SyncStats {
        self.stats.snapshot()
    }

    /// Counts one region (two full barriers, three with a reduction) and runs it.
    ///
    /// # Safety
    /// Everything the job's harness refers to must stay alive until this call returns
    /// and must be safe to use concurrently from all participants.
    unsafe fn run_region(&self, job: Job) {
        let barriers = if job.has_combine() { 3 } else { 2 };
        self.stats.record_loop(2 * barriers);
        // SAFETY: forwarded contract.
        unsafe { self.team.run(job) };
    }
}

// ---------------------------------------------------------------------------------
// Worksharing + reduction entry points
// ---------------------------------------------------------------------------------

/// The worksharing descriptor of one region: how the iterations of `range` are dealt
/// to the participants under `schedule`.
struct Worksharing<'a> {
    schedule: Schedule,
    range: Range<usize>,
    nthreads: usize,
    dynamic: parlo_core::DynamicChunks,
    guided: parlo_core::GuidedChunks,
    stats: &'a PoolStats,
}

impl<'a> Worksharing<'a> {
    fn new(team: &'a OmpTeam, range: Range<usize>, schedule: Schedule) -> Self {
        let nthreads = team.num_threads();
        let (dyn_chunk, guided_min) = match schedule {
            Schedule::Dynamic(c) => (c.max(1), 1),
            Schedule::Guided(m) => (1, m.max(1)),
            _ => (1, 1),
        };
        Worksharing {
            schedule,
            nthreads,
            dynamic: parlo_core::DynamicChunks::new(range.clone(), dyn_chunk),
            guided: parlo_core::GuidedChunks::new(range.clone(), nthreads, guided_min),
            range,
            stats: &team.stats,
        }
    }

    /// Deals participant `id` its share of the region as non-empty contiguous ranges,
    /// threading `acc` through `piece` (a plain loop threads `()`, a reduction its
    /// accumulator).
    fn run<A>(&self, id: usize, acc: A, mut piece: impl FnMut(A, Range<usize>) -> A) -> A {
        let mut piece = |acc, r: Range<usize>| if r.is_empty() { acc } else { piece(acc, r) };
        match self.schedule {
            Schedule::Static => {
                let block = parlo_core::static_block(&self.range, self.nthreads, id);
                piece(acc, block)
            }
            Schedule::StaticChunked(chunk) => {
                parlo_core::static_chunks(&self.range, self.nthreads, id, chunk).fold(acc, piece)
            }
            Schedule::Dynamic(_) => {
                self.run_dispensed(id, || self.dynamic.next_chunk(), acc, piece)
            }
            Schedule::Guided(_) => self.run_dispensed(id, || self.guided.next_chunk(), acc, piece),
        }
    }

    /// Drains a shared dispenser on behalf of participant `id`.  Chunks are counted
    /// locally and added once, so a dispensed chunk pays no contended RMW beyond the
    /// dispenser's own.
    fn run_dispensed<A>(
        &self,
        id: usize,
        mut next_chunk: impl FnMut() -> Option<Range<usize>>,
        mut acc: A,
        mut piece: impl FnMut(A, Range<usize>) -> A,
    ) -> A {
        let mut dispensed = 0;
        while let Some(chunk) = next_chunk() {
            dispensed += 1;
            acc = piece(acc, chunk);
        }
        self.stats.record_dynamic_chunks(id, dispensed);
        acc
    }
}

/// Harness for `parallel_for_blocks`.  Its worksharing descriptor holds the region's
/// shared dispensers, so the harness stays on the master's stack and the job carries a
/// reference to it; the harness owns the block body (a `LoopRuntime` call's `&dyn` body
/// is held as it is, or inside its per-index adapter, not behind a reference).
struct ForHarness<'a, F> {
    body: F,
    work: Worksharing<'a>,
}

/// The harness behind a job's `data`: the job carries a `&H`.
///
/// # Safety
/// `data` points at a `&H` whose referent outlives `'a`.
unsafe fn shared<'a, H>(data: *const ()) -> &'a H {
    // SAFETY: the caller's contract.
    unsafe { *(data as *const &H) }
}

unsafe fn exec_for<F: Fn(Range<usize>) + Sync>(data: *const (), id: usize) {
    // SAFETY: the job carries a `&ForHarness<F>` into the master's frame, which is
    // alive until the episode's closing barrier.
    let h = unsafe { shared::<ForHarness<'_, F>>(data) };
    h.work.run(id, (), |(), piece| (h.body)(piece));
}

/// Harness for `parallel_reduce`, on the master's stack like [`ForHarness`].
struct ReduceHarness<'a, T, Id, Fold, Comb> {
    identity: Id,
    fold: Fold,
    combine: Comb,
    views: ReduceViews<'a, T>,
    work: Worksharing<'a>,
}

unsafe fn exec_reduce<T, Id, Fold, Comb>(data: *const (), id: usize)
where
    Id: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
    Comb: Fn(T, T) -> T + Sync,
{
    // SAFETY: as in `exec_for`.
    let h = unsafe { shared::<ReduceHarness<'_, T, Id, Fold, Comb>>(data) };
    let acc = h.work.run(id, (h.identity)(), &h.fold);
    // SAFETY: each participant writes only its own view before the reduction barrier.
    unsafe { h.views.put(id, acc) };
}

unsafe fn combine_reduce<T, Id, Fold, Comb>(data: *const (), into: usize, from: usize)
where
    Id: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
    Comb: Fn(T, T) -> T + Sync,
{
    // SAFETY: as in `exec_for`.
    let h = unsafe { shared::<ReduceHarness<'_, T, Id, Fold, Comb>>(data) };
    h.work.stats.record_combine(into);
    // SAFETY: serialized by the reduction barrier's join phase.
    unsafe { h.views.combine(into, from, &h.combine) };
}

impl OmpTeam {
    /// An OpenMP-style parallel loop: full fork barrier, worksharing according to
    /// `schedule`, full join barrier.
    pub fn parallel_for<F>(&mut self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_blocks(range, schedule, move |r| walk_range(&body, r));
    }

    /// [`OmpTeam::parallel_for`] with a block body: `body(piece)` runs once per
    /// non-empty piece `schedule` deals (a static block, a `static,chunk` chunk, a
    /// dispensed chunk).
    pub(crate) fn parallel_for_blocks<F>(
        &mut self,
        range: Range<usize>,
        schedule: Schedule,
        body: F,
    ) where
        F: Fn(Range<usize>) + Sync,
    {
        // An empty range is a fast-path no-op: no barrier episode, no counters — the
        // same guarantee every runtime in the workspace gives.
        if range.is_empty() {
            return;
        }
        let harness = ForHarness {
            body,
            work: Worksharing::new(self, range, schedule),
        };
        // SAFETY: the harness outlives `run_region`; `exec_for::<F>` reads the
        // reference to it the job carries.
        unsafe { self.run_region(Job::new(&harness, exec_for::<F>, None)) };
    }

    /// An OpenMP-style reduction loop: full fork barrier, worksharing, an additional
    /// full barrier whose join phase aggregates the per-thread partial results, and a
    /// full join barrier — three full barriers in total, as the Intel OpenMP runtime
    /// structure the paper describes.
    pub fn parallel_reduce<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        schedule: Schedule,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let blocks = move |acc, r| fold_range(&fold, acc, r);
        self.parallel_reduce_blocks(range, schedule, identity, blocks, combine)
    }

    /// [`OmpTeam::parallel_reduce`] with a block fold: `fold(acc, piece)` folds each
    /// non-empty piece `schedule` deals a participant, in the order it runs them.
    pub(crate) fn parallel_reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        schedule: Schedule,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, Range<usize>) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        // Empty reductions return the identity without a barrier episode.
        if range.is_empty() {
            return identity();
        }
        let harness = ReduceHarness {
            identity,
            fold,
            combine,
            // SAFETY: `&mut self` makes this thread the team's one driver, between
            // regions; the previous reduction's handle is gone.
            views: unsafe { self.team.views() },
            work: Worksharing::new(self, range, schedule),
        };
        self.stats.record_reduction();
        // SAFETY: as in `parallel_for`; view accesses are serialized by the reduction
        // barrier protocol.
        unsafe {
            self.run_region(Job::new(
                &harness,
                exec_reduce::<T, Id, Fold, Comb>,
                Some(combine_reduce::<T, Id, Fold, Comb>),
            ));
        }
        // SAFETY: the region has completed; the master is the only remaining accessor.
        unsafe { harness.views.take(0) }.expect("master view present after the region")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn team_creation_and_teardown() {
        for threads in [1, 2, 4] {
            let t = OmpTeam::with_threads(threads);
            assert_eq!(t.num_threads(), threads);
            drop(t);
        }
    }

    #[test]
    fn parallel_for_covers_range_under_all_schedules() {
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunked(7),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            let mut t = OmpTeam::with_threads(3);
            let hits: Vec<AtomicUsize> = (0..311).map(|_| AtomicUsize::new(0)).collect();
            t.parallel_for(0..311, schedule, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "schedule {schedule:?}"
            );
        }
    }

    #[test]
    fn loop_costs_two_full_barriers_and_reduction_three() {
        let mut t = OmpTeam::with_threads(2);
        t.parallel_for(0..10, Schedule::Static, |_| {});
        assert_eq!(t.stats().barrier_phases, 4, "plain loop: 2 full barriers");
        let _ = t.parallel_reduce(
            0..10,
            Schedule::Static,
            || 0u64,
            |a, i| a + i as u64,
            |a, b| a + b,
        );
        assert_eq!(
            t.stats().barrier_phases,
            4 + 6,
            "reduction loop: 3 full barriers"
        );
    }

    #[test]
    fn reduce_matches_sequential() {
        let n = 5_000usize;
        let expected: u64 = (0..n as u64).map(|i| i * i).sum();
        for schedule in [Schedule::Static, Schedule::Dynamic(16), Schedule::Guided(4)] {
            let mut t = OmpTeam::with_threads(4);
            let got = t.parallel_reduce(
                0..n,
                schedule,
                || 0u64,
                |acc, i| acc + (i as u64) * (i as u64),
                |a, b| a + b,
            );
            assert_eq!(got, expected, "schedule {schedule:?}");
        }
    }

    #[test]
    fn reduction_combines_p_minus_one_views() {
        for threads in [1usize, 2, 4] {
            let mut t = OmpTeam::with_threads(threads);
            let _ = t.parallel_reduce(
                0..100,
                Schedule::Static,
                || 0u64,
                |a, i| a + i as u64,
                |a, b| a + b,
            );
            assert_eq!(t.stats().combine_ops, (threads - 1) as u64);
        }
    }

    #[test]
    fn dynamic_schedule_dispenses_chunks() {
        let mut t = OmpTeam::with_threads(2);
        t.parallel_for(0..100, Schedule::Dynamic(10), |_| {});
        assert_eq!(t.stats().dynamic_chunks, 10);
    }

    #[test]
    fn placement_team_runs_loops() {
        use parlo_affinity::PlacementConfig;
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut t = OmpTeam::with_placement(4, &placement);
        assert_eq!(t.config().topology.num_sockets(), 2);
        assert_eq!(t.config().pin, PinPolicy::None);
        let counter = AtomicUsize::new(0);
        t.parallel_for(0..100, Schedule::Static, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn many_fine_grain_loops() {
        let mut t = OmpTeam::with_threads(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            t.parallel_for(0..8, Schedule::Static, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
        assert_eq!(t.stats().loops, 100);
    }
}
