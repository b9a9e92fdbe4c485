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
//! schedules (see [`crate::Schedule`]).  The loops themselves are the [`Loops`] methods
//! of a [`ScheduledTeam`], the team paired with one schedule: `parlo-core`'s loop and
//! merged-reduction harnesses ([`parlo_core::deal_for`], [`parlo_core::deal_reduce`])
//! with this team's worksharing descriptor as the dealer.
//!
//! The team itself — lease, worker loop, detach cycle, single-driver guard — is the
//! shared [`parlo_exec::Team`] skeleton over the [`ExtraReductionBarrier`] sync shape.

use crate::schedule::Schedule;
use crate::ScheduledTeam;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{FullBarrier, WaitPolicy};
use parlo_core::{deal_for, deal_reduce, Deal, Loops, PoolStats, SyncStats};
use parlo_exec::{Executor, ExtraReductionBarrier, Team};
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
}

/// The worksharing descriptor of one region: how the iterations of `range` are dealt
/// to the participants under `schedule`.  It holds the region's shared dispensers, so
/// it stays on the master's stack and the job carries a reference to it as the
/// region's dealer; the job carries the body and the reduction operators by value.
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

/// A participant's share under the schedule: its static block, its `static,chunk`
/// chunks, or the chunks it takes from the shared dispenser.
impl Deal for &Worksharing<'_> {
    fn deal<A>(&self, id: usize, acc: A, mut piece: impl FnMut(A, Range<usize>) -> A) -> A {
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
}

/// The OpenMP-style loops: a full fork barrier, worksharing under the team's
/// schedule, and a full join barrier; a reduction adds a full barrier whose join phase
/// aggregates the per-thread partial results — three full barriers in total, as the
/// Intel OpenMP runtime structure the paper describes.  A body or fold runs once per
/// non-empty piece the schedule deals a participant (a static block, a `static,chunk`
/// chunk, a dispensed chunk), in the order the participant runs them.
impl Loops for ScheduledTeam {
    fn name(&self) -> String {
        self.schedule.label().to_string()
    }

    fn threads(&self) -> usize {
        self.team.num_threads()
    }

    fn sync_stats(&self) -> SyncStats {
        self.team.stats()
    }

    fn for_blocks<B>(&mut self, range: Range<usize>, body: B)
    where
        B: Fn(Range<usize>) + Sync + Copy,
    {
        // An empty range is a fast-path no-op: no barrier episode, no counters — the
        // same guarantee every runtime in the workspace gives.
        if range.is_empty() {
            return;
        }
        let team = &self.team;
        let work = Worksharing::new(team, range, self.schedule);
        // SAFETY: `&mut self` makes this thread the team's one driver, and `work`
        // outlives the region.  Two full barriers: four phases.
        unsafe { deal_for(&team.team, &team.stats, 4, &work, body) };
    }

    fn reduce_blocks<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Copy,
        Fold: Fn(T, Range<usize>) -> T + Sync + Copy,
        Comb: Fn(T, T) -> T + Sync + Copy,
    {
        // Empty reductions return the identity without a barrier episode.
        if range.is_empty() {
            return identity();
        }
        let team = &self.team;
        let work = Worksharing::new(team, range, self.schedule);
        // SAFETY: as in `for_blocks`.  The job carries a combine, so the sync shape
        // adds the reduction barrier whose join phase merges the accumulators: six phases.
        unsafe { deal_reduce(&team.team, &team.stats, 6, &work, identity, fold, combine) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    fn scheduled(threads: usize, schedule: Schedule) -> ScheduledTeam {
        ScheduledTeam::with_threads(threads, schedule)
    }

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
            let mut t = scheduled(3, schedule);
            let hits: Vec<AtomicUsize> = (0..311).map(|_| AtomicUsize::new(0)).collect();
            t.for_each(0..311, |i| {
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
        let mut t = scheduled(2, Schedule::Static);
        t.for_each(0..10, |_| {});
        assert_eq!(
            t.team.stats().barrier_phases,
            4,
            "plain loop: 2 full barriers"
        );
        let _ = t.reduce(0..10, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(
            t.team.stats().barrier_phases,
            4 + 6,
            "reduction loop: 3 full barriers"
        );
    }

    #[test]
    fn reduce_matches_sequential() {
        let n = 5_000usize;
        let expected: u64 = (0..n as u64).map(|i| i * i).sum();
        for schedule in [Schedule::Static, Schedule::Dynamic(16), Schedule::Guided(4)] {
            let mut t = scheduled(4, schedule);
            let got = t.reduce(
                0..n,
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
            let mut t = scheduled(threads, Schedule::Static);
            let _ = t.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(t.team.stats().combine_ops, (threads - 1) as u64);
        }
    }

    #[test]
    fn dynamic_schedule_dispenses_chunks() {
        let mut t = scheduled(2, Schedule::Dynamic(10));
        t.for_each(0..100, |_| {});
        assert_eq!(t.team.stats().dynamic_chunks, 10);
    }

    #[test]
    fn placement_team_runs_loops() {
        use parlo_affinity::PlacementConfig;
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut t = ScheduledTeam::with_placement(4, Schedule::Static, &placement);
        assert_eq!(t.team.config().topology.num_sockets(), 2);
        assert_eq!(t.team.config().pin, PinPolicy::None);
        let counter = AtomicUsize::new(0);
        t.for_each(0..100, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn many_fine_grain_loops() {
        let mut t = scheduled(4, Schedule::Static);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            t.for_each(0..8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
        assert_eq!(t.team.stats().loops, 100);
    }
}
