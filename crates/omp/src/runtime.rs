//! [`LoopRuntime`] adapter: an [`OmpTeam`] paired with a worksharing schedule.

use crate::schedule::Schedule;
use crate::team::OmpTeam;
use parlo_core::{LoopRuntime, SyncStats};
use std::ops::Range;

/// An [`OmpTeam`] bound to one worksharing [`Schedule`], viewable as a
/// `dyn LoopRuntime`.
///
/// The team's inherent loop methods take the schedule per call; the unified runtime
/// interface has no such parameter, so this wrapper fixes it at construction — one
/// `ScheduledTeam` per Table-1 row (`OpenMP static`, `OpenMP dynamic`, …).
pub struct ScheduledTeam {
    /// The underlying team.
    pub team: OmpTeam,
    /// The worksharing schedule used for every loop.
    pub schedule: Schedule,
}

impl ScheduledTeam {
    /// Wraps an existing team with the given schedule.
    pub fn new(team: OmpTeam, schedule: Schedule) -> Self {
        ScheduledTeam { team, schedule }
    }

    /// Creates a team with `threads` threads using the given schedule.
    pub fn with_threads(threads: usize, schedule: Schedule) -> Self {
        Self::new(OmpTeam::with_threads(threads), schedule)
    }

    /// Creates a team with `threads` threads, the given schedule, and workers placed
    /// according to a shared [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(
        threads: usize,
        schedule: Schedule,
        placement: &parlo_affinity::PlacementConfig,
    ) -> Self {
        Self::new(OmpTeam::with_placement(threads, placement), schedule)
    }

    /// [`ScheduledTeam::with_placement`] with the workers leased from a shared
    /// [`parlo_exec::Executor`] instead of a private one.
    pub fn with_placement_on(
        threads: usize,
        schedule: Schedule,
        placement: &parlo_affinity::PlacementConfig,
        executor: &std::sync::Arc<parlo_exec::Executor>,
    ) -> Self {
        Self::new(
            OmpTeam::with_placement_on(threads, placement, executor),
            schedule,
        )
    }
}

impl LoopRuntime for ScheduledTeam {
    fn name(&self) -> String {
        self.schedule.label().to_string()
    }

    fn threads(&self) -> usize {
        self.team.num_threads()
    }

    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        self.team.parallel_for(range, self.schedule, body);
    }

    fn parallel_for_blocks(&mut self, range: Range<usize>, body: &(dyn Fn(Range<usize>) + Sync)) {
        self.team.parallel_for_blocks(range, self.schedule, body);
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.team
            .parallel_reduce(range, self.schedule, move || init, fold, combine)
    }

    fn parallel_reduce_blocks(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, Range<usize>) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.team
            .parallel_reduce_blocks(range, self.schedule, move || init, fold, combine)
    }

    fn sync_stats(&self) -> SyncStats {
        self.team.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn all_schedules_work_behind_dyn_loop_runtime() {
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunked(7),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            let mut st = ScheduledTeam::with_threads(3, schedule);
            let rt: &mut dyn LoopRuntime = &mut st;
            let hits: Vec<AtomicUsize> = (0..311).map(|_| AtomicUsize::new(0)).collect();
            rt.parallel_for(0..311, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "schedule {schedule:?}"
            );
            let sum = rt.parallel_sum(0..100, &|i| i as f64);
            assert!((sum - 4950.0).abs() < 1e-9, "schedule {schedule:?}");
            assert_eq!(rt.name(), schedule.label());
        }
    }

    #[test]
    fn sync_stats_reflect_full_barrier_structure() {
        let mut st = ScheduledTeam::with_threads(2, Schedule::Static);
        let before = st.sync_stats();
        st.parallel_for(0..10, &|_| {});
        let _ = st.parallel_reduce(0..10, 0.0, &|a, i| a + i as f64, &|a, b| a + b);
        let d = st.sync_stats().since(&before);
        assert_eq!(d.loops, 2);
        assert_eq!(d.reductions, 1);
        assert_eq!(d.barrier_phases, 4 + 6, "2 + 3 full barriers");
        assert_eq!(d.combine_ops, 1);
        assert_eq!(d.steals, 0);
    }
}
