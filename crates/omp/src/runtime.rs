//! [`ScheduledTeam`]: an [`OmpTeam`] paired with a worksharing schedule, the team's
//! face as a loop runtime.  Its [`Loops`](parlo_core::Loops) impl is in `team.rs`,
//! beside the worksharing it deals; `parlo-core`'s blanket impl makes it a
//! [`LoopRuntime`](parlo_core::LoopRuntime).

use crate::schedule::Schedule;
use crate::team::OmpTeam;

/// An [`OmpTeam`] bound to one worksharing [`Schedule`]: the runtime that runs the
/// team's loops, generically ([`Loops`](parlo_core::Loops)) and as a
/// `dyn LoopRuntime`.
///
/// Neither loop interface has a schedule parameter, so this wrapper fixes it at
/// construction — one `ScheduledTeam` per Table-1 row (`OpenMP static`,
/// `OpenMP dynamic`, …); the adaptive router retargets its one team by assigning
/// [`ScheduledTeam::schedule`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_core::LoopRuntime;
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
