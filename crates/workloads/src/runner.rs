//! Runtime dispatch for the workloads: everything here programs against the unified
//! [`LoopRuntime`] trait from `parlo-core`.
//!
//! Historically this module carried one hand-written adapter struct per scheduler
//! (`FineGrainRunner`, `OmpRunner`, `CilkRunner`, `CilkFineRunner`), each repeating the
//! same delegation boilerplate.  Those adapters are gone: [`FineGrainPool`],
//! [`ScheduledTeam`], [`CilkPool`] and [`CilkFineGrain`] implement [`LoopRuntime`]
//! themselves, so a workload that takes `&mut dyn LoopRuntime` runs unchanged on every
//! scheduler (and on [`Sequential`] for reference results).  [`all_runtimes`] builds
//! the standard evaluation roster as boxed trait objects.
//!
//! [`FineGrainPool`]: parlo_core::FineGrainPool
//! [`ScheduledTeam`]: parlo_omp::ScheduledTeam
//! [`CilkPool`]: parlo_cilk::CilkPool
//! [`CilkFineGrain`]: parlo_cilk::CilkFineGrain

pub use parlo_affinity::PlacementConfig;
pub use parlo_core::{LoopRuntime, Sequential, SyncStats};
pub use parlo_exec::Executor;

use std::sync::Arc;

/// The standard cross-runtime evaluation roster on `threads` threads: sequential
/// reference, fine-grain pool, the OpenMP-like team under its three main worksharing
/// schedules, both paths of the Cilk-like pool, and the work-stealing chunk pool.
/// Workers are placed (topology, pinning) by the default [`PlacementConfig`]: detected
/// machine, compact pinning.
pub fn all_runtimes(threads: usize) -> Vec<Box<dyn LoopRuntime>> {
    all_runtimes_with_placement(threads, &PlacementConfig::default())
}

/// The standard roster with every worker pool built from a shared [`PlacementConfig`],
/// so the whole evaluation can run on a synthetic machine shape (deterministic
/// hierarchy, CI-testable) or with a non-default pin policy.
///
/// All seven parallel runtimes lease their workers from **one** [`Executor`] created
/// here, so the whole roster holds at most `threads − 1` live OS worker threads —
/// keeping many pools alive no longer multiplies the thread count by the roster size.
pub fn all_runtimes_with_placement(
    threads: usize,
    placement: &PlacementConfig,
) -> Vec<Box<dyn LoopRuntime>> {
    all_runtimes_on(threads, placement, &Executor::for_placement(placement))
}

/// [`all_runtimes_with_placement`] on an explicit worker substrate, so callers can
/// share the executor beyond the roster (e.g. with an
/// `AdaptivePool` holding its own backends) and observe the census through
/// [`Executor::stats`](parlo_exec::Executor::stats).
pub fn all_runtimes_on(
    threads: usize,
    placement: &PlacementConfig,
    executor: &Arc<Executor>,
) -> Vec<Box<dyn LoopRuntime>> {
    vec![
        Box::new(Sequential),
        Box::new(parlo_core::FineGrainPool::with_placement_on(
            threads, placement, executor,
        )),
        Box::new(parlo_omp::ScheduledTeam::with_placement_on(
            threads,
            parlo_omp::Schedule::Static,
            placement,
            executor,
        )),
        Box::new(parlo_omp::ScheduledTeam::with_placement_on(
            threads,
            parlo_omp::Schedule::Dynamic(8),
            placement,
            executor,
        )),
        Box::new(parlo_omp::ScheduledTeam::with_placement_on(
            threads,
            parlo_omp::Schedule::Guided(2),
            placement,
            executor,
        )),
        Box::new(parlo_cilk::CilkPool::with_placement_on(
            threads, placement, executor,
        )),
        Box::new(parlo_cilk::CilkFineGrain::with_placement_on(
            threads, placement, executor,
        )),
        Box::new(parlo_steal::StealPool::with_placement_on(
            threads, placement, executor,
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn every_runtime_covers_the_range() {
        for mut r in all_runtimes(3) {
            let hits: Vec<AtomicUsize> = (0..301).map(|_| AtomicUsize::new(0)).collect();
            r.parallel_for(0..301, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "runtime {}",
                r.name()
            );
        }
    }

    #[test]
    fn every_runtime_sums_correctly() {
        let expected: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
        for mut r in all_runtimes(3) {
            let got = r.parallel_sum(0..1000, &|i| (i as f64).sqrt());
            assert!(
                (got - expected).abs() < 1e-6,
                "runtime {} got {got}, expected {expected}",
                r.name()
            );
            assert!(r.threads() >= 1);
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn placement_roster_covers_the_range_on_a_synthetic_machine() {
        use parlo_affinity::PinPolicy;
        let placement = PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None);
        for mut r in all_runtimes_with_placement(4, &placement) {
            let hits: Vec<AtomicUsize> = (0..301).map(|_| AtomicUsize::new(0)).collect();
            r.parallel_for(0..301, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "runtime {}",
                r.name()
            );
        }
    }

    #[test]
    fn roster_exposes_all_three_omp_schedules_and_the_stealing_pool() {
        let names: Vec<String> = all_runtimes(2).iter().map(|r| r.name()).collect();
        for expected in [
            "OpenMP static",
            "OpenMP dynamic",
            "OpenMP guided",
            "fine-grain stealing",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn irregular_workloads_agree_with_sequential_on_every_runtime() {
        use crate::irregular;
        let skewed = irregular::skewed_sequential(400, 2);
        let triangular = irregular::triangular_sequential(250);
        for r in all_runtimes(3).iter_mut() {
            assert_eq!(
                irregular::skewed_sum(r.as_mut(), 400, 2),
                skewed,
                "skewed-geometric on {}",
                r.name()
            );
            assert_eq!(
                irregular::triangular_sum(r.as_mut(), 250),
                triangular,
                "triangular-nest on {}",
                r.name()
            );
        }
    }
}
