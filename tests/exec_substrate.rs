//! Thread-lifecycle battery for the shared worker substrate (`parlo-exec`).
//!
//! The bug class this guards against: before the substrate existed, every pool spawned
//! its own `P − 1` workers, so the full roster plus an adaptive pool kept up to
//! `8 × (P − 1)` live OS threads compact-pinned to the same cores.  The battery
//! asserts the structural fix:
//!
//! * (a) **census** — with the whole roster *and* an `AdaptivePool` alive on one
//!   executor, the substrate holds at most `P − 1` worker threads (via `ExecStats`
//!   and via a name-filtered `/proc/self/task` census);
//! * (b) **no leaks** — after every pool type drops, zero substrate threads remain
//!   (executor teardown joins synchronously);
//! * (c) **equality** — bit-for-bit cross-runtime result equality is unchanged on the
//!   micro, skewed-geometric and triangular-nest workloads under the shared substrate,
//!   including across heavy lease churn.
//!
//! The tests share one process, and the census is process-wide, so they serialize on
//! the census lock of `tests/common`; the `/proc` census counts only `parlo-exec-*`
//! threads, making it immune to the test harness's own threads.

use parlo::prelude::*;
use parlo_adaptive::AdaptiveConfig;
use parlo_sync::{AtomicUsize, Ordering};
use parlo_workloads::{all_runtimes_on, irregular};

mod common;
use common::{assert_census_settles_to_zero, census_lock, substrate_thread_census};

/// The pool size the CI matrix pins via `PARLO_THREADS` (parsed by the single shared
/// helper in `parlo-bench`, so trimming/zero handling cannot diverge); 4 when unset
/// so a local run still exercises a multi-worker substrate.
fn pinned_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4).clamp(2, 8)
}

/// Builds the full roster plus an adaptive pool, all leasing from one executor.
fn roster_with_adaptive(
    threads: usize,
    placement: &PlacementConfig,
    executor: &std::sync::Arc<Executor>,
) -> (Vec<Box<dyn LoopRuntime>>, AdaptivePool) {
    let roster = all_runtimes_on(threads, placement, executor);
    let mut config = AdaptiveConfig::with_threads(threads);
    config.placement = *placement;
    config.executor = Some(executor.clone());
    (roster, AdaptivePool::new(config))
}

#[test]
fn census_stays_at_p_minus_one_with_full_roster_and_adaptive_pool_alive() {
    let _guard = census_lock();
    let threads = pinned_threads();
    let placement = PlacementConfig::default();
    let executor = Executor::for_placement(&placement);
    let (mut roster, mut adaptive) = roster_with_adaptive(threads, &placement, &executor);

    // Run loops on every runtime (several rounds, so the adaptive pool rotates its
    // backends through the lease too) — the substrate is now at full occupancy.
    for round in 0..3 {
        for r in roster.iter_mut() {
            let sum = r.parallel_sum(0..1000, &|i| i as f64);
            assert_eq!(sum, 499_500.0, "round {round}, runtime {}", r.name());
        }
        let sum = adaptive.parallel_sum(0..1000, &|i| i as f64);
        assert_eq!(sum, 499_500.0, "round {round}, adaptive");
    }

    // (a) The acceptance invariant, via ExecStats: 7 parallel roster runtimes + 4
    // adaptive backends = 11 leases, at most P-1 worker threads for all of them.
    let stats = executor.stats();
    assert!(
        stats.workers < threads,
        "total live OS worker threads must be <= P-1 = {}, got {stats:?}",
        threads - 1
    );
    assert_eq!(stats.leases, 11, "7 roster pools + 4 adaptive backends");
    assert_eq!(stats.pin_map.len(), stats.workers);
    assert!(
        stats.switches >= 11,
        "every pool ran at least once: {stats:?}"
    );

    // ...and via the OS itself: process-wide, only P-1 substrate threads exist.
    if let Some(census) = substrate_thread_census() {
        assert!(
            census < threads,
            "/proc census found {census} substrate threads, expected <= {}",
            threads - 1
        );
    }

    // (b) Teardown: dropping every pool and the executor handle joins the workers
    // synchronously — nothing leaks.
    drop(roster);
    drop(adaptive);
    drop(executor);
    assert_census_settles_to_zero("substrate threads leaked past executor drop");
}

#[test]
fn no_threads_leak_after_every_pool_type_drops() {
    let _guard = census_lock();
    let threads = pinned_threads();
    // Each pool type standalone, on its own private substrate: create, run one loop
    // (forcing the lazy worker spawn), drop — the census must return to zero after
    // every single drop, because executor teardown joins synchronously.
    let checks: Vec<Box<dyn FnOnce()>> = vec![
        Box::new(move || {
            let mut p = FineGrainPool::with_threads(threads);
            p.parallel_for(0..64, |_| {});
        }),
        Box::new(move || {
            let mut t = ScheduledTeam::with_threads(threads, Schedule::Dynamic(8));
            t.for_each(0..64, |_| {});
        }),
        Box::new(move || {
            let mut c = CilkFineGrain::with_threads(threads);
            c.pool.for_each(0..64, |_| {});
            c.for_each(0..64, |_| {});
        }),
        Box::new(move || {
            let mut s = StealPool::with_threads(threads);
            s.for_each(0..64, |_| {});
        }),
        Box::new(move || {
            let mut a = AdaptivePool::with_threads(threads);
            for _ in 0..8 {
                a.parallel_for(0..64, &|_| {});
            }
        }),
    ];
    for (i, check) in checks.into_iter().enumerate() {
        check();
        assert_census_settles_to_zero(&format!("pool type #{i} leaked substrate threads"));
    }
}

#[test]
fn cross_runtime_results_are_bit_identical_under_the_shared_substrate() {
    let _guard = census_lock();
    let threads = pinned_threads();
    // (c) All three workloads produce integer-valued f64 sums, so equality with the
    // sequential reference is exact — any scheduling corruption from lease hand-off
    // (a lost epoch, a double-executed block) would break it.
    let n = 700;
    let micro_expected: f64 = (0..n).map(|i| i as f64).sum();
    let skewed_expected = irregular::skewed_sequential(n, 2);
    let tri_expected = irregular::triangular_sequential(300);
    for placement in [
        PlacementConfig::default(),
        PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None),
    ] {
        let executor = Executor::for_placement(&placement);
        let (mut roster, adaptive) = roster_with_adaptive(threads, &placement, &executor);
        roster.push(Box::new(adaptive) as Box<dyn LoopRuntime>);
        for r in roster.iter_mut() {
            let micro = r.parallel_sum(0..n, &|i| i as f64);
            assert_eq!(micro, micro_expected, "micro on {}", r.name());
            assert_eq!(
                irregular::skewed_sum(r.as_mut(), n, 2),
                skewed_expected,
                "skewed-geometric on {}",
                r.name()
            );
            assert_eq!(
                irregular::triangular_sum(r.as_mut(), 300),
                tri_expected,
                "triangular-nest on {}",
                r.name()
            );
        }
    }
}

#[test]
fn heavy_lease_churn_preserves_results_and_counters() {
    let _guard = census_lock();
    let threads = pinned_threads();
    let placement = PlacementConfig::default();
    let executor = Executor::for_placement(&placement);
    let mut roster = all_runtimes_on(threads, &placement, &executor);
    // Interleave single loops across all runtimes for many rounds: every loop but
    // the first of a streak needs a lease switch, which is exactly the hand-off
    // machinery under stress (detach cycle, park, rendezvous, resume epochs).
    let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
    const ROUNDS: usize = 20;
    for _ in 0..ROUNDS {
        for r in roster.iter_mut() {
            r.parallel_for(0..257, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    let per_index = ROUNDS * roster.len();
    assert!(
        hits.iter().all(|h| h.load(Ordering::Relaxed) == per_index),
        "every index exactly once per loop across {ROUNDS} interleaved rounds"
    );
    let stats = executor.stats();
    assert!(stats.workers < threads);
    assert!(
        stats.switches as usize >= ROUNDS * (roster.len() - 2),
        "interleaving forces a lease switch per loop: {stats:?}"
    );
    // Per-runtime counters survived the churn: each parallel runtime ran exactly
    // ROUNDS loops worth of barrier phases (spot-check through SyncStats).
    for r in roster.iter_mut() {
        let s = r.sync_stats();
        assert!(
            s.loops == 0 || s.loops == ROUNDS as u64,
            "runtime {} counted {} loops",
            r.name(),
            s.loops
        );
    }
}

#[test]
fn empty_loops_are_noops_with_identical_sync_stats_across_runtimes() {
    let _guard = census_lock();
    let threads = pinned_threads();
    let placement = PlacementConfig::default();
    let executor = Executor::for_placement(&placement);
    let (mut roster, adaptive) = roster_with_adaptive(threads, &placement, &executor);
    roster.push(Box::new(adaptive) as Box<dyn LoopRuntime>);
    for r in roster.iter_mut() {
        let before = r.sync_stats();
        r.parallel_for(5..5, &|_| panic!("empty loop body must not run"));
        let got = r.parallel_reduce(9..9, 1.25, &|_, _| panic!("empty fold"), &|a, _| a);
        assert_eq!(got, 1.25, "empty reduction returns init on {}", r.name());
        let delta = r.sync_stats().since(&before);
        assert_eq!(
            delta,
            SyncStats::default(),
            "empty loops must leave every counter untouched on {}",
            r.name()
        );
    }
    // Empty loops never activate a lease either: a fresh roster that only ran empty
    // loops has spawned no workers at all.
    assert_eq!(executor.stats().workers, 0, "empty loops spawned workers");
}
