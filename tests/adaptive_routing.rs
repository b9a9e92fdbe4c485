//! Adaptive scheduler-selection tests.
//!
//! Routing behaviour is driven through a deterministic simulated cost model (the
//! `ProbeTimer` hook) built from the paper's Table-1 burdens, so these tests are
//! reproducible on any machine: convergence to the fine-grain backend on
//! Table-1-sized micro-loops, convergence to a balancing (dynamic/stealing) backend on
//! a skewed-body loop, the 2×-of-best acceptance bound, and re-detection of phase
//! changes.  Correctness under calibration (loops and reductions produce identical
//! results in every phase) is property-tested with the deterministic vendored
//! proptest against real execution.

use parlo::prelude::*;
use parlo_adaptive::{AdaptiveConfig, ProbeTimer};
use parlo_sync::{AtomicBool, AtomicUsize, Ordering};
use proptest::prelude::*;
use std::sync::Arc;

/// Simulated thread count (the cost model's `P`).
const P: usize = 4;
/// Work per iteration in the simulated model, seconds.
const PER_ITER: f64 = 1e-6;

const MICRO_SITE: LoopSite = LoopSite::new(1);
const SKEWED_SITE: LoopSite = LoopSite::new(2);

/// Table-1 burdens (48-thread machine), in seconds.  The stealing runtime's burden is
/// the simulated "Fine-grain stealing" row's order of magnitude: above the static
/// schedules (deque traffic, steal tail), well below the shared chunk dispenser.
fn sim_burden(backend: Backend) -> f64 {
    match backend {
        Backend::Sequential => 0.0,
        Backend::FineGrain => 5.67e-6,
        Backend::OmpStatic => 8.12e-6,
        Backend::OmpDynamic => 31.94e-6,
        Backend::Steal => 12.94e-6,
        Backend::CilkSteal => 68.80e-6,
    }
}

/// Whether the backend re-balances load during the loop.
fn is_balancing(backend: Backend) -> bool {
    matches!(
        backend,
        Backend::OmpDynamic | Backend::Steal | Backend::CilkSteal
    )
}

/// Simulated execution time of one n-iteration loop: burden + parallel span.  Balanced
/// sites parallelise perfectly (`T/P`); the skewed site concentrates half its work in
/// one static block, so non-balancing schedules wait for a straggler carrying 50% of
/// `T`.
fn sim_time(backend: Backend, skewed: bool, n: usize) -> f64 {
    let t = PER_ITER * n as f64;
    match backend {
        Backend::Sequential => t,
        b => {
            let span = if skewed && !is_balancing(b) {
                t * 0.5
            } else {
                t / P as f64
            };
            sim_burden(b) + span
        }
    }
}

/// The cost model as a probe timer: the site id selects the workload character.
struct PaperModel;

impl ProbeTimer for PaperModel {
    fn observe(&self, backend: Backend, site: LoopSite, n: usize, _wall: f64) -> f64 {
        sim_time(backend, site == SKEWED_SITE, n)
    }
}

fn sim_pool() -> AdaptivePool {
    let mut config = AdaptiveConfig::with_threads(P);
    config.timer = Arc::new(PaperModel);
    AdaptivePool::new(config)
}

/// Calibrates a site (1 sequential probe + one probe per candidate backend + a couple
/// of routed runs) and returns the decision.
fn calibrate(pool: &mut AdaptivePool, site: LoopSite, n: usize) -> parlo_adaptive::Decision {
    for _ in 0..8 {
        pool.parallel_for_at(site, 0..n, |_| {});
    }
    pool.decision(site).expect("site calibrated")
}

#[test]
fn micro_loops_converge_to_the_fine_grain_backend() {
    // A Table-1-sized micro-loop: 64 iterations of ~1 µs.
    let mut pool = sim_pool();
    let decision = calibrate(&mut pool, MICRO_SITE, 64);
    assert_eq!(decision.backend, Backend::FineGrain, "{decision:?}");
    // The fitted burden recovers the model's fine-grain burden.
    let fit = pool
        .fitted_burden(MICRO_SITE, Backend::FineGrain)
        .expect("fitted");
    assert!(
        (fit.burden - sim_burden(Backend::FineGrain)).abs() / sim_burden(Backend::FineGrain) < 0.05,
        "fitted {} vs model {}",
        fit.burden,
        sim_burden(Backend::FineGrain)
    );
}

#[test]
fn skewed_loops_converge_to_a_balancing_backend() {
    // A coarse, imbalanced loop: 512 iterations, half the work in one static block.
    let mut pool = sim_pool();
    let decision = calibrate(&mut pool, SKEWED_SITE, 512);
    assert!(
        is_balancing(decision.backend),
        "expected a dynamic/stealing backend, got {decision:?}"
    );
    // The static backends' *effective* burden absorbed the straggler time, which is
    // what priced them out.
    let static_fit = pool
        .fitted_burden(SKEWED_SITE, Backend::OmpStatic)
        .expect("fitted");
    assert!(
        static_fit.burden > 100e-6,
        "imbalance must inflate the static burden, got {static_fit:?}"
    );
}

#[test]
fn skewed_geometric_workload_routes_to_the_stealing_backend() {
    // The skewed-geometric workload (geometric weight tiers, the straggler block
    // carrying ~half of T) under the deterministic sim timer: every non-balancing
    // schedule waits for the straggler, and among the balancing candidates the
    // stealing runtime has the lowest burden — the router must select it.
    let mut pool = sim_pool();
    let decision = calibrate(&mut pool, SKEWED_SITE, 512);
    assert_eq!(
        decision.backend,
        Backend::Steal,
        "the stealing runtime is the cheapest balancing backend: {decision:?}"
    );
    // Sanity: its fitted burden recovers the model's stealing burden, not the
    // straggler-inflated effective burden the static backends show.
    let fit = pool
        .fitted_burden(SKEWED_SITE, Backend::Steal)
        .expect("fitted");
    assert!(
        (fit.burden - sim_burden(Backend::Steal)).abs() / sim_burden(Backend::Steal) < 0.05,
        "fitted {} vs model {}",
        fit.burden,
        sim_burden(Backend::Steal)
    );
}

#[test]
fn adaptive_matches_the_best_fixed_backend_within_2x_simulated_burden() {
    // Acceptance bound: on both a fine-grain and a coarse-grain workload, the chosen
    // backend's simulated execution time is within 2x of the best fixed backend's.
    for (site, n, skewed) in [(MICRO_SITE, 64, false), (SKEWED_SITE, 512, true)] {
        let mut pool = sim_pool();
        let decision = calibrate(&mut pool, site, n);
        let candidates: Vec<Backend> = std::iter::once(Backend::Sequential)
            .chain(pool.backends().iter().copied())
            .collect();
        let best = candidates
            .iter()
            .map(|&b| sim_time(b, skewed, n))
            .fold(f64::INFINITY, f64::min);
        let chosen = sim_time(decision.backend, skewed, n);
        assert!(
            chosen <= 2.0 * best,
            "site {site:?}: chose {:?} at {chosen:.2e}s, best fixed backend {best:.2e}s",
            decision.backend
        );
    }
}

#[test]
fn reprobing_detects_a_phase_change() {
    // The same site changes character mid-run (balanced -> skewed); after the re-probe
    // interval the router must re-calibrate and move off the static backend.
    struct SwitchableModel {
        skewed: AtomicBool,
    }
    impl ProbeTimer for SwitchableModel {
        fn observe(&self, backend: Backend, _: LoopSite, n: usize, _wall: f64) -> f64 {
            sim_time(backend, self.skewed.load(Ordering::Relaxed), n)
        }
    }

    let model = Arc::new(SwitchableModel {
        skewed: AtomicBool::new(false),
    });
    let mut config = AdaptiveConfig::with_threads(P);
    config.timer = model.clone();
    config.reprobe_interval = 3;
    let mut pool = AdaptivePool::new(config);
    let site = LoopSite::new(7);

    let first = calibrate(&mut pool, site, 256);
    assert!(!is_balancing(first.backend), "balanced phase: {first:?}");

    // Phase change: the loop body becomes imbalanced.
    model.skewed.store(true, Ordering::Relaxed);
    for _ in 0..16 {
        pool.parallel_for_at(site, 0..256, |_| {});
    }
    let second = pool.decision(site).expect("re-calibrated");
    assert!(
        is_balancing(second.backend),
        "after the phase change: {second:?}"
    );
    assert!(pool.adaptive_stats().reprobes >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Calibration never changes loop results: across the sequential probe, every
    /// backend probe and the routed executions, each index is executed exactly once
    /// per call, for arbitrary ranges and thread counts (real execution, wall-clock
    /// probes).
    #[test]
    fn calibration_never_changes_loop_results(
        len in 0usize..400,
        start in 0usize..40,
        threads in 1usize..4,
        rounds in 1usize..9,
    ) {
        let mut pool = AdaptivePool::with_threads(threads);
        let site = LoopSite::new(0xF00D);
        for _ in 0..rounds {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for_at(site, start..start + len, |i| {
                hits[i - start].fetch_add(1, Ordering::Relaxed);
            });
            prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    /// Calibration never changes reduction results: the routed sum equals the
    /// sequential sum in every phase (exactly, because the test values are small
    /// integers).
    #[test]
    fn calibration_never_changes_reduction_results(
        values in prop::collection::vec(-100i32..100, 0..300),
        threads in 1usize..4,
    ) {
        let expected: f64 = values.iter().map(|&v| v as f64).sum();
        let mut pool = AdaptivePool::with_threads(threads);
        let site = LoopSite::new(0xBEEF);
        for _ in 0..7 {
            let got = pool.parallel_sum_at(site, 0..values.len(), |i| values[i] as f64);
            prop_assert!((got - expected).abs() < 1e-9, "got {}, expected {}", got, expected);
        }
    }
}
