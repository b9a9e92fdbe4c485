//! Oversubscription battery for the park wait policy.
//!
//! Park is the policy [`WaitPolicy::auto_for`] selects when workers outnumber
//! hardware threads: a bounded spin, a bounded yield phase, then a timed condvar
//! park on the process-wide hub (`parlo_barrier::wake_parked`).  The hazard class
//! it must be immune to is the *lost wake*: a releaser stores the barrier flag
//! and rings the hub in the instant between a waiter's last flag check and its
//! sleep.  These tests drive the full pool stack — loops, reductions, every
//! barrier flavor, executor lease detach/re-attach, long master pauses — at
//! thread counts far beyond the hardware, where a deadlock or a missed wake
//! would hang the suite rather than merely slow it down.

use parlo::prelude::*;
use parlo_sync::{AtomicUsize, Ordering};

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A thread count that is oversubscribed on any machine this suite runs on.
fn oversubscribed_threads() -> usize {
    (hardware_threads() * 4).clamp(8, 32)
}

#[test]
fn park_policy_completes_loops_when_heavily_oversubscribed() {
    let threads = oversubscribed_threads();
    let mut pool = FineGrainPool::new(Config::builder(threads).wait(WaitPolicy::park()).build());
    assert!(pool.config().wait.parks());
    for round in 0..20 {
        let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..512, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "round {round}: some index not executed exactly once"
        );
    }
}

#[test]
fn park_policy_is_exact_for_every_barrier_kind() {
    let threads = oversubscribed_threads();
    // Integer-valued f64 sum: exact in any combine order, so any lost or doubled
    // index under any barrier flavor shows up as an exact mismatch.
    let expected: f64 = (4000 * 3999 / 2) as f64;
    for kind in BarrierKind::ALL {
        let mut pool = FineGrainPool::new(
            Config::builder(threads)
                .barrier(kind)
                .wait(WaitPolicy::park())
                .build(),
        );
        let got = pool.parallel_sum(0..4000, |i| i as f64);
        assert_eq!(
            got, expected,
            "barrier {kind:?} under Park diverged from the exact sum"
        );
        let hits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..300, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "barrier {kind:?} under Park missed or repeated an index"
        );
    }
}

/// Two parked pools alternating on one executor: every switch detaches the
/// leaving pool's workers (which may be parked on the hub, waiting for that
/// pool's next fork) and re-attaches them to the other pool.  The detach path
/// must wake parked waiters or the switch deadlocks.
#[test]
fn park_policy_wakes_cleanly_across_lease_detach_and_reattach() {
    let threads = oversubscribed_threads();
    let placement = PlacementConfig::default();
    let executor = Executor::for_placement(&placement);
    let config = || {
        Config::builder(threads)
            .placement(&placement)
            .wait(WaitPolicy::park())
            .build()
    };
    let mut a = FineGrainPool::new_on(config(), &executor);
    let mut b = FineGrainPool::new_on(config(), &executor);
    for round in 0..30 {
        let sum_a = a.parallel_sum(0..1000, |i| i as f64);
        let sum_b = b.parallel_sum(0..1000, |i| i as f64);
        assert_eq!(sum_a, 499_500.0, "pool a, round {round}");
        assert_eq!(sum_b, 499_500.0, "pool b, round {round}");
    }
    let stats = executor.stats();
    assert_eq!(stats.leases, 2);
    assert!(
        stats.switches >= 2,
        "lease must have switched between the pools: {stats:?}"
    );
}

/// Master-side pauses longer than the maximum park interval force workers all
/// the way down the wait ladder (spin → yield → repeated timed parks) before
/// each fork.  The next loop must still start promptly and compute correctly —
/// this is the lost-wake backstop working as designed.
#[test]
fn park_policy_survives_master_pauses_longer_than_max_park() {
    let threads = oversubscribed_threads();
    let mut pool = FineGrainPool::new(Config::builder(threads).wait(WaitPolicy::park()).build());
    for _ in 0..5 {
        // 12 ms > 2 * MAX_PARK (5 ms): every worker is deep in timed-park when
        // the fork arrives.
        std::thread::sleep(std::time::Duration::from_millis(12));
        let got = pool.parallel_sum(0..2000, |i| i as f64);
        assert_eq!(got, 1_999_000.0);
    }
}

/// `auto`-selected policies never pick Park when the pool is not oversubscribed
/// relative to the machine, and always pick it when it clearly is; an explicit
/// `PARLO_WAIT` would override this, so the test uses the pure constructor.
#[test]
fn auto_policy_parks_only_when_oversubscribed() {
    let hw = hardware_threads();
    let over = WaitPolicy::auto_for(hw * 4 + 1);
    if std::env::var("PARLO_WAIT").is_err() {
        assert!(over.parks(), "{}x hw threads must park", 4);
        if hw > 1 {
            let under = WaitPolicy::auto_for(1);
            assert!(!under.parks(), "undersubscribed must not park");
        }
    }
}

/// Regression: every pool pins the thread that builds it, and the automatic wait
/// policy used to size itself from `std::thread::available_parallelism()`, which
/// counts the *calling thread's* affinity mask — so the second pool a thread built
/// (and the adaptive pool's second to fourth backends) saw a one-CPU machine and
/// silently resolved the park policy.  The count now comes from
/// `parlo_affinity::host_cpus`, latched before the first master pin: pools built back
/// to back on one thread resolve the same policy, whichever family they are.
#[test]
fn pools_built_back_to_back_on_one_thread_resolve_the_same_wait_mode() {
    let threads = 2;
    let first = FineGrainPool::with_threads(threads);
    let expected = first.config().wait;
    if hardware_threads() >= threads && std::env::var("PARLO_WAIT").is_err() {
        assert!(!expected.parks(), "2 threads fit this machine");
    }
    // The builder thread is pinned to one core from here on.
    assert_eq!(
        FineGrainPool::with_threads(threads).config().wait,
        expected,
        "second fine-grain pool"
    );
    assert_eq!(OmpTeam::with_threads(threads).config().wait, expected);
    assert_eq!(CilkPool::with_threads(threads).config().wait, expected);
    assert_eq!(StealPool::with_threads(threads).config().wait, expected);
    assert_eq!(WaitPolicy::auto_for(threads), expected);
}
