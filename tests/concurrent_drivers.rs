//! Concurrent-driver battery: the multi-driver contract panics loudly, not racily.
//!
//! The bug class this guards against: the pools' single-driver exclusivity used to be
//! enforced only by `&mut self` at the API edge plus an unguarded flag inside — a
//! second simultaneous driver (reached through a shared handle, FFI, or a revoked
//! lease) corrupted the barrier epoch hand-off and produced wrong sums or hangs,
//! *sometimes*.  The fix claims the pool with one atomic `swap` on loop entry and in
//! the detach hook, so whichever side comes second panics deterministically with a
//! message naming the contract.  The battery asserts exactly that:
//!
//! * (a) **entry race** — two threads driving one pool: exactly one loop wins, the
//!   other panics with "driven by two threads at once", the winner's loop and the
//!   pool itself are unharmed;
//! * (b) **revocation race**, for each of the four pool families — a second client
//!   activating its lease while the victim is mid-loop panics in the victim's detach
//!   hook with "lease revoked while a ... is in flight", the victim's in-flight loop
//!   still completes bit-exactly, and the victim re-activates and tears down cleanly.
//!
//! The panics under test fire on the *driving* threads (never inside substrate worker
//! bodies, which abort on unwind by design), so `catch_unwind` observes them.

use parlo_affinity::PlacementConfig;
use parlo_core::{FineGrainPool, Loops};
use parlo_exec::Executor;
use parlo_omp::{Schedule, ScheduledTeam};
use parlo_sync::{AtomicBool, AtomicUsize, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The pool size the CI matrix pins via `PARLO_THREADS` (same parsing as the rest of
/// the workspace); 4 when unset so a local run still exercises multiple workers.
fn pinned_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4).clamp(2, 8)
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// (a) Two threads drive one `FineGrainPool` at the same instant (through the
/// doc-hidden `&self` regression hook — the API's `&mut self` makes this impossible
/// to write safely, which is the point).  The loser must panic on the entry guard
/// before touching any loop state; the winner's loop and the pool survive.
#[test]
fn second_simultaneous_driver_panics_and_the_pool_survives() {
    let threads = pinned_threads();
    let pool = Arc::new(FineGrainPool::with_threads(threads));
    let in_body = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let winner = {
        let pool = Arc::clone(&pool);
        let in_body = Arc::clone(&in_body);
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            let hits = AtomicUsize::new(0);
            // SAFETY: the harness outlives the call; the racing second driver below
            // is the deterministic panic this battery asserts.
            unsafe {
                pool.parallel_for_unsynchronized(0..threads * 8, |_| {
                    in_body.store(true, Ordering::Release);
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            hits.into_inner()
        })
    };

    // Only race once the winner is provably inside its loop (a body iteration is
    // running, so the pool's in-flight flag is held).
    while !in_body.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let err = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: as above; this caller is the one that accepts the panic.
        unsafe { pool.parallel_for_unsynchronized(0..threads * 8, |_| {}) };
    }))
    .expect_err("the second simultaneous driver must panic, not interleave");
    let msg = panic_message(err);
    assert!(
        msg.contains("driven by two threads at once"),
        "loser's panic must name the contract, got: {msg}"
    );

    // The loser lost *before* corrupting anything: the winner's loop completes with
    // every iteration executed exactly once, and the pool serves further loops.
    release.store(true, Ordering::Release);
    assert_eq!(winner.join().expect("winning driver"), threads * 8);
    let mut pool = Arc::try_unwrap(pool).expect("all clones joined");
    let sum = pool.parallel_sum(0..1000, |i| i as f64);
    assert_eq!(sum, 499_500.0, "pool unusable after the racing driver lost");
}

/// (b) The revocation race, generically: `drive` runs on its own thread, builds a
/// pool of one family on the shared executor and drives one loop whose body parks on
/// `release` (flagging `in_body` first); the main thread then activates a second
/// client on the same executor, which must panic in the victim's detach hook.  The
/// victim thread afterwards re-drives its pool (the in-flight loop completed
/// unharmed, and re-activation re-adopts the still-attached workers) and lets it
/// drop there, proving teardown survived the race.
fn lease_revocation_race(
    drive: impl FnOnce(Arc<Executor>, PlacementConfig, Arc<AtomicBool>, Arc<AtomicBool>)
        + Send
        + 'static,
) {
    let threads = pinned_threads();
    let placement = PlacementConfig::default();
    let executor = Executor::for_placement(&placement);
    let in_body = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let victim = {
        let executor = Arc::clone(&executor);
        let (in_body, release) = (Arc::clone(&in_body), Arc::clone(&release));
        std::thread::spawn(move || drive(executor, placement, in_body, release))
    };
    while !in_body.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // A second client activating while the victim is mid-loop: the substrate detaches
    // the victim, whose detach hook finds the in-flight flag held and panics — on
    // *this* thread, deterministically, before the victim's workers are torn away.
    let mut aggressor = FineGrainPool::with_placement_on(threads, &placement, &executor);
    let err = catch_unwind(AssertUnwindSafe(|| {
        aggressor.parallel_for(0..threads, |_| {});
    }))
    .expect_err("activating over an in-flight loop must panic in the detach hook");
    let msg = panic_message(err);
    assert!(
        msg.contains("lease revoked while a"),
        "aggressor's panic must name the revocation contract, got: {msg}"
    );

    release.store(true, Ordering::Release);
    victim.join().expect("victim thread");
    // The aggressor's panicked loop deliberately left its own entry guard claimed
    // (its state is contractually undefined after the panic) — it must still *drop*
    // cleanly, and the substrate must end with no activation leaked.
    drop(aggressor);
    assert!(executor.stats().active.is_empty(), "activation leaked");
}

/// Body shared by every family's victim loop: flag entry, park until released, count.
fn parked_body(in_body: &AtomicBool, release: &AtomicBool, hits: &AtomicUsize) {
    in_body.store(true, Ordering::Release);
    while !release.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    hits.fetch_add(1, Ordering::Relaxed);
}

#[test]
fn lease_revocation_mid_loop_panics_fine_grain() {
    let threads = pinned_threads();
    lease_revocation_race(move |executor, placement, in_body, release| {
        let mut pool = FineGrainPool::with_placement_on(threads, &placement, &executor);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(0..threads * 8, |_| parked_body(&in_body, &release, &hits));
        assert_eq!(hits.into_inner(), threads * 8, "in-flight loop mangled");
        // Recovery: the revoked lease re-activates and the next loop is bit-exact.
        assert_eq!(pool.parallel_sum(0..1000, |i| i as f64), 499_500.0);
    });
}

#[test]
fn lease_revocation_mid_region_panics_omp_team() {
    let threads = pinned_threads();
    lease_revocation_race(move |executor, placement, in_body, release| {
        let mut team =
            ScheduledTeam::with_placement_on(threads, Schedule::Dynamic(1), &placement, &executor);
        let hits = AtomicUsize::new(0);
        team.for_each(0..threads * 8, |_| parked_body(&in_body, &release, &hits));
        assert_eq!(hits.into_inner(), threads * 8, "in-flight region mangled");
        team.schedule = Schedule::Static;
        let sum = team.reduce(0..1000, || 0.0f64, |a, i| a + i as f64, |a, b| a + b);
        assert_eq!(sum, 499_500.0);
    });
}

#[test]
fn lease_revocation_mid_loop_panics_cilk() {
    let threads = pinned_threads();
    lease_revocation_race(move |executor, placement, in_body, release| {
        let mut pool = parlo_cilk::CilkPool::with_placement_on(threads, &placement, &executor);
        let hits = AtomicUsize::new(0);
        pool.for_each(0..threads * 8, |_| parked_body(&in_body, &release, &hits));
        assert_eq!(hits.into_inner(), threads * 8, "in-flight loop mangled");
        let recovered = AtomicUsize::new(0);
        pool.for_each(0..1000, |i| {
            recovered.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(recovered.into_inner(), 499_500);
    });
}

#[test]
fn lease_revocation_mid_loop_panics_steal() {
    let threads = pinned_threads();
    lease_revocation_race(move |executor, placement, in_body, release| {
        let mut pool = parlo_steal::StealPool::with_placement_on(threads, &placement, &executor);
        let hits = AtomicUsize::new(0);
        pool.for_each(0..threads * 8, |_| parked_body(&in_body, &release, &hits));
        assert_eq!(hits.into_inner(), threads * 8, "in-flight loop mangled");
        let recovered = AtomicUsize::new(0);
        pool.for_each(0..1000, |i| {
            recovered.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(recovered.into_inner(), 499_500);
    });
}
