//! Process-wide park/wake hub backing [`crate::WaitPolicy::park`].
//!
//! A thread whose [`crate::WaitPolicy`] has exhausted its spin and yield budgets
//! blocks here on a shared condvar instead of burning a hardware thread.  Every
//! barrier-side *release* store (centralized epoch signal, tree fan-out, hierarchical
//! socket line, join arrival) calls
//! [`wake_parked`] right after publishing its flag, so a parked waiter is notified as
//! soon as the condition it is waiting on can have changed.
//!
//! Design notes:
//!
//! * **One global hub.** The waiting conditions are arbitrary closures over atomic
//!   loads, so there is no per-flag address to park on (a futex would need one).  A
//!   single process-wide parked counter + mutex + condvar keeps the fast path of the
//!   *waker* — the barrier hot path — to a single relaxed load of a read-mostly line
//!   when nobody is parked, which is the common case: parking only happens after the
//!   policy's spin and yield budgets are exhausted.
//! * **Timed parking as the lost-wake backstop.**  [`wake_parked`] deliberately avoids
//!   a `SeqCst` fence on the waker side (that would tax every release store even in
//!   spin-only configurations), so there is a theoretical window in which a waker
//!   reads a stale zero parked-count while a waiter is committing to sleep.  Every
//!   park therefore uses a bounded `wait_timeout` with exponential backoff
//!   ([`INITIAL_PARK`] → [`MAX_PARK`]): a missed notification costs at most one
//!   timeout of added latency and can never deadlock.  The waiter re-checks its
//!   condition *under the hub lock* before sleeping, which closes the race against
//!   any waker that did observe a non-zero parked count (those notify under the same
//!   lock).

use parlo_sync::{AtomicU64, Condvar, Mutex, Ordering};
use std::time::Duration;

/// First park timeout; doubled per consecutive unfruitful park up to [`MAX_PARK`].
pub(crate) const INITIAL_PARK: Duration = Duration::from_micros(100);
/// Upper bound on one park interval — also the worst-case latency of a lost wakeup.
pub(crate) const MAX_PARK: Duration = Duration::from_millis(5);

/// Number of threads currently inside [`park_timeout`] (registered or sleeping).
static PARKED: AtomicU64 = AtomicU64::new(0);
/// Hub lock: serializes the sleep/notify handshake.
static HUB: Mutex<()> = Mutex::new(());
/// Hub condvar: all parked threads sleep here; wakers `notify_all`.
static WAKE: Condvar = Condvar::new();

/// Parks the calling thread for at most `timeout` unless `cond` already holds.
/// Returns the final value of `cond` (checked under the hub lock before sleeping and
/// again after waking), so callers can stop as soon as it reports `true`.
pub(crate) fn park_timeout(timeout: Duration, cond: &mut impl FnMut() -> bool) -> bool {
    let guard = HUB.lock().unwrap_or_else(|e| e.into_inner());
    // Relaxed suffices on the parked count: the sleep/notify handshake is ordered by
    // the hub mutex, and the lock-free fast path in `wake_parked` tolerates a stale
    // value by design (parks are timed; see the module docs).
    PARKED.fetch_add(1, Ordering::Relaxed);
    // Re-check under the lock: a waker that saw our registration notifies under this
    // same lock, so the condition cannot flip between this check and `wait_timeout`.
    if cond() {
        PARKED.fetch_sub(1, Ordering::Relaxed);
        return true;
    }
    let (guard, _timed_out) = WAKE
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|e| e.into_inner());
    drop(guard);
    PARKED.fetch_sub(1, Ordering::Relaxed);
    cond()
}

/// Wakes every thread a [`crate::WaitPolicy`] parked.
///
/// Called by barrier code right after a release/arrival flag store.  The fast path —
/// nobody parked, the universal case for spin-heavy policies — is one relaxed load.
/// The parked waiters' timed sleeps bound the cost of the (theoretically possible)
/// stale-zero read; see the module docs.
#[inline]
pub fn wake_parked() {
    if PARKED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let _guard = HUB.lock().unwrap_or_else(|e| e.into_inner());
    WAKE.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn park_returns_immediately_when_condition_holds_under_lock() {
        let t0 = Instant::now();
        assert!(park_timeout(Duration::from_secs(5), &mut || true));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_times_out_without_any_waker() {
        // The condition observes the hub twice: under the lock right before the sleep,
        // where the caller must already be counted as parked, and once after waking.
        // That proves the call went through the sleep without reading a clock, so a
        // sibling test's `wake_parked` cutting the sleep short cannot fail it.
        let mut parked_seen = Vec::new();
        let t0 = Instant::now();
        let woke = park_timeout(Duration::from_millis(10), &mut || {
            parked_seen.push(PARKED.load(Ordering::Relaxed));
            false
        });
        assert!(!woke, "nobody made the condition true");
        assert_eq!(
            parked_seen.len(),
            2,
            "checked before sleeping and after waking"
        );
        assert!(
            parked_seen[0] >= 1,
            "counted as parked while about to sleep"
        );
        // Bounded: the timeout, or an early wake, ended the sleep.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wake_parked_is_cheap_noop_with_nobody_parked() {
        for _ in 0..1_000_000 {
            wake_parked();
        }
    }

    #[test]
    fn wake_parked_releases_a_sleeping_thread_promptly() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            let mut cond = || f2.load(Ordering::Acquire);
            // A generous timeout: the test passes fast only if the wake is delivered.
            while !park_timeout(Duration::from_secs(2), &mut cond) {}
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        wake_parked();
        h.join().unwrap();
        assert!(flag.load(Ordering::Relaxed));
    }
}
