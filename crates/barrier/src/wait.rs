//! Waiting policies: how a thread burns time until a condition becomes true.
//!
//! On the paper's 48-core machine, pure spinning is the right choice for µs-scale
//! loops.  In this reproduction the test/CI environment may have very few cores, so the
//! default policy spins briefly and then yields to the OS scheduler, which keeps
//! oversubscribed runs correct and reasonably fast while preserving the low-latency
//! fast path when a core is available.  When the pool is *oversubscribed* (more
//! runtime threads than hardware threads), even yielding burns whole schedule quanta
//! re-polling flags; [`WaitMode::Park`] goes one step further and blocks the thread on
//! a process-wide condvar hub (see [`crate::wake_parked`]) after bounded spin and
//! yield phases, so idle workers cost (almost) no CPU between loops.
//!
//! # Choosing a policy
//!
//! [`WaitPolicy::auto_for`] picks per machine: aggressive spin-then-yield when the
//! thread count fits the hardware, [`WaitMode::Park`] when oversubscribed.  The
//! `PARLO_WAIT` environment variable overrides the automatic choice everywhere a pool
//! is constructed with `auto_for` (all pool families and the bench bins, whose
//! `--wait` flag sets the variable):
//!
//! | `PARLO_WAIT` | policy |
//! |--------------|--------|
//! | `spin`       | [`WaitPolicy::dedicated`] — pure busy-wait |
//! | `spinyield`  | spin 4096 then yield ([`WaitPolicy::default`]-like) |
//! | `yield`      | [`WaitPolicy::oversubscribed`] — yield every iteration |
//! | `park`       | [`WaitPolicy::park`] — bounded spin → yield → condvar park |
//! | `auto`       | the automatic per-machine choice (same as unset) |

use std::time::Duration;

use crate::park;

/// How a waiting thread behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Pure busy-waiting with `spin_loop` hints. Lowest latency, burns a core.
    Spin,
    /// Spin for a bounded number of iterations, then interleave `yield_now` calls.
    /// This is the default and behaves acceptably when the machine is mildly
    /// oversubscribed (more runtime threads than hardware threads).
    SpinThenYield,
    /// Yield on every iteration. High latency, friendly to oversubscription, but every
    /// waiter still consumes its whole schedule quantum re-polling.
    Yield,
    /// Bounded spin, then bounded yields, then **block** on the process-wide park hub
    /// until a barrier release store calls [`crate::wake_parked`] (with a timed-wait
    /// backstop, so a lost wakeup costs bounded latency and can never deadlock).
    /// The friendliest mode when the executor is oversubscribed: parked workers burn
    /// no CPU between loops.
    Park,
}

/// A waiting policy: the mode plus the spin/yield budgets spent before escalating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitPolicy {
    /// Waiting mode.
    pub mode: WaitMode,
    /// Number of busy-wait iterations before the first yield (ignored for
    /// [`WaitMode::Yield`]).
    pub spins_before_yield: u32,
    /// Number of `yield_now` calls before the first park (only meaningful for
    /// [`WaitMode::Park`]).
    pub yields_before_park: u32,
}

impl Default for WaitPolicy {
    fn default() -> Self {
        WaitPolicy {
            mode: WaitMode::SpinThenYield,
            spins_before_yield: 128,
            yields_before_park: DEFAULT_YIELDS_BEFORE_PARK,
        }
    }
}

/// Default yield budget preceding the first park in [`WaitMode::Park`].
const DEFAULT_YIELDS_BEFORE_PARK: u32 = 32;

impl WaitPolicy {
    /// A policy suited to dedicated cores (the paper's setting): spin aggressively.
    pub fn dedicated() -> Self {
        WaitPolicy {
            mode: WaitMode::Spin,
            spins_before_yield: u32::MAX,
            yields_before_park: DEFAULT_YIELDS_BEFORE_PARK,
        }
    }

    /// A yield-only policy for oversubscribed machines that must not block (e.g. a
    /// waiter that is also polled).  Prefer [`WaitPolicy::park`] for worker threads.
    pub fn oversubscribed() -> Self {
        WaitPolicy {
            mode: WaitMode::Yield,
            spins_before_yield: 0,
            yields_before_park: DEFAULT_YIELDS_BEFORE_PARK,
        }
    }

    /// The park policy: spin briefly, yield a few quanta, then block on the park hub
    /// until [`crate::wake_parked`] (or the timed backstop) releases the thread.
    pub fn park() -> Self {
        WaitPolicy {
            mode: WaitMode::Park,
            spins_before_yield: 32,
            yields_before_park: DEFAULT_YIELDS_BEFORE_PARK,
        }
    }

    /// Parses a `PARLO_WAIT`/`--wait` policy spec: `spin`, `spinyield` (or
    /// `spin-yield`), `yield`, `park`, or `auto` (returns `None`, meaning "use the
    /// automatic per-machine choice").
    pub fn from_spec(spec: &str) -> Result<Option<Self>, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "spin" => Ok(Some(WaitPolicy::dedicated())),
            "spinyield" | "spin-yield" | "spin_yield" => Ok(Some(WaitPolicy::default())),
            "yield" => Ok(Some(WaitPolicy::oversubscribed())),
            "park" => Ok(Some(WaitPolicy::park())),
            "auto" | "" => Ok(None),
            other => Err(format!(
                "unknown wait policy {other:?} (expected spin|spinyield|yield|park|auto)"
            )),
        }
    }

    /// Picks a sensible policy for the current machine: [`WaitPolicy::dedicated`]-like
    /// spinning when there are plenty of hardware threads, [`WaitPolicy::park`] when
    /// the requested thread count oversubscribes the machine.  The `PARLO_WAIT`
    /// environment variable (see the module docs) overrides the choice.
    pub fn auto_for(nthreads: usize) -> Self {
        if let Ok(spec) = std::env::var("PARLO_WAIT") {
            match WaitPolicy::from_spec(&spec) {
                Ok(Some(policy)) => return policy,
                Ok(None) => {}
                Err(e) => eprintln!("parlo: ignoring PARLO_WAIT: {e}"),
            }
        }
        if nthreads <= parlo_affinity::host_cpus() {
            WaitPolicy {
                mode: WaitMode::SpinThenYield,
                spins_before_yield: 4096,
                yields_before_park: DEFAULT_YIELDS_BEFORE_PARK,
            }
        } else {
            WaitPolicy::park()
        }
    }

    /// Spins/yields/parks until `cond()` returns `true`.
    #[inline]
    pub fn wait_until<F: FnMut() -> bool>(&self, mut cond: F) {
        if cond() {
            return;
        }
        let mut spins: u32 = 0;
        let mut yields: u32 = 0;
        let mut park_for: Duration = park::INITIAL_PARK;
        loop {
            match self.mode {
                WaitMode::Spin => std::hint::spin_loop(),
                WaitMode::Yield => std::thread::yield_now(),
                WaitMode::SpinThenYield => {
                    if spins < self.spins_before_yield {
                        std::hint::spin_loop();
                        spins += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                WaitMode::Park => {
                    if spins < self.spins_before_yield {
                        std::hint::spin_loop();
                        spins += 1;
                    } else if yields < self.yields_before_park {
                        std::thread::yield_now();
                        yields += 1;
                    } else {
                        if park::park_timeout(park_for, &mut cond) {
                            return;
                        }
                        park_for = (park_for * 2).min(park::MAX_PARK);
                        continue;
                    }
                }
            }
            if cond() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn returns_immediately_when_condition_already_true() {
        WaitPolicy::default().wait_until(|| true);
        WaitPolicy::dedicated().wait_until(|| true);
        WaitPolicy::oversubscribed().wait_until(|| true);
        WaitPolicy::park().wait_until(|| true);
    }

    #[test]
    fn waits_for_condition_set_by_another_thread() {
        for policy in [
            WaitPolicy::default(),
            WaitPolicy::oversubscribed(),
            WaitPolicy {
                mode: WaitMode::SpinThenYield,
                spins_before_yield: 1,
                yields_before_park: 1,
            },
            // Tiny budgets force the park path to actually sleep before the store.
            WaitPolicy {
                mode: WaitMode::Park,
                spins_before_yield: 1,
                yields_before_park: 1,
            },
        ] {
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = flag.clone();
            let h = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                f2.store(true, Ordering::Release);
                crate::wake_parked();
            });
            policy.wait_until(|| flag.load(Ordering::Acquire));
            h.join().unwrap();
            assert!(flag.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn park_mode_terminates_even_without_any_wake_call() {
        // Nothing ever calls wake_parked here: the timed backstop must still
        // observe the store (bounded latency, no deadlock).
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            f2.store(true, Ordering::Release);
        });
        WaitPolicy {
            mode: WaitMode::Park,
            spins_before_yield: 0,
            yields_before_park: 0,
        }
        .wait_until(|| flag.load(Ordering::Acquire));
        h.join().unwrap();
    }

    #[test]
    fn counting_condition_terminates() {
        let mut n = 0;
        WaitPolicy::default().wait_until(|| {
            n += 1;
            n > 500
        });
        assert!(n > 500);
    }

    #[test]
    fn auto_policy_spins_less_when_oversubscribed() {
        let few = WaitPolicy::auto_for(1);
        let many = WaitPolicy::auto_for(10_000);
        assert!(few.spins_before_yield >= many.spins_before_yield);
        // Massive oversubscription must choose a parking policy (unless PARLO_WAIT
        // overrides it in this test environment).
        if std::env::var_os("PARLO_WAIT").is_none() {
            assert_eq!(many.mode, WaitMode::Park);
        }
    }

    #[test]
    fn spec_parsing_accepts_the_documented_values() {
        assert_eq!(
            WaitPolicy::from_spec("spin").unwrap().unwrap().mode,
            WaitMode::Spin
        );
        assert_eq!(
            WaitPolicy::from_spec("SpinYield").unwrap().unwrap().mode,
            WaitMode::SpinThenYield
        );
        assert_eq!(
            WaitPolicy::from_spec("yield").unwrap().unwrap().mode,
            WaitMode::Yield
        );
        assert_eq!(
            WaitPolicy::from_spec("park").unwrap().unwrap().mode,
            WaitMode::Park
        );
        assert_eq!(WaitPolicy::from_spec("auto").unwrap(), None);
        assert!(WaitPolicy::from_spec("bogus").is_err());
    }
}
