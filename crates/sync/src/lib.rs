//! Synchronization facade for the parlo workspace, plus the tooling that keeps
//! the hand-rolled atomics honest.
//!
//! Every load-bearing lock-free primitive in parlo (the Chase–Lev deques, the
//! half-barrier flag lines, the park hub, the trace rings, the serve queue)
//! imports its atomics, cells and blocking primitives from this crate instead
//! of `std`:
//!
//! * **Default build** — everything re-exports `std` one-to-one.  The atomic
//!   types *are* `std::sync::atomic` types, [`Mutex`]/[`Condvar`] *are* the
//!   `std::sync` types, and [`UnsafeCell`] is a `#[repr(transparent)]`
//!   zero-cost wrapper whose accessors are `#[inline(always)]`.  There is no
//!   behavior or performance difference versus using `std` directly.
//! * **`--cfg parlo_model`** (set through `RUSTFLAGS`, like loom) — the same
//!   names resolve to the bounded model checker in `model`: a
//!   cooperative scheduler that enumerates thread interleavings of a small
//!   closed program and checks each one for data races, deadlocks and lost
//!   wakeups.  See the [model-checking contract](#model-checking-contract).
//!
//! Built on the facade, [`SingleWriterCounter`] and [`ParticipantCounter`] are the
//! workspace's instrumentation counters: exact, and no locked read-modify-write on the
//! path they count.
//!
//! The crate also ships the [`lint`] engine behind the `synclint` binary
//! (`cargo run -p parlo-sync --bin synclint`), which enforces the source-level
//! rules that make the facade trustworthy: no direct `std::sync::atomic`
//! imports outside this crate, a `// ordering:` rationale next to every
//! `SeqCst` site, and a `// SAFETY:` comment on every `unsafe` block.
//!
//! # Model-checking contract
//!
//! What the checker **does** explore and detect:
//!
//! * Every interleaving of up to `model::MAX_THREADS` threads at the
//!   granularity of visible operations (atomic accesses, fences, mutex and
//!   condvar operations, spawns/joins/yields), up to a configurable
//!   preemption bound, exhaustively and deterministically.
//! * **Data races**: non-atomic [`UnsafeCell`] accesses are checked against a
//!   vector-clock happens-before relation derived from the *declared*
//!   orderings (`Acquire`/`Release`/`AcqRel`/`SeqCst` edges, release
//!   sequences through RMWs, fence synchronization, mutex hand-off,
//!   condvar notification, spawn/join edges).  A `Relaxed` store publishes
//!   nothing, so weakening a `Release` store in a publication chain is caught
//!   as a race even though the interleaving itself executed correctly.
//! * **Deadlocks and lost wakeups**: an execution in which every live thread
//!   is blocked (on a mutex, a condvar wait that nobody will notify, a join,
//!   or a spin loop re-reading a value nobody will change) is reported with
//!   the blocked reason per thread.
//! * Every violation comes with a **replayable schedule**: the choice string
//!   reported can be passed to `model::Builder::replay` to re-execute the
//!   exact interleaving.
//!
//! What it deliberately does **not** explore:
//!
//! * **Weak-memory value nondeterminism.**  Interleavings execute under
//!   sequential consistency; stale reads that only a relaxed architecture
//!   would produce are *not* simulated.  Missing-ordering bugs are instead
//!   caught through the happens-before race check above, which is exactly how
//!   the mutation self-test validates the checker.  Store-buffer litmus
//!   outcomes (both threads read 0) are therefore out of scope.
//! * **Timeouts.**  `Condvar::wait_timeout` never times out under the model;
//!   a waiter that would only be saved by its timed backstop is reported as a
//!   lost wakeup.  This makes the lost-wake check *stronger* than reality.
//! * **Spurious wakeups** are not injected.
//! * `compare_exchange_weak` never fails spuriously (it behaves like the
//!   strong variant).
//! * State in `static`s persists across executions (metadata is reset, values
//!   are not); model-checked code should create its state inside the checked
//!   closure unless the static is self-balancing (like the park hub counter).
//!
//! Spin loops are handled by a stall rule: a thread that keeps re-loading the
//! same atomic without observing a store is parked until somebody stores to
//! that location, which both prunes the schedule space and turns a spin loop
//! whose writer never comes into a detectable deadlock.

#[cfg(parlo_model)]
pub mod model;

mod cell;
mod counter;
pub mod lint;

pub use cell::UnsafeCell;
pub use counter::{ParticipantCounter, SingleWriterCounter};

/// Atomic and blocking primitives: `std` re-exports by default, model-checked
/// doubles under `--cfg parlo_model`.
#[cfg(not(parlo_model))]
mod facade {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    /// Thread spawning/yielding used by model-checked code.  Plain `std`
    /// threads in the default build.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }
}

#[cfg(parlo_model)]
mod facade {
    pub use crate::model::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };
    pub use crate::model::sync_prim::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use crate::model::thread;
    pub use core::sync::atomic::Ordering;
}

pub use facade::*;
