//! Barrier algorithms for the parlo runtime.
//!
//! The paper's key observation (§2, Figure 1) is that a statically scheduled parallel
//! loop does not need two *full* barriers.  A full barrier has a **join** phase (record
//! the arrival of every thread) and a **release** phase (signal every thread to enter
//! the next computation phase).  Because workers are idle and bound to a specific master
//! at the start of a parallel region,
//!
//! * the join phase of the *fork* barrier is redundant (workers do not need to wait for
//!   each other before starting work), and
//! * the release phase of the *join* barrier is redundant (once the workers have
//!   notified the master, the master does not need to acknowledge).
//!
//! What remains is one **half-barrier**: a release phase at the fork and a join phase at
//! the end — one barrier's worth of synchronization per loop instead of two.
//!
//! This crate provides the building blocks:
//!
//! * [`WaitPolicy`] — how a thread waits for a condition (spin, spin-then-yield,
//!   yield, or park on the process-wide hub; releases call [`wake_parked`]);
//! * centralized primitives: [`CentralizedRelease`], [`CentralizedJoin`];
//! * tree primitives (MCS-style, tunable fan-in/fan-out, socket-aware layout):
//!   [`TreeRelease`], [`TreeJoin`], [`TreeShape`];
//! * the topology-aware hierarchical composition — socket-local arrival trees, one
//!   cross-socket rendezvous per cycle, socket-local release fan-out, per-socket
//!   grouped flags: [`HierarchicalHalfBarrier`] (instrumented via [`HierarchyStats`]);
//! * [`FullBarrier`] / [`HalfBarrier`] compositions used directly by the schedulers.
//!
//! All primitives are *epoch based*: every fork/join cycle uses a fresh monotonically
//! increasing epoch number, which avoids the reinitialisation races of sense-reversal
//! when the same structure is reused for release-only and join-only phases.

#![warn(missing_docs)]

mod counter;
mod full;
mod half;
mod hierarchical;
mod park;
mod tree;
mod wait;

pub use counter::{CentralizedJoin, CentralizedRelease};
pub use full::FullBarrier;
pub use half::HalfBarrier;
pub use hierarchical::{HierarchicalHalfBarrier, HierarchyStats};
pub use park::wake_parked;
pub use tree::{TreeJoin, TreeRelease, TreeShape};
pub use wait::{WaitMode, WaitPolicy};

/// Epoch counter type. Every fork/join cycle of the runtime uses a fresh epoch; all
/// epoch-based primitives store "the epoch up to which this event has happened" in an
/// atomic and compare against the current epoch, which sidesteps re-initialisation
/// races when a structure is reused.
pub type Epoch = u64;
