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
//! This crate provides one barrier family over two structures:
//!
//! * the centralized pair — one release line every worker spins on, one arrival line
//!   per worker that the master reads (a depth-1 tree): [`CentralizedRelease`],
//!   [`CentralizedJoin`];
//! * the tree — socket-local MCS-style trees, one cross-socket rendezvous per cycle,
//!   remote sockets released first, per-socket grouped flags:
//!   [`HierarchicalHalfBarrier`] (instrumented via [`HierarchyStats`]).
//!
//! [`HalfBarrier`] runs either structure's release and join, the schedulers' per-loop
//! synchronization; [`FullBarrier`] runs the same two phases in reverse order (join,
//! then release), the conventional barrier the half-barrier is derived from.
//! [`WaitPolicy`] says how a thread waits for a condition: a spin budget, then a yield
//! budget, then a park on the process-wide hub (releases call [`wake_parked`]).
//!
//! All primitives are *epoch based*: every fork/join cycle uses a fresh monotonically
//! increasing epoch number, which avoids the reinitialisation races of sense-reversal
//! when the same structure is reused for release-only and join-only phases.
//!
//! # The payload of a signal
//!
//! Every flag of the crate is a signal line: an epoch and a [`Payload`] —
//! [`PAYLOAD_WORDS`] words — in the same padded 128-byte line, used in both directions.
//! Publishing writes the payload and then stores the epoch with `Release`; the waiter
//! reads the payload after its `Acquire` load of the epoch, from the line it just
//! pulled in.
//!
//! * **Down, at the release.**  `release(epoch, &payload)` publishes the payload;
//!   `wait_release` returns it, and a tree member that forwards the release copies the
//!   payload into each child's line before storing the child's epoch.  The polling
//!   path (`poll_release` / `forward_release`) and a full barrier's release phase
//!   carry it the same way; there is no payload-less release.  The loop runtimes put
//!   the loop's whole job there (`parlo_exec::Job`), so a released worker has its job
//!   in the line transfer that released it.
//! * **Up, at the join.**  `join` and `arrive` take an optional accumulator.  With one,
//!   each join child's payload is handed to `on_child(acc, child, payload)` as soon as
//!   the child's arrival is seen, and a worker then arrives with the folded accumulator
//!   as its payload: the loop runtimes' merged reduction, whose partial results cross
//!   cores only on the arrival lines.  Without one (a plain loop) nothing is folded and
//!   a worker stores its arrival epoch alone.

#![warn(missing_docs)]

mod counter;
mod full;
mod half;
mod hierarchical;
mod line;
mod park;
mod wait;

pub use counter::{CentralizedJoin, CentralizedRelease};
pub use full::FullBarrier;
pub use half::HalfBarrier;
pub use hierarchical::{HierarchicalHalfBarrier, HierarchyStats};
pub use line::{Payload, EMPTY_PAYLOAD, PAYLOAD_WORDS};
pub use park::wake_parked;
pub use wait::WaitPolicy;

/// Epoch counter type. Every fork/join cycle of the runtime uses a fresh epoch; all
/// epoch-based primitives store "the epoch up to which this event has happened" in an
/// atomic and compare against the current epoch, which sidesteps re-initialisation
/// races when a structure is reused.
pub type Epoch = u64;
