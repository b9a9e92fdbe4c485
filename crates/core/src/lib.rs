//! # parlo-core — the fine-grain parallel loop scheduler
//!
//! This crate implements the primary contribution of *"Reducing the Burden of Parallel
//! Loop Schedulers for Many-Core Processors"* (PPoPP 2018): a loop scheduler tuned to
//! fine-grain (micro-second-scale) parallel loops whose per-loop synchronization cost is
//! a single **half-barrier** — a release-only fork phase plus a join-only completion
//! phase — instead of the two (or, with reductions, three) full barriers executed by
//! conventional OpenMP-style runtimes.
//!
//! ## Quick start
//!
//! ```
//! use parlo_core::{FineGrainPool, Loops};
//!
//! let mut pool = FineGrainPool::with_threads(4);
//!
//! // A statically scheduled parallel loop with a reduction merged into the join phase.
//! let data: Vec<u64> = (0..10_000).collect();
//! let sum = pool.reduce(
//!     0..data.len(),
//!     || 0u64,
//!     |acc, i| acc + data[i],
//!     |a, b| a + b,
//! );
//! assert_eq!(sum, data.iter().sum::<u64>());
//! ```
//!
//! ## Structure
//!
//! * [`FineGrainPool`] — the persistent worker pool; one master thread plus `P − 1`
//!   workers that wait on the fork half-barrier between loops.
//! * [`Config`] / [`BarrierKind`] — selects the synchronization structure: the paper's
//!   *fine-grain tree* (default), *fine-grain centralized*, or the *full-barrier*
//!   variants used as ablations in Table 1.
//! * [`Loops`] — the generic loop vocabulary every runtime implements: a block loop and
//!   a block reduction (plus its name, thread count and [`SyncStats`]), and the
//!   per-index [`Loops::for_each`] / [`Loops::reduce`] built on them.  On the pool a loop is one static block per
//!   participant under one half-barrier, and a reduction is merged into the join phase
//!   (exactly `P − 1` combines, distributed over the join tree).  The OpenMP
//!   comparators (`static,chunk`, `dynamic`, `guided`) live in `parlo-omp`.
//! * [`FineGrainPool::broadcast`] (an SPMD region) and
//!   [`FineGrainPool::parallel_reduce_ordered`] (non-commutative operators).
//! * [`LoopRuntime`] / [`SyncStats`] — the object-safe face of [`Loops`]: one blanket
//!   `impl<R: Loops> LoopRuntime for R` (in `runtime.rs`) makes every runtime one,
//!   [`Sequential`] (the inline reference) included; the adaptive router
//!   (`parlo_adaptive::AdaptivePool`, which picks its backend at run time) is the one
//!   hand-written impl.  The `f64` workloads and the harnesses program against
//!   `dyn LoopRuntime`; with both traits in scope on a concrete runtime, name the trait
//!   (`Loops::sync_stats(&pool)`).  [`SyncStats`] is also what [`FineGrainPool::stats`] returns:
//!   the counters that verify the structural claims (barrier phases per loop, combines
//!   per reduction).
//! * [`deal_for`] / [`deal_reduce`] — the one loop harness and the one merged-reduction
//!   harness over any team, generic over a [`Deal`]er, the per-runtime part: how a
//!   participant gets its pieces.  The fine-grain pool and the Cilk-like pool's hybrid
//!   path run them over the static block ([`static_for`] / [`static_reduce`]), the
//!   OpenMP-like team over its worksharing and the stealing pool over its deque sweep.
//!   The body is called once per piece; the per-index loops hand it the adapter
//!   `move |r| walk_range(&body, r)` (`parlo_exec`).
//! * [`PoolStats`] — the counter block behind that snapshot, shared with the
//!   OpenMP-like team, the Cilk-like pool's hybrid path and the stealing pool.
//! * [`StatsSource`] / [`StatsRegistry`] / [`stats_family!`] — the unified stats
//!   surface: every counter family in the workspace is declared through the macro
//!   (deriving `since`/`merged` and a flattened sample view) and any set of live
//!   families can be rendered as one text metrics page.

#![warn(missing_docs)]

mod config;
mod loops;
mod pool;
mod range;
mod reduce;
mod runtime;
mod source;
mod stats;

pub use config::{BarrierKind, Config, ConfigBuilder};
pub use loops::{deal_for, static_for, Deal};
pub use pool::{FineGrainPool, WorkerInfo};
pub use range::{static_block, static_chunks, DynamicChunks, GuidedChunks};
pub use reduce::{deal_reduce, static_reduce};
pub use runtime::{LoopRuntime, Loops, Sequential, SyncStats};
pub use source::{CounterField, StatsRegistry, StatsSource};
pub use stats::PoolStats;

// Re-export the pieces callers commonly need to configure a pool.
pub use parlo_affinity::{PinPolicy, PlacementConfig, Topology, TopologySource};
pub use parlo_barrier::{HierarchyStats, WaitPolicy};
