//! # parlo — reproduction of the PPoPP'18 fine-grain parallel loop scheduler
//!
//! This meta-crate re-exports the whole workspace: the fine-grain half-barrier
//! scheduler ([`core`]), the OpenMP-like and Cilk-like baseline runtimes ([`omp`],
//! [`cilk`]), the work-stealing chunk runtime ([`steal`]), the online
//! scheduler-selection runtime ([`adaptive`]), the multi-tenant loop server
//! ([`serve`]), the barrier, affinity and shared-worker
//! substrates ([`barrier`], [`affinity`], [`exec`]), the evaluation workloads
//! ([`workloads`]), the
//! burden model ([`analysis`]) and the many-core cost-model simulator
//! ([`sim`]).
//!
//! See the repository README for the architecture overview, `DESIGN.md` for the system
//! inventory and per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! ```
//! use parlo::prelude::*;
//!
//! let mut pool = FineGrainPool::with_threads(2);
//! let sum = pool.reduce(0..100, || 0u32, |a, i| a + i as u32, |a, b| a + b);
//! assert_eq!(sum, 4950);
//! ```

#![warn(missing_docs)]

pub use parlo_adaptive as adaptive;
pub use parlo_affinity as affinity;
pub use parlo_analysis as analysis;
pub use parlo_barrier as barrier;
pub use parlo_cilk as cilk;
pub use parlo_core as core;
pub use parlo_exec as exec;
pub use parlo_omp as omp;
pub use parlo_serve as serve;
pub use parlo_sim as sim;
pub use parlo_steal as steal;
pub use parlo_sync as sync;
pub use parlo_trace as trace;
pub use parlo_workloads as workloads;

/// The most commonly used types, re-exported in one place.
pub mod prelude {
    pub use parlo_adaptive::{AdaptivePool, Backend, LoopSite};
    pub use parlo_affinity::{PinPolicy, PlacementConfig, Topology, TopologySource};
    pub use parlo_barrier::{HierarchicalHalfBarrier, HierarchyStats, WaitPolicy};
    pub use parlo_cilk::{CilkFineGrain, CilkPool};
    pub use parlo_core::{
        BarrierKind, Config, FineGrainPool, LoopRuntime, Loops, Sequential, StatsRegistry,
        StatsSource, SyncStats,
    };
    pub use parlo_exec::{ExecStats, Executor};
    pub use parlo_omp::{OmpTeam, Schedule, ScheduledTeam};
    pub use parlo_serve::{GangSizing, LoopRequest, ServeConfig, Server};
    pub use parlo_steal::{
        SchedulePerturbation, ScriptedOrder, SeededPerturbation, StealConfig, StealPool, StealSite,
        StealStats,
    };
    pub use parlo_workloads::{all_runtimes, all_runtimes_with_placement};
}
