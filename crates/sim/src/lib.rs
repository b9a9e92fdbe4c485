//! # parlo-sim — a cost-model simulator of the paper's 48-core evaluation machine
//!
//! The paper's experiments run on a 4-socket, 48-core Intel Xeon E7-4860 v2.  This
//! reproduction's container does not have 48 hardware threads, so this crate substitutes
//! an analytic cost model (DESIGN.md §4): it walks the paper's MCS tree and the
//! socket-composed tree the real runtime builds, charges cache-line transfers (intra-
//! vs inter-socket), serialised atomics, steal and spawn costs, and replays the
//! evaluation workloads' loop structure against those costs.  The absolute numbers are order-of-magnitude; what the model is
//! used for is the **shape** of the results — who wins, how overhead scales with the
//! thread count, and where the crossovers fall.
//!
//! * [`SimMachine`] / [`CostModel`] — the modelled machine;
//! * [`barrier_model`] — critical-path latencies of the release/join phases
//!   (centralized vs tree, half vs full);
//! * [`scheduler_model`] — per-loop burden `d(P)` of every scheduler of Table 1;
//! * [`workload_model`] — MPDATA and map-reduce loop structures replayed against the
//!   burden model;
//! * [`experiments`] — the simulated Table 1, Figure 2 and Figure 3;
//! * [`Series`] / [`Table`] — the speedup-vs-threads series and named-row tables those
//!   experiments produce, rendered by [`series_to_text`], [`series_to_csv`],
//!   [`Table::to_text`] and [`Table::to_csv`] (`parlo-bench` prints its native rows
//!   through the same types).

#![warn(missing_docs)]

pub mod barrier_model;
pub mod experiments;
pub mod scheduler_model;
pub mod workload_model;

mod cost;
mod machine;
mod report;
mod series;

pub use cost::CostModel;
pub use machine::SimMachine;
pub use report::{series_to_csv, series_to_text, Table};
pub use scheduler_model::{burden_ns, reduction_burden_ns, LoopShape, SimScheduler};
pub use series::Series;
pub use workload_model::{workload_speedup, SimLoop};
