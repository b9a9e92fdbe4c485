//! # parlo-omp — an OpenMP-like baseline loop runtime
//!
//! This crate reproduces the synchronization structure of the Intel OpenMP runtime that
//! the paper evaluates against: a persistent thread team where every parallel loop pays
//! for a **full fork barrier** and a **full join barrier**, and every reduction loop pays
//! for an **additional full tree barrier** whose join phase aggregates per-thread
//! partial results (three full barriers per reduction loop, §2 of the paper).
//!
//! Work distribution supports the OpenMP worksharing schedules: `static`,
//! `static,chunk`, `dynamic,chunk` and `guided`.  The `OpenMP static` and
//! `OpenMP dynamic` rows of Table 1 are measured with [`OmpTeam::parallel_for`] under
//! [`Schedule::Static`] and [`Schedule::Dynamic`] respectively.
//!
//! ```
//! use parlo_omp::{OmpTeam, Schedule};
//!
//! let mut team = OmpTeam::with_threads(4);
//! let sum = team.parallel_reduce(
//!     0..1000,
//!     Schedule::Static,
//!     || 0u64,
//!     |acc, i| acc + i as u64,
//!     |a, b| a + b,
//! );
//! assert_eq!(sum, 499_500);
//! ```

#![warn(missing_docs)]

mod runtime;
mod schedule;
mod team;

pub use runtime::ScheduledTeam;
pub use schedule::Schedule;
pub use team::{OmpTeam, TeamConfig};
