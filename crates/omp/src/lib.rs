//! # parlo-omp — an OpenMP-like baseline loop runtime
//!
//! This crate reproduces the synchronization structure of the Intel OpenMP runtime that
//! the paper evaluates against: a persistent thread team where every parallel loop pays
//! for a **full fork barrier** and a **full join barrier**, and every reduction loop pays
//! for an **additional full tree barrier** whose join phase aggregates per-thread
//! partial results (three full barriers per reduction loop, §2 of the paper).
//!
//! Work distribution supports the OpenMP worksharing schedules: `static`,
//! `static,chunk`, `dynamic,chunk` and `guided`.  A [`ScheduledTeam`] — an [`OmpTeam`]
//! with one [`Schedule`] — implements `parlo-core`'s generic
//! [`Loops`](parlo_core::Loops) vocabulary, and `parlo-core`'s blanket impl makes it a
//! `dyn LoopRuntime` too; the
//! `OpenMP static` and `OpenMP dynamic` rows of Table 1 are measured on it under
//! [`Schedule::Static`] and [`Schedule::Dynamic`] respectively.
//!
//! ```
//! use parlo_core::Loops;
//! use parlo_omp::{Schedule, ScheduledTeam};
//!
//! let mut team = ScheduledTeam::with_threads(4, Schedule::Static);
//! let sum = team.reduce(0..1000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
//! assert_eq!(sum, 499_500);
//! ```

#![warn(missing_docs)]

mod runtime;
mod schedule;
mod team;

pub use runtime::ScheduledTeam;
pub use schedule::Schedule;
pub use team::{OmpTeam, TeamConfig};
