//! # parlo-cilk — a Cilk-like work-stealing baseline and the paper's hybrid extension
//!
//! The baseline side of this crate reproduces the structure of the Cilkplus runtime the
//! paper measures against: per-worker Chase–Lev deques, random work stealing,
//! `cilk_for` by recursive binary splitting down to a grain size ([`CilkConfig::grain`],
//! else [`default_grain`], the workspace's one grain formula), and reducer
//! hyperobjects whose views are created lazily and closed out on steals (so the number
//! of reduce operations can greatly exceed `P − 1`).
//!
//! The extension side implements the paper's hybrid scheduler: the same pool embeds a
//! half-barrier and idle workers alternate one cycle of random stealing with a poll of
//! the half-barrier release flag, so fine-grain loops run statically scheduled while
//! coarse-grain loops keep dynamic scheduling.  Both paths speak `parlo-core`'s
//! generic [`Loops`](parlo_core::Loops) vocabulary: a [`CilkPool`] runs the baseline
//! loops, and [`CilkFineGrain`], the same pool behind its hybrid face, the fine-grain
//! ones.  The hybrid path runs `parlo-core`'s one loop harness over the static block
//! ([`parlo_core::static_for`], [`parlo_core::static_reduce`]) on the pool's team, so
//! it is the fine-grain pool's loop, not a copy of it.
//!
//! ```
//! use parlo_cilk::CilkFineGrain;
//! use parlo_core::Loops;
//!
//! let mut hybrid = CilkFineGrain::with_threads(4);
//!
//! // Baseline Cilk: dynamically scheduled, work-stealing.
//! let sum = hybrid.pool.reduce(0..100_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
//! assert_eq!(sum, (0..100_000u64).sum());
//!
//! // Hybrid fine-grain path: statically scheduled through the half-barrier.
//! let sum2 = hybrid.reduce(0..100_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
//! assert_eq!(sum2, sum);
//! ```

#![warn(missing_docs)]

mod deque;
mod reducer;
mod runtime;
mod scheduler;

pub use deque::{Full, Steal, WorkStealingDeque};
pub use runtime::CilkFineGrain;
pub use scheduler::{default_grain, CilkConfig, CilkPool, CilkStatsSnapshot};
// The victim rotation `parlo-steal` shares; not part of the API.
#[doc(hidden)]
pub use scheduler::{victim_seed, xorshift};
