//! # parlo-steal — a work-stealing chunk runtime with half-barrier completion
//!
//! The roster's other dynamic schedulers hand out work from a **shared** source: the
//! OpenMP-like dynamic/guided schedules fetch chunks from one contended dispenser, and
//! the Cilk-like pool materialises tasks by recursive splitting.  Both regimes pay for
//! that sharing on every chunk.  This crate adds the third classic design point — a
//! **per-worker chunk deque** with randomized stealing:
//!
//! * each loop is **pre-split** into per-worker chunk runs (the worker's static block,
//!   subdivided into chunks of [`StealPool::effective_chunk`]: [`StealConfig::chunk`]
//!   if set, else the workspace's one grain formula, [`parlo_cilk::default_grain`]),
//!   so the distribution arithmetic is communication-free, exactly like the
//!   fine-grain pool's static partition;
//! * every worker seeds its own bounded deque with its run and executes it with
//!   **owner-LIFO** pops (front to back through the block — cache friendly), while
//!   exhausted workers take chunks **thief-FIFO** from the back of randomized victims'
//!   runs, so skewed iteration costs rebalance without a shared dispenser;
//! * nobody holds a loop's last piece whole: a participant that claims a piece (own
//!   pop or steal) while its own deque is empty **lends the upper half** back onto that
//!   deque and runs the lower — a thief may take the half, the lender's next pop
//!   reclaims it otherwise, and the rule re-applies to every half down to
//!   [`LEND_FLOOR`] iterations.  The `n/(8P)` pre-split alone caps a skewed loop at
//!   the weight of its heaviest chunk (one chunk of the geometric benchmark loop is
//!   half its work: 1.5× of a possible 2×); halving the tail lifts the cap without
//!   finer chunks everywhere, growable deques or polling inside a chunk.  Chunks
//!   remain the unit of accounting and of sticky affinity; halves are counted
//!   separately ([`StealStats::lends`], [`StealStats::lent_steals`]);
//! * loop completion is detected by the **same half-barrier** as the fine-grain pool
//!   (the socket-composed tree): 2 barrier phases per loop and
//!   exactly `P − 1` combines per merged reduction, keeping the burden comparison with
//!   the rest of the roster structural, not incidental.  A stealing reduction is the
//!   fine-grain pool's merged reduction ([`parlo_core::deal_reduce`]) with the deque
//!   sweep as the dealer: each participant folds every piece it runs — its own run,
//!   stolen chunks, lent halves — into one accumulator seeded with the identity and
//!   arrives with it, and the accumulators are combined pairwise in the join phase.
//!
//! Stealing is **locality-aware**: sweeps walk the topology's victim tiers
//! socket-local-first (a seeded rotation within each tier, falling outward only when
//! the nearer tier is dry; on one socket, a seeded rotation over every other
//! participant), every hit takes one piece, and the site-keyed entry points
//! ([`StealPool::steal_for_at`]) add **sticky chunk→worker affinity** — each grid
//! chunk re-seeds the deque of whichever participant executed it last time (see the
//! invalidation contract in the `sticky` module docs).
//!
//! The schedule is nondeterministic by nature, so the crate also exposes the hooks the
//! test battery is built on: [`SchedulePerturbation`] lets a test drive the pool
//! through seeded steal schedules (and [`ScriptedOrder`] scripts exact victim visit
//! orders), and [`StealStats`] accounts every chunk (per worker), every steal
//! attempt/hit — split into local and remote — and every lent half, so "no chunk lost
//! or duplicated" is checkable exactly.
//!
//! The pool implements `parlo-core`'s generic [`Loops`] vocabulary (and so, through
//! `parlo-core`'s blanket impl, [`LoopRuntime`]); the site-keyed loops are its own.
//!
//! ```
//! use parlo_steal::{Loops, StealPool};
//!
//! let mut pool = StealPool::with_threads(4);
//! // A skewed body: late iterations are much heavier. Thieves pick up the tail.
//! let sum = pool.reduce(0..10_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
//! assert_eq!(sum, (0..10_000u64).sum());
//! let stats = pool.stats();
//! assert_eq!(stats.combine_ops, 3, "P-1 combines, merged into the join phase");
//! ```

#![warn(missing_docs)]

mod chunk;
mod deque;
mod perturb;
mod pool;
mod runtime;
mod sticky;

pub use chunk::{
    assigned_run_rev, grid_chunk, grid_chunks, lend_halves, total_chunks, worker_run_rev,
    ChunkRange, LEND_FLOOR,
};
pub use deque::{ChunkDeque, Full, Steal};
pub use perturb::{
    SchedulePerturbation, ScriptedOrder, SeededPerturbation, SweepPlan, MAX_PERTURB_SPINS,
};
pub use pool::{StealConfig, StealPool, StealStats};
pub use sticky::StealSite;

// Re-export the traits so depending on `parlo-steal` alone is enough to drive the pool
// generically.
pub use parlo_core::{LoopRuntime, Loops, SyncStats};
