//! # parlo-adaptive — online scheduler selection over the unified `LoopRuntime` trait
//!
//! The paper's central result is that *which* loop scheduler wins is a function of the
//! loop's granularity `T`: the burden model `S = T / (d + T/P)` says a runtime with
//! per-loop burden `d` runs a loop of sequential duration `T` on `P` threads in
//! `d + T/P` seconds.  A micro-second loop wants the fine-grain half-barrier scheduler
//! (`d ≈ 5.7 µs` in Table 1); a coarse, load-imbalanced loop wants dynamic scheduling
//! or work stealing, whose larger `d` is amortised and whose balancing shrinks the
//! effective `T/P` term.
//!
//! [`AdaptivePool`] makes that choice *online, per loop site*.  It owns one instance of
//! every backend (the fine-grain pool, the OpenMP-like team, the Cilk-like pool) and,
//! for each distinct [`LoopSite`]:
//!
//! 1. **calibrates** — times one sequential execution (the site's `T`) and then one
//!    execution per candidate backend, each a perfectly ordinary run of the loop (every
//!    index is executed exactly once, so calibration never changes results);
//! 2. **fits** — turns each probe into a [`BurdenMeasurement`] and runs the
//!    least-squares [`fit_burden`] machinery from `parlo-analysis`, recovering the
//!    site-specific burden `d_b` of every backend (for an imbalanced loop a static
//!    backend's *effective* burden also absorbs the straggler time, which is exactly
//!    what routing should penalise);
//! 3. **routes** — thereafter runs the site on the backend minimising the predicted
//!    time `d_b + T/P` (sequential execution, predicted `T`, is also a candidate: a
//!    loop smaller than every burden should not be parallelised at all), with a
//!    granularity-derived chunk size for the dynamic backends;
//! 4. **re-probes** — after [`AdaptiveConfig::reprobe_interval`] routed executions,
//!    or immediately after a few consecutive routed executions run far slower than
//!    predicted (drift detection), the site is re-calibrated from fresh
//!    measurements, so phase changes (MPDATA alternating micro-second node loops
//!    with millisecond edge loops, say) are re-detected.
//!
//! Probe timing goes through the [`ProbeTimer`] hook; the default [`WallClock`] uses
//! real elapsed time, while tests inject a deterministic cost model so routing
//! behaviour is reproducible on any machine.
//!
//! [`BurdenMeasurement`]: parlo_analysis::BurdenMeasurement
//! [`fit_burden`]: parlo_analysis::fit_burden
//!
//! ## Quick start
//!
//! ```
//! use parlo_adaptive::{AdaptivePool, LoopSite};
//!
//! let mut pool = AdaptivePool::with_threads(2);
//! let site = LoopSite::new(1);
//! let data: Vec<u64> = (0..4096).collect();
//! // The first calls calibrate (sequential + one probe per backend), later calls are
//! // routed to the fitted-best backend. Results are identical throughout.
//! for _ in 0..8 {
//!     let sum = pool.parallel_sum_at(site, 0..data.len(), &|i| data[i] as f64);
//!     assert_eq!(sum, (4095.0 * 4096.0) / 2.0);
//! }
//! assert!(pool.decision(site).is_some());
//! ```

#![warn(missing_docs)]

mod pool;
mod site;
mod timer;

pub use pool::{gang_size_hint, AdaptiveConfig, AdaptivePool, AdaptiveStats, Decision};
pub use site::LoopSite;
pub use timer::{ProbeTimer, WallClock};

// Re-export the trait the whole design hangs on, so depending on `parlo-adaptive`
// alone is enough to drive the pool generically.
pub use parlo_core::{LoopRuntime, SyncStats};

/// A candidate backend of the adaptive runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Inline sequential execution on the master thread (no scheduling burden at all —
    /// the right choice when `T` is smaller than every backend's burden).
    Sequential,
    /// The paper's fine-grain half-barrier scheduler (static block partition).
    FineGrain,
    /// The OpenMP-like team with `schedule(static)`.
    OmpStatic,
    /// The OpenMP-like team with `schedule(dynamic, chunk)`; the chunk size is derived
    /// from the loop's granularity at execution time.
    OmpDynamic,
    /// The work-stealing chunk pool (pre-split per-worker deques, owner-LIFO /
    /// thief-FIFO, half-barrier completion).
    Steal,
    /// The Cilk-like work-stealing pool (recursive splitting, random stealing).
    CilkSteal,
}

impl Backend {
    /// The candidate set probed for every site, in probe order: one representative
    /// per scheduling family.  Sequential execution is the implicit baseline
    /// candidate.
    pub const DEFAULT: [Backend; 5] = [
        Backend::FineGrain,
        Backend::OmpStatic,
        Backend::OmpDynamic,
        Backend::Steal,
        Backend::CilkSteal,
    ];

    /// Short human-readable label (report/diagnostic output).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::FineGrain => "fine-grain",
            Backend::OmpStatic => "omp-static",
            Backend::OmpDynamic => "omp-dynamic",
            Backend::Steal => "steal",
            Backend::CilkSteal => "cilk-steal",
        }
    }
}
