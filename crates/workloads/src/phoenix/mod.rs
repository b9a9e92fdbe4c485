//! Phoenix++-style map-reduce workloads (Figure 3 of the paper).
//!
//! The paper evaluates the reduction implementations on map-reduce kernels from the
//! Phoenix++ suite, using the "medium" input of the linear-regression benchmark.  The
//! original inputs are binary files shipped with Phoenix++; we generate statistically
//! equivalent inputs with a seeded PRNG (see `DESIGN.md` §4) so the same code path —
//! a data-parallel map folded into per-thread accumulators that are then reduced — is
//! exercised at the same scale.
//!
//! Each kernel is written once, as `parallel(rt: &mut impl Loops, …)` over
//! `parlo-core`'s generic [`Loops`](parlo_core::Loops) vocabulary, and runs unchanged
//! on the fine-grain pool, the OpenMP-like team under any schedule, both paths of the
//! Cilk-like pool and the stealing pool; `sequential` is the reference and
//! `with_fine_grain` names the fine-grain instance.

pub mod histogram;
pub mod kmeans;
pub mod linear_regression;
