//! Per-loop scheduling burden of each runtime, as a function of the thread count.
//!
//! The burden `d(P)` is the fixed per-loop cost the Amdahl model of the paper fits
//! (`S = T / (d + T/P)`).  For each scheduler it is assembled from the barrier model
//! plus the runtime-specific work-distribution costs.

use crate::barrier_model as bm;
use crate::machine::SimMachine;
use serde::{Deserialize, Serialize};

/// Chunks a cross-socket steal takes per interconnect transfer in the modelled
/// locality-aware sweep: a parameter of the 48-core model's "Fine-grain steal-local"
/// row, not a setting of any runtime crate.
const REMOTE_STEAL_BATCH: usize = 2;

/// The schedulers whose burden Table 1 reports, plus the extra ablation rows this
/// reproduction adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimScheduler {
    /// Fine-grain scheduler, hierarchical half-barrier (socket-local trees, one
    /// cross-socket rendezvous per cycle, socket-local release fan-out) — the default
    /// configuration of this reproduction.
    FineGrainHier,
    /// Fine-grain scheduler, topology-aware tree half-barrier (the paper's default).
    FineGrainTree,
    /// Fine-grain scheduler, centralized half-barrier.
    FineGrainCentralized,
    /// Fine-grain scheduler, tree with two full barriers per loop.
    FineGrainTreeFull,
    /// Work-stealing chunk runtime: pre-split per-worker deques (owner LIFO, thief
    /// FIFO), randomized-victim stealing, completion through the same hierarchical
    /// half-barrier as the fine-grain pool.
    FineGrainSteal,
    /// The stealing runtime with the locality-aware sweep (`parlo-steal`'s default):
    /// socket-local victims first, cross-socket steals batched — same deques and
    /// completion barrier, cheaper steal transfers once the team spans sockets.
    FineGrainStealLocal,
    /// OpenMP-like runtime, `schedule(static)`.
    OmpStatic,
    /// OpenMP-like runtime, `schedule(dynamic)` with chunk size 1.
    OmpDynamic,
    /// Cilk-like runtime (`cilk_for` with the default grain).
    Cilk,
}

impl SimScheduler {
    /// All schedulers in the order Table 1 lists them (the hierarchical default first,
    /// then the remaining fine-grain ablations — the stealing runtime included — then
    /// the paper's baseline rows).
    pub const TABLE1_ORDER: [SimScheduler; 9] = [
        SimScheduler::FineGrainHier,
        SimScheduler::FineGrainTree,
        SimScheduler::FineGrainCentralized,
        SimScheduler::FineGrainTreeFull,
        SimScheduler::FineGrainSteal,
        SimScheduler::FineGrainStealLocal,
        SimScheduler::OmpStatic,
        SimScheduler::OmpDynamic,
        SimScheduler::Cilk,
    ];

    /// The row label Table 1 uses.
    pub fn label(&self) -> &'static str {
        match self {
            SimScheduler::FineGrainHier => "Fine-grain hierarchical",
            SimScheduler::FineGrainTree => "Fine-grain tree",
            SimScheduler::FineGrainCentralized => "Fine-grain centralized",
            SimScheduler::FineGrainTreeFull => "Fine-grain tree with full-barrier",
            SimScheduler::FineGrainSteal => "Fine-grain stealing",
            SimScheduler::FineGrainStealLocal => "Fine-grain steal-local",
            SimScheduler::OmpStatic => "OpenMP static",
            SimScheduler::OmpDynamic => "OpenMP dynamic",
            SimScheduler::Cilk => "Cilk",
        }
    }
}

/// Parameters of the loop whose scheduling burden is being modelled (dynamic schedules
/// and work stealing have per-iteration costs, so the iteration count matters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopShape {
    /// Number of iterations of the loop.
    pub iterations: usize,
    /// Dynamic-schedule chunk size (OpenMP's default of 1 unless stated otherwise).
    pub dynamic_chunk: usize,
}

impl Default for LoopShape {
    fn default() -> Self {
        LoopShape {
            iterations: 512,
            dynamic_chunk: 1,
        }
    }
}

/// Per-loop scheduling burden `d(P)` of a scheduler, in nanoseconds.
pub fn burden_ns(
    m: &SimMachine,
    scheduler: SimScheduler,
    nthreads: usize,
    shape: LoopShape,
) -> f64 {
    let p = nthreads.max(1);
    let c = &m.cost;
    match scheduler {
        SimScheduler::FineGrainHier => c.fine_setup_ns + bm::hierarchical_half_barrier_ns(m, p),
        SimScheduler::FineGrainTree => c.fine_setup_ns + bm::tree_half_barrier_ns(m, p),
        SimScheduler::FineGrainCentralized => {
            c.fine_setup_ns + bm::centralized_half_barrier_ns(m, p)
        }
        SimScheduler::FineGrainTreeFull => c.fine_setup_ns + bm::tree_full_barrier_loop_ns(m, p),
        SimScheduler::FineGrainSteal => {
            // Pre-split chunk runs: every worker pushes and pops ~8 chunks of its own
            // run (one spawn-sized deque-op pair per chunk, per-worker in parallel so
            // one run's ops sit on the critical path), the idle tail performs on the
            // order of one successful steal plus a failed sweep whose per-victim
            // probes serialise at the victims' top words, and completion is the same
            // hierarchical half-barrier as the fine-grain pool.
            let chunks_per_worker = 8.0f64.min((shape.iterations.max(1) as f64 / p as f64).ceil());
            let deque_ops = chunks_per_worker * c.task_spawn_ns;
            let steal_tail = if p > 1 {
                2.0 * c.steal_success_ns + (p as f64 - 1.0) * c.spin_check_ns
            } else {
                0.0
            };
            c.fine_setup_ns + bm::steal_half_barrier_ns(m, p) + deque_ops + steal_tail
        }
        SimScheduler::FineGrainStealLocal => {
            // Same pre-split deques and completion half-barrier as `FineGrainSteal`;
            // the tiered sweep changes only what a successful steal transfers.  A
            // random victim is cross-socket for the (1 − cps/P) share of the team and
            // pays the interconnect line transfer; the local-first order keeps steals
            // inside the socket while any local deque has work, and the unavoidable
            // cross-socket steals move REMOTE_STEAL_BATCH chunks per transfer, so
            // the expected per-steal transfer premium shrinks by the batch factor.
            let chunks_per_worker = 8.0f64.min((shape.iterations.max(1) as f64 / p as f64).ceil());
            let deque_ops = chunks_per_worker * c.task_spawn_ns;
            let steal_tail = if p > 1 {
                let cps = m.topology.cores_per_socket().max(1) as f64;
                let remote_fraction = (1.0 - cps / p as f64).max(0.0);
                let premium_saved = remote_fraction
                    * (c.line_inter_ns - c.line_intra_ns)
                    * (1.0 - 1.0 / REMOTE_STEAL_BATCH as f64);
                let local_success = (c.steal_success_ns - premium_saved).max(c.line_intra_ns);
                2.0 * local_success + (p as f64 - 1.0) * c.spin_check_ns
            } else {
                0.0
            };
            c.fine_setup_ns + bm::steal_half_barrier_ns(m, p) + deque_ops + steal_tail
        }
        SimScheduler::OmpStatic => {
            // Intel's runtime: heavier per-construct bookkeeping, two full barriers per
            // loop, but a heavily hand-tuned barrier — modelled as the same tree with a
            // modest efficiency factor.
            c.omp_setup_ns + 0.6 * bm::tree_full_barrier_loop_ns(m, p)
        }
        SimScheduler::OmpDynamic => {
            // Static costs plus the chunk-dispenser traffic.  With the default chunk
            // size of 1 every iteration performs a fetch-add on the same cache line;
            // those RMWs serialise (they are the non-parallelisable part the burden fit
            // captures), and once the team spans several sockets most of them pay the
            // cross-socket line transfer.
            let chunks = (shape.iterations as f64 / shape.dynamic_chunk.max(1) as f64).ceil();
            let per_fetch = if p == 1 {
                // Uncontended local fetch-add.
                0.2 * c.rmw_intra_ns
            } else {
                let cps = m.topology.cores_per_socket().max(1) as f64;
                let local_fraction = (cps / p as f64).min(1.0);
                let mix = local_fraction * c.rmw_intra_ns + (1.0 - local_fraction) * c.rmw_inter_ns;
                // Back-to-back fetch-adds on the same line partially pipeline at the
                // home directory, so only about half of each RMW sits on the critical
                // path.
                0.5 * mix
            };
            burden_ns(m, SimScheduler::OmpStatic, p, shape) + chunks * per_fetch
        }
        SimScheduler::Cilk => {
            // cilk_for splits the range into roughly 8·P leaf tasks (grain = N/(8P)).
            // Each split pushes a task; distributing the work requires on the order of
            // P successful steals (one per idle worker, repeated as the recursion
            // unfolds across sockets), and completion detection touches a shared
            // counter per leaf.
            let leaves = (8 * p).min(shape.iterations.max(1)) as f64;
            let spawns = (leaves - 1.0).max(0.0);
            let steals = 2.0 * (p as f64 - 1.0);
            let completion = leaves * c.rmw_intra_ns / p as f64;
            c.cilk_setup_ns
                + spawns * c.task_spawn_ns / p as f64 * 4.0
                + steals * c.steal_success_ns
                + (p as f64) * c.steal_attempt_ns
                + completion
        }
    }
}

/// Per-reduction-loop burden: the loop burden plus the reduction-specific costs
/// (Table 1 measures plain loops; Figure 3's model needs this variant).
pub fn reduction_burden_ns(
    m: &SimMachine,
    scheduler: SimScheduler,
    nthreads: usize,
    shape: LoopShape,
) -> f64 {
    let p = nthreads.max(1) as f64;
    let c = &m.cost;
    let base = burden_ns(m, scheduler, nthreads, shape);
    match scheduler {
        // Merged into the join half-barrier: P − 1 combines, spread over the tree, so
        // only the root's share (≈ fan-in combines) sits on the critical path.  The
        // stealing pool merges its per-worker views through the same join phase.
        SimScheduler::FineGrainHier
        | SimScheduler::FineGrainTree
        | SimScheduler::FineGrainSteal
        | SimScheduler::FineGrainStealLocal => {
            base + (m.topology.suggested_arrival_fanin() as f64) * c.reduce_op_ns
        }
        // Centralized: the master performs all P − 1 combines serially.
        SimScheduler::FineGrainCentralized | SimScheduler::FineGrainTreeFull => {
            base + (p - 1.0) * c.reduce_op_ns
        }
        // Intel OpenMP: an additional full tree barrier whose join phase aggregates the
        // partial results (three full barriers per reduction loop).
        SimScheduler::OmpStatic | SimScheduler::OmpDynamic => {
            base + 0.3 * bm::tree_full_barrier_loop_ns(m, nthreads)
                + (m.topology.suggested_arrival_fanin() as f64) * c.reduce_op_ns
        }
        // Baseline Cilk: a view is created and later reduced for (roughly) every steal,
        // and the reduce operations serialise on the hyperobject's lock.
        SimScheduler::Cilk => {
            let steals = 2.0 * (p - 1.0);
            base + (p + steals) * 2.0 * c.reduce_op_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> SimMachine {
        SimMachine::paper_machine()
    }

    #[test]
    fn table1_ordering_headline_claims_hold_at_48_threads() {
        let m = paper();
        let shape = LoopShape::default();
        let d = |s| burden_ns(&m, s, 48, shape);
        let fine_hier = d(SimScheduler::FineGrainHier);
        let fine_tree = d(SimScheduler::FineGrainTree);
        let fine_central = d(SimScheduler::FineGrainCentralized);
        let fine_full = d(SimScheduler::FineGrainTreeFull);
        let fine_steal = d(SimScheduler::FineGrainSteal);
        let fine_steal_local = d(SimScheduler::FineGrainStealLocal);
        let omp_static = d(SimScheduler::OmpStatic);
        let omp_dynamic = d(SimScheduler::OmpDynamic);
        let cilk = d(SimScheduler::Cilk);

        // The paper's qualitative findings:
        assert!(
            fine_hier <= fine_tree,
            "the hierarchical composition must not regress the flat tree"
        );
        assert!(
            fine_tree < fine_central,
            "tree beats centralized at 48 threads"
        );
        assert!(fine_tree < fine_full, "half-barrier beats full-barrier");
        assert!(fine_tree < omp_static, "fine-grain beats OpenMP static");
        assert!(omp_static < omp_dynamic, "dynamic schedule costs more");
        assert!(omp_dynamic < cilk, "Cilk has the largest burden");
        // The stealing runtime pays for its deques and steal tail on top of the same
        // half-barrier, but its per-worker distribution stays far below the shared
        // chunk dispenser and the recursive splitter.
        assert!(
            fine_tree < fine_steal,
            "stealing costs more than the pure static partition"
        );
        assert!(
            fine_steal < omp_dynamic,
            "per-worker deques beat the shared dispenser"
        );
        assert!(
            fine_steal < cilk,
            "pre-split chunks beat recursive splitting"
        );
        // The locality-aware sweep only removes interconnect transfers from the
        // steal tail, so at 48 threads (4 sockets) it must undercut the random
        // sweep while staying above the pure static partition.
        assert!(
            fine_steal_local < fine_steal,
            "local-first victims beat random victims across sockets"
        );
        assert!(fine_tree < fine_steal_local);
        // Headline magnitudes: the paper reports ≈43 % lower than OpenMP and ≈12× lower
        // than Cilk; the model must reproduce "substantially lower" in both cases
        // (exact calibration is recorded in EXPERIMENTS.md).
        let vs_omp = (omp_static - fine_tree) / omp_static;
        assert!(vs_omp > 0.2 && vs_omp < 0.8, "vs OpenMP reduction {vs_omp}");
        let vs_cilk = cilk / fine_tree;
        assert!(vs_cilk > 5.0 && vs_cilk < 120.0, "vs Cilk ratio {vs_cilk}");
    }

    #[test]
    fn burden_grows_with_threads_for_every_scheduler() {
        let m = paper();
        let shape = LoopShape::default();
        for s in SimScheduler::TABLE1_ORDER {
            let d8 = burden_ns(&m, s, 8, shape);
            let d48 = burden_ns(&m, s, 48, shape);
            assert!(
                d48 > d8,
                "{}: burden must grow with the degree of parallelism",
                s.label()
            );
        }
    }

    #[test]
    fn single_thread_burden_is_small() {
        let m = paper();
        let shape = LoopShape::default();
        for s in SimScheduler::TABLE1_ORDER {
            let d1 = burden_ns(&m, s, 1, shape);
            assert!(d1 < 50_000.0, "{}: {d1}", s.label());
            assert!(d1 >= 0.0);
        }
    }

    #[test]
    fn reduction_burden_exceeds_plain_burden() {
        let m = paper();
        let shape = LoopShape::default();
        for s in SimScheduler::TABLE1_ORDER {
            for p in [2usize, 12, 48] {
                assert!(
                    reduction_burden_ns(&m, s, p, shape) > burden_ns(&m, s, p, shape),
                    "{} at {p}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn fine_grain_reduction_overhead_is_smallest_at_scale() {
        let m = paper();
        let shape = LoopShape::default();
        let extra = |s| reduction_burden_ns(&m, s, 48, shape) - burden_ns(&m, s, 48, shape);
        assert!(extra(SimScheduler::FineGrainTree) < extra(SimScheduler::OmpStatic));
        assert!(extra(SimScheduler::FineGrainTree) < extra(SimScheduler::Cilk));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = SimScheduler::TABLE1_ORDER
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn steal_local_matches_random_stealing_on_one_socket() {
        // With the whole team inside one socket there is no interconnect premium to
        // save: the two stealing rows must coincide.
        let m = paper();
        let shape = LoopShape::default();
        let cps = m.topology.cores_per_socket();
        let a = burden_ns(&m, SimScheduler::FineGrainSteal, cps, shape);
        let b = burden_ns(&m, SimScheduler::FineGrainStealLocal, cps, shape);
        assert_eq!(a, b);
    }
}
