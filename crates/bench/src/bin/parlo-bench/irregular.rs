//! Irregular-workload figure: speedup of every roster scheduler on the two
//! load-imbalanced kernels (skewed-geometric iteration cost and the triangular loop
//! nest) plus the cache-hostile probe kernel, one series per scheduler per workload —
//! the companion figure to Table 1's uniform micro-benchmark, showing where the
//! balancing runtimes (dynamic chunks, stealing) earn their larger burden back and
//! where data placement (locality-aware stealing) matters.
//!
//! Flags: `--threads N`, `--reps N` (default 5), `--n ITERS` (default 2048),
//! `--units U` (default 4), `--csv`.

use crate::print_table;
use parlo_bench::args::Args;
use parlo_bench::{parallel_time, sequential_time, sweep_roster, RosterContext, WorkloadKind};
use parlo_sim::Table;
use parlo_workloads::microbench::SweepPoint;
use parlo_workloads::LoopRuntime;

/// Default outer-loop size of both kernels (large enough that the skew matters, small
/// enough for a quick run).
const DEFAULT_ITERS: usize = 2048;

/// The measured kernels, in column order: the two load-imbalanced ones, then the
/// cache-hostile probe kernel (uniform cost, placement-sensitive traffic).
const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::SkewedGeometric,
    WorkloadKind::TriangularNest,
    WorkloadKind::CacheHostile,
];

/// Measures one scheduler on every kernel; returns its speedup columns.
fn measure(
    runtime: &mut dyn LoopRuntime,
    point: SweepPoint,
    t_seq: &[f64],
    reps: usize,
) -> Vec<f64> {
    KINDS
        .iter()
        .zip(t_seq)
        .map(|(&kind, &seq)| seq / parallel_time(runtime, kind, point, reps).max(1e-12))
        .collect()
}

pub fn run(args: &Args) {
    let threads = args.thread_count();
    let reps = args.reps.unwrap_or(5);
    let iterations = args.n.unwrap_or(DEFAULT_ITERS);
    let units = args.units.unwrap_or(4);
    let point = SweepPoint { iterations, units };

    let mut table = Table::new(
        format!(
            "Irregular workloads ({threads} threads, n = {iterations}): speedup over sequential"
        ),
        &[
            "scheduler",
            "skewed-geometric",
            "triangular-nest",
            "cache-hostile",
        ],
    );
    let t_seq: Vec<f64> = KINDS
        .iter()
        .map(|&k| sequential_time(k, point, reps))
        .collect();

    // One substrate for the whole run (see `RosterContext`).
    let ctx = RosterContext::new(threads, args.placement);
    for entry in sweep_roster() {
        let mut runtime = (entry.build)(&ctx);
        let speedups = measure(runtime.as_mut(), point, &t_seq, reps);
        table.push_row(entry.key.to_string(), speedups);
    }

    print_table(&table, args.csv);
    eprintln!("irregular: {}", ctx.exec_summary());
}
