//! Irregular-workload figure: speedup of every roster scheduler on the two
//! load-imbalanced kernels (skewed-geometric iteration cost and the triangular loop
//! nest) plus the cache-hostile probe kernel, one series per scheduler per workload —
//! the companion figure to Table 1's uniform micro-benchmark, showing where the
//! balancing runtimes (dynamic chunks, stealing) earn their larger burden back and
//! where data placement (locality-aware stealing) matters.
//!
//! Flags: `--threads N`, `--reps N` (default 5), `--n ITERS` (default 2048),
//! `--units U` (default 4), `--csv`, `--json PATH`.
//!
//! The JSON report carries one `SweepRow` per (scheduler, workload) with the
//! scheduler key qualified as `key@workload`, plus the stealing runtime's
//! `StealStats`.

use crate::{print_table, write_report};
use parlo_analysis::Table;
use parlo_bench::args::Args;
use parlo_bench::{
    measure_roster_entry, parallel_time, sequential_time, sweep_roster, BenchReport, RosterContext,
    SweepRow, WorkloadKind,
};
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

/// Measures one scheduler on both kernels; returns its speedup columns.
fn measure(
    runtime: &mut dyn LoopRuntime,
    key: &str,
    point: SweepPoint,
    t_seq: &[f64],
    reps: usize,
    report: &mut BenchReport,
) -> Vec<f64> {
    let mut speedups = Vec::with_capacity(KINDS.len());
    for (&kind, &seq) in KINDS.iter().zip(t_seq) {
        let t_par = parallel_time(runtime, kind, point, reps).max(1e-12);
        let speedup = seq / t_par;
        speedups.push(speedup);
        report.points.push(SweepRow {
            scheduler: format!("{}@{}", key, kind.key()),
            iterations: point.iterations as u64,
            units: point.units as u64,
            t_seq_s: seq,
            t_par_s: t_par,
            speedup,
        });
    }
    speedups
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
    // The rows mix both kernels (keys are qualified `key@workload`), so the report's
    // workload marker is the subcommand's own.
    let mut report = BenchReport::for_workload("irregular", threads, "irregular");
    let t_seq: Vec<f64> = KINDS
        .iter()
        .map(|&k| sequential_time(k, point, reps))
        .collect();

    // One substrate for the whole run (see `RosterContext`).
    let ctx = RosterContext::new(threads, args.placement);
    for entry in sweep_roster() {
        // The stealing entry is measured through its concrete type so its StealStats
        // land in the report next to the timings.
        let (speedups, steal_stats) = measure_roster_entry(&entry, &ctx, |rt| {
            measure(rt, entry.key, point, &t_seq, reps, &mut report)
        });
        report.steal.extend(steal_stats);
        table.push_row(entry.key.to_string(), speedups);
    }

    print_table(&table, args.csv);
    write_report(args, &report);
    eprintln!("irregular: {}", ctx.exec_summary());
}
