//! Raw granularity-sweep tool: prints one CSV row per (scheduler, sweep point) with the
//! sequential time, parallel time and speedup.  Useful for re-plotting the burden fit
//! or inspecting individual points; `table1` consumes the same data internally.
//!
//! Flags: `--threads N`, `--reps N`, `--quick`, `--runtime NAME` (run one scheduler
//! only — `adaptive` selects the online scheduler-selection runtime), `--workload
//! micro|skewed|triangular|cache` (loop body: uniform micro-benchmark, one of the
//! irregular kernels, or the cache-hostile probe kernel), `--json PATH`
//! (machine-readable report of the measured points, including the stealing runtime's
//! `StealStats`).

use crate::write_report;
use parlo_bench::args::Args;
use parlo_bench::{
    measure_roster_entry, parallel_time, sequential_time, sweep_roster, BenchReport, RosterContext,
    SweepRow, WorkloadKind, DEFAULT_REPS,
};
use parlo_workloads::microbench::SweepPoint;
use parlo_workloads::{microbench, LoopRuntime};

/// Measures every sweep point on one runtime, printing CSV rows and collecting report
/// rows.
fn run_points(
    runtime: &mut dyn LoopRuntime,
    name: &str,
    kind: WorkloadKind,
    sweep: &[SweepPoint],
    reps: usize,
    report: &mut BenchReport,
) {
    for &point in sweep {
        let t_seq = sequential_time(kind, point, reps);
        let t_par = parallel_time(runtime, kind, point, reps).max(1e-12);
        let speedup = t_seq / t_par;
        println!(
            "{name},{},{},{t_seq:.9},{t_par:.9},{speedup:.4}",
            point.iterations, point.units
        );
        report.points.push(SweepRow {
            scheduler: name.to_string(),
            iterations: point.iterations as u64,
            units: point.units as u64,
            t_seq_s: t_seq,
            t_par_s: t_par,
            speedup,
        });
    }
}

pub fn run(args: &Args) {
    let threads = args.thread_count();
    let kind = args.workload;
    let reps = args.reps.unwrap_or(DEFAULT_REPS);
    let sweep = if args.quick {
        microbench::quick_sweep()
    } else {
        microbench::default_sweep()
    };

    // The shared roster (see `parlo_bench::sweep_roster`): entries build lazily, so
    // `--runtime` never spawns the worker pools of excluded schedulers.
    let mut roster = sweep_roster();
    if let Some(wanted) = args.runtime {
        roster.retain(|e| e.key == wanted);
    }

    let mut report = BenchReport::for_workload("sweep", threads, kind.key());
    println!("scheduler,iterations,units,t_seq_s,t_par_s,speedup");
    // One substrate for the whole run: every measured runtime leases the same
    // workers, so the sweep never oversubscribes the machine against itself.
    let ctx = RosterContext::new(threads, args.placement);
    for entry in roster {
        // The stealing entry is measured through its concrete type so its StealStats
        // (steal attempts/hits, per-worker chunk counts) ride along in the report.
        let ((), steal_stats) = measure_roster_entry(&entry, &ctx, |runtime| {
            run_points(runtime, entry.key, kind, &sweep, reps, &mut report)
        });
        report.steal.extend(steal_stats);
    }
    write_report(args, &report);
    eprintln!("sweep: {}", ctx.exec_summary());
}
