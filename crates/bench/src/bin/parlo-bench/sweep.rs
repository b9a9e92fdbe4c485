//! Raw granularity-sweep tool: prints one CSV row per (scheduler, sweep point) with the
//! sequential time, parallel time and speedup.  Useful for re-plotting the burden fit
//! or inspecting individual points; `table1` consumes the same data internally.
//!
//! Flags: `--threads N`, `--reps N`, `--quick`, `--runtime NAME` (run one scheduler
//! only — `adaptive` selects the online scheduler-selection runtime), `--workload
//! micro|skewed|triangular|cache` (loop body: uniform micro-benchmark, one of the
//! irregular kernels, or the cache-hostile probe kernel).

use parlo_bench::args::Args;
use parlo_bench::{
    parallel_time, sequential_time, sweep_roster, RosterContext, WorkloadKind, DEFAULT_REPS,
};
use parlo_workloads::microbench::SweepPoint;
use parlo_workloads::{microbench, LoopRuntime};

/// Measures every sweep point on one runtime, printing one CSV row per point.
fn run_points(
    runtime: &mut dyn LoopRuntime,
    name: &str,
    kind: WorkloadKind,
    sweep: &[SweepPoint],
    reps: usize,
) {
    for &point in sweep {
        let t_seq = sequential_time(kind, point, reps);
        let t_par = parallel_time(runtime, kind, point, reps).max(1e-12);
        let speedup = t_seq / t_par;
        println!(
            "{name},{},{},{t_seq:.9},{t_par:.9},{speedup:.4}",
            point.iterations, point.units
        );
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

    println!("scheduler,iterations,units,t_seq_s,t_par_s,speedup");
    // One substrate for the whole run: every measured runtime leases the same
    // workers, so the sweep never oversubscribes the machine against itself.
    let ctx = RosterContext::new(threads, args.placement);
    for entry in roster {
        let mut runtime = (entry.build)(&ctx);
        run_points(runtime.as_mut(), entry.key, kind, &sweep, reps);
    }
    eprintln!("sweep: {}", ctx.exec_summary());
}
