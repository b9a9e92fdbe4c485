//! Figure 2 — MPDATA: speedup of the fine-grain and OpenMP schedulers (left panel) and
//! speedup of the fine-grain scheduler over OpenMP (right panel).
//!
//! Native mode sweeps thread counts up to the hardware parallelism and measures the
//! MPDATA solver (paper mesh: 5 568 nodes / 16 397 edges) under the fine-grain scheduler
//! and the OpenMP-like team.  `--simulate` (also printed by default) evaluates the
//! cost model on the 48-core paper machine.
//!
//! Flags: `--steps N` (time steps per measurement, default 20; 5 with `--quick`),
//! `--max-threads N`, `--quick`, `--csv`, `--simulate` (simulation only).

use crate::print_series;
use parlo_bench::args::Args;
use parlo_bench::{native_thread_sweep, time_secs};
use parlo_core::{FineGrainPool, Sequential};
use parlo_exec::Executor;
use parlo_omp::ScheduledTeam;
use parlo_sim::{Series, SimMachine};
use parlo_workloads::{LoopRuntime, Mpdata, PlacementConfig};

/// Times `steps` MPDATA steps of a fresh paper-mesh solver on `runner`, in seconds.
fn mpdata_time(runner: &mut dyn LoopRuntime, steps: usize) -> f64 {
    let mut solver = Mpdata::paper_problem();
    time_secs(|| {
        solver.run(runner, steps, false);
    })
}

fn measure_native(
    steps: usize,
    max_threads: Option<usize>,
    placement: &PlacementConfig,
) -> (Series, Series, Series) {
    let mut fine = Series::empty("fine-grain");
    let mut omp = Series::empty("OpenMP");

    let t_seq = mpdata_time(&mut Sequential, steps);
    eprintln!("figure2: sequential baseline {t_seq:.3}s for {steps} steps");

    // One substrate for the whole sweep: both runtimes at every thread count lease
    // the same workers (the substrate grows to the largest count measured).
    let executor = Executor::for_placement(placement);
    for threads in native_thread_sweep(max_threads) {
        let mut fine_runner = FineGrainPool::with_placement_on(threads, placement, &executor);
        fine.push(threads, t_seq / mpdata_time(&mut fine_runner, steps));

        let mut omp_runner = ScheduledTeam::with_placement_on(
            threads,
            parlo_omp::Schedule::Static,
            placement,
            &executor,
        );
        omp.push(threads, t_seq / mpdata_time(&mut omp_runner, steps));
        eprintln!(
            "  threads {threads}: fine {:.3}, OpenMP {:.3}",
            fine.at(threads).unwrap(),
            omp.at(threads).unwrap()
        );
    }
    let stats = executor.stats();
    eprintln!(
        "figure2: substrate held {} worker threads across the sweep ({} lease switches)",
        stats.workers, stats.switches
    );
    let ratio = fine.ratio_over(&omp, "fine-grain / OpenMP");
    (fine, omp, ratio)
}

pub fn run(args: &Args) {
    let csv = args.csv;
    if !args.simulate {
        let steps = args.steps.unwrap_or(if args.quick { 5 } else { 20 });
        let (fine, omp, ratio) = measure_native(steps, args.max_threads, &args.placement);
        print_series(
            "Figure 2 left (native): MPDATA speedup over sequential",
            &[&fine, &omp],
            csv,
        );
        print_series(
            "Figure 2 right (native): speedup of fine-grain over OpenMP",
            &[&ratio],
            csv,
        );
    }

    // Simulated 48-core machine.
    let machine = SimMachine::paper_machine();
    let (fine_s, omp_s) = parlo_sim::experiments::figure2_left(&machine);
    let ratio_s = parlo_sim::experiments::figure2_right(&machine);
    print_series(
        "Figure 2 left (simulated 48-core machine): MPDATA speedup",
        &[&fine_s, &omp_s],
        csv,
    );
    print_series(
        "Figure 2 right (simulated): speedup of fine-grain over OpenMP",
        &[&ratio_s],
        csv,
    );
    println!(
        "paper reference: OpenMP speedup stagnates with increasing threads; the fine-grain \
         scheduler improves MPDATA by up to 22% over OpenMP at 48 threads."
    );
}
