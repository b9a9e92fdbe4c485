//! Figure 3 — performance of reductions on map-reduce workloads (linear regression,
//! Phoenix++-style input).
//!
//! Panel (a): baseline Cilk vs the fine-grain (hybrid Cilk) scheduler.
//! Panel (b): OpenMP (static and dynamic) vs the fine-grain scheduler.
//!
//! The regression is processed Phoenix++-style in fixed-size map-reduce chunks, so each
//! parallel reduction is fine-grain.  Native mode sweeps thread counts up to the
//! hardware parallelism; the simulated 48-core series are printed as well.
//!
//! Flags: `--points N` (default 2,000,000 native, 500,000 with `--quick`; 25,000,000
//! simulated), `--max-threads N`, `--quick`, `--csv`, `--simulate` (simulation only).

use crate::print_series;
use parlo_bench::args::Args;
use parlo_bench::{native_thread_sweep, time_secs};
use parlo_cilk::CilkFineGrain;
use parlo_omp::{Schedule, ScheduledTeam};
use parlo_sim::{Series, SimMachine};
use parlo_workloads::phoenix::linear_regression as linreg;
use parlo_workloads::PlacementConfig;

/// Chunk size (points) of each map-reduce step, matching the simulator's assumption.
const CHUNK: usize = 65_536;

/// Times one pass over `points` in [`CHUNK`]-sized map-reduce steps, each reduced by
/// `reduce` and merged into the running total.
fn chunked_time(
    points: &[linreg::Point],
    mut reduce: impl FnMut(&[linreg::Point]) -> linreg::RegressionSums,
) -> f64 {
    time_secs(|| {
        let mut total = linreg::RegressionSums::default();
        for chunk in points.chunks(CHUNK) {
            total = total.merge(reduce(chunk));
        }
        std::hint::black_box(total.line());
    })
}

fn measure_native(
    points: &[linreg::Point],
    max_threads: Option<usize>,
    placement: &PlacementConfig,
) -> Vec<Series> {
    let t_seq = chunked_time(points, |chunk| {
        let zero = linreg::RegressionSums::default();
        chunk.iter().fold(zero, |acc, &p| acc.accumulate(p))
    });
    eprintln!(
        "figure3: sequential baseline {t_seq:.3}s for {} points",
        points.len()
    );
    let mut fine = Series::empty("fine-grain");
    let mut cilk = Series::empty("Cilk");
    let mut cilk_fine = Series::empty("fine-grain Cilk");
    let mut omp_static = Series::empty("OpenMP static");
    let mut omp_dynamic = Series::empty("OpenMP dynamic");

    // One substrate for the whole sweep: all three pool families lease the same
    // workers at every thread count.
    let executor = parlo_exec::Executor::for_placement(placement);
    for threads in native_thread_sweep(max_threads) {
        // Fine-grain scheduler (merged half-barrier reductions).
        let mut pool = parlo_core::FineGrainPool::with_placement_on(threads, placement, &executor);
        let t = chunked_time(points, |chunk| linreg::parallel(&mut pool, chunk));
        fine.push(threads, t_seq / t);

        // Baseline Cilk and the hybrid fine-grain path of the same pool.
        let mut hybrid = CilkFineGrain::with_placement_on(threads, placement, &executor);
        let t = chunked_time(points, |chunk| linreg::parallel(&mut hybrid.pool, chunk));
        cilk.push(threads, t_seq / t);
        let t = chunked_time(points, |chunk| linreg::parallel(&mut hybrid, chunk));
        cilk_fine.push(threads, t_seq / t);

        // OpenMP baselines: one team, retargeted per schedule.
        let mut team =
            ScheduledTeam::with_placement_on(threads, Schedule::Static, placement, &executor);
        for (schedule, series) in [
            (Schedule::Static, &mut omp_static),
            (Schedule::Dynamic(64), &mut omp_dynamic),
        ] {
            team.schedule = schedule;
            let t = chunked_time(points, |chunk| linreg::parallel(&mut team, chunk));
            series.push(threads, t_seq / t);
        }
        eprintln!("  threads {threads} done");
    }
    let stats = executor.stats();
    eprintln!(
        "figure3: substrate held {} worker threads across the sweep ({} lease switches)",
        stats.workers, stats.switches
    );
    vec![fine, cilk, cilk_fine, omp_static, omp_dynamic]
}

pub fn run(args: &Args) {
    let csv = args.csv;
    if !args.simulate {
        let n = args
            .points
            .unwrap_or(if args.quick { 500_000 } else { 2_000_000 });
        let points = linreg::generate_points(n, 3.0, 7.0, 2.0, 0xF163);
        let series = measure_native(&points, args.max_threads, &args.placement);
        print_series(
            "Figure 3a (native): linear regression, Cilk baseline vs fine-grain",
            &[&series[1], &series[2], &series[0]],
            csv,
        );
        print_series(
            "Figure 3b (native): linear regression, OpenMP baselines vs fine-grain",
            &[&series[3], &series[4], &series[0]],
            csv,
        );
    }

    // Simulated 48-core machine.
    let machine = SimMachine::paper_machine();
    let points = args
        .points
        .unwrap_or(parlo_sim::experiments::FIGURE3_POINTS);
    let (fine_a, cilk_s) = parlo_sim::experiments::figure3a(&machine, points);
    print_series(
        "Figure 3a (simulated 48-core machine): linear regression, Cilk vs fine-grain",
        &[&cilk_s, &fine_a],
        csv,
    );
    let (fine_b, omp_s, omp_d) = parlo_sim::experiments::figure3b(&machine, points);
    print_series(
        "Figure 3b (simulated 48-core machine): linear regression, OpenMP vs fine-grain",
        &[&omp_s, &omp_d, &fine_b],
        csv,
    );
    println!(
        "paper reference: the fine-grain scheduler achieves higher parallel efficiency than \
         baseline Cilk and OpenMP, with a best-case speedup of 2.8x."
    );
}
