//! Linear-regression map-reduce (the Figure 3 workload) under every reduction
//! implementation, with timings and the number of reduce operations each performs.
//!
//! Run with `cargo run --release --example linear_regression [-- <points>]`.

use parlo::prelude::*;
use parlo_workloads::phoenix::linear_regression as linreg;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    println!(
        "linear regression over {n} synthetic points (true line: y = 3x + 7), {threads} threads"
    );

    let points = linreg::generate_points(n, 3.0, 7.0, 2.0, 42);

    let t0 = Instant::now();
    let seq = linreg::sequential(&points);
    println!(
        "sequential:          {:?} -> line {:?}",
        t0.elapsed(),
        seq.line()
    );

    let mut pool = FineGrainPool::with_threads(threads);
    let t0 = Instant::now();
    let fine = linreg::with_fine_grain(&mut pool, &points);
    println!(
        "fine-grain:          {:?} -> line {:?} ({} combines)",
        t0.elapsed(),
        fine.line(),
        pool.stats().combine_ops
    );

    let mut team = ScheduledTeam::with_threads(threads, Schedule::Static);
    let t0 = Instant::now();
    let omp = linreg::parallel(&mut team, &points);
    println!(
        "OpenMP static:       {:?} -> line {:?} ({} barrier phases)",
        t0.elapsed(),
        omp.line(),
        Loops::sync_stats(&team).barrier_phases
    );

    // One pool, two paths: `cilk.pool` is the baseline, `cilk` the hybrid face.
    let mut cilk = CilkFineGrain::with_threads(threads);
    let t0 = Instant::now();
    let base = linreg::parallel(&mut cilk.pool, &points);
    println!(
        "Cilk baseline:       {:?} -> line {:?} ({} reduce ops, {} steals)",
        t0.elapsed(),
        base.line(),
        cilk.pool.stats().reduce_ops,
        cilk.pool.stats().steals
    );

    let t0 = Instant::now();
    let hybrid = linreg::parallel(&mut cilk, &points);
    println!(
        "fine-grain Cilk:     {:?} -> line {:?} ({} combines)",
        t0.elapsed(),
        hybrid.line(),
        cilk.pool.stats().fine_combine_ops
    );
}
