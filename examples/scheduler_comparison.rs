//! Side-by-side comparison of the schedulers on a fine-grain loop, reporting the
//! per-loop overhead each one pays — a miniature, human-readable version of Table 1 —
//! followed by the cost-model prediction for the paper's 48-core machine.
//!
//! Run with `cargo run --release --example scheduler_comparison`.

use parlo::prelude::*;
use parlo_sim::SimMachine;
use parlo_workloads::microbench::work_unit;
use std::time::Instant;

const LOOPS: usize = 2_000;
const ITERS: usize = 64;

fn time_loops(name: &str, mut run: impl FnMut() -> f64) {
    // Warm up.
    for _ in 0..20 {
        std::hint::black_box(run());
    }
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..LOOPS {
        acc += run();
    }
    let elapsed = t0.elapsed();
    println!(
        "{name:<38} {:>10.2} us/loop   (checksum {acc:.1})",
        elapsed.as_secs_f64() * 1e6 / LOOPS as f64
    );
}

/// One fine-grain loop, written once for every runtime: a sum of `ITERS` work units.
fn sum_loop(rt: &mut impl Loops) -> f64 {
    rt.reduce(0..ITERS, || 0.0, |a, i| a + work_unit(i, 1), |a, b| a + b)
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    println!(
        "per-loop cost of a {ITERS}-iteration fine-grain loop, {threads} threads, {LOOPS} loops\n"
    );

    let mut fine_tree = FineGrainPool::new(
        Config::builder(threads)
            .barrier(BarrierKind::TreeHalf)
            .build(),
    );
    time_loops("fine-grain tree (half-barrier)", || {
        sum_loop(&mut fine_tree)
    });

    let mut fine_central = FineGrainPool::new(
        Config::builder(threads)
            .barrier(BarrierKind::CentralizedHalf)
            .build(),
    );
    time_loops("fine-grain centralized (half-barrier)", || {
        sum_loop(&mut fine_central)
    });

    let mut fine_full = FineGrainPool::new(
        Config::builder(threads)
            .barrier(BarrierKind::TreeFull)
            .build(),
    );
    time_loops("fine-grain tree (full barriers)", || {
        sum_loop(&mut fine_full)
    });

    let mut team = ScheduledTeam::with_threads(threads, Schedule::Static);
    time_loops("OpenMP-like, schedule(static)", || sum_loop(&mut team));
    team.schedule = Schedule::Dynamic(1);
    time_loops("OpenMP-like, schedule(dynamic,1)", || sum_loop(&mut team));

    let mut cilk = CilkFineGrain::with_threads(threads);
    time_loops("Cilk-like (work stealing)", || sum_loop(&mut cilk.pool));
    time_loops("Cilk-like hybrid (fine-grain path)", || sum_loop(&mut cilk));

    println!("\ncost-model prediction for the paper's 48-core machine (Table 1, simulated):");
    let machine = SimMachine::paper_machine();
    print!("{}", parlo_sim::experiments::table1(&machine).to_text());
}
