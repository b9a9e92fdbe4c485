//! Table 1 — characterizing scheduler burden.
//!
//! Native mode (default): runs the granularity micro-benchmark under every scheduler
//! configuration, fits the Amdahl model `S = T/(d + T/P)` and prints the burden `d`
//! per scheduler, exactly the rows of Table 1, followed by the simulated table
//! (`--no-simulate` omits it).
//!
//! `--simulate`: prints only the cost-model prediction of Table 1 on the paper's
//! 48-core machine (see `parlo-sim`), which is the mode used to compare shapes against
//! the paper when fewer than 48 hardware threads are available.
//!
//! Other flags: `--threads N` (native thread count, default = `PARLO_THREADS` or the
//! hardware parallelism), `--reps N`, `--quick` (reduced sweep), `--csv`,
//! `--workload micro|skewed|triangular|cache` (native loop body: the uniform
//! micro-benchmark, one of the irregular kernels — whose straggler time inflates a
//! static schedule's *effective* burden — or the cache-hostile probe kernel).

use crate::print_table;
use parlo_bench::args::Args;
use parlo_bench::{fixed_roster, hardware_threads, measure_burden, RosterContext, DEFAULT_REPS};
use parlo_sim::{SimMachine, Table};
use parlo_workloads::microbench;

fn native(args: &Args) {
    let hw = hardware_threads();
    let threads = args.thread_count();
    let kind = args.workload;
    let reps = args.reps.unwrap_or(DEFAULT_REPS);
    let sweep = if args.quick {
        microbench::quick_sweep()
    } else {
        microbench::default_sweep()
    };
    eprintln!(
        "table1: native measurement on {threads} threads ({hw} hardware threads), {} sweep points, {reps} reps, workload {}",
        sweep.len(),
        kind.key()
    );

    let mut table = Table::new(
        format!(
            "Table 1 (native, {threads} threads, {} workload): characterizing scheduler burden",
            kind.key()
        ),
        &["scheduler", "d (us)", "residual"],
    );

    // The shared roster (see `parlo_bench::fixed_roster`): each runtime is built
    // lazily and leases its workers from the run's one substrate, so measuring the
    // whole table keeps at most `threads - 1` worker threads alive.
    let ctx = RosterContext::new(threads, args.placement);
    for entry in fixed_roster() {
        let label = entry.label;
        let mut runtime = (entry.build)(&ctx);
        let (_, fit) = measure_burden(runtime.as_mut(), kind, &sweep, reps);
        let values = match fit {
            Some(fit) => vec![fit.burden_us(), fit.residual],
            None => vec![f64::NAN, f64::NAN],
        };
        table.push_row(label.to_string(), values);
        eprintln!("  measured {label}");
    }

    print_table(&table, args.csv);
    eprintln!("table1: {}", ctx.exec_summary());
    println!(
        "note: absolute burdens depend on the machine; the paper reports (48 threads) \
         fine tree 5.67us, fine centralized 7.55us, fine tree full 12.00us, \
         OpenMP static 8.12us, OpenMP dynamic 31.94us, Cilk 68.80us."
    );
}

fn simulate(args: &Args) {
    let machine = SimMachine::paper_machine();
    print_table(&parlo_sim::experiments::table1(&machine), args.csv);
    println!(
        "paper reference (48 threads): fine tree 5.67, fine centralized 7.55, \
         fine tree full 12.00, OpenMP static 8.12, OpenMP dynamic 31.94, Cilk 68.80 (us)."
    );
}

pub fn run(args: &Args) {
    if args.simulate {
        simulate(args);
    } else {
        native(args);
        if !args.no_simulate {
            println!();
            simulate(args);
        }
    }
}
