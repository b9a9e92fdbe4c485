//! `parlo-bench <table1|figure2|figure3|sweep|irregular> [flags]` — the paper's table
//! and figures, measured natively on this machine or (`--simulate`) drawn from the
//! cost model of the 48-core paper machine.  `argv` is parsed once, by
//! [`parlo_bench::args::parse`]; what it rejects exits 2 before any pool is built.
//!
//! Flags shared by every subcommand: `--trace PATH` (Chrome trace-event timeline of
//! the whole run, one track per worker; load it in Perfetto or `chrome://tracing`),
//! `--topology detect|paper|SxC`, `--pin compact|scatter|none` (worker placement: the
//! machine shape every pool's barrier tree is composed over — `2x4` is a synthetic 2
//! sockets × 4 cores — and where workers are pinned), `--wait
//! spin|spinyield|yield|park|auto` (wait policy of every constructed pool).  Each module
//! documents its own flags.

use parlo_bench::args::{parse, Subcommand};
use parlo_sim::{series_to_csv, series_to_text, Series, Table};

mod figure2;
mod figure3;
mod irregular;
mod sweep;
mod table1;

fn print_table(table: &Table, csv: bool) {
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
}

fn print_series(title: &str, series: &[&Series], csv: bool) {
    if csv {
        println!("{}", series_to_csv(series));
    } else {
        println!("{}", series_to_text(title, series));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, args) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Before any pool is constructed: every pool family reads PARLO_WAIT, and arming
    // the tracer here captures worker registration and the first loops.
    if let Some(spec) = &args.wait {
        std::env::set_var("PARLO_WAIT", spec);
    }
    if args.trace.is_some() {
        if !parlo_trace::COMPILED {
            eprintln!(
                "warning: --trace given but this binary was built without the `trace` \
                 feature; the trace will contain no events"
            );
        }
        parlo_trace::enable();
    }
    match sub {
        Subcommand::Table1 => table1::run(&args),
        Subcommand::Figure2 => figure2::run(&args),
        Subcommand::Figure3 => figure3::run(&args),
        Subcommand::Sweep => sweep::run(&args),
        Subcommand::Irregular => irregular::run(&args),
    }
    if let Some(path) = &args.trace {
        parlo_trace::disable();
        let snap = parlo_trace::snapshot();
        parlo_trace::write_chrome_trace(path, &snap).expect("failed to write --trace output");
        eprintln!("trace: wrote Chrome trace to {path}");
        eprint!("{}", snap.summary());
    }
}
