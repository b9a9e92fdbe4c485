//! `parlo-benchmark` — the repository's benchmark of record.
//!
//! ```text
//! parlo-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! parlo-benchmark repeat [--sets 2] [--runs 5] [--seconds 30] [--out AA.json]
//! parlo-benchmark compare <a.json> <b.json>
//! parlo-benchmark spec
//! ```
//!
//! `run` prints every metric by name with its unit, its notes, and as the last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`; it exits
//! non-zero when anything failed.  See `README.md` for what is measured and why.

mod host;
mod layers;
mod repeat;
mod run;
mod sched;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  parlo-benchmark run --workload <micro_sweep|mpdata|irregular|serve> --seed <n> --seconds <s> --trace <0|1>
  parlo-benchmark repeat [--sets 2] [--runs <n>] [--seconds <s>] [--out <file>]
  parlo-benchmark compare <a.json> <b.json>
  parlo-benchmark spec";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    flags.push((key[2..].to_string(), value.clone()))
                }
                _ => return Err(format!("expected `--flag value`, got {pair:?}")),
            }
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("missing --{key}"))
    }
}

fn run_command(rest: &[String], entry: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(rest)?;
    let seconds: f64 = flags.require("seconds")?;
    if !(0.5..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.5..=600"));
    }
    let args = run::RunArgs {
        workload: flags.require("workload")?,
        seed: flags.require("seed")?,
        seconds,
        trace: flags.require::<u8>("trace")? != 0,
        corrupt: flags.get::<u8>("corrupt-reference")?.unwrap_or(0) != 0,
        entry,
    };
    // A panic on this thread is a failed run with a result line, not a bare crash.
    // (A panic inside a loop body on a worker aborts the process in `parlo-exec`.)
    let outcome = match std::panic::catch_unwind(|| run::run(&args)) {
        Ok(result) => result?,
        Err(_) => run::Outcome::panicked(),
    };
    print!("{}", outcome.report());
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest, entry),
        Some((cmd, rest)) if cmd == "repeat" => Flags::parse(rest).and_then(|f| {
            if f.get("sets")?.unwrap_or(2) != 2 {
                return Err("repeat compares two sets: --sets can only be 2".to_string());
            }
            repeat::repeat(
                f.get("runs")?.unwrap_or(5),
                f.get("seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
                f.get::<String>("out")?,
            )
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => repeat::compare(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some((cmd, [])) if cmd == "spec" => {
            print!("{}", spec::pretty(&spec::benchmark_json()));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("parlo-benchmark: {message}");
        ExitCode::from(2)
    })
}
