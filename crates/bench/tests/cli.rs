//! The command line, end to end: each subcommand's cheapest mode and the four classes
//! of rejected input.  The runs are serialised (the native ones build pools of their
//! own) and start in the temporary directory.

use parlo_sim::SimScheduler;
use std::process::{Command, Output};
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `parlo-bench` with the whitespace-separated `line` as its arguments.
fn cli(line: &str) -> (Output, String, String) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_parlo-bench"))
        .args(line.split_whitespace())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("the parlo-bench binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stdout, stderr)
}

fn ok(line: &str) -> String {
    let (out, stdout, stderr) = cli(line);
    assert!(out.status.success(), "`{line}` failed: {stderr}");
    stdout
}

#[test]
fn simulated_figures_print_their_headers_and_table1_its_nine_rows_in_order() {
    let table1 = ok("table1 --simulate");
    let mut lines = table1.lines();
    assert!(lines.next().unwrap().starts_with("== Table 1 (simulated)"));
    assert!(lines.next().unwrap().starts_with("scheduler"));
    assert_eq!(SimScheduler::TABLE1_ORDER.len(), 9);
    for scheduler in SimScheduler::TABLE1_ORDER {
        let row = lines.next().expect("nine rows");
        assert!(row.starts_with(scheduler.label()), "{row}");
    }
    assert_eq!(lines.next(), Some(""), "the table ends after nine rows");

    let figure2 = ok("figure2 --simulate");
    assert!(figure2.starts_with("== Figure 2 left (simulated 48-core machine)"));
    assert!(!figure2.contains("(native)"));
    let figure3 = ok("figure3 --simulate --csv");
    assert!(
        figure3.starts_with("threads,Cilk,fine-grain\n"),
        "{figure3}"
    );
}

#[test]
fn native_sweep_and_irregular_run_at_two_threads() {
    let sweep = ok("sweep --quick --reps 1 --threads 2 --pin none --runtime fine-grain-hier");
    let lines: Vec<&str> = sweep.lines().collect();
    let header = "scheduler,iterations,units,t_seq_s,t_par_s,speedup";
    assert_eq!(lines[0], header);
    assert_eq!(lines.len(), 4, "the header and the three quick points");
    assert!(lines[1..].iter().all(|l| l.starts_with("fine-grain-hier,")));

    let irregular = ok("irregular --reps 1 --n 256 --threads 2 --pin none");
    assert!(irregular.starts_with("== Irregular workloads (2 threads, n = 256)"));
    assert!(irregular.contains("\nadaptive "), "{irregular}");
}

#[test]
fn rejected_input_exits_2_naming_the_offender_before_any_measurement() {
    for (line, offender, accepted) in [
        ("serve", "`serve`", "<table1|figure2|figure3|sweep|"),
        ("table1 --simualte", "`--simualte`", "[--simulate]"),
        ("figure2 --json x", "`--json`", "[--steps N]"),
        ("sweep --runtime", "`--runtime`", "[--runtime NAME]"),
        ("table1 --reps banana", "`banana`", "[--reps N]"),
        (
            "sweep --flat-sync",
            "`--flat-sync`",
            "[--pin compact|scatter|none]",
        ),
        ("table1 --steal-local", "`--steal-local`", "[--workload"),
        ("sweep --steal-local", "`--steal-local`", "[--runtime NAME]"),
        ("irregular --steal-local", "`--steal-local`", "[--n ITERS]"),
        ("table1 --json x", "`--json`", "[--workload"),
    ] {
        let (out, stdout, stderr) = cli(line);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(offender), "`{line}`: {stderr}");
        assert!(stderr.contains(accepted), "`{line}`: {stderr}");
        assert!(stdout.is_empty(), "`{line}` started a run: {stdout}");
    }
}
