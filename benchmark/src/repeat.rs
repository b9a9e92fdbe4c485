//! `repeat` runs the same code in two sets and shows whether the benchmark agrees
//! with itself; `compare` does the same arithmetic on two result files (say, a parent
//! commit's and a change's).  Both judge a difference by the metric's own bound.

use crate::host::Fingerprint;
use crate::spec::{self, obj, Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use serde::{map_get, Value};
use std::process::{Command, ExitCode};

/// One `run` of one workload, as read back from its result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub metrics: Vec<(String, f64)>,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        _ => None,
    }
}

/// Parses the last line a `run` printed.  `Err` unless it is a correct result.
pub fn parse_result_line(workload: &str, seed: u64, line: &str) -> Result<RunRecord, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let top = v.as_map().ok_or("result line is not an object")?;
    if map_get(top, "correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed} was not correct: {line}"));
    }
    let metrics = map_get(top, "metrics")
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            m.as_map()
                .and_then(|m| map_get(m, "value"))
                .and_then(number)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunRecord {
        workload: workload.to_string(),
        seed,
        metrics,
    })
}

/// One workload x metric row of a two-group comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub bound: f64,
    pub medians: [f64; 2],
    /// `[q1, q3]` of each group (equal to the median when a group has one run).
    pub quartiles: [[f64; 2]; 2],
    /// `(second - first) / first`, signed.
    pub rel_diff: f64,
    /// How much worse the second median is in the metric's direction (negative: better).
    pub worse_by: f64,
}

impl Row {
    /// The two medians differ by less than the bound, in either direction.
    pub fn within(&self) -> bool {
        self.rel_diff.abs() <= self.bound
    }
}

fn values(group: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    group
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric).map(|m| m.1))
        .collect()
}

fn row(workload: &str, m: &EndToEnd, groups: [&[RunRecord]; 2]) -> Option<Row> {
    let mut medians = [0.0; 2];
    let mut spread = [[0.0; 2]; 2];
    for (k, group) in groups.iter().enumerate() {
        let mut v = values(group, workload, m.name);
        if v.is_empty() {
            return None;
        }
        medians[k] = median(&mut v);
        spread[k] = quartiles(&v).map_or([medians[k]; 2], |[q1, _, q3]| [q1, q3]);
    }
    let rel_diff = (medians[1] - medians[0]) / medians[0];
    Some(Row {
        workload: workload.to_string(),
        metric: m.name,
        bound: m.bound,
        medians,
        quartiles: spread,
        rel_diff,
        worse_by: match m.better {
            Better::Lower => rel_diff,
            Better::Higher => -rel_diff,
        },
    })
}

/// Every workload x end-to-end metric present in both groups.
pub fn compare_groups(first: &[RunRecord], second: &[RunRecord]) -> Vec<Row> {
    WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w.name, m)))
        .filter_map(|(w, m)| row(w, m, [first, second]))
        .collect()
}

fn print_rows(rows: &[Row], labels: [&str; 2]) {
    println!(
        "{:<12} {:<12} {:>13} {:>13} {:>8} {:>6}  {:<25} {:<25}",
        "workload",
        "metric",
        format!("median {}", labels[0]),
        format!("median {}", labels[1]),
        "diff %",
        "bound",
        format!("q1..q3 {}", labels[0]),
        format!("q1..q3 {}", labels[1]),
    );
    for r in rows {
        let q = |k: usize| format!("{:.4}..{:.4}", r.quartiles[k][0], r.quartiles[k][1]);
        println!(
            "{:<12} {:<12} {:>13.4} {:>13.4} {:>+8.2} {:>6.2}  {:<25} {:<25}{}",
            r.workload,
            r.metric,
            r.medians[0],
            r.medians[1],
            100.0 * r.rel_diff,
            r.bound,
            q(0),
            q(1),
            if r.within() { "" } else { "  OVER BOUND" },
        );
    }
}

fn record_value(r: &RunRecord) -> Value {
    obj(vec![
        ("workload", Value::Str(r.workload.clone())),
        ("seed", Value::U64(r.seed)),
        (
            "metrics",
            Value::Map(
                r.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn row_value(r: &Row) -> Value {
    let pair = |p: [f64; 2]| Value::Seq(p.iter().map(|&x| Value::F64(x)).collect());
    obj(vec![
        ("workload", Value::Str(r.workload.clone())),
        ("metric", Value::Str(r.metric.to_string())),
        ("bound", Value::F64(r.bound)),
        ("medians", pair(r.medians)),
        ("quartiles_first", pair(r.quartiles[0])),
        ("quartiles_second", pair(r.quartiles[1])),
        ("rel_diff", Value::F64(r.rel_diff)),
        ("within_bound", Value::Bool(r.within())),
    ])
}

fn results_file(seconds: f64, sets: &[Vec<RunRecord>; 2], rows: &[Row]) -> Value {
    let fp = Fingerprint::read();
    obj(vec![
        (
            "host",
            obj(vec![
                ("nproc", Value::U64(fp.nproc as u64)),
                ("threads", Value::U64(fp.threads as u64)),
                ("cpu_model", Value::Str(fp.cpu_model)),
                ("kernel", Value::Str(fp.kernel)),
            ]),
        ),
        ("seconds", Value::F64(seconds)),
        (
            "sets",
            Value::Seq(
                sets.iter()
                    .map(|set| Value::Seq(set.iter().map(record_value).collect()))
                    .collect(),
            ),
        ),
        (
            "first_vs_second_set",
            Value::Seq(rows.iter().map(row_value).collect()),
        ),
    ])
}

fn load_runs(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets = v
        .as_map()
        .and_then(|m| map_get(m, "sets"))
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{path}: no `sets`"))?;
    let mut runs = Vec::new();
    for r in sets.iter().filter_map(Value::as_seq).flatten() {
        let m = r
            .as_map()
            .ok_or_else(|| format!("{path}: a run is not an object"))?;
        let field = |k: &str| map_get(m, k).ok_or_else(|| format!("{path}: a run has no `{k}`"));
        runs.push(RunRecord {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: number(field("seed")?).unwrap_or(0.0) as u64,
            metrics: field("metrics")?
                .as_map()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), number(v)?)))
                .collect(),
        });
    }
    Ok(runs)
}

/// Runs the four workloads `runs` times in each of two sets, with a fresh seed every
/// time, then compares the sets.  The sets are interleaved in time (round `k` runs both
/// sets' `k`-th run, in alternating set and workload order): the host's slow phases
/// last minutes, and two sets run one after the other would compare the phases, not
/// the code.
/// Fails when a median moved by more than its bound — unless `seconds` is shorter than
/// the benchmark's run length (the CI smoke mode, which only checks that runs work).
pub fn repeat(runs: usize, seconds: f64, out: Option<String>) -> Result<ExitCode, String> {
    if runs < 1 {
        return Err("repeat needs at least 1 run per set".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all: [Vec<RunRecord>; 2] = Default::default();
    let mut seed = 0u64;
    for run in 0..runs {
        for set in if run % 2 == 0 { [0, 1] } else { [1, 0] } {
            let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            if (run + set) % 2 == 1 {
                order.reverse();
            }
            seed += 1;
            for workload in order {
                eprintln!("set {set} run {run}: {workload} seed {seed}");
                let output = Command::new(&exe)
                    .args(["run", "--workload", workload, "--trace", "0"])
                    .args([
                        "--seed",
                        &seed.to_string(),
                        "--seconds",
                        &seconds.to_string(),
                    ])
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or_default();
                if !output.status.success() {
                    return Err(format!(
                        "{workload} seed {seed} exited {}: {last}",
                        output.status
                    ));
                }
                all[set].push(parse_result_line(workload, seed, last)?);
            }
        }
    }
    let rows = compare_groups(&all[0], &all[1]);
    print_rows(&rows, ["set 0", "set 1"]);
    if let Some(path) = out {
        let text = spec::pretty(&results_file(seconds, &all, &rows));
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    let smoke = seconds < spec::RUN_SECONDS as f64;
    if smoke {
        println!("smoke mode ({seconds} s runs): bounds not applied");
    }
    Ok(if smoke || rows.iter().all(Row::within) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares all the runs of file `a` with all the runs of file `b` (both written by
/// `repeat --out`).  Fails when `b` is worse than `a` by more than a metric's bound.
pub fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let rows = compare_groups(&load_runs(a)?, &load_runs(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".to_string());
    }
    print_rows(&rows, ["a", "b"]);
    let regressions: Vec<&Row> = rows.iter().filter(|r| r.worse_by > r.bound).collect();
    for r in &regressions {
        println!(
            "REGRESSION {} {}: worse by {:.1} % (bound {:.0} %)",
            r.workload,
            r.metric,
            100.0 * r.worse_by,
            100.0 * r.bound
        );
    }
    Ok(if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, speedup: f64, setup_s: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            seed: 1,
            metrics: vec![
                ("speedup".to_string(), speedup),
                ("setup_s".to_string(), setup_s),
            ],
        }
    }

    #[test]
    fn result_lines_round_trip_and_incorrect_ones_are_refused() {
        let line = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"speedup":{"value":1234.5,"unit":"x"},"peak_rss_mb":{"value":20,"unit":"MiB"}}}"#;
        let r = parse_result_line("serve", 7, line).unwrap();
        assert_eq!(r.seed, 7);
        assert_eq!(
            r.metrics,
            vec![
                ("speedup".to_string(), 1234.5),
                ("peak_rss_mb".to_string(), 20.0)
            ]
        );
        let wrong = line.replace("true", "false");
        assert!(parse_result_line("serve", 7, &wrong).is_err());
        assert!(parse_result_line("serve", 7, "not json").is_err());
    }

    #[test]
    fn a_difference_is_judged_by_the_metric_s_bound_and_direction() {
        let first = vec![
            record("mpdata", 100.0, 10.0),
            record("mpdata", 102.0, 10.2),
            record("mpdata", 98.0, 9.8),
        ];
        let second = vec![
            record("mpdata", 70.0, 10.5),
            record("mpdata", 71.0, 10.4),
            record("mpdata", 69.0, 10.6),
        ];
        let rows = compare_groups(&first, &second);
        assert_eq!(rows.len(), 2, "only metrics both groups have");
        let speedup = rows.iter().find(|r| r.metric == "speedup").unwrap();
        assert_eq!(speedup.medians, [100.0, 70.0]);
        assert!((speedup.rel_diff + 0.3).abs() < 1e-12);
        assert!(
            (speedup.worse_by - 0.3).abs() < 1e-12,
            "a lower speed-up is worse"
        );
        assert!(!speedup.within());
        let setup = rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert!(
            (setup.worse_by - 0.05).abs() < 1e-12,
            "a longer set-up is worse"
        );
        assert!(setup.within());
        assert_eq!(setup.quartiles[0], [9.8, 10.2]);
    }

    #[test]
    fn a_results_file_reads_back() {
        let sets = [
            vec![record("serve", 1.0, 2.0)],
            vec![record("serve", 1.5, 2.5)],
        ];
        let rows = compare_groups(&sets[0], &sets[1]);
        let text = spec::pretty(&results_file(30.0, &sets, &rows));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-results-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let runs = load_runs(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            runs,
            vec![record("serve", 1.0, 2.0), record("serve", 1.5, 2.5)]
        );
    }
}
