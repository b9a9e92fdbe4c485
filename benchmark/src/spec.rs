//! The benchmark's definition in one place: workloads, metrics, bounds, and the fixed
//! sizes of every workload.  `parlo-benchmark spec` prints it as `BENCHMARK.json`.

use serde::Value;

/// How long one run measures, seconds.  The contract caps the 4 + 22 × 4 runs of a
/// judgement (with set-up and two builds) at 3420 s, which leaves 30 s, not 40.
pub const RUN_SECONDS: u64 = 30;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// How many times a `--trace 0` run sets its workload up: at the start and after each
/// third of the window, so that the set-ups see different seconds of the host.
pub const SETUPS_PER_RUN: usize = 3;

/// Open-loop request rate of the `serve` workload, requests/s: about 40 % of what the
/// reference host's one-worker server saturates at.
pub const SERVE_OPEN_RPS: f64 = 24_000.0;

/// Requests the `serve` closed loop keeps outstanding.
pub const SERVE_CLOSED_OUTSTANDING: usize = 64;

/// Latency limit of the `serve.max_rate_in_slo_rps` ladder, on the p90, µs.
pub const SERVE_SLO_P90_US: f64 = 350.0;

/// A workload and why it is there.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Ops (requests for `serve`) of the fixed-count warm-up that ends set-up: about a
    /// second's worth on the reference host.  Fixed so that `setup_s` measures the same
    /// work on every run and seed.
    pub warmup_ops: u64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "micro_sweep",
        why: "paper Table 1: rounds of six 512-iteration reductions at grains 1-32, where dispatch is ~15 % of the time, so barrier/core/exec changes show here first and largest",
        warmup_ops: 13_000,
    },
    WorkloadSpec {
        name: "mpdata",
        why: "paper Fig. 2: MPDATA steps of five short loops on the 5568-node mesh; kernels dominate, so a dispatch win shows smaller by loops_per_step x d and a kernel change shows only here",
        warmup_ops: 3_500,
    },
    WorkloadSpec {
        name: "irregular",
        why: "skewed, triangular and cache-hostile loops on the stealing pool with sticky sites: static-vs-stealing trade-offs show with the opposite sign to micro_sweep",
        warmup_ops: 700,
    },
    WorkloadSpec {
        name: "serve",
        why: "the request path (queue, admission, fusion, wake-up) at a fixed open rate and closed with 64 outstanding; the control on which dispatch changes predict no change",
        warmup_ops: 40_000,
    },
];

/// The spec of a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload's `--trace 0` run and gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The gated metrics.  A bound is about three times the spread that ten runs of
/// identical code showed on the reference host (README, noise protocol); `setup_s`
/// carries the largest, as the benchmark contract asks.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric: reported by the `--trace 1` run, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 81] = [
    // barrier -> micro_sweep / mpdata op_p50_us
    lower("barrier.half_tree_cycle_ns", "ns"),
    lower("barrier.half_centralized_cycle_ns", "ns"),
    lower("barrier.half_hier_cycle_ns", "ns"),
    lower("barrier.full_tree_cycle_ns", "ns"),
    lower("barrier.wait_spin_cycle_ns", "ns"),
    lower("barrier.wait_yield_cycle_ns", "ns"),
    lower("barrier.wait_park_cycle_ns", "ns"),
    lower("barrier.idle_cpu_frac_spin", "ratio"),
    lower("barrier.idle_cpu_frac_park", "ratio"),
    lower("barrier.cycles_per_loop", "count"),
    // exec -> setup_s everywhere
    lower("exec.first_attach_us", "us"),
    lower("exec.lease_switch_us", "us"),
    lower("exec.workers", "count"),
    lower("exec.switches", "count"),
    higher("exec.pinned_workers", "count"),
    lower("exec.cpu_s_per_wall_s", "ratio"),
    // core -> micro_sweep all timing metrics, mpdata op_p50_us
    lower("core.empty_for_ns", "ns"),
    lower("core.for_512x1_ns", "ns"),
    lower("core.reduce_512x1_ns", "ns"),
    lower("core.d_us", "us"),
    lower("core.d_centralized_us", "us"),
    lower("core.d_full_barrier_us", "us"),
    lower("core.combine_ops_per_reduce", "count"),
    lower("core.release_ns", "ns"),
    lower("core.work_ns", "ns"),
    lower("core.join_ns", "ns"),
    lower("core.combine_ns", "ns"),
    lower("core.unexplained_pct", "%"),
    // omp, cilk: baselines with no end-to-end workload of their own
    lower("omp.d_static_us", "us"),
    lower("omp.d_dynamic_us", "us"),
    lower("omp.d_guided_us", "us"),
    lower("omp.dynamic_chunks_per_loop", "count"),
    lower("cilk.d_us", "us"),
    lower("cilk.d_fine_us", "us"),
    lower("cilk.steals_per_loop", "count"),
    lower("cilk.deque_push_pop_ns", "ns"),
    lower("cilk.deque_steal_ns", "ns"),
    // steal -> irregular all timing metrics
    lower("steal.d_us", "us"),
    lower("steal.skewed_us", "us"),
    lower("steal.triangular_us", "us"),
    lower("steal.cache_us", "us"),
    lower("steal.chunks_per_loop", "count"),
    lower("steal.steals_per_loop", "count"),
    higher("steal.hit_ratio", "ratio"),
    higher("steal.sticky_reuse_frac", "ratio"),
    higher("steal.gain_vs_static", "x"),
    // adaptive -> setup_s of anything built on it
    lower("adaptive.calibration_ms", "ms"),
    lower("adaptive.probes", "count"),
    lower("adaptive.reprobes", "count"),
    lower("adaptive.route_ns", "ns"),
    lower("adaptive.regret_pct", "%"),
    // serve -> serve all metrics
    lower("serve.submit_ns", "ns"),
    lower("serve.overhead_p50_us", "us"),
    lower("serve.p99_us_at_rate", "us"),
    lower("serve.for_p50_us", "us"),
    lower("serve.sum_p50_us", "us"),
    higher("serve.closed_loops_per_s", "1/s"),
    higher("serve.fused_frac", "ratio"),
    higher("serve.batch_mean", "count"),
    higher("serve.attempted", "count"),
    higher("serve.gangs", "count"),
    higher("serve.gang_size", "count"),
    lower("serve.generator_lag_p99_us", "us"),
    higher("serve.max_rate_in_slo_rps", "1/s"),
    // workloads -> mpdata ops_per_s
    lower("workloads.mpdata_seq_step_us", "us"),
    lower("workloads.mpdata_loops_per_step", "count"),
    lower("workloads.mpdata_effective_burden_us", "us"),
    lower("workloads.linreg_ms", "ms"),
    lower("workloads.histogram_ms", "ms"),
    lower("workloads.kmeans_ms", "ms"),
    higher("workloads.linreg_computed_gbps", "GB/s"),
    // trace, analysis: what observing costs
    lower("trace.armed_overhead_pct", "%"),
    lower("trace.harness_overhead_pct", "%"),
    higher("trace.events", "count"),
    lower("analysis.fit_residual", "x2"),
    // the traced workload itself, ungated tails included
    higher("workload.ops_per_s", "1/s"),
    lower("workload.op_p50_us", "us"),
    lower("workload.op_p99_us", "us"),
    lower("workload.op_p999_us", "us"),
    higher("workload.spans", "count"),
    lower("workload.harness_self_pct", "%"),
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Value {
    obj(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Seq(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a value as indented JSON (the vendored writer is compact only).
pub fn pretty(value: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match v {
            Value::Seq(items) if items.iter().any(|i| matches!(i, Value::Map(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&serde_json::to_string(item).expect("finite numbers"));
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Map(entries) if depth == 0 => {
                out.push_str("{\n");
                for (i, (k, val)) in entries.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&serde_json::to_string(k.as_str()).expect("string"));
                    out.push_str(": ");
                    go(val, depth + 1, out);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&serde_json::to_string(other).expect("finite numbers")),
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn spec_equals_the_checked_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
        let reparsed: Value = serde_json::from_str(&pretty(&benchmark_json())).unwrap();
        assert_eq!(reparsed, benchmark_json(), "pretty() keeps the value");
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn the_spec_stays_inside_the_contract() {
        assert!((1..=60).contains(&RUN_SECONDS) && RUN_SECONDS >= 30);
        assert!(COMMAND.len() <= 32);
        assert!((2..=4).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.warmup_ops > 0);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(!m.name.contains("p99"), "no p99 is gated");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
        // The 4 + 22 x workloads runs of a judgement, with cargo's start-up, the
        // set-up and two cold builds, fit the contract's 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 4) + 2 * 60 <= 3420);
    }

    #[test]
    fn the_warm_up_count_does_not_depend_on_the_seed() {
        // `warmup_ops` is a constant of the workload: there is no seed to pass.
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).unwrap().warmup_ops, w.warmup_ops);
        }
        assert!(workload("phoenix").is_none(), "dropped on purpose");
    }
}
