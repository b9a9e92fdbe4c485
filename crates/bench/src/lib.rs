//! # parlo-bench — the paper-figure CLI
//!
//! One binary, `parlo-bench <subcommand> [flags]`, draws the paper's evaluation:
//!
//! * `table1` — scheduler burden: granularity sweep + Amdahl fit (native) and the
//!   cost-model prediction for the 48-core machine (`--simulate`);
//! * `figure2` — MPDATA speedup vs threads, fine-grain vs OpenMP, native + simulated;
//! * `figure3` — linear-regression map-reduce speedup vs threads against the Cilk and
//!   OpenMP baselines, native + simulated;
//! * `sweep` — raw granularity-sweep CSV for ad-hoc analysis (`--runtime NAME` selects
//!   one scheduler, including `adaptive`);
//! * `irregular` — every roster scheduler on the load-imbalanced and cache-hostile
//!   kernels.
//!
//! The numbers of record are not taken here: the benchmark of record is `benchmark/`
//! (see its README), which measures each quantity against an interleaved reference.
//! `--simulate` draws the *shape* of the paper's 48-core machine from `parlo-sim`'s
//! cost model — an illustration, never evidence.
//!
//! This library holds what the subcommands share: the one argument parser ([`args`]),
//! burden measurement over `dyn LoopRuntime`, the scheduler roster, and the write-only
//! JSON report (`--json <path>`).  [`measured`] is a statistics reference held by
//! tier-1 property tests; it has no CLI.

use parlo_analysis::{fit_burden, BurdenFit, BurdenMeasurement};
use parlo_exec::Executor;
use parlo_workloads::microbench::{self, SweepPoint};
use parlo_workloads::{cache, irregular, LoopRuntime, PlacementConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

pub mod args;
pub mod measured;

/// Default number of repetitions per sweep point (each repetition runs the whole loop).
pub const DEFAULT_REPS: usize = 15;

/// Untimed warm-up executions before the timed repetitions of a sweep point: enough to
/// complete an adaptive runtime's calibration round even when it starts with a
/// drift-triggered re-calibration (3 drift strikes + 1 sequential probe + one probe
/// per default backend, with margin), so measurements reflect routed/steady-state
/// executions rather than calibration probes.
pub const WARMUP_RUNS: usize = 10;

/// Which loop body a sweep point runs: the uniform granularity micro-benchmark, one
/// of the irregular (load-imbalanced) kernels, or the cache-hostile probe kernel.
/// Selected on `table1`/`sweep` with `--workload micro|skewed|triangular|cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadKind {
    /// Uniform per-iteration cost (the Table-1 micro-benchmark; the default).
    #[default]
    Micro,
    /// Skewed-geometric iteration cost (`parlo_workloads::irregular::skewed_term`).
    SkewedGeometric,
    /// Triangular loop nest (`parlo_workloads::irregular::triangular_row`); the sweep
    /// point's `units` are ignored — the row index alone sets the cost.
    TriangularNest,
    /// Cache-hostile probes into the shared large table
    /// (`parlo_workloads::cache::global_table`): `units` probes per iteration.  The
    /// workload that discriminates data placement — the locality-aware steal sweep
    /// and sticky affinity are measured against it.
    CacheHostile,
}

impl WorkloadKind {
    /// Every workload, with its `--workload` selector key.
    pub const ALL: [(WorkloadKind, &'static str); 4] = [
        (WorkloadKind::Micro, "micro"),
        (WorkloadKind::SkewedGeometric, "skewed"),
        (WorkloadKind::TriangularNest, "triangular"),
        (WorkloadKind::CacheHostile, "cache"),
    ];

    /// Parses a `--workload` selector.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|(_, key)| *key == spec)
            .map(|&(kind, _)| kind)
            .ok_or_else(|| {
                format!(
                    "invalid workload `{spec}`; expected `micro`, `skewed`, `triangular`, \
                     or `cache`"
                )
            })
    }

    /// The selector key (report/CSV label component).
    pub fn key(&self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(kind, _)| kind == self)
            .map(|&(_, key)| key)
            .expect("every kind is listed in ALL")
    }

    /// The value iteration `i` of an `n`-iteration loop contributes under this
    /// workload (the parallel sum of these terms is what the sweep times).
    #[inline]
    pub fn term(&self, i: usize, n: usize, units: usize) -> f64 {
        match self {
            WorkloadKind::Micro => microbench::work_unit(i, units),
            WorkloadKind::SkewedGeometric => irregular::skewed_term(i, n, units),
            WorkloadKind::TriangularNest => irregular::triangular_row(i),
            WorkloadKind::CacheHostile => cache::global_table().term(i, units),
        }
    }
}

/// Measures the sequential time of one sweep point (minimum of `reps` runs), in seconds.
pub fn sequential_time(kind: WorkloadKind, point: SweepPoint, reps: usize) -> f64 {
    let n = point.iterations;
    parlo_analysis::min_time_of(reps, || {
        let mut acc = 0.0;
        for i in 0..n {
            acc += kind.term(i, n, point.units);
        }
        parlo_analysis::black_box(acc);
    })
    .as_secs_f64()
}

/// Measures the parallel time of one sweep point on `runtime` (minimum of `reps` runs
/// after [`WARMUP_RUNS`] untimed warm-up executions), in seconds.
pub fn parallel_time(
    runtime: &mut dyn LoopRuntime,
    kind: WorkloadKind,
    point: SweepPoint,
    reps: usize,
) -> f64 {
    let n = point.iterations;
    let units = point.units;
    for _ in 0..WARMUP_RUNS {
        let acc = runtime.parallel_sum(0..n, &|i| kind.term(i, n, units));
        parlo_analysis::black_box(acc);
    }
    parlo_analysis::min_time_of(reps, || {
        let acc = runtime.parallel_sum(0..n, &|i| kind.term(i, n, units));
        parlo_analysis::black_box(acc);
    })
    .as_secs_f64()
}

/// Runs the granularity sweep on a runtime and fits the scheduling burden.
/// Returns the per-point measurements together with the fit (if one was possible).
/// On an irregular workload a static schedule's *effective* burden absorbs the
/// straggler time, which is exactly what the fitted comparison should show.
pub fn measure_burden(
    runtime: &mut dyn LoopRuntime,
    kind: WorkloadKind,
    sweep: &[SweepPoint],
    reps: usize,
) -> (Vec<BurdenMeasurement>, Option<BurdenFit>) {
    let threads = runtime.threads();
    let mut measurements = Vec::with_capacity(sweep.len());
    for &point in sweep {
        let t_seq = sequential_time(kind, point, reps);
        let t_par = parallel_time(runtime, kind, point, reps).max(1e-12);
        measurements.push(BurdenMeasurement {
            t_seq,
            speedup: t_seq / t_par,
        });
    }
    let fit = fit_burden(&measurements, threads);
    (measurements, fit)
}

/// The machine's hardware parallelism (1 if it cannot be detected).
pub fn hardware_threads() -> usize {
    parlo_affinity::host_cpus()
}

/// Parses a thread-count specification (`PARLO_THREADS`, `--threads`): the input is
/// trimmed, must be a positive integer, and `0` is rejected.  This is the **single**
/// parse site for thread counts — every consumer (the `--threads` flag, the
/// environment override, the test batteries) goes through it, so none can diverge on
/// trimming or zero handling again.  A rejected spec means "use the fallback": a
/// zero/garbage thread count must fall back to the hardware parallelism, never build
/// a zero- or one-thread pool silently.
pub fn parse_threads_spec(spec: &str) -> Option<usize> {
    spec.trim().parse().ok().filter(|&n| n >= 1)
}

/// The `PARLO_THREADS` environment override, if set to a positive integer
/// (whitespace-trimmed; `0` and garbage fall through to the caller's fallback).  CI
/// uses it to run the same bench/test commands at several fixed thread counts (matrix
/// jobs) without editing every invocation.
pub fn env_threads() -> Option<usize> {
    std::env::var("PARLO_THREADS")
        .ok()
        .and_then(|v| parse_threads_spec(&v))
}

/// The thread counts a native sweep uses on this machine: 1, 2, 4, ... up to `max`
/// (`--max-threads`), which defaults to the hardware parallelism or 2, whichever is
/// larger — so a one-cpu host still measures one oversubscribed point.
pub fn native_thread_sweep(max: Option<usize>) -> Vec<usize> {
    let cap = max.unwrap_or(hardware_threads().max(2)).max(1);
    let mut out = vec![1usize];
    let mut t = 2;
    while t <= cap {
        out.push(t);
        t *= 2;
    }
    if *out.last().unwrap() != cap {
        out.push(cap);
    }
    out.dedup();
    out
}

/// Times one closure in seconds (single shot), used by the figure harnesses where each
/// run is already long.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let (_, d) = parlo_analysis::time_once(f);
    Duration::as_secs_f64(&d)
}

// ---------------------------------------------------------------------------------
// Shared scheduler roster
// ---------------------------------------------------------------------------------

/// Everything a roster entry needs to build its runtime: the thread count, the worker
/// placement, and the **shared worker substrate** every runtime of one measurement run
/// leases its threads from.  One context per invocation means a whole `table1` or
/// `sweep` run holds at most `threads − 1` live worker threads, no matter how many
/// schedulers it measures — burdens are measured without self-inflicted
/// oversubscription.
pub struct RosterContext {
    /// Threads per runtime (master included).
    pub threads: usize,
    /// Worker placement shared by every runtime.
    pub placement: PlacementConfig,
    /// The substrate every runtime leases its workers from.
    pub executor: Arc<Executor>,
    /// Build the base [`STEAL_ROSTER_KEY`] entry with the locality-aware sweep
    /// instead of the flat random-victim ring (the `--steal-local` flag).  The
    /// dedicated [`STEAL_LOCAL_ROSTER_KEY`] entry is always locality-aware; this
    /// switch exists so an A/B ablation can flip the baseline itself.
    pub steal_local: bool,
}

impl RosterContext {
    /// A context with its own substrate for the given placement.
    pub fn new(threads: usize, placement: PlacementConfig) -> Self {
        RosterContext {
            threads,
            executor: Executor::for_placement(&placement),
            placement,
            steal_local: false,
        }
    }

    /// Returns the context with the base stealing entry's locality switch set.
    pub fn with_steal_local(mut self, steal_local: bool) -> Self {
        self.steal_local = steal_local;
        self
    }

    /// One-line thread-accounting summary for a subcommand's stderr trailer.
    pub fn exec_summary(&self) -> String {
        let stats = self.executor.stats();
        format!(
            "substrate: {} worker threads (<= threads-1 = {}), {} leases, {} lease switches",
            stats.workers,
            self.threads.saturating_sub(1),
            stats.leases,
            stats.switches
        )
    }
}

/// One scheduler configuration of the shared evaluation roster.  `table1` rows and
/// `sweep` CSV series are built from the same entries, so both always measure
/// identical configurations.
pub struct RosterEntry {
    /// CSV-friendly key (the `sweep` series name and `--runtime` selector).
    pub key: &'static str,
    /// Human-readable label (the Table-1 row name, matching the simulated table).
    pub label: &'static str,
    /// Builds the runtime under the given [`RosterContext`] (thread count, placement,
    /// shared substrate).  Called lazily, so filtered-out entries never lease workers.
    pub build: fn(&RosterContext) -> Box<dyn LoopRuntime>,
}

/// Roster key of the work-stealing chunk runtime (random-victim sweep unless the
/// context's `steal_local` switch is set).  [`measure_roster_entry`], which needs the
/// concrete pool to collect [`StealStats`](parlo_steal::StealStats) for the JSON
/// report, matches on this constant instead of a string literal.
pub const STEAL_ROSTER_KEY: &str = "fine-grain-steal";

/// Roster key of the locality-aware stealing entry: the same pool with the tiered
/// socket-local-first sweep and remote steal batching enabled.  Measured alongside
/// [`STEAL_ROSTER_KEY`] so one report carries the locality A/B.
pub const STEAL_LOCAL_ROSTER_KEY: &str = "fine-grain-steal-local";

/// Builds the stealing pool behind the roster entry `key` ([`STEAL_ROSTER_KEY`] or
/// [`STEAL_LOCAL_ROSTER_KEY`]) — the single construction point shared by the roster's
/// build closures and [`measure_roster_entry`], which needs the concrete type, so both
/// measure an identically configured pool.  The base entry sweeps the flat
/// random-victim ring unless the context's `steal_local` switch is set; the local
/// entry is always locality-aware.
pub fn build_steal_pool(ctx: &RosterContext, key: &str) -> parlo_steal::StealPool {
    let config = parlo_steal::StealConfig::from_placement(ctx.threads, &ctx.placement)
        .with_locality(ctx.steal_local || key == STEAL_LOCAL_ROSTER_KEY);
    parlo_steal::StealPool::new_on(config, &ctx.executor)
}

fn fine_grain_runtime(
    ctx: &RosterContext,
    barrier: parlo_core::BarrierKind,
) -> Box<dyn LoopRuntime> {
    Box::new(parlo_core::FineGrainPool::new_on(
        parlo_core::Config::builder(ctx.threads)
            .placement(&ctx.placement)
            .barrier(barrier)
            .build(),
        &ctx.executor,
    ))
}

fn omp_runtime(ctx: &RosterContext, schedule: parlo_omp::Schedule) -> Box<dyn LoopRuntime> {
    Box::new(parlo_omp::ScheduledTeam::with_placement_on(
        ctx.threads,
        schedule,
        &ctx.placement,
        &ctx.executor,
    ))
}

/// The fixed-scheduler roster: the fine-grain pool on the socket-composed tree, then
/// the rest of the paper's Table-1 rows.  Every entry takes the topology and pin policy
/// from `placement`.  The paper's flat "Fine-grain tree" row has no entry of its own:
/// the socket-composed tree is the only tree, so it would build the same pool as
/// `fine-grain-hier` (the simulated table keeps the row).
pub fn fixed_roster() -> Vec<RosterEntry> {
    use parlo_core::BarrierKind;
    use parlo_omp::Schedule;
    vec![
        RosterEntry {
            key: "fine-grain-hier",
            label: "Fine-grain hierarchical",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::TreeHalf),
        },
        RosterEntry {
            key: "fine-grain-centralized",
            label: "Fine-grain centralized",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::CentralizedHalf),
        },
        RosterEntry {
            key: "fine-grain-tree-full-barrier",
            label: "Fine-grain tree with full-barrier",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::TreeFull),
        },
        RosterEntry {
            key: STEAL_ROSTER_KEY,
            label: "Fine-grain stealing",
            build: |ctx| Box::new(build_steal_pool(ctx, STEAL_ROSTER_KEY)),
        },
        RosterEntry {
            key: STEAL_LOCAL_ROSTER_KEY,
            label: "Fine-grain steal-local",
            build: |ctx| Box::new(build_steal_pool(ctx, STEAL_LOCAL_ROSTER_KEY)),
        },
        RosterEntry {
            key: "openmp-static",
            label: "OpenMP static",
            build: |ctx| omp_runtime(ctx, Schedule::Static),
        },
        RosterEntry {
            key: "openmp-dynamic",
            label: "OpenMP dynamic",
            build: |ctx| omp_runtime(ctx, Schedule::Dynamic(1)),
        },
        RosterEntry {
            key: "cilk",
            label: "Cilk",
            build: |ctx| {
                Box::new(parlo_cilk::CilkPool::with_placement_on(
                    ctx.threads,
                    &ctx.placement,
                    &ctx.executor,
                ))
            },
        },
    ]
}

/// Builds a roster entry's runtime, runs `measure` on it, and — when the entry is the
/// stealing runtime — returns its [`StealStatsRow`] alongside the measurement.  This
/// is the single place that knows the stealing entry needs its concrete type back, so
/// every subcommand that reports `StealStats` dispatches identically.
pub fn measure_roster_entry<R>(
    entry: &RosterEntry,
    ctx: &RosterContext,
    measure: impl FnOnce(&mut dyn LoopRuntime) -> R,
) -> (R, Option<StealStatsRow>) {
    if entry.key == STEAL_ROSTER_KEY || entry.key == STEAL_LOCAL_ROSTER_KEY {
        let mut pool = build_steal_pool(ctx, entry.key);
        let out = measure(&mut pool);
        let stats = StealStatsRow::from_stats(entry.key, &pool.stats());
        (out, Some(stats))
    } else {
        let mut runtime = (entry.build)(ctx);
        (measure(runtime.as_mut()), None)
    }
}

/// The sweep roster: the fixed schedulers plus the adaptive selection runtime, whose
/// candidate backends lease their workers from the same shared substrate as every
/// other entry.
pub fn sweep_roster() -> Vec<RosterEntry> {
    let mut roster = fixed_roster();
    roster.push(RosterEntry {
        key: "adaptive",
        label: "Adaptive",
        build: |ctx| {
            let mut config = parlo_adaptive::AdaptiveConfig::with_threads(ctx.threads);
            config.placement = ctx.placement;
            config.executor = Some(ctx.executor.clone());
            Box::new(parlo_adaptive::AdaptivePool::new(config))
        },
    });
    roster
}

// ---------------------------------------------------------------------------------
// JSON result reports (`--json <path>`)
// ---------------------------------------------------------------------------------

/// One fitted burden row of a `table1` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurdenRow {
    /// Scheduler label (Table 1 row name).
    pub scheduler: String,
    /// Fitted burden `d`, in microseconds.
    pub burden_us: f64,
    /// Residual sum of squared speedup errors at the fit.
    pub residual: f64,
}

/// One raw measurement row of a `sweep` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Loop iteration count of the sweep point.
    pub iterations: u64,
    /// Work units per iteration of the sweep point.
    pub units: u64,
    /// Sequential time, seconds.
    pub t_seq_s: f64,
    /// Parallel time, seconds.
    pub t_par_s: f64,
    /// Observed speedup.
    pub speedup: f64,
}

/// [`StealStats`](parlo_steal::StealStats) of one measured stealing runtime, included
/// in the `--json` report next to the timings it explains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealStatsRow {
    /// Scheduler key the stats belong to (`"fine-grain-steal"`).
    pub scheduler: String,
    /// Steal attempts over the whole measurement run.
    pub steals_attempted: u64,
    /// Successful steals.
    pub steals_hit: u64,
    /// Successful steals from a victim on the thief's own socket.
    pub local_steals: u64,
    /// Successful steals that crossed a socket boundary.
    pub remote_steals: u64,
    /// Total chunks executed.
    pub chunks_executed: u64,
    /// Chunks executed by each participant (index 0 is the master).
    pub chunks_per_worker: Vec<u64>,
}

impl StealStatsRow {
    /// Builds the report row from a pool's [`StealStats`](parlo_steal::StealStats).
    pub fn from_stats(scheduler: &str, stats: &parlo_steal::StealStats) -> Self {
        StealStatsRow {
            scheduler: scheduler.to_string(),
            steals_attempted: stats.steals_attempted,
            steals_hit: stats.steals_hit,
            local_steals: stats.local_steals,
            remote_steals: stats.remote_steals,
            chunks_executed: stats.chunks_executed(),
            chunks_per_worker: stats.chunks_per_worker.clone(),
        }
    }
}

/// A machine-readable report, written by `--json <path>`.  Write-only: nothing in the
/// repository reads one back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Which subcommand produced the report (`"table1"`, `"sweep"`, ...).
    pub bench: String,
    /// Thread count of the run.
    pub threads: u64,
    /// The loop body the run measured (a [`WorkloadKind`] key, or a subcommand's own
    /// marker like `"irregular"`).  Burdens measured under different workloads are
    /// not comparable — an irregular workload inflates a static schedule's effective
    /// burden by design — so the marker travels with the rows.
    pub workload: String,
    /// Fitted burden rows (`table1`; empty for raw sweeps).
    pub burdens: Vec<BurdenRow>,
    /// Raw sweep rows (`sweep`; empty for fit-only reports).
    pub points: Vec<SweepRow>,
    /// Steal-behaviour accounting of any stealing runtime measured by the run.
    pub steal: Vec<StealStatsRow>,
}

impl BenchReport {
    /// An empty report for `bench` at `threads` threads, measuring the default
    /// (uniform micro-benchmark) workload.
    pub fn new(bench: &str, threads: usize) -> Self {
        Self::for_workload(bench, threads, WorkloadKind::Micro.key())
    }

    /// An empty report for `bench` at `threads` threads under an explicit workload
    /// marker.
    pub fn for_workload(bench: &str, threads: usize, workload: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            threads: threads as u64,
            workload: workload.to_string(),
            burdens: Vec::new(),
            points: Vec::new(),
            steal: Vec::new(),
        }
    }
}

/// Serializes `report` as JSON to `path`.  Non-finite floats are not representable in
/// JSON, so callers must filter unfitted (NaN) rows first.
pub fn write_json_report(path: &str, report: &BenchReport) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_core::{FineGrainPool, Sequential};

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let (sub, a) = args::parse(&argv(&[
            "table1",
            "--threads",
            "8",
            "--simulate",
            "--json",
            "out.json",
        ]))
        .expect("every flag is one of table1's");
        assert_eq!(sub, args::Subcommand::Table1);
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.thread_count(), 8);
        assert_eq!(a.reps, None);
        assert!(a.simulate);
        assert!(!a.csv);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.runtime, None);
        let (_, quick) = args::parse(&argv(&["sweep", "--quick"])).unwrap();
        assert_eq!(quick.json, None);
        assert!(quick.thread_count() >= 1);
    }

    #[test]
    fn the_four_rejection_classes_name_the_offender_and_what_is_accepted() {
        for (tokens, offender, accepted) in [
            (&["serve"][..], "`serve`", "table1|figure2"),
            (&[][..], "missing subcommand", "table1|figure2"),
            (&["table1", "--simualte"], "`--simualte`", "[--simulate]"),
            (&["figure2", "--json", "x"], "`--json`", "[--steps N]"),
            (&["sweep", "--runtime"], "`--runtime`", "[--runtime NAME]"),
            (&["sweep", "--json", "--quick"], "`--json`", "[--json PATH]"),
            (&["table1", "--reps", "banana"], "`banana`", "[--reps N]"),
            (&["sweep", "--threads", "-2"], "`-2`", "[--threads N]"),
            (&["sweep", "--runtime", "nope"], "`nope`", "fine-grain-hier"),
            (&["sweep", "--workload", "nope"], "`nope`", "[--workload"),
            (&["figure3", "--pin", "nope"], "nope", "[--pin"),
            (&["irregular", "--wait", "nope"], "nope", "[--wait"),
        ] {
            let err = args::parse(&argv(tokens)).expect_err("must be rejected");
            assert!(err.contains(offender), "{tokens:?}: {err}");
            assert!(err.contains(accepted), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn thread_spec_parsing_trims_and_rejects_zero() {
        // The single parse site behind `--threads` and `PARLO_THREADS`: whitespace is
        // trimmed, zero and garbage are rejected so the caller falls back to the
        // hardware parallelism instead of silently building a degenerate pool.
        assert_eq!(parse_threads_spec("4"), Some(4));
        assert_eq!(parse_threads_spec(" 4 "), Some(4));
        assert_eq!(parse_threads_spec("4\n"), Some(4));
        assert_eq!(parse_threads_spec("0"), None, "zero must use the fallback");
        assert_eq!(parse_threads_spec(" 0 "), None);
        assert_eq!(parse_threads_spec(""), None);
        assert_eq!(parse_threads_spec("banana"), None);
        assert_eq!(parse_threads_spec("-2"), None);
    }

    #[test]
    fn threads_arg_zero_falls_back_instead_of_building_a_one_thread_pool() {
        // `--threads 0` behaves exactly like an absent flag: the fallback chain
        // (PARLO_THREADS, then hardware parallelism) decides, whatever the current
        // environment says — never a silent 1-thread pool.
        let (_, zero) = args::parse(&argv(&["sweep", "--threads", "0"])).unwrap();
        let (_, absent) = args::parse(&argv(&["sweep", "--quick"])).unwrap();
        assert_eq!(zero.threads, None);
        assert_eq!(zero.thread_count(), absent.thread_count());
        assert!(zero.thread_count() >= 1);
        // A non-degenerate explicit flag still wins over every fallback.
        let (_, three) = args::parse(&argv(&["sweep", "--threads", " 3 "])).unwrap();
        assert_eq!(three.thread_count(), 3, "explicit flag wins, trimmed");
    }

    #[test]
    fn workload_kinds_parse_and_produce_terms() {
        assert_eq!(WorkloadKind::parse("micro"), Ok(WorkloadKind::Micro));
        assert_eq!(
            WorkloadKind::parse("skewed"),
            Ok(WorkloadKind::SkewedGeometric)
        );
        assert_eq!(
            WorkloadKind::parse("triangular"),
            Ok(WorkloadKind::TriangularNest)
        );
        assert!(WorkloadKind::parse("banana").is_err());
        for (kind, key) in WorkloadKind::ALL {
            assert_eq!(kind.key(), key);
            assert!(kind.term(3, 64, 2).is_finite());
        }
        // The workload-aware sweep agrees with a direct sequential fold.
        let point = SweepPoint {
            iterations: 64,
            units: 2,
        };
        let t = sequential_time(WorkloadKind::SkewedGeometric, point, 2);
        assert!(t > 0.0);
        let mut seq = parlo_core::Sequential;
        let (_, fit) = measure_burden(&mut seq, WorkloadKind::TriangularNest, &[point], 2);
        assert!(fit.is_some());
    }

    #[test]
    fn steal_stats_row_mirrors_the_pool_counters() {
        let mut pool = parlo_steal::StealPool::with_threads(2);
        pool.steal_for_with_chunk(0..100, 10, |_| {});
        let stats = pool.stats();
        let row = StealStatsRow::from_stats("fine-grain-steal", &stats);
        assert_eq!(row.scheduler, "fine-grain-steal");
        assert_eq!(row.chunks_executed, stats.chunks_executed());
        assert_eq!(row.chunks_per_worker.len(), 2);
        assert_eq!(row.steals_hit, stats.steals_hit);
        assert!(row.steals_attempted >= row.steals_hit);
        assert_eq!(
            row.local_steals + row.remote_steals,
            row.steals_hit,
            "every hit is classified local or remote"
        );
    }

    #[test]
    fn native_thread_sweep_starts_at_one() {
        let sweep = native_thread_sweep(Some(6));
        assert_eq!(sweep[0], 1);
        assert_eq!(*sweep.last().unwrap(), 6);
        assert!(sweep.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn burden_measurement_on_tiny_sweep_produces_a_fit() {
        let sweep = [SweepPoint {
            iterations: 64,
            units: 8,
        }];
        let mut seq = Sequential;
        let (ms, fit) = measure_burden(&mut seq, WorkloadKind::Micro, &sweep, 3);
        assert_eq!(ms.len(), 1);
        assert!(fit.is_some());
        let mut fine = FineGrainPool::with_threads(2);
        let (_, fit) = measure_burden(&mut fine, WorkloadKind::Micro, &sweep, 3);
        assert!(fit.is_some());
    }

    #[test]
    fn rosters_have_unique_keys_and_build_working_runtimes() {
        let ctx = RosterContext::new(2, PlacementConfig::default());
        let roster = sweep_roster();
        let keys: Vec<&str> = roster.iter().map(|e| e.key).collect();
        let mut deduped = keys.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "duplicate roster keys");
        assert_eq!(roster.len(), fixed_roster().len() + 1);
        assert!(keys.contains(&"adaptive"));
        assert!(keys.contains(&"fine-grain-hier"));
        assert!(keys.contains(&"fine-grain-steal"));
        assert!(keys.contains(&"fine-grain-steal-local"));
        for entry in roster {
            let mut runtime = (entry.build)(&ctx);
            assert_eq!(runtime.threads(), 2, "entry {}", entry.key);
            let sum = runtime.parallel_sum(0..100, &|i| i as f64);
            assert!((sum - 4950.0).abs() < 1e-9, "entry {}", entry.key);
        }
        // Every entry leased its worker from the one shared substrate.
        let stats = ctx.executor.stats();
        assert!(
            stats.workers <= 1,
            "a 2-thread roster context holds at most 1 worker thread: {stats:?}"
        );
    }

    #[test]
    fn roster_labels_match_the_simulated_table() {
        // `table1` prints the native and the simulated table under each other, so the
        // native roster labels and the simulated Table-1 labels must stay in sync.
        let sim_labels: Vec<&str> = parlo_sim::SimScheduler::TABLE1_ORDER
            .iter()
            .map(|s| s.label())
            .collect();
        for entry in fixed_roster() {
            assert!(
                sim_labels.contains(&entry.label),
                "roster label `{}` has no simulated Table-1 row",
                entry.label
            );
        }
    }

    #[test]
    fn roster_builds_on_a_synthetic_placement() {
        use parlo_affinity::PinPolicy;
        let ctx = RosterContext::new(
            4,
            PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None),
        );
        for entry in fixed_roster() {
            let mut runtime = (entry.build)(&ctx);
            let sum = runtime.parallel_sum(0..100, &|i| i as f64);
            assert!((sum - 4950.0).abs() < 1e-9, "entry {}", entry.key);
        }
        assert!(ctx.executor.stats().workers <= 3);
        assert!(!ctx.exec_summary().is_empty());
    }

    #[test]
    fn placement_args_parse_topology_and_pin() {
        use parlo_affinity::{PinPolicy, TopologySource};
        let tokens = ["figure2", "--topology", "2x4", "--pin", "none"];
        let p = args::parse(&argv(&tokens)).unwrap().1.placement;
        assert_eq!(
            p.source,
            TopologySource::Synthetic {
                sockets: 2,
                cores_per_socket: 4
            }
        );
        assert_eq!(p.pin, PinPolicy::None);
        let d = args::parse(&argv(&["figure2", "--csv"]))
            .unwrap()
            .1
            .placement;
        assert_eq!(d, PlacementConfig::default());
    }

    #[test]
    fn workload_marker_travels_with_the_report() {
        let report = BenchReport::for_workload("sweep", 4, "skewed");
        assert_eq!(report.workload, "skewed");
        let json = serde_json::to_string(&report).expect("serialize");
        let back: BenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.workload, "skewed");
        assert_eq!(BenchReport::new("table1", 2).workload, "micro");
    }

    #[test]
    fn steal_roster_entry_and_helper_share_one_construction_point() {
        let ctx = RosterContext::new(2, PlacementConfig::default());
        let entry = fixed_roster()
            .into_iter()
            .find(|e| e.key == STEAL_ROSTER_KEY)
            .expect("steal entry in the fixed roster");
        let mut from_roster = (entry.build)(&ctx);
        let mut from_helper = build_steal_pool(&ctx, STEAL_ROSTER_KEY);
        assert_eq!(from_roster.name(), LoopRuntime::name(&from_helper));
        assert_eq!(from_roster.threads(), 2);
        let a = from_roster.parallel_sum(0..100, &|i| i as f64);
        let b = from_helper.parallel_sum(0..100, &|i| i as f64);
        assert_eq!(a, b);
    }

    #[test]
    fn json_report_round_trips() {
        let mut report = BenchReport::new("table1", 4);
        report.burdens.push(BurdenRow {
            scheduler: "Fine-grain tree".into(),
            burden_us: 5.67,
            residual: 0.001,
        });
        report.points.push(SweepRow {
            scheduler: "adaptive".into(),
            iterations: 512,
            units: 8,
            t_seq_s: 1e-4,
            t_par_s: 3e-5,
            speedup: 3.33,
        });
        report.steal.push(StealStatsRow {
            scheduler: "fine-grain-steal".into(),
            steals_attempted: 12,
            steals_hit: 7,
            local_steals: 5,
            remote_steals: 2,
            chunks_executed: 64,
            chunks_per_worker: vec![40, 12, 8, 4],
        });
        let json = serde_json::to_string(&report).expect("serialize");
        let back: BenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, report);

        let dir = std::env::temp_dir().join("parlo_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_json_report(path.to_str().unwrap(), &report).expect("write");
        let text = std::fs::read_to_string(&path).unwrap();
        let back: BenchReport = serde_json::from_str(text.trim()).expect("parse file");
        assert_eq!(back.bench, "table1");
        assert_eq!(back.threads, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
