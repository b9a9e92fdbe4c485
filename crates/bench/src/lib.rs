//! # parlo-bench — the evaluation harness
//!
//! One binary per table/figure of the paper plus criterion micro-benchmarks:
//!
//! * `table1` — scheduler burden: granularity sweep + Amdahl fit (native) and the
//!   cost-model prediction for the 48-core machine (`--simulate`);
//! * `figure2` — MPDATA speedup vs threads, fine-grain vs OpenMP, native + simulated;
//! * `figure3` — linear-regression map-reduce speedup vs threads against the Cilk and
//!   OpenMP baselines, native + simulated;
//! * `sweep` — raw granularity-sweep CSV for ad-hoc analysis (`--runtime NAME` selects
//!   one scheduler, including `adaptive`);
//! * criterion benches `burden`, `mpdata`, `reduction`, `barriers`, `deque`,
//!   `adaptive`.
//!
//! This library hosts the measurement helpers shared by the binaries: argument
//! parsing (one `--threads` helper instead of per-bin copies), burden measurement over
//! `dyn LoopRuntime`, and JSON serialization of results (`--json <path>`) so runs can
//! be tracked as a perf trajectory over time.

use parlo_affinity::{parse_pin_policy, TopologySource};
use parlo_analysis::{fit_burden, BurdenFit, BurdenMeasurement};
use parlo_exec::Executor;
use parlo_workloads::microbench::{self, SweepPoint};
use parlo_workloads::{cache, irregular, LoopRuntime, PlacementConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

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

/// The `--workload` flag (default [`WorkloadKind::Micro`]); an invalid value is a hard
/// error, like the other placement/measurement flags.
pub fn workload_arg(args: &[String]) -> WorkloadKind {
    match arg_str(args, "--workload") {
        None => WorkloadKind::default(),
        Some(spec) => match WorkloadKind::parse(spec) {
            Ok(kind) => kind,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    }
}

/// Measures the sequential time of one sweep point (minimum of `reps` runs), in seconds.
pub fn sequential_time(point: SweepPoint, reps: usize) -> f64 {
    sequential_time_of(WorkloadKind::Micro, point, reps)
}

/// [`sequential_time`] under an explicit workload kind.
pub fn sequential_time_of(kind: WorkloadKind, point: SweepPoint, reps: usize) -> f64 {
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
pub fn parallel_time(runtime: &mut dyn LoopRuntime, point: SweepPoint, reps: usize) -> f64 {
    parallel_time_of(runtime, WorkloadKind::Micro, point, reps)
}

/// [`parallel_time`] under an explicit workload kind.
pub fn parallel_time_of(
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
pub fn measure_burden(
    runtime: &mut dyn LoopRuntime,
    sweep: &[SweepPoint],
    reps: usize,
) -> (Vec<BurdenMeasurement>, Option<BurdenFit>) {
    measure_burden_of(runtime, WorkloadKind::Micro, sweep, reps)
}

/// [`measure_burden`] under an explicit workload kind.  On an irregular workload a
/// static schedule's *effective* burden absorbs the straggler time, which is exactly
/// what the fitted comparison should show.
pub fn measure_burden_of(
    runtime: &mut dyn LoopRuntime,
    kind: WorkloadKind,
    sweep: &[SweepPoint],
    reps: usize,
) -> (Vec<BurdenMeasurement>, Option<BurdenFit>) {
    let threads = runtime.threads();
    let mut measurements = Vec::with_capacity(sweep.len());
    for &point in sweep {
        let t_seq = sequential_time_of(kind, point, reps);
        let t_par = parallel_time_of(runtime, kind, point, reps).max(1e-12);
        measurements.push(BurdenMeasurement {
            t_seq,
            speedup: t_seq / t_par,
        });
    }
    let fit = fit_burden(&measurements, threads);
    (measurements, fit)
}

/// Parses a `--threads N` / `--steps N` style flag from the argument list.
pub fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parses a `--json path` style string-valued flag from the argument list.
pub fn arg_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Returns `true` if the flag is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Returns `true` if `--steal-local` is present: the ablation switch that makes the
/// base [`STEAL_ROSTER_KEY`] entry use the locality-aware sweep (see
/// [`RosterContext::with_steal_local`]).
pub fn steal_local_arg(args: &[String]) -> bool {
    has_flag(args, "--steal-local")
}

/// Collects every value of a repeatable string-valued flag, in order
/// (`--current a --current b` → `["a", "b"]`).
pub fn arg_strs<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Applies a `--wait <spec>` flag (spin|spinyield|yield|park|auto) by exporting
/// `PARLO_WAIT`, which every pool family consults in `WaitPolicy::auto_for` — so one
/// flag reaches every runtime a bench bin constructs, without threading a policy
/// through each constructor.  Call this before building any pool.  An unparsable spec
/// is a hard usage error (exit 2): a bench run under the wrong wait policy would
/// silently measure the wrong thing.
pub fn wait_arg(args: &[String]) {
    if let Some(spec) = arg_str(args, "--wait") {
        if let Err(e) = parlo_core::WaitPolicy::from_spec(spec) {
            eprintln!("error: --wait: {e}");
            std::process::exit(2);
        }
        std::env::set_var("PARLO_WAIT", spec);
    }
}

/// The value of `--json <path>`, if the flag is present.  A `--json` flag without a
/// usable path (missing, or followed by another flag) is a hard error: a
/// perf-trajectory step must never silently drop its report.
pub fn json_path_arg(args: &[String]) -> Option<&str> {
    if !has_flag(args, "--json") {
        return None;
    }
    match arg_str(args, "--json") {
        Some(path) if !path.starts_with("--") => Some(path),
        _ => {
            eprintln!("error: --json requires a file path argument");
            std::process::exit(2);
        }
    }
}

/// The value of `--trace <path>`, if the flag is present.  Like `--json`, a
/// `--trace` flag without a usable path is a hard error: asking for a trace and
/// silently not getting one would waste the whole instrumented run.
pub fn trace_path_arg(args: &[String]) -> Option<&str> {
    if !has_flag(args, "--trace") {
        return None;
    }
    match arg_str(args, "--trace") {
        Some(path) if !path.starts_with("--") => Some(path),
        _ => {
            eprintln!("error: --trace requires a file path argument");
            std::process::exit(2);
        }
    }
}

/// Arms event tracing if `--trace <path>` was given and returns the output path.
/// Call once at the top of a bench `main`, before any pool is built, so worker
/// registration and the first loops are captured.  In a build without the `trace`
/// feature the flag still parses but the run warns that the trace will be empty.
pub fn trace_setup(args: &[String]) -> Option<&str> {
    let path = trace_path_arg(args)?;
    if !parlo_trace::COMPILED {
        eprintln!(
            "warning: --trace given but this binary was built without the `trace` \
             feature; {path} will contain no events"
        );
    }
    parlo_trace::enable();
    Some(path)
}

/// Writes the collected trace as Chrome trace-event JSON to `path` (the value
/// returned by [`trace_setup`]) and prints a per-track digest.  A write failure is
/// a hard error, mirroring the `--json` contract.
pub fn trace_finish(path: Option<&str>) {
    let Some(path) = path else { return };
    parlo_trace::disable();
    let snap = parlo_trace::snapshot();
    parlo_trace::write_chrome_trace(path, &snap).expect("failed to write --trace output");
    eprintln!("trace: wrote Chrome trace to {path}");
    eprint!("{}", snap.summary());
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

/// The thread count a bench binary should use: `--threads N` if given, then the
/// `PARLO_THREADS` environment override, otherwise the hardware parallelism.  Every
/// bin shares this helper instead of carrying its own parsing copy; `--threads 0`
/// falls through to the next source exactly like `PARLO_THREADS=0` does.
pub fn threads_arg(args: &[String]) -> usize {
    arg_str(args, "--threads")
        .and_then(parse_threads_spec)
        .or_else(env_threads)
        .unwrap_or_else(hardware_threads)
        .max(1)
}

/// The thread count a criterion bench should use: `PARLO_THREADS` if set, otherwise
/// the hardware parallelism (criterion benches have no `--threads` flag).
pub fn bench_threads() -> usize {
    env_threads().unwrap_or_else(hardware_threads).max(1)
}

/// Parses the shared worker-placement flags:
///
/// * `--topology detect|paper|SxC` — the machine shape every pool is tuned to
///   (`2x4` = synthetic 2 sockets × 4 cores, deterministic hierarchy for CI);
/// * `--pin compact|scatter|none` — where workers are pinned at spawn;
/// * `--flat-sync` — disable the hierarchical (socket-composed) half-barrier and use
///   the flat topology-aware tree instead.
///
/// Invalid or missing flag values are a hard error (exit 2): a measurement run under
/// the wrong placement must never pass silently.
pub fn placement_args(args: &[String]) -> PlacementConfig {
    let mut placement = PlacementConfig::default();
    if has_flag(args, "--topology") {
        match arg_str(args, "--topology").map(TopologySource::parse) {
            Some(Ok(source)) => placement.source = source,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("error: --topology requires a value (detect, paper, or SxC)");
                std::process::exit(2);
            }
        }
    }
    if has_flag(args, "--pin") {
        match arg_str(args, "--pin").map(parse_pin_policy) {
            Some(Ok(pin)) => placement.pin = pin,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("error: --pin requires a value (compact, scatter, or none)");
                std::process::exit(2);
            }
        }
    }
    if has_flag(args, "--flat-sync") {
        placement.hierarchical = false;
    }
    placement
}

/// The thread counts a native sweep uses on this machine: 1, 2, 4, ... up to twice the
/// hardware parallelism (oversubscription is tolerated but pointless beyond that),
/// capped by an optional `--max-threads`.
pub fn native_thread_sweep(max: Option<usize>) -> Vec<usize> {
    let hw = hardware_threads();
    let cap = max.unwrap_or(hw.max(2));
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
/// leases its threads from.  One context per bin invocation means a whole `table1` or
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

    /// One-line thread-accounting summary for a bin's stderr trailer.
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
/// context's `steal_local` switch is set).  The bins that need the concrete pool (to
/// collect [`StealStats`](parlo_steal::StealStats) for the JSON report) match on this
/// constant instead of a string literal.
pub const STEAL_ROSTER_KEY: &str = "fine-grain-steal";

/// Roster key of the locality-aware stealing entry: the same pool with the tiered
/// socket-local-first sweep and remote steal batching enabled.  Measured alongside
/// [`STEAL_ROSTER_KEY`] so one report carries the locality A/B.
pub const STEAL_LOCAL_ROSTER_KEY: &str = "fine-grain-steal-local";

/// Builds the stealing pool behind the [`STEAL_ROSTER_KEY`] roster entry — the single
/// construction point shared by the roster's build closure and the bins that need the
/// concrete type, so every binary measures an identically configured pool.  The sweep
/// is the flat random-victim ring unless the context's `steal_local` switch is set.
pub fn build_steal_pool(ctx: &RosterContext) -> parlo_steal::StealPool {
    let config = parlo_steal::StealConfig::from_placement(ctx.threads, &ctx.placement)
        .with_locality(ctx.steal_local);
    parlo_steal::StealPool::new_on(config, &ctx.executor)
}

/// Builds the locality-aware stealing pool behind [`STEAL_LOCAL_ROSTER_KEY`].
pub fn build_steal_local_pool(ctx: &RosterContext) -> parlo_steal::StealPool {
    let config =
        parlo_steal::StealConfig::from_placement(ctx.threads, &ctx.placement).with_locality(true);
    parlo_steal::StealPool::new_on(config, &ctx.executor)
}

fn fine_grain_runtime(
    ctx: &RosterContext,
    barrier: parlo_core::BarrierKind,
    hierarchical: bool,
) -> Box<dyn LoopRuntime> {
    Box::new(parlo_core::FineGrainPool::new_on(
        parlo_core::Config::builder(ctx.threads)
            .placement(&ctx.placement)
            .barrier(barrier)
            .hierarchical(hierarchical)
            .build(),
        &ctx.executor,
    ))
}

/// The fixed-scheduler roster: the hierarchical default plus the paper's six Table-1
/// rows.  The `fine-grain-hier` and `fine-grain-tree` entries force the hierarchical
/// switch on and off respectively (that ablation is the point of having both rows);
/// every other entry takes the topology and pin policy from `placement`.
pub fn fixed_roster() -> Vec<RosterEntry> {
    use parlo_core::BarrierKind;
    use parlo_omp::{Schedule, ScheduledTeam};
    vec![
        RosterEntry {
            key: "fine-grain-hier",
            label: "Fine-grain hierarchical",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::TreeHalf, true),
        },
        RosterEntry {
            key: "fine-grain-tree",
            label: "Fine-grain tree",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::TreeHalf, false),
        },
        RosterEntry {
            key: "fine-grain-centralized",
            label: "Fine-grain centralized",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::CentralizedHalf, false),
        },
        RosterEntry {
            key: "fine-grain-tree-full-barrier",
            label: "Fine-grain tree with full-barrier",
            build: |ctx| fine_grain_runtime(ctx, BarrierKind::TreeFull, false),
        },
        RosterEntry {
            key: STEAL_ROSTER_KEY,
            label: "Fine-grain stealing",
            build: |ctx| Box::new(build_steal_pool(ctx)),
        },
        RosterEntry {
            key: STEAL_LOCAL_ROSTER_KEY,
            label: "Fine-grain steal-local",
            build: |ctx| Box::new(build_steal_local_pool(ctx)),
        },
        RosterEntry {
            key: "openmp-static",
            label: "OpenMP static",
            build: |ctx| {
                Box::new(ScheduledTeam::with_placement_on(
                    ctx.threads,
                    Schedule::Static,
                    &ctx.placement,
                    &ctx.executor,
                ))
            },
        },
        RosterEntry {
            key: "openmp-dynamic",
            label: "OpenMP dynamic",
            build: |ctx| {
                Box::new(ScheduledTeam::with_placement_on(
                    ctx.threads,
                    Schedule::Dynamic(1),
                    &ctx.placement,
                    &ctx.executor,
                ))
            },
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
/// every bin that reports `StealStats` dispatches identically.
pub fn measure_roster_entry<R>(
    entry: &RosterEntry,
    ctx: &RosterContext,
    measure: impl FnOnce(&mut dyn LoopRuntime) -> R,
) -> (R, Option<StealStatsRow>) {
    if entry.key == STEAL_ROSTER_KEY || entry.key == STEAL_LOCAL_ROSTER_KEY {
        let mut pool = if entry.key == STEAL_LOCAL_ROSTER_KEY {
            build_steal_local_pool(ctx)
        } else {
            build_steal_pool(ctx)
        };
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

/// The fine-grain pool's synchronization ablations, shared by the criterion benches
/// (`burden`, `barriers`) so the list and its Table-1-style labels are maintained in
/// exactly one place: `(label, barrier kind, hierarchical)`.
pub fn fine_grain_ablations() -> Vec<(&'static str, parlo_core::BarrierKind, bool)> {
    use parlo_core::BarrierKind;
    vec![
        ("Fine-grain hierarchical", BarrierKind::TreeHalf, true),
        ("Fine-grain tree", BarrierKind::TreeHalf, false),
        (
            "Fine-grain centralized",
            BarrierKind::CentralizedHalf,
            false,
        ),
        (
            "Fine-grain tree with full-barrier",
            BarrierKind::TreeFull,
            false,
        ),
        (
            "Fine-grain centralized with full-barrier",
            BarrierKind::CentralizedFull,
            false,
        ),
    ]
}

/// Builds the fine-grain pool one [`fine_grain_ablations`] entry describes.
pub fn fine_grain_ablation_pool(
    threads: usize,
    barrier: parlo_core::BarrierKind,
    hierarchical: bool,
) -> parlo_core::FineGrainPool {
    parlo_core::FineGrainPool::new(
        parlo_core::Config::builder(threads)
            .barrier(barrier)
            .hierarchical(hierarchical)
            .build(),
    )
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
/// in the `BENCH_*.json` artifact so steal behaviour is trackable over time.
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

/// One serving-throughput row of a `serve` run: latency and throughput of an
/// open-loop queue of micro-loop requests against a `parlo-serve` server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRow {
    /// Scenario key (`"q1000"` = one thousand queued requests, etc.).
    pub scenario: String,
    /// Gangs the server cut the substrate into.
    pub gangs: u64,
    /// Workers per gang (driver included).
    pub gang_size: u64,
    /// Requests in the open-loop queue.
    pub queued_requests: u64,
    /// Served loops per second over the whole drain.
    pub loops_per_sec: f64,
    /// Median request latency (submit to completion), microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
}

/// A machine-readable bench report, serialized by `--json <path>` so future runs can
/// be compared as a perf trajectory (`BENCH_*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Which binary produced the report (`"table1"`, `"sweep"`, ...).
    pub bench: String,
    /// Thread count of the run.
    pub threads: u64,
    /// The loop body the run measured (a [`WorkloadKind`] key, or a bin-specific
    /// marker like `"irregular"`).  Burdens measured under different workloads are
    /// not comparable — an irregular workload inflates a static schedule's effective
    /// burden by design — so `perfgate` refuses to gate across workloads.
    pub workload: String,
    /// Fitted burden rows (`table1`; empty for raw sweeps).
    pub burdens: Vec<BurdenRow>,
    /// Raw sweep rows (`sweep`; empty for fit-only reports).
    pub points: Vec<SweepRow>,
    /// Steal-behaviour accounting of any stealing runtime measured by the run.
    pub steal: Vec<StealStatsRow>,
    /// Serving throughput/latency rows (`serve`; empty for every other bin).
    pub serve: Vec<ServeRow>,
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
            serve: Vec::new(),
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

/// Parses a [`BenchReport`] from a JSON file.
///
/// Fields added to the report format after the first `BENCH_*.json` artifacts were
/// produced (`steal`, `workload`) are filled with their defaults when absent, so
/// older reports and user-kept baselines keep parsing — the vendored serde has no
/// per-field default attribute, so the defaulting happens on the value tree here.
pub fn read_json_report(path: &str) -> std::io::Result<BenchReport> {
    let invalid =
        |e: serde::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
    let text = std::fs::read_to_string(path)?;
    let mut value: serde::Value = serde_json::from_str(text.trim()).map_err(invalid)?;
    if let serde::Value::Map(entries) = &mut value {
        let defaults = [
            ("steal", serde::Value::Seq(Vec::new())),
            ("serve", serde::Value::Seq(Vec::new())),
            (
                "workload",
                serde::Value::Str(WorkloadKind::Micro.key().to_string()),
            ),
        ];
        for (key, default) in defaults {
            if !entries.iter().any(|(k, _)| k == key) {
                entries.push((key.to_string(), default));
            }
        }
        // The steal rows themselves also grew fields (`local_steals`,
        // `remote_steals`); patch older rows with zero counters the same way.
        if let Some(serde::Value::Seq(rows)) = entries
            .iter_mut()
            .find(|(k, _)| k == "steal")
            .map(|(_, v)| v)
        {
            for row in rows {
                if let serde::Value::Map(fields) = row {
                    for key in ["local_steals", "remote_steals"] {
                        if !fields.iter().any(|(k, _)| k == key) {
                            fields.push((key.to_string(), serde::Value::U64(0)));
                        }
                    }
                }
            }
        }
    }
    Deserialize::from_value(&value).map_err(invalid)
}

// ---------------------------------------------------------------------------------
// Perf-regression gate (the `perfgate` binary's comparison logic)
// ---------------------------------------------------------------------------------

/// One scheduler's baseline-vs-current burden comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Scheduler label (Table-1 row name).
    pub scheduler: String,
    /// Baseline burden `d`, µs.
    pub baseline_us: f64,
    /// Current burden `d`, µs.
    pub current_us: f64,
}

impl GateRow {
    /// Relative change of the burden, in percent (positive = regression).  A current
    /// value that is not a finite positive number counts as an unbounded regression
    /// (a degenerate fit must fail the gate, never sail through as an "improvement").
    pub fn delta_pct(&self) -> f64 {
        if !(self.current_us.is_finite() && self.current_us > 0.0) || self.baseline_us <= 0.0 {
            return f64::INFINITY;
        }
        (self.current_us / self.baseline_us - 1.0) * 100.0
    }
}

/// One serve scenario's baseline-vs-current comparison.  Two independent failure
/// axes: a throughput drop and a tail-latency rise are both regressions.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeGateRow {
    /// Scenario key (see [`ServeRow::scenario`]).
    pub scenario: String,
    /// Baseline throughput, loops per second.
    pub baseline_lps: f64,
    /// Current throughput, loops per second.
    pub current_lps: f64,
    /// Baseline p99 latency, µs.
    pub baseline_p99_us: f64,
    /// Current p99 latency, µs.
    pub current_p99_us: f64,
}

impl ServeGateRow {
    /// Relative throughput drop in percent (positive = regression).  A current
    /// throughput that is not a finite positive number counts as an unbounded
    /// regression, mirroring [`GateRow::delta_pct`].
    pub fn throughput_drop_pct(&self) -> f64 {
        if !(self.current_lps.is_finite() && self.current_lps > 0.0) || self.baseline_lps <= 0.0 {
            return f64::INFINITY;
        }
        (1.0 - self.current_lps / self.baseline_lps) * 100.0
    }

    /// Relative p99-latency rise in percent (positive = regression), with the same
    /// degenerate-value handling.
    pub fn p99_rise_pct(&self) -> f64 {
        if !(self.current_p99_us.is_finite() && self.current_p99_us > 0.0)
            || self.baseline_p99_us <= 0.0
        {
            return f64::INFINITY;
        }
        (self.current_p99_us / self.baseline_p99_us - 1.0) * 100.0
    }

    /// The worse of the two axes — what the gate compares against the threshold.
    pub fn worst_delta_pct(&self) -> f64 {
        self.throughput_drop_pct().max(self.p99_rise_pct())
    }
}

/// Outcome of comparing a current bench report against the checked-in baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Regression threshold in percent.
    pub threshold_pct: f64,
    /// Per-scheduler comparisons for every baseline row found in the current report.
    pub rows: Vec<GateRow>,
    /// Per-scenario serve comparisons for every baseline serve row found in the
    /// current report.
    pub serve_rows: Vec<ServeGateRow>,
    /// Baseline rows absent from the current report (a silent drop must fail);
    /// serve scenarios are listed as `serve:<scenario>`.
    pub missing: Vec<String>,
    /// Current rows absent from the baseline (informational; suggests the
    /// baseline needs regenerating).
    pub added: Vec<String>,
}

impl GateOutcome {
    /// The rows whose burden regressed beyond the threshold.
    pub fn regressions(&self) -> Vec<&GateRow> {
        self.rows
            .iter()
            .filter(|r| r.delta_pct() > self.threshold_pct)
            .collect()
    }

    /// The serve scenarios that regressed beyond the threshold on either axis
    /// (throughput drop or p99 rise).
    pub fn serve_regressions(&self) -> Vec<&ServeGateRow> {
        self.serve_rows
            .iter()
            .filter(|r| r.worst_delta_pct() > self.threshold_pct)
            .collect()
    }

    /// `true` when no scheduler or serve scenario regressed beyond the threshold and
    /// no baseline row disappeared.
    pub fn passed(&self) -> bool {
        self.missing.is_empty()
            && self.regressions().is_empty()
            && self.serve_regressions().is_empty()
    }

    /// One line per failure — every regressed row with its delta and **every** missing
    /// row by name — so a gate failure always reports the full list, never just the
    /// first offender.  Empty when the gate passed.
    pub fn failure_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for row in self.regressions() {
            lines.push(format!(
                "REGRESSED  {}: {:.3} us -> {:.3} us ({:+.1}%, threshold {}%)",
                row.scheduler,
                row.baseline_us,
                row.current_us,
                row.delta_pct(),
                self.threshold_pct
            ));
        }
        for row in self.serve_regressions() {
            lines.push(format!(
                "REGRESSED  serve:{}: {:.0} -> {:.0} loops/s ({:+.1}% drop), p99 {:.1} -> \
                 {:.1} us ({:+.1}%), threshold {}%",
                row.scenario,
                row.baseline_lps,
                row.current_lps,
                row.throughput_drop_pct(),
                row.baseline_p99_us,
                row.current_p99_us,
                row.p99_rise_pct(),
                self.threshold_pct
            ));
        }
        for missing in &self.missing {
            lines.push(format!(
                "MISSING    {missing}: present in the baseline but absent from the current report"
            ));
        }
        lines
    }
}

/// Compares `current` against `baseline`: a scheduler fails the gate when its fitted
/// burden grew by more than `threshold_pct` percent, and a serve scenario fails when
/// its throughput dropped — or its p99 latency rose — by more than the threshold.
/// Reports carrying only one kind of row simply contribute no comparisons of the
/// other kind.
pub fn compare_burdens(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
) -> GateOutcome {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.burdens {
        match current
            .burdens
            .iter()
            .find(|c| c.scheduler == base.scheduler)
        {
            Some(cur) => rows.push(GateRow {
                scheduler: base.scheduler.clone(),
                baseline_us: base.burden_us,
                current_us: cur.burden_us,
            }),
            None => missing.push(base.scheduler.clone()),
        }
    }
    let mut serve_rows = Vec::new();
    for base in &baseline.serve {
        match current.serve.iter().find(|c| c.scenario == base.scenario) {
            Some(cur) => serve_rows.push(ServeGateRow {
                scenario: base.scenario.clone(),
                baseline_lps: base.loops_per_sec,
                current_lps: cur.loops_per_sec,
                baseline_p99_us: base.p99_us,
                current_p99_us: cur.p99_us,
            }),
            None => missing.push(format!("serve:{}", base.scenario)),
        }
    }
    let mut added: Vec<String> = current
        .burdens
        .iter()
        .filter(|c| !baseline.burdens.iter().any(|b| b.scheduler == c.scheduler))
        .map(|c| c.scheduler.clone())
        .collect();
    added.extend(
        current
            .serve
            .iter()
            .filter(|c| !baseline.serve.iter().any(|b| b.scenario == c.scenario))
            .map(|c| format!("serve:{}", c.scenario)),
    );
    GateOutcome {
        threshold_pct,
        rows,
        serve_rows,
        missing,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_core::{FineGrainPool, Sequential};

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--threads", "8", "--simulate", "--json", "out.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--threads"), Some(8));
        assert_eq!(arg_value(&args, "--steps"), None);
        assert!(has_flag(&args, "--simulate"));
        assert!(!has_flag(&args, "--csv"));
        assert_eq!(arg_str(&args, "--json"), Some("out.json"));
        assert_eq!(arg_str(&args, "--runtime"), None);
        assert_eq!(json_path_arg(&args), Some("out.json"));
        assert_eq!(json_path_arg(&["--csv".to_string()]), None);
        assert_eq!(threads_arg(&args), 8);
        assert!(threads_arg(&["--quick".to_string()]) >= 1);
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
        let zero: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        let absent: Vec<String> = vec!["--quick".to_string()];
        assert_eq!(threads_arg(&zero), threads_arg(&absent));
        assert!(threads_arg(&zero) >= 1);
        // A non-degenerate explicit flag still wins over every fallback.
        let three: Vec<String> = ["--threads", " 3 "].iter().map(|s| s.to_string()).collect();
        assert_eq!(threads_arg(&three), 3, "explicit flag wins, trimmed");
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
        let t = sequential_time_of(WorkloadKind::SkewedGeometric, point, 2);
        assert!(t > 0.0);
        let mut seq = parlo_core::Sequential;
        let (_, fit) = measure_burden_of(&mut seq, WorkloadKind::TriangularNest, &[point], 2);
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
        let (ms, fit) = measure_burden(&mut seq, &sweep, 3);
        assert_eq!(ms.len(), 1);
        assert!(fit.is_some());
        let mut fine = FineGrainPool::with_threads(2);
        let (_, fit) = measure_burden(&mut fine, &sweep, 3);
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
        // The perf gate matches rows by label, so the native roster labels and the
        // simulated Table-1 labels must stay in sync.
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
    fn placement_args_parse_topology_pin_and_flat_sync() {
        use parlo_affinity::{PinPolicy, TopologySource};
        let args: Vec<String> = ["--topology", "2x4", "--pin", "none", "--flat-sync"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = placement_args(&args);
        assert_eq!(
            p.source,
            TopologySource::Synthetic {
                sockets: 2,
                cores_per_socket: 4
            }
        );
        assert_eq!(p.pin, PinPolicy::None);
        assert!(!p.hierarchical);
        let d = placement_args(&["--csv".to_string()]);
        assert_eq!(d, PlacementConfig::default());
    }

    #[test]
    fn perf_gate_flags_regressions_and_missing_rows() {
        let mut baseline = BenchReport::new("table1-simulated", 48);
        for (name, d) in [("A", 10.0), ("B", 20.0), ("C", 5.0)] {
            baseline.burdens.push(BurdenRow {
                scheduler: name.into(),
                burden_us: d,
                residual: 0.0,
            });
        }
        // A regresses 30%, B improves, C disappears, D is new.
        let mut current = BenchReport::new("table1-simulated", 48);
        for (name, d) in [("A", 13.0), ("B", 18.0), ("D", 1.0)] {
            current.burdens.push(BurdenRow {
                scheduler: name.into(),
                burden_us: d,
                residual: 0.0,
            });
        }
        let outcome = compare_burdens(&baseline, &current, 25.0);
        assert!(!outcome.passed());
        let regressed: Vec<&str> = outcome
            .regressions()
            .iter()
            .map(|r| r.scheduler.as_str())
            .collect();
        assert_eq!(regressed, vec!["A"]);
        assert_eq!(outcome.missing, vec!["C".to_string()]);
        assert_eq!(outcome.added, vec!["D".to_string()]);
        assert!((outcome.rows[0].delta_pct() - 30.0).abs() < 1e-9);
        let lines = outcome.failure_lines();
        assert_eq!(lines.len(), 2, "one line per failure");
        assert!(lines[0].starts_with("REGRESSED  A:"), "{lines:?}");
        assert!(lines[1].starts_with("MISSING    C:"), "{lines:?}");

        // Within threshold and complete: the gate passes.
        let outcome = compare_burdens(&baseline, &baseline, 25.0);
        assert!(outcome.passed());
        assert!(outcome.regressions().is_empty());

        // Degenerate current burdens (NaN from an unfittable sweep, zero or negative
        // from a pathological least-squares intercept) are unbounded regressions,
        // never a silent pass.
        for bad in [f64::NAN, 0.0, -0.1] {
            let mut broken = baseline.clone();
            broken.burdens[0].burden_us = bad;
            let outcome = compare_burdens(&baseline, &broken, 25.0);
            assert!(!outcome.passed(), "burden {bad} must fail the gate");
            assert_eq!(outcome.regressions().len(), 1);
        }
    }

    #[test]
    fn every_missing_row_is_listed_not_just_the_first() {
        let mut baseline = BenchReport::new("table1-simulated", 48);
        for name in ["A", "B", "C", "D"] {
            baseline.burdens.push(BurdenRow {
                scheduler: name.into(),
                burden_us: 10.0,
                residual: 0.0,
            });
        }
        let mut current = BenchReport::new("table1-simulated", 48);
        current.burdens.push(BurdenRow {
            scheduler: "B".into(),
            burden_us: 10.0,
            residual: 0.0,
        });
        let outcome = compare_burdens(&baseline, &current, 25.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing, vec!["A", "C", "D"]);
        let lines = outcome.failure_lines();
        assert_eq!(lines.len(), 3);
        for (line, name) in lines.iter().zip(["A", "C", "D"]) {
            assert!(
                line.starts_with(&format!("MISSING    {name}:")),
                "row {name} must appear in its own line: {lines:?}"
            );
        }
    }

    #[test]
    fn old_format_reports_without_steal_or_workload_still_parse() {
        // BENCH_*.json artifacts produced before the `steal` and `workload` fields
        // existed must keep parsing, with the missing fields defaulted.
        let old = r#"{"bench":"table1-simulated","threads":48,"burdens":[
            {"scheduler":"Fine-grain tree","burden_us":0.726,"residual":0.0}],"points":[]}"#
            .replace('\n', "");
        let dir = std::env::temp_dir().join("parlo_bench_old_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(&path, old).unwrap();
        let report = read_json_report(path.to_str().unwrap()).expect("old format parses");
        assert_eq!(report.bench, "table1-simulated");
        assert_eq!(report.burdens.len(), 1);
        assert!(report.steal.is_empty(), "missing steal defaults to empty");
        assert_eq!(
            report.workload, "micro",
            "missing workload defaults to micro"
        );

        // Steal rows written before the local/remote tier counters existed parse
        // with those counters defaulted to zero.
        let mid = r#"{"bench":"sweep","threads":4,"workload":"micro","burdens":[],
            "points":[],"serve":[],"steal":[{"scheduler":"fine-grain-steal",
            "steals_attempted":9,"steals_hit":4,"chunks_executed":32,
            "chunks_per_worker":[20,12]}]}"#
            .replace('\n', "");
        let path = dir.join("mid.json");
        std::fs::write(&path, mid).unwrap();
        let report = read_json_report(path.to_str().unwrap()).expect("mid format parses");
        assert_eq!(report.steal.len(), 1);
        assert_eq!(report.steal[0].steals_hit, 4);
        assert_eq!(report.steal[0].local_steals, 0);
        assert_eq!(report.steal[0].remote_steals, 0);
        std::fs::remove_dir_all(&dir).ok();
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
        let mut from_helper = build_steal_pool(&ctx);
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
