//! One run of one workload: set-up, the timed window, the hygiene checks, and the result
//! the driver reads.

use crate::host::{self, Fingerprint};
use crate::layers::Ledger;
use crate::sched::{run_window, LoopWorkload, Plan, Window, PLAN};
use crate::span::Recorder;
use crate::spec::{self, SERVE_OPEN_RPS, SETUPS_PER_RUN};
use crate::stats::{median, quantile_u32, samples_beyond};
use crate::workloads::irregular::{self, Irregular};
use crate::workloads::micro_sweep::{self, MicroSweep};
use crate::workloads::mpdata::{self, MpdataWl};
use crate::workloads::serve::{self, Serve};
use crate::workloads::Ctx;
use serde::Value;
use std::time::Instant;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test-only (`--corrupt-reference 1`): see [`Ctx::corrupt`].
    pub corrupt: bool,
    /// When the process started: set-up is timed from here.
    pub entry: Instant,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in spec order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Nothing failed, something ran, and every number is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// What a run that panicked reports: one op attempted, one failed.
    pub fn panicked() -> Self {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail("the harness panicked");
        out
    }

    fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        self.note("failed_check", what);
    }

    /// The last line of standard output: exactly the four keys the contract names.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                let entry = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Map(entry))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite numbers")
    }

    /// Every metric by name with its unit, then the notes, for a human.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("metric {name:<40} {value:>16.4} {unit}\n"));
        }
        for (key, value) in &self.notes {
            out.push_str(&format!("note   {key:<40} {value}\n"));
        }
        out
    }
}

/// Counters read before and after the window, for the notes.
struct HostCounters {
    steal_ticks: u64,
    involuntary_switches: u64,
}

impl HostCounters {
    fn read() -> Self {
        HostCounters {
            steal_ticks: host::steal_ticks(),
            involuntary_switches: host::involuntary_switches(),
        }
    }
}

fn host_notes(out: &mut Outcome, args: &RunArgs, ctx: &Ctx) {
    let fp = Fingerprint::read();
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("host.nproc", fp.nproc);
    out.note("host.cpu_model", &fp.cpu_model);
    out.note("host.kernel", &fp.kernel);
    out.note("threads_P", ctx.threads);
    if let Ok(wait) = std::env::var("PARLO_WAIT") {
        out.note("env.PARLO_WAIT", wait);
    }
}

fn window_notes(out: &mut Outcome, before: &HostCounters, probes_ns: &[u64]) {
    let after = HostCounters::read();
    out.note("host.steal_ticks", after.steal_ticks - before.steal_ticks);
    out.note(
        "host.involuntary_switches",
        after
            .involuntary_switches
            .saturating_sub(before.involuntary_switches),
    );
    let mut probes: Vec<f64> = probes_ns.iter().map(|&p| p as f64 / 1e3).collect();
    out.note(
        "host.clock_probe_p50_us",
        format!("{:.2}", median(&mut probes)),
    );
}

/// The absolute numbers of a `--trace 0` run.  They move with the host by tens of
/// percent between runs of the same code, so they are notes, not gated metrics.
fn absolute_notes(out: &mut Outcome, ops_per_s: f64, [p50, p90, p99]: [f64; 3]) {
    out.note("ops_per_s", format!("{ops_per_s:.2}"));
    out.note("op_p50_us", format!("{p50:.3}"));
    out.note("op_p90_us", format!("{p90:.3}"));
    out.note("op_p99_us", format!("{p99:.3}"));
}

fn check_threads(out: &mut Outcome, ctx: &Ctx, when: &str) {
    let live = host::thread_count();
    if live != ctx.threads {
        out.fail(&format!(
            "{live} threads {when}, expected P = {}",
            ctx.threads
        ));
    }
}

/// `setup_s` from the set-ups of a run, the first of them timed from process entry.
fn setup_metric(out: &mut Outcome, setups_s: &[f64]) {
    out.note(
        "setup_samples_s",
        setups_s
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let mean = setups_s.iter().sum::<f64>() / setups_s.len() as f64;
    out.metrics.push(("setup_s", mean, "s"));
}

/// The traced workload part runs the same blocks in 50 ms chunks that alternate
/// between recording spans and not, so both see the same host.
const TRACED_CHUNK_S: f64 = 0.05;
/// Share of a traced run's seconds spent on the workload itself; the ledger gets the
/// rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.15;
/// Spans the traced run can hold (32 bytes each).
const SPAN_CAPACITY: usize = 600_000;
/// Spans written to the Chrome trace file.
const SPANS_IN_FILE: usize = 20_000;

fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.json"))
}

/// The second half of every traced run, entered with the workload already dropped (so
/// the ledger's executor is the only one alive): the `workload.*` and
/// `trace.harness_overhead_pct` rows from the traced window (`ops_per_s` is
/// `[recorder off, recorder on]`), the Chrome trace, then the ledger, then all rows in
/// spec order — a row nobody measured is a failure.
fn finish_traced(
    out: &mut Outcome,
    args: &RunArgs,
    ctx: &Ctx,
    rec: Recorder,
    [ops_off, ops_on]: [f64; 2],
    samples_ns: &mut [u32],
) {
    let mut rows = vec![
        (
            "trace.harness_overhead_pct",
            100.0 * (ops_off - ops_on) / ops_off,
        ),
        ("workload.ops_per_s", ops_off),
        ("workload.op_p50_us", quantile_u32(samples_ns, 0.5) / 1e3),
        ("workload.op_p99_us", quantile_u32(samples_ns, 0.99) / 1e3),
        ("workload.op_p999_us", quantile_u32(samples_ns, 0.999) / 1e3),
        ("workload.spans", rec.spans().len() as f64),
    ];
    let self_times = rec.self_times();
    let total: u64 = self_times.values().map(|v| v.1).sum();
    let harness: u64 = self_times
        .iter()
        .filter(|(name, _)| name.starts_with("harness."))
        .map(|(_, v)| v.1)
        .sum();
    rows.push((
        "workload.harness_self_pct",
        100.0 * harness as f64 / total.max(1) as f64,
    ));
    for (name, (count, self_ns)) in &self_times {
        out.note(
            &format!("span_self.{name}"),
            format!("count={count} self_ms={:.3}", *self_ns as f64 / 1e6),
        );
    }
    out.note("spans_dropped", rec.dropped);
    let path = trace_path(&args.workload);
    match rec.write_chrome_trace(&path, SPANS_IN_FILE) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out.fail(&format!("writing {}: {e}", path.display())),
    }
    drop(rec);

    let mut ledger = Ledger::new(ctx, args.seconds / spec::RUN_SECONDS as f64);
    ledger.measure();
    out.attempted += ledger.attempted;
    out.failed += ledger.failed;
    rows.append(&mut ledger.rows);
    out.notes.append(&mut ledger.notes);
    for m in &spec::PER_LAYER {
        let value = rows.iter().find(|r| r.0 == m.name).map(|r| r.1);
        if value.is_none() {
            out.fail(&format!("{} was not measured", m.name));
        }
        out.metrics
            .push((m.name, value.unwrap_or(f64::NAN), m.unit));
    }
}

/// A loop workload, end to end or traced.
fn run_loops<W: LoopWorkload>(
    args: &RunArgs,
    ctx: &Ctx,
    warmup: u64,
    max_ops_per_s: f64,
    setup: impl Fn(&Ctx, u64) -> (W, u64),
) -> Outcome {
    let mut out = Outcome::default();
    host_notes(&mut out, args, ctx);
    let mut win = Window::with_capacity(args.seconds, max_ops_per_s);
    let (mut w, wrong_warmups) = setup(ctx, warmup);
    let mut setups_s = vec![args.entry.elapsed().as_secs_f64()];
    out.attempted += warmup;
    out.failed += wrong_warmups;
    check_threads(&mut out, ctx, "after set-up");
    let before = HostCounters::read();

    if !args.trace {
        let part_s = args.seconds / SETUPS_PER_RUN as f64;
        for part in 0..SETUPS_PER_RUN {
            if part > 0 {
                // Torn down before the next is built: never more than `P` threads.
                drop(w);
                host::release_master();
                let t0 = Instant::now();
                let (next, wrong_warmups) = setup(ctx, warmup);
                setups_s.push(t0.elapsed().as_secs_f64());
                w = next;
                out.attempted += warmup;
                out.failed += wrong_warmups;
                check_threads(&mut out, ctx, "after a repeated set-up");
            }
            run_window(&mut w, &PLAN, part_s, &mut win, &mut Recorder::disabled());
        }
        check_threads(&mut out, ctx, "after the window");
        let s = win.summary();
        out.attempted += win.attempted;
        out.failed += win.failed;
        setup_metric(&mut out, &setups_s);
        out.metrics.push(("speedup", s.speedup, "x"));
        absolute_notes(
            &mut out,
            s.ops_per_s,
            [s.op_p50_us, s.op_p90_us, s.op_p99_us],
        );
        out.note("seq_op_p50_us", format!("{:.3}", s.seq_p50_us));
        out.note("samples_par", s.par_samples);
        out.note("samples_seq", s.seq_samples);
        out.note("samples_beyond_p90", s.samples_beyond_p90);
        out.note("slices", s.slices);
        window_notes(&mut out, &before, &win.probes_ns);
        drop(w);
        out.metrics
            .push(("peak_rss_mb", host::peak_rss_mib(), "MiB"));
        return out;
    }

    // Traced: the workload in 50 ms chunks, alternately with and without the span
    // recorder, then the ledger.
    let mut rec = Recorder::with_capacity(SPAN_CAPACITY);
    let chunk = Plan {
        slice_ns: (TRACED_CHUNK_S * 1e9) as u64,
        ..PLAN
    };
    let chunk_s = TRACED_CHUNK_S.min(args.seconds / 2.0);
    let chunks = ((args.seconds * TRACED_WORKLOAD_SHARE / chunk_s) as usize).max(2) & !1;
    let mut win_on = Window::with_capacity(args.seconds * TRACED_WORKLOAD_SHARE, max_ops_per_s);
    for k in 0..chunks {
        let on = k % 2 == 0;
        rec.set_enabled(on);
        run_window(
            &mut w,
            &chunk,
            chunk_s,
            if on { &mut win_on } else { &mut win },
            &mut rec,
        );
    }
    rec.set_enabled(false);
    check_threads(&mut out, ctx, "after the traced window");
    let (on, off) = (win_on.summary(), win.summary());
    out.attempted += win.attempted + win_on.attempted;
    out.failed += win.failed + win_on.failed;
    let mut probes = win.probes_ns.clone();
    probes.extend_from_slice(&win_on.probes_ns);
    window_notes(&mut out, &before, &probes);
    drop((w, win_on));
    let ops_per_s = [off.ops_per_s, on.ops_per_s];
    finish_traced(&mut out, args, ctx, rec, ops_per_s, &mut win.par);
    out
}

/// The `serve` workload, end to end or traced.
fn run_serve(args: &RunArgs, ctx: &Ctx, warmup: u64) -> Outcome {
    let mut out = Outcome::default();
    host_notes(&mut out, args, ctx);
    let mut w = Serve::setup(ctx, warmup);
    w.reserve(args.seconds);
    let mut setups_s = vec![args.entry.elapsed().as_secs_f64()];
    check_threads(&mut out, ctx, "after set-up");
    let before = HostCounters::read();
    let mut probes = Vec::new();

    if !args.trace {
        // Whole one-second cycles; a run shorter than that gets one scaled-down cycle.
        let pair_ns = serve::CLOSED_BLOCK_NS + serve::INLINE_BLOCK_NS;
        let cycle_s = (serve::OPEN_NS + serve::PAIRS as u64 * pair_ns) as f64 * 1e-9;
        let cycles = (args.seconds / cycle_s).floor().max(1.0) as usize;
        let scale = (args.seconds / cycle_s).min(1.0);
        let open_ns = (serve::OPEN_NS as f64 * scale) as u64;
        let pairs = ((serve::PAIRS as f64 * scale) as usize).max(1);
        let mut rejected = 0;
        for cycle in 0..cycles {
            // A new server at one and at two thirds of the run; the samples carry over.
            if cycle > 0 && (cycle * SETUPS_PER_RUN) % cycles < SETUPS_PER_RUN {
                let mut totals = std::mem::take(&mut w.totals);
                rejected += w.server.stats().rejected;
                drop(w);
                host::release_master();
                let t0 = Instant::now();
                w = Serve::setup(ctx, warmup);
                setups_s.push(t0.elapsed().as_secs_f64());
                totals.attempted += w.totals.attempted;
                totals.failed += w.totals.failed;
                w.totals = totals;
                check_threads(&mut out, ctx, "after a repeated set-up");
            }
            probes.push(host::clock_probe_ns());
            w.cycle(SERVE_OPEN_RPS, open_ns, pairs, &mut Recorder::disabled());
        }
        check_threads(&mut out, ctx, "after the window");
        let t = &mut w.totals;
        let mut pooled = t.open.pooled();
        setup_metric(&mut out, &setups_s);
        out.metrics
            .push(("speedup", median(&mut t.slice_speedups), "x"));
        let us = |samples: &mut [u32], q: f64| quantile_u32(samples, q) / 1e3;
        absolute_notes(
            &mut out,
            t.closed_done as f64 / (t.closed_ns as f64 * 1e-9),
            [
                us(&mut pooled, 0.5),
                us(&mut pooled, 0.9),
                us(&mut pooled, 0.99),
            ],
        );
        out.note("samples_open", pooled.len());
        out.note("samples_beyond_p90", samples_beyond(pooled.len(), 0.9));
        out.note("samples_closed", t.closed_done);
        out.note("samples_inline", t.inline_done);
        out.note("slices", t.slice_speedups.len());
        out.note(
            "generator_lag_p99_us",
            format!("{:.3}", us(&mut t.open.lag_ns, 0.99)),
        );
        out.note("backlog_at_open_end", t.open.backlog_at_end);
        let stats = w.server.stats();
        rejected += stats.rejected;
        out.note("serve.gangs", stats.gangs);
        out.note("serve.gang_size", stats.gang_size);
        out.note("serve.rejected", rejected);
        out.attempted += t.attempted;
        out.failed += t.failed + rejected;
        window_notes(&mut out, &before, &probes);
        drop(w);
        out.metrics
            .push(("peak_rss_mb", host::peak_rss_mib(), "MiB"));
        return out;
    }

    // Traced: short cycles (20 ms open, one closed/inline pair) that alternate between
    // recording spans and not.
    let mut rec = Recorder::with_capacity(SPAN_CAPACITY);
    let open_ns = serve::CLOSED_BLOCK_NS;
    let cycle_s = (open_ns + serve::CLOSED_BLOCK_NS + serve::INLINE_BLOCK_NS) as f64 * 1e-9;
    let cycles = ((args.seconds * TRACED_WORKLOAD_SHARE / cycle_s) as usize).max(2) & !1;
    let (mut done, mut ns) = ([0u64; 2], [0u64; 2]);
    for k in 0..cycles {
        let on = k % 2 == 0;
        rec.set_enabled(on);
        probes.push(host::clock_probe_ns());
        let (d0, n0) = (w.totals.closed_done, w.totals.closed_ns);
        w.cycle(SERVE_OPEN_RPS, open_ns, 1, &mut rec);
        done[usize::from(on)] += w.totals.closed_done - d0;
        ns[usize::from(on)] += w.totals.closed_ns - n0;
    }
    rec.set_enabled(false);
    check_threads(&mut out, ctx, "after the traced window");
    let rate = |k: usize| done[k] as f64 / (ns[k] as f64 * 1e-9);
    out.attempted += w.totals.attempted;
    out.failed += w.totals.failed + w.server.stats().rejected;
    window_notes(&mut out, &before, &probes);
    let mut pooled = w.totals.open.pooled();
    drop(w);
    finish_traced(&mut out, args, ctx, rec, [rate(0), rate(1)], &mut pooled);
    out
}

/// Runs the workload `args` names.  `Err` for a name that is not a workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let ctx = Ctx {
        threads: host::threads(),
        seed: args.seed,
        corrupt: args.corrupt,
    };
    let warmup = spec::workload(&args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{}` (expected one of {names:?})",
                args.workload
            )
        })?
        .warmup_ops;
    Ok(match args.workload.as_str() {
        "micro_sweep" => run_loops(
            args,
            &ctx,
            warmup,
            micro_sweep::MAX_OPS_PER_S,
            MicroSweep::setup,
        ),
        "mpdata" => run_loops(args, &ctx, warmup, mpdata::MAX_OPS_PER_S, MpdataWl::setup),
        "irregular" => run_loops(
            args,
            &ctx,
            warmup,
            irregular::MAX_OPS_PER_S,
            Irregular::setup,
        ),
        _ => run_serve(args, &ctx, warmup),
    })
}
