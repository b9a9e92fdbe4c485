//! The per-layer ledger of the traced run: every layer of the program measured from
//! outside, by timing calls into its public functions.  Nothing here is gated; each
//! row exists to say which layer moved when an end-to-end metric does.
//!
//! All pools lease their workers from one executor, so the process never has more
//! than `P` threads; the `serve` rows run last, on their own executor, after the
//! roster has been dropped.

use crate::host;
use crate::span::Recorder;
use crate::spec::{self, SERVE_OPEN_RPS, SERVE_SLO_P90_US};
use crate::stats::{median, quantile_u32};
use crate::workloads::irregular::Inputs;
use crate::workloads::serve::{OpenSamples, Serve};
use crate::workloads::{micro_sweep, mpdata, Ctx};
use parlo::adaptive::{AdaptiveConfig, AdaptivePool, LoopSite};
use parlo::analysis::{fit_burden, linear_fit, BurdenFit, BurdenMeasurement};
use parlo::barrier::WaitPolicy;
use parlo::cilk::{CilkFineGrain, CilkPool, WorkStealingDeque};
use parlo::core::{BarrierKind, Config, FineGrainPool, LoopRuntime, Sequential};
use parlo::exec::Executor;
use parlo::omp::{Schedule, ScheduledTeam};
use parlo::steal::StealPool;
use parlo::trace::{self, EventKind, Phase};
use parlo::workloads::microbench::work_unit;
use parlo::workloads::phoenix::{histogram, kmeans, linear_regression};
use parlo::workloads::{Mesh, Mpdata};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named values in the order measured.
pub type Rows = Vec<(&'static str, f64)>;

/// The ledger's knobs: the context of the run and how far to scale every time budget
/// (1.0 for a 30 s run; the `--seconds 1` smoke run scales them down).
pub struct Ledger<'a> {
    pub ctx: &'a Ctx,
    pub scale: f64,
    pub rows: Rows,
    /// Human-readable facts that are not metrics (always-zero counters, decisions).
    pub notes: Vec<(String, String)>,
    /// Wrong results and invalid measurements.
    pub failed: u64,
    pub attempted: u64,
}

/// Median per-call time of `f`, ns: calls are timed in batches of about a millisecond
/// until `budget` is spent, and the median batch mean is returned.
fn call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let calibrate = Instant::now();
    let mut reps = 0u32;
    while calibrate.elapsed() < Duration::from_millis(1) {
        f();
        reps += 1;
    }
    let mut batches = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || batches.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        batches.push(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    median(&mut batches)
}

/// Seconds one call of `f` takes.
fn once_s(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// `work_unit` grains of the burden sweep: 512 iterations each, sequential times from
/// about a microsecond to about half a millisecond around the burden being fitted.
const SWEEP_GRAINS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
const SWEEP_ITERS: usize = 512;

/// A runtime's burden, fitted two ways from one sweep.
struct Burden {
    /// The intercept of `t_par = d + t_seq / (P * efficiency)`, µs: the time a loop
    /// costs beyond its work, whatever the parallel efficiency of the host.
    d_us: f64,
    /// The paper's one-parameter fit `S = T / (d + T/P)` over the whole sweep.  It
    /// assumes perfect scaling, so on a host whose two CPUs share a core it charges
    /// the lost efficiency to `d`; kept for its residual, which says how far the
    /// host is from the model.
    paper: BurdenFit,
}

/// Sweeps `rt` over `SWEEP_GRAINS`: per grain, the minimum of `reps` sequential and of
/// `reps` parallel timings (minima, not raw repetitions: neither fit is robust to
/// outliers).  The intercept uses the grains up to 32, where `d` is not yet lost in
/// the noise of the work term.
fn fit_d(rt: &mut dyn LoopRuntime, threads: usize, reps: usize) -> Burden {
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    for grain in SWEEP_GRAINS {
        let body = |i| work_unit(i, grain);
        // Back-to-back repetitions of each side, not alternating ones: after a
        // sequential loop of more than a few microseconds the pool's workers have spun
        // out and yield, and the next parallel loop would pay their wake-up, not `d`.
        // Each side also runs for at least 2 ms, so that no single host hiccup can
        // cover all of its repetitions.
        let best = |f: &mut dyn FnMut()| {
            let (start, mut best, mut done) = (Instant::now(), f64::MAX, 0);
            while done < reps || start.elapsed() < Duration::from_millis(2) {
                best = best.min(once_s(&mut *f));
                done += 1;
            }
            best
        };
        let t_seq = best(&mut || {
            black_box(Sequential.parallel_sum(0..SWEEP_ITERS, &body));
        });
        let t_par = best(&mut || {
            black_box(rt.parallel_sum(0..SWEEP_ITERS, &body));
        });
        seq_s.push(t_seq);
        par_s.push(t_par);
    }
    let points: Vec<BurdenMeasurement> = seq_s
        .iter()
        .zip(&par_s)
        .map(|(&t_seq, &t_par)| BurdenMeasurement {
            t_seq,
            speedup: t_seq / t_par,
        })
        .collect();
    let small = SWEEP_GRAINS.iter().filter(|&&g| g <= 32).count();
    let (intercept, _slope) =
        linear_fit(&seq_s[..small], &par_s[..small]).expect("distinct sequential times");
    Burden {
        d_us: intercept * 1e6,
        paper: fit_burden(&points, threads).expect("positive timings"),
    }
}

/// The fixed loop the adaptive rows route: 512 iterations of grain 16.
fn routed_loop(i: usize) -> f64 {
    work_unit(i, 16)
}

impl<'a> Ledger<'a> {
    pub fn new(ctx: &'a Ctx, scale: f64) -> Self {
        Ledger {
            ctx,
            scale,
            rows: Vec::with_capacity(96),
            notes: Vec::new(),
            failed: 0,
            attempted: 0,
        }
    }

    fn row(&mut self, name: &'static str, value: f64) {
        self.rows.push((name, value));
    }

    fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note("failed_check", what);
        }
    }

    /// A time budget of `ms` milliseconds at scale 1, never under 5 ms.
    fn budget(&self, ms: f64) -> Duration {
        Duration::from_secs_f64((ms * self.scale).max(5.0) / 1e3)
    }

    /// A repetition count of `n` at scale 1, never under `floor`.
    fn count(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(floor)
    }

    /// A fine-grain configuration as the first pool of a process would get it (the
    /// builder picks the wait policy: see `host::release_master`).
    fn config(&self, kind: BarrierKind) -> parlo::core::ConfigBuilder {
        host::release_master();
        Config::builder(self.ctx.threads)
            .placement(&self.ctx.placement())
            .barrier(kind)
    }

    /// Runs every section.  The order matters only for the thread budget: one executor
    /// for the roster, dropped before `serve` builds its own.
    pub fn measure(&mut self) {
        let wall = Instant::now();
        let cpu0 = host::cpu_seconds();
        let threads = self.ctx.threads;
        let placement = self.ctx.placement();
        let executor = self.ctx.executor();
        let mut fine = self.exec_rows(&executor);
        self.barrier_rows(&executor, &mut fine);
        let paper = self.core_rows(&executor, &mut fine);
        self.row("analysis.fit_residual", paper.residual);
        self.note(
            "analysis.paper_model_d_us",
            format!("{:.3}", paper.burden_us()),
        );
        self.trace_rows(&mut fine);

        host::release_master();
        let mut omp_static =
            ScheduledTeam::with_placement_on(threads, Schedule::Static, &placement, &executor);
        host::release_master();
        let mut omp_dynamic =
            ScheduledTeam::with_placement_on(threads, Schedule::Dynamic(8), &placement, &executor);
        host::release_master();
        let mut cilk = CilkPool::with_placement_on(threads, &placement, &executor);
        host::release_master();
        let mut steal = StealPool::with_placement_on(threads, &placement, &executor);
        self.baseline_rows(&executor, &mut omp_static, &mut omp_dynamic, &mut cilk);
        self.steal_rows(&mut steal, &mut fine);
        let mut direct: [&mut dyn LoopRuntime; 5] = [
            &mut fine,
            &mut omp_static,
            &mut omp_dynamic,
            &mut steal,
            &mut cilk,
        ];
        self.adaptive_rows(&executor, &mut direct);
        self.workload_rows(&mut fine);

        let stats = executor.stats();
        self.row("exec.workers", stats.workers as f64);
        self.row("exec.switches", stats.switches as f64);
        self.row(
            "exec.pinned_workers",
            stats.pin_map.iter().flatten().count() as f64,
        );
        self.check(
            host::thread_count() == threads,
            "the roster holds exactly P threads",
        );
        drop((fine, omp_static, omp_dynamic, cilk, steal));
        drop(executor);
        self.serve_rows();
        // The roster's workers have exited and their on-CPU time with them; this is the
        // harness thread plus whatever is alive, which is what a user's `top` shows.
        self.row(
            "exec.cpu_s_per_wall_s",
            (host::cpu_seconds() - cpu0).max(0.0) / wall.elapsed().as_secs_f64(),
        );
    }

    /// `exec`: what attaching and switching leases costs.  Returns the default pool
    /// the later sections reuse.
    fn exec_rows(&mut self, executor: &Arc<Executor>) -> FineGrainPool {
        let mut a = FineGrainPool::new_on(self.config(BarrierKind::TreeHalf).build(), executor);
        self.row("exec.first_attach_us", once_s(|| a.broadcast(|_| {})) * 1e6);
        let mut b = FineGrainPool::new_on(self.config(BarrierKind::TreeHalf).build(), executor);
        b.broadcast(|_| {});
        let mut switches: Vec<f64> = (0..self.count(100, 10))
            .flat_map(|_| {
                [
                    once_s(|| a.broadcast(|_| {})) * 1e6,
                    once_s(|| b.broadcast(|_| {})) * 1e6,
                ]
            })
            .collect();
        self.row("exec.lease_switch_us", median(&mut switches));
        a
    }

    /// `barrier`: one empty fork/join cycle per flavor and per wait mode, and what an
    /// idle pool costs in CPU.
    fn barrier_rows(&mut self, executor: &Arc<Executor>, fine: &mut FineGrainPool) {
        let flavors = [
            (
                "barrier.half_tree_cycle_ns",
                self.config(BarrierKind::TreeHalf).hierarchical(false),
            ),
            (
                "barrier.half_centralized_cycle_ns",
                self.config(BarrierKind::CentralizedHalf),
            ),
            (
                "barrier.half_hier_cycle_ns",
                self.config(BarrierKind::TreeHalf).hierarchical(true),
            ),
            (
                "barrier.full_tree_cycle_ns",
                self.config(BarrierKind::TreeFull),
            ),
            (
                "barrier.wait_spin_cycle_ns",
                self.config(BarrierKind::TreeHalf)
                    .wait(WaitPolicy::dedicated()),
            ),
            (
                "barrier.wait_yield_cycle_ns",
                self.config(BarrierKind::TreeHalf)
                    .wait(WaitPolicy::oversubscribed()),
            ),
            (
                "barrier.wait_park_cycle_ns",
                self.config(BarrierKind::TreeHalf).wait(WaitPolicy::park()),
            ),
        ];
        for (name, config) in flavors {
            let mut pool = FineGrainPool::new_on(config.build(), executor);
            let ns = call_ns(self.budget(150.0), || pool.broadcast(|_| {}));
            self.row(name, ns);
            let ran = AtomicUsize::new(0);
            for _ in 0..100 {
                pool.broadcast(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            self.check(ran.into_inner() == 100 * self.ctx.threads, name);
        }
        for (name, wait) in [
            ("barrier.idle_cpu_frac_spin", WaitPolicy::dedicated()),
            ("barrier.idle_cpu_frac_park", WaitPolicy::park()),
        ] {
            let mut pool = FineGrainPool::new_on(
                self.config(BarrierKind::TreeHalf).wait(wait).build(),
                executor,
            );
            pool.broadcast(|_| {});
            let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
            std::thread::sleep(self.budget(150.0));
            let busy = (host::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
            self.row(name, busy / (self.ctx.threads - 1).max(1) as f64);
        }
        let before = fine.sync_stats();
        for _ in 0..100 {
            fine.parallel_for(0..SWEEP_ITERS, |i| {
                black_box(i);
            });
        }
        let d = fine.sync_stats().since(&before);
        self.row(
            "barrier.cycles_per_loop",
            d.barrier_phases as f64 / 2.0 / d.loops as f64,
        );
    }

    /// `core`: dispatch of an empty, a plain and a reducing loop, the fitted burden of
    /// the three fine-grain configurations, and where a loop's time goes according to
    /// the program's own `parlo-trace` spans.
    fn core_rows(&mut self, executor: &Arc<Executor>, fine: &mut FineGrainPool) -> BurdenFit {
        let threads = self.ctx.threads;
        let budget = self.budget(150.0);
        let ns = call_ns(budget, || fine.parallel_for(0..threads, |_| {}));
        self.row("core.empty_for_ns", ns);
        let ns = call_ns(budget, || {
            fine.parallel_for(0..SWEEP_ITERS, |i| {
                black_box(work_unit(i, 1));
            })
        });
        self.row("core.for_512x1_ns", ns);
        let ns = call_ns(budget, || {
            black_box(fine.parallel_sum(0..SWEEP_ITERS, |i| work_unit(i, 1)));
        });
        self.row("core.reduce_512x1_ns", ns);

        let reps = self.count(60, 5);
        let fit = fit_d(fine, threads, reps);
        self.row("core.d_us", fit.d_us);
        for (name, kind) in [
            ("core.d_centralized_us", BarrierKind::CentralizedHalf),
            ("core.d_full_barrier_us", BarrierKind::TreeFull),
        ] {
            let mut pool = FineGrainPool::new_on(self.config(kind).build(), executor);
            let d = fit_d(&mut pool, threads, reps).d_us;
            self.row(name, d);
        }

        let before = fine.sync_stats();
        let sum = LoopRuntime::parallel_sum(fine, 0..SWEEP_ITERS, &|i| (i % 3) as f64);
        let d = fine.sync_stats().since(&before);
        self.check(sum == 511.0, "a 512-iteration reduction of i % 3");
        self.row(
            "core.combine_ops_per_reduce",
            d.combine_ops as f64 / d.reductions as f64,
        );
        self.reconcile(fine);
        fit.paper
    }

    /// The reconciliation rows: arms `parlo-trace`, times 2000 reductions from outside,
    /// and splits each `loop` span on the master's track into release (entry to the
    /// release store), work (release to the start of the join), join (waiting for
    /// arrivals) and combine (first combine to the end of the join).  What the outside
    /// timing saw beyond the spans is unexplained.
    fn reconcile(&mut self, fine: &mut FineGrainPool) {
        const LOOPS_TRACED: usize = 2000;
        trace::clear();
        trace::enable();
        let mut outside_ns = 0u64;
        for _ in 0..LOOPS_TRACED {
            let t0 = Instant::now();
            black_box(fine.parallel_sum(0..SWEEP_ITERS, |i| work_unit(i, 1)));
            outside_ns += t0.elapsed().as_nanos() as u64;
        }
        trace::disable();
        let snap = trace::snapshot();
        let master = snap.tracks.iter().find(|t| {
            t.events
                .iter()
                .any(|e| e.phase == Phase::Loop && e.kind == EventKind::Begin)
        });
        let (mut release, mut work, mut join, mut combine, mut spans, mut loops) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut t_begin, mut t_release, mut t_join, mut t_combine) = (0u64, 0u64, 0u64, None);
        for e in master.map_or(&[][..], |t| &t.events) {
            match (e.phase, e.kind) {
                (Phase::Loop, EventKind::Begin) => {
                    t_begin = e.ts_ns;
                    t_combine = None;
                }
                (Phase::Release, EventKind::Instant) => t_release = e.ts_ns,
                (Phase::Join, EventKind::Begin) => t_join = e.ts_ns,
                (Phase::Combine, EventKind::Instant) => {
                    t_combine.get_or_insert(e.ts_ns);
                }
                (Phase::Join, EventKind::End) => {
                    let first_combine = t_combine.unwrap_or(e.ts_ns);
                    release += t_release - t_begin;
                    work += t_join - t_release;
                    join += first_combine - t_join;
                    combine += e.ts_ns - first_combine;
                }
                (Phase::Loop, EventKind::End) => {
                    spans += e.ts_ns - t_begin;
                    loops += 1;
                }
                _ => {}
            }
        }
        let dropped = snap.total_dropped();
        self.check(
            dropped == 0 && loops == LOOPS_TRACED as u64,
            "the reconciliation window kept every event of every loop",
        );
        self.note("trace.dropped", dropped);
        let per_loop = |ns: u64| ns as f64 / loops.max(1) as f64;
        self.row("core.release_ns", per_loop(release));
        self.row("core.work_ns", per_loop(work));
        self.row("core.join_ns", per_loop(join));
        self.row("core.combine_ns", per_loop(combine));
        self.row(
            "core.unexplained_pct",
            100.0 * (outside_ns as f64 - spans as f64) / outside_ns as f64,
        );
        self.row("trace.events", snap.total_events() as f64);
    }

    /// `trace`: what arming the program's tracing costs a `micro_sweep` round.
    fn trace_rows(&mut self, fine: &mut FineGrainPool) {
        let mut rec = Recorder::disabled();
        let (mut armed, mut disarmed) = (0.0, 0.0);
        for _ in 0..self.count(60, 5) {
            for (on, total) in [(true, &mut armed), (false, &mut disarmed)] {
                if on {
                    trace::enable();
                }
                *total += once_s(|| {
                    for _ in 0..20 {
                        black_box(micro_sweep::round(fine, 0, &mut rec));
                    }
                });
                trace::disable();
            }
        }
        trace::clear();
        self.row(
            "trace.armed_overhead_pct",
            100.0 * (armed - disarmed) / disarmed,
        );
    }

    /// `omp`, `cilk`: the baselines' burdens and their dynamic-distribution counts.
    fn baseline_rows(
        &mut self,
        executor: &Arc<Executor>,
        omp_static: &mut ScheduledTeam,
        omp_dynamic: &mut ScheduledTeam,
        cilk: &mut CilkPool,
    ) {
        let threads = self.ctx.threads;
        let reps = self.count(60, 5);
        let d = fit_d(omp_static, threads, reps).d_us;
        self.row("omp.d_static_us", d);
        let before = omp_dynamic.sync_stats();
        let d = fit_d(omp_dynamic, threads, reps).d_us;
        let delta = omp_dynamic.sync_stats().since(&before);
        self.row("omp.d_dynamic_us", d);
        self.row(
            "omp.dynamic_chunks_per_loop",
            delta.dynamic_chunks as f64 / delta.loops as f64,
        );
        host::release_master();
        let mut guided = ScheduledTeam::with_placement_on(
            threads,
            Schedule::Guided(2),
            &self.ctx.placement(),
            executor,
        );
        let d = fit_d(&mut guided, threads, reps).d_us;
        self.row("omp.d_guided_us", d);

        let before = cilk.sync_stats();
        let d = fit_d(cilk, threads, reps).d_us;
        let delta = cilk.sync_stats().since(&before);
        self.row("cilk.d_us", d);
        self.row(
            "cilk.steals_per_loop",
            delta.steals as f64 / delta.loops as f64,
        );
        host::release_master();
        let mut cilk_fine =
            CilkFineGrain::with_placement_on(threads, &self.ctx.placement(), executor);
        let d = fit_d(&mut cilk_fine, threads, reps).d_us;
        self.row("cilk.d_fine_us", d);

        let deque: WorkStealingDeque<usize> = WorkStealingDeque::new(1024);
        let budget = self.budget(100.0);
        let ns = call_ns(budget, || {
            // SAFETY: this thread is the deque's only user, hence its owner.
            unsafe {
                let _ = deque.push(black_box(7));
                black_box(deque.pop());
            }
        });
        self.row("cilk.deque_push_pop_ns", ns);
        let ns = call_ns(budget, || {
            // SAFETY: as above; `steal` may be called by any thread, the owner included.
            let _ = unsafe { deque.push(black_box(7)) };
            black_box(deque.steal().success());
        });
        self.row("cilk.deque_steal_ns", ns);
    }

    /// `steal`: burden, the three irregular loops one by one, the stealing counters,
    /// and the same rounds on the static pool.
    fn steal_rows(&mut self, steal: &mut StealPool, fine: &mut FineGrainPool) {
        let d = fit_d(steal, self.ctx.threads, self.count(60, 5)).d_us;
        self.row("steal.d_us", d);
        let inputs = Inputs::new(self.ctx.seed);
        let expected = inputs.round_on(&mut Sequential);
        let mut rec = Recorder::disabled();
        for _ in 0..20 {
            inputs.round_steal(steal, &mut rec);
        }
        let before = steal.stats();
        let mut per_loop: [Vec<f64>; 3] = Default::default();
        for _ in 0..self.count(100, 5) {
            let sums = inputs.each_loop(|k, n, term| {
                let mut sum = 0.0;
                per_loop[k].push(once_s(|| sum = Inputs::steal_loop(steal, k, n, term)) * 1e6);
                sum
            });
            self.check(
                sums == expected,
                "the three irregular sums on the stealing pool",
            );
        }
        let d = steal.stats().since(&before);
        for (name, samples) in ["steal.skewed_us", "steal.triangular_us", "steal.cache_us"]
            .into_iter()
            .zip(&mut per_loop)
        {
            self.row(name, median(samples));
        }
        let loops = d.loops as f64;
        self.row("steal.chunks_per_loop", d.chunks_executed() as f64 / loops);
        self.row("steal.steals_per_loop", d.steals_hit as f64 / loops);
        self.row(
            "steal.hit_ratio",
            d.steals_hit as f64 / d.steals_attempted.max(1) as f64,
        );
        self.row(
            "steal.sticky_reuse_frac",
            d.sticky_chunks_reused as f64 / d.sticky_chunks_total.max(1) as f64,
        );
        self.note(
            "steal.remote_frac",
            d.remote_steals as f64 / d.steals_hit.max(1) as f64,
        );

        // Alternate blocks of rounds so both pools see the same host; the first round
        // of a block re-attaches the lease and is dropped.
        let (mut stealing, mut fixed) = (Vec::new(), Vec::new());
        for _ in 0..self.count(5, 2) {
            for k in 0..21 {
                let s = once_s(|| {
                    black_box(inputs.round_steal(steal, &mut rec));
                });
                if k > 0 {
                    stealing.push(s);
                }
            }
            for k in 0..21 {
                let s = once_s(|| {
                    black_box(inputs.round_on(fine));
                });
                if k > 0 {
                    fixed.push(s);
                }
            }
        }
        self.row(
            "steal.gain_vs_static",
            median(&mut fixed) / median(&mut stealing),
        );
    }

    /// `adaptive`: what calibrating a site costs, what routing costs once calibrated,
    /// and how far the routed choice is from the best backend called directly.
    fn adaptive_rows(&mut self, executor: &Arc<Executor>, direct: &mut [&mut dyn LoopRuntime]) {
        host::release_master();
        let mut pool = AdaptivePool::new(AdaptiveConfig {
            placement: self.ctx.placement(),
            executor: Some(Arc::clone(executor)),
            ..AdaptiveConfig::with_threads(self.ctx.threads)
        });
        let site = LoopSite(1);
        let calibration = Instant::now();
        let mut calls = 0;
        while pool.adaptive_stats().routed_loops == 0 && calls < 10_000 {
            black_box(pool.parallel_sum_at(site, 0..SWEEP_ITERS, routed_loop));
            calls += 1;
        }
        self.row(
            "adaptive.calibration_ms",
            calibration.elapsed().as_secs_f64() * 1e3,
        );
        let stats = pool.adaptive_stats();
        self.row("adaptive.probes", (stats.probes + stats.seq_probes) as f64);
        let mut routed: Vec<f64> = (0..self.count(3000, 600))
            .map(|_| {
                once_s(|| {
                    black_box(pool.parallel_sum_at(site, 0..SWEEP_ITERS, routed_loop));
                })
            })
            .collect();
        let routed = median(&mut routed);
        self.row("adaptive.reprobes", pool.adaptive_stats().reprobes as f64);
        if let Some(decision) = pool.decision(site) {
            self.note("adaptive.decision", decision.backend.label());
        }
        let tiny = LoopSite(2);
        for _ in 0..200 {
            black_box(pool.parallel_sum_at(tiny, 0..4, |i| i as f64));
        }
        let ns = call_ns(self.budget(100.0), || {
            black_box(pool.parallel_sum_at(tiny, 0..4, |i| i as f64));
        });
        self.row("adaptive.route_ns", ns);
        drop(pool);

        let budget = self.budget(40.0);
        let mut best = call_ns(budget, || {
            black_box(Sequential.parallel_sum(0..SWEEP_ITERS, &routed_loop));
        });
        for rt in direct.iter_mut() {
            best = best.min(call_ns(budget, || {
                black_box(rt.parallel_sum(0..SWEEP_ITERS, &routed_loop));
            }));
        }
        self.row("adaptive.regret_pct", 100.0 * (routed * 1e9 - best) / best);
    }

    /// `workloads`: the kernels themselves.
    fn workload_rows(&mut self, fine: &mut FineGrainPool) {
        let threads = self.ctx.threads as f64;
        let seed = self.ctx.seed;
        let mut solver = Mpdata::new(Mesh::triangulated_grid(
            mpdata::GRID.0,
            mpdata::GRID.1,
            seed,
        ));
        let budget = self.budget(200.0);
        let seq_us = call_ns(budget, || {
            black_box(solver.step(&mut Sequential));
        }) / 1e3;
        let par_us = call_ns(budget, || {
            black_box(solver.step(fine));
        }) / 1e3;
        let loops = solver.loops_per_step() as f64;
        self.row("workloads.mpdata_seq_step_us", seq_us);
        self.row("workloads.mpdata_loops_per_step", loops);
        self.row(
            "workloads.mpdata_effective_burden_us",
            (par_us - seq_us / threads) / loops,
        );
        drop(solver);

        let reps = self.count(5, 2);
        let best_ms =
            |f: &mut dyn FnMut()| (0..reps).map(|_| once_s(&mut *f)).fold(f64::MAX, f64::min) * 1e3;
        let points = linear_regression::generate_points(500_000, 2.0, 1.0, 0.5, seed);
        let mut n = 0.0;
        let ms = best_ms(&mut || n = linear_regression::with_fine_grain(fine, &points).n);
        self.check(
            n == points.len() as f64,
            "linear regression folded every point",
        );
        self.row("workloads.linreg_ms", ms);
        self.row(
            "workloads.linreg_computed_gbps",
            std::mem::size_of_val(&points[..]) as f64 / (ms * 1e-3) / 1e9,
        );
        drop(points);
        let image = histogram::generate_image(1_000_000, seed);
        let mut parallel = None;
        let ms = best_ms(&mut || parallel = Some(histogram::with_fine_grain(fine, &image)));
        self.check(
            parallel == Some(histogram::sequential(&image)),
            "the histogram equals the sequential one",
        );
        self.row("workloads.histogram_ms", ms);
        drop(image);
        let (cloud, centroids) = kmeans::generate_points(100_000, 8, seed);
        let ms = best_ms(&mut || {
            black_box(kmeans::with_fine_grain(fine, &cloud, centroids.clone(), 3));
        });
        self.row("workloads.kmeans_ms", ms);
    }

    /// `serve`: the request path at the benchmark's fixed rate, closed, inline, and up
    /// a four-rate ladder.  Runs on its own executor, after the roster is gone.
    fn serve_rows(&mut self) {
        let warmup = spec::workload("serve")
            .expect("serve is a workload")
            .warmup_ops;
        host::release_master();
        let mut serve = Serve::setup(self.ctx, warmup);
        serve.time_submits = true;
        serve.reserve(6.0 * self.scale.max(0.2));
        let mut rec = Recorder::disabled();
        let scale = self.scale;
        let ns = |ms: f64| ((ms * scale).max(5.0) * 1e6) as u64;
        let before = serve.server.stats();

        serve.open_part(SERVE_OPEN_RPS, ns(1500.0), &mut rec);
        serve.closed_part(ns(1000.0), &mut rec);
        serve.inline_part(ns(300.0), &mut rec);
        let open = std::mem::take(&mut serve.totals.open);
        let inline_p50 = quantile_u32(&mut serve.totals.inline_svc_ns.clone(), 0.5) / 1e3;
        let us = |samples: &[u32], q: f64| quantile_u32(&mut samples.to_vec(), q) / 1e3;
        let pooled = open.pooled();
        self.row("serve.submit_ns", us(&serve.totals.submit_ns, 0.5) * 1e3);
        self.row("serve.overhead_p50_us", us(&pooled, 0.5) - inline_p50);
        self.row("serve.p99_us_at_rate", us(&pooled, 0.99));
        self.row("serve.for_p50_us", us(&open.for_ns, 0.5));
        self.row("serve.sum_p50_us", us(&open.sum_ns, 0.5));
        self.row("serve.generator_lag_p99_us", us(&open.lag_ns, 0.99));
        self.row(
            "serve.closed_loops_per_s",
            serve.totals.closed_done as f64 / (serve.totals.closed_ns as f64 * 1e-9),
        );
        self.note("serve.backlog_at_end", open.backlog_at_end);

        // The ladder: the highest of four fixed rates whose p90 meets the limit with
        // no backlog left standing (more than 5 ms of arrivals) when the time is up.
        let mut max_rate = 0.0;
        for factor in [0.5, 1.0, 1.5, 2.0] {
            let rate = SERVE_OPEN_RPS * factor;
            serve.totals.open = OpenSamples::default();
            serve.open_part(rate, ns(500.0), &mut rec);
            let open = &serve.totals.open;
            let p90 = us(&open.pooled(), 0.9);
            let standing = open.backlog_at_end as f64 > rate * 5e-3;
            self.note(
                &format!("serve.ladder_{rate:.0}rps_p90_us"),
                format!("{p90:.1}"),
            );
            if p90 <= SERVE_SLO_P90_US && !standing {
                max_rate = rate;
            }
        }
        self.row("serve.max_rate_in_slo_rps", max_rate);

        let after = serve.server.stats();
        let d = after.since(&before);
        self.row(
            "serve.fused_frac",
            d.fused as f64 / d.completed.max(1) as f64,
        );
        self.row(
            "serve.batch_mean",
            d.completed as f64 / d.batches.max(1) as f64,
        );
        self.row("serve.attempted", serve.totals.attempted as f64);
        self.row("serve.gangs", after.gangs as f64);
        self.row("serve.gang_size", after.gang_size as f64);
        self.note("serve.rejected", d.rejected);
        self.attempted += serve.totals.attempted;
        self.failed += serve.totals.failed + d.rejected;
        self.check(
            host::thread_count() == self.ctx.threads,
            "the server holds exactly P threads",
        );
    }
}
