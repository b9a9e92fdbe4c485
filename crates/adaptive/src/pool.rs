//! The adaptive pool: per-site calibration, burden fitting, and routing.

use crate::{Backend, LoopSite, ProbeTimer, WallClock};
use parlo_affinity::PlacementConfig;
use parlo_analysis::{fit_burden, BurdenFit, BurdenMeasurement};
use parlo_cilk::{default_grain, CilkPool};
use parlo_core::{FineGrainPool, LoopRuntime, Sequential, SyncStats};
use parlo_exec::Executor;
use parlo_omp::{Schedule, ScheduledTeam};
use parlo_steal::StealPool;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an [`AdaptivePool`].
#[derive(Clone)]
pub struct AdaptiveConfig {
    /// Threads per backend (master included).
    pub threads: usize,
    /// Routed executions of a site before it is re-calibrated (phase-change
    /// detection).
    pub reprobe_interval: u64,
    /// Probe timing hook (wall clock by default; tests inject a cost model).
    pub timer: Arc<dyn ProbeTimer>,
    /// Worker placement shared by every backend (topology source, pin policy).
    pub placement: PlacementConfig,
    /// The worker substrate the backends lease their threads from.  `None` creates a
    /// private one — the backends still share it with *each other*, so an adaptive
    /// pool holds at most `threads − 1` worker threads, not four times that.  Pass the
    /// roster's executor to share with an entire evaluation.
    pub executor: Option<Arc<Executor>>,
}

impl AdaptiveConfig {
    /// A configuration with `threads` threads and defaults for everything else.
    pub fn with_threads(threads: usize) -> Self {
        AdaptiveConfig {
            threads: threads.max(1),
            reprobe_interval: 512,
            timer: Arc::new(WallClock),
            placement: PlacementConfig::default(),
            executor: None,
        }
    }
}

/// The gang size the burden model recommends for a loop with sequential time
/// `t_secs` and per-loop scheduling burden `burden_secs`, capped at `max` workers.
///
/// Under the paper's model a gang of `g` workers executes the loop in
/// `d + T/g` seconds.  Growing the gang past `g* = sqrt(T/d)` is wasteful for a
/// *shared* substrate: at `g*` the burden term `d` matched against the per-worker
/// work share `T/g` balance (both equal `sqrt(T*d)` when scaled by `g`), and every
/// additional worker removes less work than it could contribute to another
/// tenant's loop.  Hence the hint is `ceil(sqrt(T/d))` clamped to `[1, max]`,
/// with the degenerate cases resolved conservatively: a non-positive burden means
/// synchronization is free (take everything, `max`), a non-positive `T` means the
/// loop is trivial (take the minimum, 1).
pub fn gang_size_hint(t_secs: f64, burden_secs: f64, max: usize) -> usize {
    let max = max.max(1);
    if t_secs <= 0.0 {
        return 1;
    }
    if burden_secs <= 0.0 {
        return max;
    }
    let g = (t_secs / burden_secs).sqrt().ceil();
    if !g.is_finite() {
        return max;
    }
    (g as usize).clamp(1, max)
}

/// The routing decision calibrated for one loop site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The backend the site is routed to.
    pub backend: Backend,
    /// The granularity-derived chunk/grain size at decision time (dynamic backends
    /// recompute it from the actual iteration count of each routed call).
    pub chunk: usize,
    /// The predicted per-execution time `d + T/P` of the chosen backend, in seconds,
    /// at `calibrated_n` iterations.
    pub predicted_secs: f64,
    /// The fitted per-loop burden `d` of the chosen backend, in seconds (zero for
    /// sequential execution).  Fixed per loop: predictions for other iteration counts
    /// scale only the `T/P` work term.
    pub burden_secs: f64,
    /// The iteration count the prediction was made for.
    pub calibrated_n: usize,
}

parlo_core::stats_family! {
    /// Counters describing the adaptive runtime's own activity (probing vs routing).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct AdaptiveStats: "adaptive" {
        /// Distinct loop sites seen.
        pub sites: u64,
        /// Sequential calibration runs performed.
        pub seq_probes: u64,
        /// Parallel backend probes performed.
        pub probes: u64,
        /// Loop executions routed by a fitted decision.
        pub routed_loops: u64,
        /// Re-calibrations triggered by the re-probe interval.
        pub reprobes: u64,
    }
}

/// Calibration progress of one site.
#[derive(Debug, Clone, Copy)]
enum SitePhase {
    /// Next execution runs sequentially to (re-)estimate the site's `T`.
    SeqProbe,
    /// Next execution probes `Backend::DEFAULT[backend_idx]`, once per round.
    Probing { backend_idx: usize },
    /// Calibration complete; executions are routed by the decision.
    Routed,
}

#[derive(Debug, Default)]
struct BackendRecord {
    /// This calibration round's probe of the backend.
    probe: Option<BurdenMeasurement>,
    fit: Option<BurdenFit>,
}

struct SiteState {
    /// Latest measured sequential time of the site, in seconds...
    seq_secs: f64,
    /// ...for a loop of this many iterations.  Probes and predictions for other
    /// iteration counts scale linearly (see [`SiteState::t_seq_for`]).
    seq_n: usize,
    phase: SitePhase,
    records: Vec<BackendRecord>,
    decision: Option<Decision>,
    routed_since_probe: u64,
    /// Consecutive routed executions observed far slower than predicted (drift).
    drift_strikes: u32,
}

impl SiteState {
    fn new() -> Self {
        SiteState {
            seq_secs: 0.0,
            seq_n: 0,
            phase: SitePhase::SeqProbe,
            records: (0..Backend::DEFAULT.len())
                .map(|_| BackendRecord::default())
                .collect(),
            decision: None,
            routed_since_probe: 0,
            drift_strikes: 0,
        }
    }

    /// The sequential-time estimate scaled to an `n`-iteration execution of the site
    /// (the calibration probe may have seen a different iteration count).
    fn t_seq_for(&self, n: usize) -> f64 {
        if self.seq_n == 0 {
            return self.seq_secs;
        }
        self.seq_secs * n as f64 / self.seq_n as f64
    }

    /// Re-enters calibration from scratch: the next execution is a sequential probe
    /// and the previous round's measurements are forgotten, so a changed workload is
    /// never averaged against stale probes.  The previous decision and fits are kept
    /// (stale but inspectable) until the new round completes.
    fn start_recalibration(&mut self) {
        self.routed_since_probe = 0;
        self.drift_strikes = 0;
        self.phase = SitePhase::SeqProbe;
        for record in &mut self.records {
            record.probe = None;
        }
    }
}

/// What the current execution of a site is for.
#[derive(Debug, Clone, Copy)]
enum Action {
    Probe(Backend),
    Routed(Backend),
}

impl Action {
    fn backend(&self) -> Backend {
        match *self {
            Action::Probe(b) | Action::Routed(b) => b,
        }
    }
}

/// Stable numeric code of a backend on the trace timeline: its declaration order.
fn backend_trace_code(b: Backend) -> u64 {
    b as u64
}

/// The online scheduler-selection runtime (see the crate docs for the algorithm).
///
/// Owns one instance of every backend family — the fine-grain half-barrier pool, the
/// OpenMP-like team and the Cilk-like work-stealing pool — and routes each
/// [`LoopSite`] to the backend the fitted burden model predicts fastest.  Every
/// execution, probe or routed, runs the loop exactly once, so adaptation never changes
/// results.
pub struct AdaptivePool {
    seq: Sequential,
    fine: FineGrainPool,
    /// The OpenMP-like team; `runtime` sets its schedule before each loop it routes
    /// there.
    team: ScheduledTeam,
    cilk: CilkPool,
    steal: StealPool,
    /// The substrate all four backends lease their workers from: the pool holds at
    /// most `threads − 1` live worker threads no matter how many backends it owns.
    executor: Arc<Executor>,
    reprobe_interval: u64,
    timer: Arc<dyn ProbeTimer>,
    threads: usize,
    sites: HashMap<LoopSite, SiteState>,
    stats: AdaptiveStats,
    /// Loops/reductions executed inline on the master (sequential probes and
    /// Sequential-routed calls), counted so `sync_stats` covers every execution.
    seq_loops: u64,
    seq_reductions: u64,
}

/// A routed execution counts as drifted when it runs this many times slower than its
/// (iteration-scaled) prediction.
const DRIFT_FACTOR: f64 = 4.0;

/// Consecutive drifted executions before an early re-calibration fires.
const DRIFT_STRIKES: u32 = 3;

/// Drift is only scored when the routed call's iteration count is within this factor
/// of the calibrated one (in either direction).  The prediction scales the work term
/// *linearly* in `n`, which is only trustworthy near the calibration point — cache
/// footprints and per-iteration costs shift across orders of magnitude, so a wildly
/// different `n` would rack up `drift_strikes` from prediction-scaling error alone
/// and trigger spurious re-calibration of a site whose workload never changed.
const DRIFT_N_WINDOW: f64 = 8.0;

impl AdaptivePool {
    /// Creates an adaptive pool with `threads` threads per backend and defaults for
    /// everything else.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(AdaptiveConfig::with_threads(threads))
    }

    /// Creates an adaptive pool from an explicit configuration.
    pub fn new(config: AdaptiveConfig) -> Self {
        let threads = config.threads.max(1);
        let placement = config.placement;
        let executor = config
            .executor
            .clone()
            .unwrap_or_else(|| Executor::for_placement(&placement));
        AdaptivePool {
            seq: Sequential,
            fine: FineGrainPool::with_placement_on(threads, &placement, &executor),
            team: ScheduledTeam::with_placement_on(
                threads,
                Schedule::Static,
                &placement,
                &executor,
            ),
            cilk: CilkPool::with_placement_on(threads, &placement, &executor),
            steal: StealPool::with_placement_on(threads, &placement, &executor),
            executor,
            reprobe_interval: config.reprobe_interval.max(1),
            timer: config.timer,
            threads,
            sites: HashMap::new(),
            stats: AdaptiveStats::default(),
            seq_loops: 0,
            seq_reductions: 0,
        }
    }

    /// Number of threads each backend uses (master included).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The worker substrate shared by all four backends (and by whatever else the
    /// caller built on the same executor).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The candidate parallel backends probed for every site, in probe order.
    pub fn backends(&self) -> &[Backend] {
        &Backend::DEFAULT
    }

    /// The most recent routing decision for `site`, if calibration has completed at
    /// least once.  During a re-calibration round this is the *previous* round's
    /// decision (kept for observability) until the new fits replace it.
    pub fn decision(&self, site: LoopSite) -> Option<Decision> {
        self.sites.get(&site).and_then(|s| s.decision)
    }

    /// The most recently fitted burden of `backend` at `site`, if it has ever been
    /// probed and fitted (during a re-calibration round this is the previous round's
    /// fit).
    pub fn fitted_burden(&self, site: LoopSite, backend: Backend) -> Option<BurdenFit> {
        let state = self.sites.get(&site)?;
        let idx = Backend::DEFAULT.iter().position(|&b| b == backend)?;
        state.records[idx].fit
    }

    /// The latest measured sequential time of `site` (seconds), as measured by the
    /// most recent sequential probe (see the probe's iteration count in the second
    /// tuple element; predictions scale linearly in the iteration count).
    pub fn t_seq_estimate(&self, site: LoopSite) -> Option<(f64, usize)> {
        self.sites
            .get(&site)
            .filter(|s| s.seq_n > 0)
            .map(|s| (s.seq_secs, s.seq_n))
    }

    /// The gang size the burden model recommends for `site` when its loops are
    /// served from a shared substrate (see `parlo-serve`), or `None` before the
    /// site's first calibration completes.
    ///
    /// Uses the site's latest sequential-time estimate `T` and the winning
    /// backend's fitted burden `d` through [`gang_size_hint`]; `max` caps the hint
    /// at the workers a tenant may actually lease.
    pub fn gang_hint(&self, site: LoopSite, max: usize) -> Option<usize> {
        let (t_secs, _) = self.t_seq_estimate(site)?;
        let d = self.decision(site)?.burden_secs;
        Some(gang_size_hint(t_secs, d, max))
    }

    /// A snapshot of the adaptive runtime's own counters.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            sites: self.sites.len() as u64,
            ..self.stats
        }
    }

    /// Statically scheduled parallel loop at an explicit [`LoopSite`].
    pub fn parallel_for_at<F>(&mut self, site: LoopSite, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.routed(site, range.len(), false, |rt| rt.parallel_for(range, &body));
    }

    /// Parallel reduction at an explicit [`LoopSite`].  `init` must be the neutral
    /// element of `combine` (same contract as [`LoopRuntime::parallel_reduce`]).
    pub fn parallel_reduce_at<Fold, Comb>(
        &mut self,
        site: LoopSite,
        range: Range<usize>,
        init: f64,
        fold: Fold,
        combine: Comb,
    ) -> f64
    where
        Fold: Fn(f64, usize) -> f64 + Sync,
        Comb: Fn(f64, f64) -> f64 + Sync,
    {
        self.routed(site, range.len(), true, |rt| {
            rt.parallel_reduce(range, init, &fold, &combine)
        })
        .unwrap_or(init)
    }

    /// Parallel sum of `f(i)` over `range` at an explicit [`LoopSite`].
    pub fn parallel_sum_at<F>(&mut self, site: LoopSite, range: Range<usize>, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.parallel_reduce_at(site, range, 0.0, |acc, i| acc + f(i), |a, b| a + b)
    }

    /// Runs one loop of `n` iterations at `site` on the backend the site's phase
    /// machine picks, timing it for calibration, and returns `run`'s result (`None`
    /// for an empty loop, which runs nothing and counts nothing).  Every entry point,
    /// per-index or block, goes through this one decision.
    fn routed<R>(
        &mut self,
        site: LoopSite,
        n: usize,
        reduction: bool,
        run: impl FnOnce(&mut dyn LoopRuntime) -> R,
    ) -> Option<R> {
        if n == 0 {
            return None;
        }
        let action = self.next_action(site);
        let t0 = Instant::now();
        let result = run(self.runtime(action.backend(), n, reduction));
        let wall = t0.elapsed().as_secs_f64();
        self.after_run(site, action, n, wall);
        Some(result)
    }

    /// The runtime of `backend`, set up for a loop of `n` iterations.  The pools'
    /// `LoopRuntime` entry points carry the `&dyn` body and operators by value in the
    /// loop's job, with no reference into this frame between.
    fn runtime(&mut self, backend: Backend, n: usize, reduction: bool) -> &mut dyn LoopRuntime {
        match backend {
            Backend::Sequential => {
                self.seq_loops += 1;
                self.seq_reductions += u64::from(reduction);
                &mut self.seq
            }
            Backend::FineGrain => &mut self.fine,
            Backend::OmpStatic => {
                self.team.schedule = Schedule::Static;
                &mut self.team
            }
            // Dynamic chunks are the grain the stealing backends split by.
            Backend::OmpDynamic => {
                self.team.schedule = Schedule::Dynamic(default_grain(n, self.threads));
                &mut self.team
            }
            Backend::Steal => &mut self.steal,
            Backend::CilkSteal => &mut self.cilk,
        }
    }

    /// Decides what the next execution of `site` is for (creating the site on first
    /// contact).
    fn next_action(&mut self, site: LoopSite) -> Action {
        let state = self.sites.entry(site).or_insert_with(SiteState::new);
        match state.phase {
            SitePhase::SeqProbe => Action::Probe(Backend::Sequential),
            SitePhase::Probing { backend_idx } => Action::Probe(Backend::DEFAULT[backend_idx]),
            SitePhase::Routed => Action::Routed(
                state
                    .decision
                    .expect("routed phase implies a decision")
                    .backend,
            ),
        }
    }

    /// Records the outcome of an execution and advances the site's phase machine.
    fn after_run(&mut self, site: LoopSite, action: Action, n: usize, wall: f64) {
        match action {
            Action::Routed(backend) => {
                self.stats.routed_loops += 1;
                parlo_trace::instant(
                    parlo_trace::Phase::Route,
                    site.0,
                    backend_trace_code(backend),
                );
                let observed = self.timer.observe(backend, site, n, wall).max(1e-12);
                let reprobe_interval = self.reprobe_interval;
                let threads = self.threads.max(1);
                let state = self.sites.get_mut(&site).expect("site exists");
                state.routed_since_probe += 1;
                // Drift detection: a routed execution far slower than its prediction
                // means the calibration no longer describes the site — e.g. the
                // per-iteration work grew, or an anonymous granularity bucket now
                // carries a heavier loop.  The prediction is re-evaluated at this
                // call's iteration count with the burden term held fixed (only the
                // work term scales — a shorter range must not shrink `d`).  Three
                // consecutive strikes trigger an early re-calibration; only the slow
                // side counts, so warm-vs-cold timing bias cannot trigger it.  Calls
                // whose `n` is outside the trust window of the linear scaling leave
                // the strike counter untouched in both directions (see
                // `DRIFT_N_WINDOW`): they can neither accuse the site of drifting
                // nor acquit it.
                let comparable = state.seq_n > 0 && {
                    let ratio = n as f64 / state.seq_n as f64;
                    (DRIFT_N_WINDOW.recip()..=DRIFT_N_WINDOW).contains(&ratio)
                };
                if comparable {
                    let p = threads as f64;
                    let predicted = state
                        .decision
                        .map(|d| {
                            let t_n = state.t_seq_for(n);
                            match d.backend {
                                Backend::Sequential => t_n,
                                _ => d.burden_secs + t_n / p,
                            }
                        })
                        .unwrap_or(observed);
                    if observed > predicted * DRIFT_FACTOR {
                        state.drift_strikes += 1;
                    } else {
                        state.drift_strikes = 0;
                    }
                }
                if state.routed_since_probe >= reprobe_interval
                    || state.drift_strikes >= DRIFT_STRIKES
                {
                    state.start_recalibration();
                    self.stats.reprobes += 1;
                    parlo_trace::instant(parlo_trace::Phase::Reprobe, site.0, 0);
                }
            }
            Action::Probe(Backend::Sequential) => {
                let secs = self
                    .timer
                    .observe(Backend::Sequential, site, n, wall)
                    .max(1e-12);
                self.stats.seq_probes += 1;
                parlo_trace::instant(
                    parlo_trace::Phase::Probe,
                    site.0,
                    backend_trace_code(Backend::Sequential),
                );
                let state = self.sites.get_mut(&site).expect("site exists");
                state.seq_secs = secs;
                state.seq_n = n;
                state.phase = SitePhase::Probing { backend_idx: 0 };
            }
            Action::Probe(backend) => {
                let secs = self.timer.observe(backend, site, n, wall).max(1e-12);
                self.stats.probes += 1;
                parlo_trace::instant(
                    parlo_trace::Phase::Probe,
                    site.0,
                    backend_trace_code(backend),
                );
                let threads = self.threads;
                let state = self.sites.get_mut(&site).expect("site exists");
                let SitePhase::Probing { backend_idx } = state.phase else {
                    unreachable!("probe action only issued in the probing phase")
                };
                // Scale the sequential estimate to this probe's iteration count: a
                // site may legally see different range lengths per call, and pairing
                // mismatched (T, t_par) would fit meaningless burdens.
                let t_seq = state.t_seq_for(n).max(1e-12);
                state.records[backend_idx].probe = Some(BurdenMeasurement {
                    t_seq,
                    speedup: t_seq / secs,
                });
                if backend_idx + 1 < Backend::DEFAULT.len() {
                    state.phase = SitePhase::Probing {
                        backend_idx: backend_idx + 1,
                    };
                } else {
                    Self::decide(state, threads, n);
                    state.phase = SitePhase::Routed;
                }
            }
        }
    }

    /// Fits every backend's burden from the site's measurements and picks the backend
    /// minimising the predicted execution time `d + T/P` at this calibration's
    /// iteration count (sequential execution, with predicted time `T`, is the
    /// implicit baseline candidate).
    fn decide(state: &mut SiteState, threads: usize, n: usize) {
        let p = threads.max(1) as f64;
        let t_seq = state.t_seq_for(n);
        let mut best = Decision {
            backend: Backend::Sequential,
            chunk: 1,
            predicted_secs: t_seq,
            burden_secs: 0.0,
            calibrated_n: n,
        };
        for (idx, &backend) in Backend::DEFAULT.iter().enumerate() {
            let record = &mut state.records[idx];
            record.fit = fit_burden(record.probe.as_slice(), threads);
            if let Some(fit) = record.fit {
                let predicted = fit.burden + t_seq / p;
                if predicted < best.predicted_secs {
                    best = Decision {
                        backend,
                        chunk: default_grain(n, threads),
                        predicted_secs: predicted,
                        burden_secs: fit.burden,
                        calibrated_n: n,
                    };
                }
            }
        }
        state.decision = Some(best);
    }
}

impl LoopRuntime for AdaptivePool {
    fn name(&self) -> String {
        "adaptive".into()
    }

    fn threads(&self) -> usize {
        self.num_threads()
    }

    /// Anonymous loops are bucketed into granularity-keyed sites (kind + power of two
    /// of the iteration count); use [`AdaptivePool::parallel_for_at`] for precise
    /// per-call-site calibration.
    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        let n = range.len();
        self.routed(LoopSite::from_shape(0, n), n, false, |rt| {
            rt.parallel_for(range, body)
        });
    }

    /// Routed through the same site as the per-index loop of the same shape.
    fn parallel_for_blocks(&mut self, range: Range<usize>, body: &(dyn Fn(Range<usize>) + Sync)) {
        let n = range.len();
        self.routed(LoopSite::from_shape(0, n), n, false, |rt| {
            rt.parallel_for_blocks(range, body)
        });
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let n = range.len();
        self.routed(LoopSite::from_shape(1, n), n, true, |rt| {
            rt.parallel_reduce(range, init, fold, combine)
        })
        .unwrap_or(init)
    }

    /// Routed through the same site as the per-index reduction of the same shape.
    fn parallel_reduce_blocks(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, Range<usize>) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let n = range.len();
        self.routed(LoopSite::from_shape(1, n), n, true, |rt| {
            rt.parallel_reduce_blocks(range, init, fold, combine)
        })
        .unwrap_or(init)
    }

    fn sync_stats(&self) -> SyncStats {
        let sequential = SyncStats {
            loops: self.seq_loops,
            reductions: self.seq_reductions,
            ..SyncStats::default()
        };
        self.fine
            .sync_stats()
            .merged(&self.team.sync_stats())
            .merged(&self.cilk.sync_stats())
            .merged(&self.steal.sync_stats())
            .merged(&sequential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn gang_size_hint_follows_the_burden_model() {
        // g* = ceil(sqrt(T/d)): T = 100us, d = 1us -> sqrt(100) = 10.
        assert_eq!(gang_size_hint(100e-6, 1e-6, 16), 10);
        // Clamped by the available workers.
        assert_eq!(gang_size_hint(100e-6, 1e-6, 4), 4);
        // Non-square ratios round up: sqrt(50) ~ 7.07 -> 8.
        assert_eq!(gang_size_hint(50e-6, 1e-6, 16), 8);
        // A loop barely worth parallelising still gets at least one worker.
        assert_eq!(gang_size_hint(1e-9, 1e-6, 16), 1);
    }

    #[test]
    fn gang_size_hint_degenerate_inputs() {
        // Trivial loop: minimum gang.
        assert_eq!(gang_size_hint(0.0, 1e-6, 8), 1);
        assert_eq!(gang_size_hint(-1.0, 1e-6, 8), 1);
        // Free synchronization: take everything available.
        assert_eq!(gang_size_hint(1e-3, 0.0, 8), 8);
        assert_eq!(gang_size_hint(1e-3, -1e-9, 8), 8);
        // A zero cap still means one worker.
        assert_eq!(gang_size_hint(1e-3, 1e-6, 0), 1);
    }

    /// A deterministic cost model: per-backend burden plus perfectly parallel work,
    /// with `work_per_iter` seconds per iteration.
    struct FixedBurdens {
        work_per_iter: f64,
        threads: usize,
    }

    impl ProbeTimer for FixedBurdens {
        fn observe(&self, backend: Backend, _: LoopSite, n: usize, _: f64) -> f64 {
            let t = self.work_per_iter * n as f64;
            let p = self.threads as f64;
            match backend {
                Backend::Sequential => t,
                Backend::FineGrain => 5.67e-6 + t / p,
                Backend::OmpStatic => 8.12e-6 + t / p,
                Backend::OmpDynamic => 31.94e-6 + t / p,
                Backend::Steal => 12.94e-6 + t / p,
                Backend::CilkSteal => 68.80e-6 + t / p,
            }
        }
    }

    fn sim_pool(threads: usize, work_per_iter: f64) -> AdaptivePool {
        let mut config = AdaptiveConfig::with_threads(threads);
        config.timer = Arc::new(FixedBurdens {
            work_per_iter,
            threads,
        });
        AdaptivePool::new(config)
    }

    #[test]
    fn every_phase_executes_the_loop_exactly_once() {
        let mut pool = AdaptivePool::with_threads(3);
        let site = LoopSite::new(7);
        // 1 sequential probe + 5 backend probes + several routed runs.
        for round in 0..10 {
            let hits: Vec<AtomicUsize> = (0..277).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for_at(site, 0..277, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "round {round}"
            );
        }
        let stats = pool.adaptive_stats();
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.seq_probes, 1);
        assert_eq!(stats.probes, 5, "one probe per default backend");
        assert_eq!(stats.routed_loops, 4);
        assert!(pool.decision(site).is_some());
    }

    #[test]
    fn reductions_stay_correct_through_calibration_and_routing() {
        let mut pool = AdaptivePool::with_threads(4);
        let site = LoopSite::new(9);
        let expected: f64 = (0..1000).map(|i| i as f64).sum();
        for _ in 0..8 {
            let got = pool.parallel_sum_at(site, 0..1000, |i| i as f64);
            assert!((got - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn micro_loops_route_to_the_fine_grain_backend() {
        let mut pool = sim_pool(4, 1e-6);
        let site = LoopSite::new(1);
        for _ in 0..6 {
            pool.parallel_for_at(site, 0..64, |_| {});
        }
        let d = pool.decision(site).expect("calibrated");
        assert_eq!(d.backend, Backend::FineGrain);
        // The fitted burden matches the cost model's fine-grain burden.
        let fit = pool.fitted_burden(site, Backend::FineGrain).expect("fit");
        assert!((fit.burden - 5.67e-6).abs() / 5.67e-6 < 0.05, "{fit:?}");
    }

    #[test]
    fn tiny_loops_route_to_sequential_execution() {
        // 4 iterations of 0.1 µs: T = 0.4 µs, smaller than every backend burden.
        let mut pool = sim_pool(4, 1e-7);
        let site = LoopSite::new(2);
        for _ in 0..6 {
            pool.parallel_for_at(site, 0..4, |_| {});
        }
        let d = pool.decision(site).expect("calibrated");
        assert_eq!(d.backend, Backend::Sequential);
    }

    #[test]
    fn reprobe_interval_triggers_recalibration() {
        let mut config = AdaptiveConfig::with_threads(2);
        config.reprobe_interval = 3;
        let mut pool = AdaptivePool::new(config);
        let site = LoopSite::new(3);
        // 6 calibration runs + 3 routed runs -> reprobe -> more calibration runs.
        for _ in 0..16 {
            pool.parallel_for_at(site, 0..128, |_| {});
        }
        let stats = pool.adaptive_stats();
        assert!(stats.reprobes >= 1, "{stats:?}");
        assert!(stats.seq_probes >= 2, "{stats:?}");
        assert!(pool.decision(site).is_some());
    }

    #[test]
    fn drift_triggers_early_recalibration() {
        use parlo_sync::AtomicU64;
        /// Cost model whose per-iteration work can be changed mid-run (femtoseconds,
        /// so the atomic holds an integer).
        struct ScaledModel {
            per_iter_fs: AtomicU64,
            threads: usize,
        }
        impl ProbeTimer for ScaledModel {
            fn observe(&self, backend: Backend, _: LoopSite, n: usize, _: f64) -> f64 {
                let t = self.per_iter_fs.load(Ordering::Relaxed) as f64 * 1e-15 * n as f64;
                let p = self.threads as f64;
                match backend {
                    Backend::Sequential => t,
                    Backend::FineGrain => 5.67e-6 + t / p,
                    Backend::OmpStatic => 8.12e-6 + t / p,
                    Backend::OmpDynamic => 31.94e-6 + t / p,
                    Backend::Steal => 12.94e-6 + t / p,
                    Backend::CilkSteal => 68.80e-6 + t / p,
                }
            }
        }

        let model = std::sync::Arc::new(ScaledModel {
            per_iter_fs: AtomicU64::new(100_000_000), // 0.1 us/iter: tiny loop
            threads: 4,
        });
        let mut config = AdaptiveConfig::with_threads(4);
        config.timer = model.clone();
        config.reprobe_interval = u64::MAX; // only drift can trigger re-calibration
        let mut pool = AdaptivePool::new(config);
        let site = LoopSite::new(11);
        for _ in 0..6 {
            pool.parallel_for_at(site, 0..64, |_| {});
        }
        assert_eq!(
            pool.decision(site).unwrap().backend,
            Backend::Sequential,
            "a 6.4 us loop is below every backend burden"
        );

        // The loop body becomes 100x heavier: routed executions now run far slower
        // than predicted, which must trigger re-calibration without waiting for the
        // (disabled) interval.
        model.per_iter_fs.store(10_000_000_000, Ordering::Relaxed); // 10 us/iter
        for _ in 0..9 {
            pool.parallel_for_at(site, 0..64, |_| {});
        }
        assert!(pool.adaptive_stats().reprobes >= 1);
        assert_eq!(
            pool.decision(site).unwrap().backend,
            Backend::FineGrain,
            "a 640 us loop routes to the lowest-burden parallel backend"
        );
    }

    #[test]
    fn anonymous_loops_work_behind_dyn_loop_runtime() {
        let mut pool = AdaptivePool::with_threads(2);
        let rt: &mut dyn LoopRuntime = &mut pool;
        assert_eq!(rt.name(), "adaptive");
        assert_eq!(rt.threads(), 2);
        for _ in 0..3 {
            let hits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
            rt.parallel_for(0..300, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        let sum = rt.parallel_sum(0..500, &|i| i as f64);
        assert!((sum - (499.0 * 500.0 / 2.0)).abs() < 1e-9);
        assert!(rt.sync_stats().loops >= 1);
    }

    #[test]
    fn empty_ranges_are_noops() {
        let mut pool = AdaptivePool::with_threads(2);
        let site = LoopSite::new(4);
        pool.parallel_for_at(site, 10..10, |_| panic!("must not run"));
        let got = pool.parallel_reduce_at(site, 5..5, 1.5, |_, _| panic!(), |a, _| a);
        assert_eq!(got, 1.5);
        assert_eq!(pool.adaptive_stats().sites, 0, "no site state created");
    }

    #[test]
    fn all_backends_share_one_worker_substrate() {
        let threads = 4;
        let mut pool = AdaptivePool::with_threads(threads);
        let site = LoopSite::new(21);
        // Drive the full calibration round so every parallel backend runs at least
        // one loop (sequential probe + one probe per backend + routed calls).
        for _ in 0..8 {
            pool.parallel_for_at(site, 0..256, |_| {});
        }
        let stats = pool.executor().stats();
        assert!(
            stats.workers < threads,
            "4 live backends must hold at most P-1 worker threads, got {stats:?}"
        );
        assert_eq!(stats.leases, 4, "one lease per backend");
        assert!(
            stats.switches >= 4,
            "probing rotates the lease through the backends: {stats:?}"
        );
    }

    #[test]
    fn drift_is_not_scored_on_wildly_different_iteration_counts() {
        use parlo_sync::AtomicU64;
        /// A model whose per-iteration cost is 10x higher beyond 1k iterations —
        /// linear scaling from a small-n calibration under-predicts large-n calls by
        /// far more than DRIFT_FACTOR, but the workload itself never changes.
        struct NonLinearModel {
            threads: usize,
            observes: AtomicU64,
        }
        impl ProbeTimer for NonLinearModel {
            fn observe(&self, backend: Backend, _: LoopSite, n: usize, _: f64) -> f64 {
                self.observes.fetch_add(1, Ordering::Relaxed);
                let per_iter = if n > 1000 { 1e-5 } else { 1e-6 };
                let t = per_iter * n as f64;
                let p = self.threads as f64;
                match backend {
                    Backend::Sequential => t,
                    Backend::FineGrain => 5.67e-6 + t / p,
                    Backend::OmpStatic => 8.12e-6 + t / p,
                    Backend::OmpDynamic => 31.94e-6 + t / p,
                    Backend::Steal => 12.94e-6 + t / p,
                    Backend::CilkSteal => 68.80e-6 + t / p,
                }
            }
        }

        let mut config = AdaptiveConfig::with_threads(4);
        config.timer = Arc::new(NonLinearModel {
            threads: 4,
            observes: AtomicU64::new(0),
        });
        config.reprobe_interval = u64::MAX; // only drift could trigger re-calibration
        let mut pool = AdaptivePool::new(config);
        let site = LoopSite::new(13);
        // Calibrate at n = 64, then alternate routed calls at a 1000x larger n with
        // calls at the calibrated n.  The large-n calls run 10x slower per iteration
        // than the linear prediction, but must not strike: their n is far outside
        // the trust window of the linear scaling.
        for _ in 0..6 {
            pool.parallel_for_at(site, 0..64, |_| {});
        }
        assert!(pool.decision(site).is_some(), "calibrated");
        for _ in 0..12 {
            pool.parallel_for_at(site, 0..64_000, |_| {});
            pool.parallel_for_at(site, 0..64, |_| {});
        }
        assert_eq!(
            pool.adaptive_stats().reprobes,
            0,
            "benign n changes must not trigger spurious re-calibration"
        );
    }

    #[test]
    fn config_sanitises_degenerate_values() {
        let mut config = AdaptiveConfig::with_threads(0);
        config.reprobe_interval = 0;
        let pool = AdaptivePool::new(config);
        assert_eq!(pool.num_threads(), 1);
        assert_eq!(pool.reprobe_interval, 1);
    }
}
