//! The persistent work-stealing chunk pool.
//!
//! A [`StealPool`] owns `P − 1` workers bound to one master, like the fine-grain pool,
//! but distributes each loop through per-worker **chunk deques** instead of pure static
//! blocks:
//!
//! 1. the master publishes the loop descriptor and performs the **release phase** of
//!    the half-barrier — it never waits at the fork point;
//! 2. every participant seeds its own deque with its pre-split chunk run
//!    (its static block subdivided into chunks, pushed back-to-front) and executes it
//!    with owner-LIFO pops, so the run proceeds front to back;
//! 3. a participant whose own run is exhausted performs steal sweeps over the
//!    topology's victim tiers — its own socket first, each tier in a seeded rotation —
//!    taking one piece per hit thief-FIFO from the *back* of another worker's run,
//!    until a full sweep observes only empty deques;
//! 4. every participant then performs the **join phase** of the same half-barrier,
//!    folding reduction views pairwise on the way up — completion detection costs
//!    exactly the 2 barrier phases of the fine-grain pool, so the burden comparison
//!    with the other runtimes stays apples-to-apples.
//!
//! **Lending at the tail.**  A participant that claims a piece — popped or stolen —
//! while its own deque is empty is about to run the last work it can see.  It pushes
//! the upper half back onto its own deque and runs only the lower half; a thief may
//! take the half, the lender's own next pop reclaims it otherwise, and the rule
//! re-applies to whoever runs it, so a loop's tail is halved down to
//! [`LEND_FLOOR`](crate::chunk::LEND_FLOOR) iterations instead of being held whole by
//! one participant while the others idle at the join.  A participant with work still
//! queued, a piece too short to halve and a lone participant run exactly the
//! pre-split schedule.
//!
//! Completion needs no outstanding-iteration counter: pieces exist only in deques; a
//! deque is filled by its owner alone — once with its pre-split run, afterwards only
//! with the upper half of a piece that owner holds and is about to run — and a
//! participant arrives at the join only after its own pop came back empty and a full
//! sweep saw every other deque empty.  Whoever claimed a piece runs it before
//! arriving, and a half lent after a thief's last sweep is popped again by its lender
//! — so when the master's join completes, every index has run (see the argument at
//! the end of `participate`).

use crate::chunk::{assigned_run_rev, grid_chunks, lend_halves, worker_run_rev, ChunkRange};
use crate::deque::WorkStealingDeque;
use crate::perturb::{SchedulePerturbation, SweepPlan, MAX_PERTURB_SPINS};
use crate::sticky::{balanced_owners, StealSite, StickyEntry, StickyLoop, StickyTable};
use crossbeam::utils::CachePadded;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{HalfBarrier, WaitPolicy};
use parlo_cilk::{default_grain, victim_seed, xorshift, Steal};
use parlo_core::PoolStats;
use parlo_exec::{fold_range, walk_range, Executor, Job, ReduceViews, Team};
use parlo_sync::{AtomicU32, AtomicU64, Ordering, SingleWriterCounter};
use std::ops::Range;
use std::sync::Arc;

/// Configuration of a [`StealPool`].
#[derive(Clone)]
pub struct StealConfig {
    /// Number of participants (the master counts as worker 0).
    pub num_threads: usize,
    /// Machine topology (pinning and half-barrier layout).
    pub topology: Topology,
    /// Thread pinning policy.
    pub pin: PinPolicy,
    /// Waiting policy of the half-barrier phases.
    pub wait: WaitPolicy,
    /// Explicit chunk size for every loop; `None` derives one per loop from
    /// [`parlo_cilk::default_grain`].
    pub chunk: Option<usize>,
    /// Schedule-perturbation hook consulted before every steal sweep (`None` uses a
    /// per-worker xorshift victim rotation with no injected delays).
    pub perturb: Option<Arc<dyn SchedulePerturbation>>,
}

impl std::fmt::Debug for StealConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealConfig")
            .field("num_threads", &self.num_threads)
            .field("pin", &self.pin)
            .field("chunk", &self.chunk)
            .field("perturbed", &self.perturb.is_some())
            .finish()
    }
}

impl Default for StealConfig {
    fn default() -> Self {
        let topology = Topology::detect();
        let num_threads = topology.num_cores().max(1);
        StealConfig {
            num_threads,
            pin: PinPolicy::Compact,
            wait: WaitPolicy::auto_for(num_threads),
            chunk: None,
            perturb: None,
            topology,
        }
    }
}

impl StealConfig {
    /// A configuration with `num_threads` participants and defaults for the rest.
    pub fn with_threads(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        StealConfig {
            num_threads,
            wait: WaitPolicy::auto_for(num_threads),
            ..StealConfig::default()
        }
    }

    /// A configuration with `num_threads` participants placed according to a shared
    /// [`parlo_affinity::PlacementConfig`] (topology source, pin policy).
    pub fn from_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        StealConfig {
            topology: placement.topology(),
            pin: placement.pin,
            ..Self::with_threads(num_threads)
        }
    }

    /// Replaces the schedule-perturbation hook.
    pub fn with_perturbation(mut self, perturb: Arc<dyn SchedulePerturbation>) -> Self {
        self.perturb = Some(perturb);
        self
    }

    /// Replaces the fixed chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }
}

parlo_core::stats_family! {
    /// A point-in-time copy of a [`StealPool`]'s instrumentation counters.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StealStats: "steal" {
        /// Parallel loops executed (reductions included).
        pub loops: u64,
        /// Parallel reductions executed.
        pub reductions: u64,
        /// Barrier phases executed (always 2 per loop: one release, one join).
        pub barrier_phases: u64,
        /// Reduction-view combine operations (exactly `P − 1` per reduction).
        pub combine_ops: u64,
        /// Steal attempts: every victim probe, whether it found a whole chunk
        /// (`steals_hit`), a lent half (`lent_steals`) or nothing.
        pub steals_attempted: u64,
        /// Successful steals; every hit transfers exactly one chunk, so this is also
        /// the number of chunks executed away from their pre-split owner.
        pub steals_hit: u64,
        /// Successful steals whose victim shares the thief's socket
        /// (`local_steals + remote_steals == steals_hit`).
        pub local_steals: u64,
        /// Successful steals that crossed a socket boundary — the traffic the
        /// locality-aware sweep exists to minimize.
        pub remote_steals: u64,
        /// Loops executed through a site-keyed entry point
        /// ([`StealPool::steal_for_at`] and friends).
        pub sticky_loops: u64,
        /// Site-keyed loops whose deque seeding replayed a remembered
        /// chunk→worker assignment (as opposed to a cold or invalidated site).
        pub sticky_hits: u64,
        /// Remembered assignments dropped because the site's range or chunk size
        /// changed (see the `sticky` module's invalidation contract).
        pub sticky_invalidations: u64,
        /// Of the grid chunks executed in sticky-hit loops, how many ran on the same
        /// participant as the previous invocation — the affinity-reuse numerator.
        pub sticky_chunks_reused: u64,
        /// Grid chunks executed in sticky-hit loops — the affinity-reuse denominator.
        pub sticky_chunks_total: u64,
        /// Chunks executed by each participant (index 0 is the master).  The sum
        /// equals the pre-split chunk count of every loop executed — the
        /// exact-coverage account.
        pub chunks_per_worker: Vec<u64>,
        /// Upper halves pushed back by a participant that claimed a piece while its
        /// own deque was empty (the crate docs' *lends the upper half*).  Halves are
        /// not chunks: no whole-chunk counter above moves when one is lent, reclaimed
        /// or stolen.
        pub lends: u64,
        /// Lent halves a thief took before their lender reclaimed them; the rest
        /// (`lends − lent_steals`) came back through the lender's own pop.
        pub lent_steals: u64,
    }
}

impl StealStats {
    /// Total chunks executed across all participants.
    pub fn chunks_executed(&self) -> u64 {
        self.chunks_per_worker.iter().sum()
    }

    /// Fraction of sticky-hit grid chunks that re-ran on the participant of the
    /// previous invocation (`NaN`-free: `1.0` when no sticky loop ran yet).
    pub fn sticky_reuse_fraction(&self) -> f64 {
        if self.sticky_chunks_total == 0 {
            1.0
        } else {
            self.sticky_chunks_reused as f64 / self.sticky_chunks_total as f64
        }
    }
}

/// One participant's private hot-path counters, padded to a cache line so the steal
/// tail (one attempt bump per victim probe) never bounces a line between workers.
/// The local/remote tier split of the hits lives on the same line for the same
/// reason: a hit's classification store must stay core-local.  Only the participant
/// itself writes its line, so every bump is a plain load and store.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// xorshift64* state of the unperturbed victim rotation (owner-only access).
    victim_rng: AtomicU64,
    chunks: SingleWriterCounter,
    steals_attempted: SingleWriterCounter,
    steals_hit: SingleWriterCounter,
    local_steals: SingleWriterCounter,
    remote_steals: SingleWriterCounter,
    lends: SingleWriterCounter,
    lent_steals: SingleWriterCounter,
}

/// Internal counters.  Loops, phases, reductions and combines are the [`PoolStats`]
/// every half-barrier runtime counts through.  Everything else a worker touches while
/// executing a loop — chunk and steal counts — lives in that worker's own padded
/// [`WorkerCounters`] line; the master's sticky bookkeeping sits on a padded line of
/// its own.
#[derive(Debug)]
struct StealCounters {
    /// Boxed: its master line is 128-byte aligned, and inline it would double the
    /// size of this block and of every pool.
    pool: Box<PoolStats>,
    master: CachePadded<StickyCounts>,
    per_worker: Vec<CachePadded<WorkerCounters>>,
}

/// The sticky counts only the driving master bumps.
#[derive(Debug, Default)]
struct StickyCounts {
    sticky_loops: SingleWriterCounter,
    sticky_hits: SingleWriterCounter,
    sticky_invalidations: SingleWriterCounter,
    sticky_chunks_reused: SingleWriterCounter,
    sticky_chunks_total: SingleWriterCounter,
}

impl StealCounters {
    fn new(nthreads: usize) -> Self {
        StealCounters {
            pool: Box::new(PoolStats::new(nthreads)),
            master: CachePadded::default(),
            per_worker: (0..nthreads)
                .map(|id| WorkerCounters {
                    victim_rng: AtomicU64::new(victim_seed(id)),
                    ..WorkerCounters::default()
                })
                .map(CachePadded::new)
                .collect(),
        }
    }

    fn snapshot(&self) -> StealStats {
        let per_worker = |counter: fn(&WorkerCounters) -> &SingleWriterCounter| {
            self.per_worker.iter().map(move |w| counter(w).get())
        };
        let m = &self.master;
        let pool = self.pool.snapshot();
        StealStats {
            loops: pool.loops,
            reductions: pool.reductions,
            barrier_phases: pool.barrier_phases,
            combine_ops: pool.combine_ops,
            sticky_loops: m.sticky_loops.get(),
            sticky_hits: m.sticky_hits.get(),
            sticky_invalidations: m.sticky_invalidations.get(),
            sticky_chunks_reused: m.sticky_chunks_reused.get(),
            sticky_chunks_total: m.sticky_chunks_total.get(),
            steals_attempted: per_worker(|w| &w.steals_attempted).sum(),
            steals_hit: per_worker(|w| &w.steals_hit).sum(),
            local_steals: per_worker(|w| &w.local_steals).sum(),
            remote_steals: per_worker(|w| &w.remote_steals).sum(),
            chunks_per_worker: per_worker(|w| &w.chunks).collect(),
            lends: per_worker(|w| &w.lends).sum(),
            lent_steals: per_worker(|w| &w.lent_steals).sum(),
        }
    }
}

/// The descriptor of one loop: the harness the job carries by value through the team's
/// release, so each participant reads it from the line that released it.  The typed
/// harness behind `data` stays on the master's stack for the loop's duration.
#[derive(Clone, Copy)]
struct StealLoop<'a> {
    shared: &'a StealShared,
    /// The typed harness the entry points below reinterpret.
    data: *const (),
    /// Called by every participant before it seeds its deque (a reduction seeds its
    /// own view with the neutral element there).
    enter: Option<unsafe fn(*const (), usize)>,
    /// Runs iterations `lo..hi` on behalf of participant `worker`.
    run_chunk: unsafe fn(*const (), usize, usize, usize),
    /// The loop range every participant pre-splits independently.
    start: usize,
    end: usize,
    /// Chunk size of the pre-split.
    chunk: usize,
    /// Sticky-affinity state of a site-keyed loop: the chunk→worker assignment driving
    /// the deque seeding and the per-chunk execution record.
    sticky: Option<&'a StickyLoop>,
    /// Ordinal of the loop on this pool — the `epoch` the perturbation hooks see.
    epoch: u64,
}

/// What travels through a pool deque: a whole pre-split chunk, or the upper half a
/// participant lent off the piece it was about to run.  The bit keeps every chunk
/// counter and the sticky record in whole pre-split chunks.
#[derive(Clone, Copy)]
struct Piece {
    range: ChunkRange,
    lent: bool,
}

/// What the participants of a pool share besides the team protocol.
struct StealShared {
    deques: Vec<WorkStealingDeque<Piece>>,
    stats: StealCounters,
    /// `socket_of[w]` = socket of participant `w` under the compact layout; used to
    /// classify every steal hit as local or remote.
    socket_of: Vec<usize>,
    /// Per-participant victim tiers (`tiers[w][0]` = same-socket peers, then remote
    /// sockets outward), precomputed at build so the sweep is array walks.
    tiers: Vec<Vec<Vec<usize>>>,
    config: StealConfig,
}

/// The work-stealing chunk scheduler.
///
/// Loop methods take `&mut self`: a pool serves exactly one master thread and loops do
/// not nest — the same structural property the half-barrier completion detection relies
/// on in the fine-grain pool.
pub struct StealPool {
    /// The shared team skeleton over the half-barrier (the pool spawns no threads).
    team: Team<HalfBarrier>,
    shared: StealShared,
    /// Remembered per-site chunk→worker assignments (see the `sticky` module for the
    /// invalidation contract).  Master-only: loop entry points take `&mut self`.
    sticky: StickyTable,
}

impl std::fmt::Debug for StealPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealPool")
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

impl StealPool {
    /// Creates a pool with `num_threads` participants and defaults for the rest.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(StealConfig::with_threads(num_threads))
    }

    /// Creates a pool with `num_threads` participants placed according to a shared
    /// [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(StealConfig::from_placement(num_threads, placement))
    }

    /// [`StealPool::with_placement`] with the workers leased from a shared
    /// [`Executor`] instead of a private one.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(
            StealConfig::from_placement(num_threads, placement),
            executor,
        )
    }

    /// Creates a pool from an explicit configuration, with a private worker substrate.
    pub fn new(config: StealConfig) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a pool from an explicit configuration, leasing its workers from the
    /// given substrate.
    pub fn new_on(config: StealConfig, executor: &Arc<Executor>) -> Self {
        let nthreads = config.num_threads.max(1);
        let team = Team::build(
            "steal".to_string(),
            HalfBarrier::new_hierarchical(&config.topology, nthreads),
            config.wait,
            &config.topology,
            config.pin,
            executor,
            None,
        );
        let shared = StealShared {
            deques: (0..nthreads)
                .map(|_| WorkStealingDeque::new(1024))
                .collect(),
            stats: StealCounters::new(nthreads),
            socket_of: (0..nthreads)
                .map(|w| config.topology.socket_of_worker(w))
                .collect(),
            tiers: (0..nthreads)
                .map(|w| config.topology.victim_tiers(w, nthreads))
                .collect(),
            config,
        };
        StealPool {
            team,
            shared,
            sticky: StickyTable::default(),
        }
    }

    /// The substrate this pool leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.team.executor()
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.team.num_threads()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &StealConfig {
        &self.shared.config
    }

    /// A snapshot of the pool's instrumentation counters.
    pub fn stats(&self) -> StealStats {
        self.shared.stats.snapshot()
    }

    /// The loop, phase, reduction and combine counts every half-barrier runtime keeps.
    pub(crate) fn pool_stats(&self) -> &PoolStats {
        &self.shared.stats.pool
    }

    /// Instrumentation counters of the tree half-barrier (always `Some`: the pool
    /// synchronizes on the socket-composed tree).
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        self.team.sync().hierarchy_stats()
    }

    /// The chunk size a loop of `n` iterations uses on this pool.
    pub fn effective_chunk(&self, n: usize) -> usize {
        self.shared
            .config
            .chunk
            .unwrap_or_else(|| default_grain(n, self.num_threads()))
            .max(1)
    }

    /// Runs `run` with the sticky assignment of a site-keyed loop resolved before it
    /// and the executed assignment remembered after it (`None` for unkeyed loops).
    fn with_sticky<R>(
        &mut self,
        site: Option<StealSite>,
        range: &Range<usize>,
        chunk: usize,
        run: impl FnOnce(&Self, Option<&StickyLoop>) -> R,
    ) -> R {
        let sticky = site.map(|site| self.prepare_sticky(site, range, chunk));
        let out = run(self, sticky.as_ref().map(|(sticky_loop, _hit)| sticky_loop));
        if let (Some(site), Some((sticky_loop, hit))) = (site, sticky) {
            self.finish_sticky(site, range, chunk, sticky_loop, hit);
        }
        out
    }

    /// Runs one stealing loop over `harness`: counts it and publishes it through the
    /// team — one half-barrier cycle, in which every participant [`participate`]s
    /// between its fork and its join.
    ///
    /// # Safety
    /// The caller drives the pool.  `enter`, `run_chunk` and `combine` must treat
    /// `harness` as the type it points to and be safe to call concurrently from all
    /// participants.
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_loop<H>(
        &self,
        range: &Range<usize>,
        chunk: usize,
        sticky: Option<&StickyLoop>,
        harness: &H,
        enter: Option<unsafe fn(*const (), usize)>,
        run_chunk: unsafe fn(*const (), usize, usize, usize),
        combine: Option<unsafe fn(*const (), usize, usize)>,
    ) {
        let stats = &self.shared.stats.pool;
        stats.record_loop(2);
        let this = StealLoop {
            shared: &self.shared,
            data: harness as *const H as *const (),
            enter,
            run_chunk,
            start: range.start,
            end: range.end,
            chunk,
            sticky,
            epoch: stats.loops(),
        };
        // SAFETY: the shared state, the harness and the sticky state all outlive `run`;
        // `participate_in` reads exactly the descriptor type the job carries.
        unsafe { self.team.run(Job::new(this, participate_in, combine)) };
    }
}

/// The job entry point of every stealing loop.
unsafe fn participate_in(data: *const (), id: usize) {
    // SAFETY: `data` points at this participant's copy of the loop's descriptor.
    participate(unsafe { &*(data as *const StealLoop<'_>) }, id);
}

/// One participant's share of one loop: seed the own deque with the pre-split run
/// (or the sticky assignment of a site-keyed loop), drain it LIFO, then steal FIFO
/// from victims — socket-local tier first — until a full sweep finds every deque
/// empty.  Every piece claimed on the way, popped or stolen, goes through
/// [`execute_piece`], which lends at the tail.
fn participate(job: &StealLoop<'_>, id: usize) {
    let shared = job.shared;
    let epoch = job.epoch;
    let n = shared.deques.len();
    let deque = &shared.deques[id];
    let range = job.start..job.end;
    if let Some(enter) = job.enter {
        // SAFETY: contract of `run_loop` — the harness outlives the loop.
        unsafe { enter(job.data, id) };
    }
    // Seed the own run, back to front, so owner-LIFO pops execute it front to back and
    // thieves take from the back.  A full deque (pathologically small explicit chunk
    // size) degrades gracefully: the overflowing chunk runs inline right away.
    let seed = |range: ChunkRange| {
        let chunk = Piece { range, lent: false };
        // SAFETY: deque `id` is owned by this participant.
        if unsafe { deque.push(chunk) }.is_err() {
            execute_piece(id, job, chunk);
        }
    };
    match job.sticky {
        Some(s) => assigned_run_rev(&range, job.chunk, &s.owners, id).for_each(seed),
        None => worker_run_rev(&range, n, id, job.chunk).for_each(seed),
    }
    let mut attempt: u64 = 0;
    loop {
        // Own run first (LIFO pop = front-to-back execution order).
        // SAFETY: deque `id` is owned by this participant.
        if let Some(piece) = unsafe { deque.pop() } {
            execute_piece(id, job, piece);
            continue;
        }
        if n == 1 {
            break;
        }
        // One perturbed steal sweep.
        attempt += 1;
        // Probe counters (and the victim rotation state) live on this worker's own
        // padded line, so the per-probe bumps stay core-local even while every idle
        // worker sweeps at once.
        let my_counters = &*shared.stats.per_worker[id];
        let plan = match &shared.config.perturb {
            Some(p) => {
                let plan = p.steal_sweep(id, epoch, attempt);
                SweepPlan {
                    delay_spins: plan.delay_spins.min(MAX_PERTURB_SPINS),
                    ..plan
                }
            }
            None => {
                let mut rng = my_counters.victim_rng.load(Ordering::Relaxed);
                let victim_seed = xorshift(&mut rng);
                my_counters.victim_rng.store(rng, Ordering::Relaxed);
                SweepPlan {
                    victim_seed,
                    delay_spins: 0,
                }
            }
        };
        for _ in 0..plan.delay_spins {
            std::hint::spin_loop();
        }
        parlo_trace::instant(parlo_trace::Phase::StealSweep, id as u64, attempt);
        let mut stolen: Option<(Piece, usize)> = None;
        let mut saw_retry = false;
        let mut probe = |victim: usize| -> Option<Piece> {
            my_counters.steals_attempted.add(1);
            match shared.deques[victim].steal() {
                Steal::Success(c) => Some(c),
                Steal::Retry => {
                    saw_retry = true;
                    None
                }
                Steal::Empty => None,
            }
        };
        let scripted = shared
            .config
            .perturb
            .as_ref()
            .and_then(|p| p.victim_order(id, epoch, attempt, n));
        if let Some(order) = scripted {
            // Scripted sweep: probe exactly the scripted victims, in order.
            for victim in order {
                if victim == id || victim >= n {
                    continue;
                }
                if let Some(c) = probe(victim) {
                    stolen = Some((c, victim));
                    break;
                }
            }
        } else {
            // Tiered sweep: same-socket victims first (rotated within the tier by
            // the plan's seed), falling one socket outward only when every deque in
            // the nearer tier came up dry.
            'tiers: for (t, tier) in shared.tiers[id].iter().enumerate() {
                let rot = plan.victim_seed.rotate_right(t as u32 * 7) as usize % tier.len();
                for k in 0..tier.len() {
                    let victim = tier[(rot + k) % tier.len()];
                    if let Some(c) = probe(victim) {
                        stolen = Some((c, victim));
                        break 'tiers;
                    }
                }
            }
        }
        match stolen {
            // A hit takes one piece, local or remote.
            Some((piece, victim)) => {
                record_hit(shared, id, victim, piece);
                execute_piece(id, job, piece);
            }
            // A Retry means another participant claimed a piece concurrently (top
            // moved under our CAS), so the loop is still live: sweep again.  This
            // terminates although pieces are re-pushed: a piece is pushed only by
            // `execute_piece`, as the upper half of a piece its lender holds, so it is
            // strictly shorter than what it was cut from and never shorter than
            // `LEND_FLOOR` — a loop produces finitely many pieces, each is claimed
            // exactly once, and every Retry is charged to one of those claims.
            None if saw_retry => continue,
            // Our own pop came back empty and every other deque was observed empty:
            // every piece that exists is claimed, and each claimer runs what it
            // claimed before arriving.  A half lent *after* this sweep sits on its
            // lender's own deque, and the lender pops that deque again before it can
            // get here — so whatever a departed thief can no longer take is reclaimed
            // by its lender, no index is stranded, and nobody needs to re-enter.
            None => break,
        }
    }
}

/// Records one successful steal on the thief's padded counter line.  A whole chunk is
/// a hit: classified local or remote by socket, with the hit and tier instants.  A
/// lent half is a `lent_steals` bump and a `steal-lend` instant naming the victim, so
/// the hit counters keep counting chunks.
#[inline]
fn record_hit(shared: &StealShared, id: usize, victim: usize, piece: Piece) {
    let my_counters = &*shared.stats.per_worker[id];
    if piece.lent {
        my_counters.lent_steals.add(1);
        parlo_trace::instant(parlo_trace::Phase::StealLend, id as u64, victim as u64);
        return;
    }
    let remote = shared.socket_of[id] != shared.socket_of[victim];
    my_counters.steals_hit.add(1);
    if remote {
        my_counters.remote_steals.add(1);
    } else {
        my_counters.local_steals.add(1);
    }
    parlo_trace::instant(parlo_trace::Phase::StealHit, id as u64, victim as u64);
    parlo_trace::instant(parlo_trace::Phase::StealTier, id as u64, remote as u64);
}

/// The one claim path: runs a piece participant `id` popped, reclaimed or stole.  A
/// whole chunk is counted (and recorded as the sticky execution of its grid slot)
/// for whoever claimed it whole; a piece long enough to halve is offered to
/// [`lend_tail`] first.  A lone participant has no thief to lend to.
#[inline]
fn execute_piece(id: usize, job: &StealLoop<'_>, piece: Piece) {
    let shared = job.shared;
    if !piece.lent {
        shared.stats.per_worker[id].chunks.add(1);
        if let Some(s) = job.sticky {
            let k = (piece.range.start - job.start) / job.chunk.max(1);
            if let Some(slot) = s.exec.get(k) {
                slot.store(id as u32, Ordering::Relaxed);
            }
        }
    }
    let run = match lend_halves(piece.range) {
        Some(halves) if shared.deques.len() > 1 => lend_tail(shared, id, piece.range, halves),
        _ => piece.range,
    };
    // SAFETY: contract of `run_loop` — the harness outlives the loop.
    unsafe { (job.run_chunk)(job.data, id, run.start, run.end) };
}

/// Lending at the tail (see the module docs): if participant `id`'s own deque is
/// empty, pushes `upper` onto it and returns `lower` as what to run now; with work
/// still queued behind it, returns `whole`.
///
/// Out of line so that the claim path of a piece too short to halve — every chunk of
/// a fine-grained uniform loop — stays the inlined count-and-call it was.
#[inline(never)]
fn lend_tail(
    shared: &StealShared,
    id: usize,
    whole: ChunkRange,
    (lower, upper): (ChunkRange, ChunkRange),
) -> ChunkRange {
    let deque = &shared.deques[id];
    let half = Piece {
        range: upper,
        lent: true,
    };
    // SAFETY: deque `id` is owned by this participant.  (The push lands on an empty
    // deque, so it cannot find it full.)
    if !deque.is_empty() || unsafe { deque.push(half) }.is_err() {
        return whole;
    }
    shared.stats.per_worker[id].lends.add(1);
    parlo_trace::instant(parlo_trace::Phase::StealLend, id as u64, id as u64);
    lower
}

// --------------------------------------------------------------------------------------
// Typed loop entry points
// --------------------------------------------------------------------------------------

/// The typed harness of a plain loop, on the master's stack; it owns the block body (a
/// `LoopRuntime` call's `&dyn` body is held as it is, or inside its per-index adapter,
/// not behind a reference).
struct ForHarness<F> {
    body: F,
}

unsafe fn exec_for_chunk<F: Fn(Range<usize>) + Sync>(
    data: *const (),
    _worker: usize,
    lo: usize,
    hi: usize,
) {
    // SAFETY: the master keeps the harness alive until its join completes.
    let h = unsafe { &*(data as *const ForHarness<F>) };
    (h.body)(lo..hi);
}

/// The typed harness of a reduction, on the master's stack; it owns the operators like
/// [`ForHarness`] owns the body.
struct ReduceHarness<'a, T, Init, Fold, Comb> {
    /// One view per participant, which the participant seeds with `init()` on entering
    /// the loop and folds every chunk it executes (own and stolen) into.
    views: ReduceViews<'a, T>,
    init: Init,
    fold: Fold,
    comb: Comb,
}

unsafe fn enter_reduce<T, Init, Fold, Comb>(data: *const (), worker: usize)
where
    T: Send,
    Init: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
    Comb: Fn(T, T) -> T + Sync,
{
    // SAFETY: the master keeps the harness alive until its join completes.
    let h = unsafe { &*(data as *const ReduceHarness<'_, T, Init, Fold, Comb>) };
    // SAFETY: view `worker` is accessed only by participant `worker` until it arrives.
    unsafe { h.views.put(worker, (h.init)()) };
}

unsafe fn exec_reduce_chunk<T, Init, Fold, Comb>(
    data: *const (),
    worker: usize,
    lo: usize,
    hi: usize,
) where
    T: Send,
    Init: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
    Comb: Fn(T, T) -> T + Sync,
{
    // SAFETY: the master keeps the harness alive until its join completes.
    let h = unsafe { &*(data as *const ReduceHarness<'_, T, Init, Fold, Comb>) };
    // SAFETY: view `worker` is accessed only by participant `worker` until it arrives.
    let acc = unsafe { h.views.take(worker) }.expect("view seeded with the neutral element");
    // SAFETY: as above.
    unsafe { h.views.put(worker, (h.fold)(acc, lo..hi)) };
}

unsafe fn combine_views<T, Init, Fold, Comb>(data: *const (), to: usize, from: usize)
where
    T: Send,
    Init: Fn() -> T + Sync,
    Fold: Fn(T, Range<usize>) -> T + Sync,
    Comb: Fn(T, T) -> T + Sync,
{
    // SAFETY: `data` points at this participant's copy of the loop descriptor, and the
    // master keeps the harness behind it alive until its join completes.
    let (this, h) = unsafe {
        let this = &*(data as *const StealLoop<'_>);
        (
            this,
            &*(this.data as *const ReduceHarness<'_, T, Init, Fold, Comb>),
        )
    };
    this.shared.stats.pool.record_combine(to);
    // SAFETY: the half-barrier guarantees `from` has arrived (its view is final) and
    // that `to` is the unique combiner touching either view at this point.
    unsafe { h.views.combine(to, from, &h.comb) };
}

impl StealPool {
    /// [`Loops::for_each`](parlo_core::Loops::for_each) keyed by a loop [`StealSite`], with **sticky
    /// chunk→worker affinity**: the deques are seeded from the site's remembered
    /// assignment — whichever participant *executed* each grid chunk on the previous
    /// invocation of this site, steals included — so a repeated loop re-runs each
    /// chunk where its data is already cached.  A cold site (or one whose remembered
    /// range/chunk no longer matches — see the invalidation contract on the `sticky`
    /// module) falls back to the balanced contiguous grid assignment.
    pub fn steal_for_at<F>(&mut self, site: StealSite, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_loop(Some(site), range, move |r| walk_range(&body, r));
    }

    /// [`Loops::reduce`](parlo_core::Loops::reduce) keyed by a loop [`StealSite`] — sticky affinity exactly as in
    /// [`StealPool::steal_for_at`].
    pub fn steal_reduce_at<T, Init, Fold, Comb>(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T + Sync,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let blocks = move |acc, r| fold_range(&fold, acc, r);
        self.reduce_loop(Some(site), range, init, blocks, comb)
    }

    /// The plain loop behind [`StealPool::steal_for_at`] and [`Loops::for_blocks`](parlo_core::Loops::for_blocks)
    /// (`site` keys the sticky affinity, `None` for the unkeyed loops): `body` runs once
    /// per piece a participant claims, popped, stolen or lent.
    pub(crate) fn for_loop<F>(&mut self, site: Option<StealSite>, range: Range<usize>, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if range.end <= range.start {
            return;
        }
        let chunk = self.effective_chunk(range.len());
        let harness = ForHarness { body };
        self.with_sticky(site, &range, chunk, |this, sticky| {
            // SAFETY: `&mut self` makes this thread the pool's one driver;
            // `exec_for_chunk::<F>` matches the harness type.
            unsafe {
                this.run_loop(
                    &range,
                    chunk,
                    sticky,
                    &harness,
                    None,
                    exec_for_chunk::<F>,
                    None,
                )
            }
        });
    }

    /// The reduction behind [`StealPool::steal_reduce_at`] and [`Loops::reduce_blocks`](parlo_core::Loops::reduce_blocks):
    /// every participant folds the pieces it runs (own and stolen) into a private view
    /// seeded with `init()`, and the views are merged pairwise inside the join phase —
    /// exactly `P − 1` combines, like the fine-grain pool's merged reduction.  `init`
    /// must produce the neutral element of `comb`, which must be associative and
    /// commutative.
    pub(crate) fn reduce_loop<T, Init, Fold, Comb>(
        &mut self,
        site: Option<StealSite>,
        range: Range<usize>,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T + Sync,
        Fold: Fn(T, Range<usize>) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        if range.end <= range.start {
            return init();
        }
        let chunk = self.effective_chunk(range.len());
        self.with_sticky(site, &range, chunk, |this, sticky| {
            let harness = ReduceHarness {
                // SAFETY: `&mut self` makes this thread the pool's one driver, between
                // loops; the previous reduction's handle is gone.
                views: unsafe { this.team.views() },
                init,
                fold,
                comb,
            };
            this.shared.stats.pool.record_reduction();
            // SAFETY: as above; the entry points match the harness type.
            unsafe {
                this.run_loop(
                    &range,
                    chunk,
                    sticky,
                    &harness,
                    Some(enter_reduce::<T, Init, Fold, Comb>),
                    exec_reduce_chunk::<T, Init, Fold, Comb>,
                    Some(combine_views::<T, Init, Fold, Comb>),
                );
            }
            // After the join the master's view holds the full fold.
            // SAFETY: the join completed, so no participant touches any view.
            unsafe { harness.views.take(0) }.expect("master view present after the join phase")
        })
    }

    /// Installs an explicit chunk→worker assignment for `site`, as if a previous
    /// invocation of the given loop shape had ended with grid chunk `k` executed by
    /// participant `owners[k]`.  `owners` must hold exactly one valid participant id
    /// per grid chunk.  Primarily a test and tuning hook: it scripts exactly which
    /// deques the next site-keyed loop of this shape seeds.
    pub fn seed_affinity(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        chunk: usize,
        owners: &[usize],
    ) {
        let chunk = chunk.max(1);
        assert_eq!(
            owners.len(),
            grid_chunks(&range, chunk),
            "one owner per grid chunk"
        );
        assert!(
            owners.iter().all(|&w| w < self.num_threads()),
            "owner out of range"
        );
        self.sticky.remember(
            site,
            StickyEntry {
                start: range.start,
                end: range.end,
                chunk,
                owners: owners.iter().map(|&w| w as u32).collect(),
            },
        );
    }

    /// Number of sites with a remembered sticky assignment.
    pub fn remembered_sites(&self) -> usize {
        self.sticky.len()
    }

    /// Resolves the assignment driving a site-keyed loop (remembered on a valid hit,
    /// balanced otherwise) and builds the per-loop sticky state.
    fn prepare_sticky(
        &mut self,
        site: StealSite,
        range: &Range<usize>,
        chunk: usize,
    ) -> (StickyLoop, bool) {
        let nchunks = grid_chunks(range, chunk);
        let stats = &self.shared.stats.master;
        stats.sticky_loops.add(1);
        let (owners, hit) = match self.sticky.lookup(site, range.start, range.end, chunk) {
            Some(Ok(owners)) => {
                stats.sticky_hits.add(1);
                (owners, true)
            }
            Some(Err(())) => {
                stats.sticky_invalidations.add(1);
                (balanced_owners(nchunks, self.num_threads()), false)
            }
            None => (balanced_owners(nchunks, self.num_threads()), false),
        };
        let exec = (0..nchunks).map(|_| AtomicU32::new(u32::MAX)).collect();
        (StickyLoop { owners, exec }, hit)
    }

    /// Reads back who executed each grid chunk, accounts affinity reuse against the
    /// seeding assignment (hit loops only), and remembers the execution as the
    /// site's next assignment.
    fn finish_sticky(
        &mut self,
        site: StealSite,
        range: &Range<usize>,
        chunk: usize,
        sticky: StickyLoop,
        hit: bool,
    ) {
        let exec: Vec<u32> = sticky
            .exec
            .iter()
            .zip(&sticky.owners)
            .map(|(slot, &owner)| {
                let w = slot.load(Ordering::Relaxed);
                // Unreachable in practice (every chunk executes before the join),
                // but stay total: an unrecorded chunk keeps its seeded owner.
                if w == u32::MAX {
                    owner
                } else {
                    w
                }
            })
            .collect();
        if hit {
            let stats = &self.shared.stats.master;
            let reused = exec
                .iter()
                .zip(&sticky.owners)
                .filter(|(a, b)| a == b)
                .count();
            stats.sticky_chunks_reused.add(reused as u64);
            stats.sticky_chunks_total.add(exec.len() as u64);
        }
        self.sticky.remember(
            site,
            StickyEntry {
                start: range.start,
                end: range.end,
                chunk,
                owners: exec,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::total_chunks;
    use crate::perturb::SeededPerturbation;
    use parlo_cilk::{CilkConfig, CilkPool};
    use parlo_core::Loops;

    /// A pool of `threads` participants whose loops use chunks of `chunk`.
    fn chunked_pool(threads: usize, chunk: usize) -> StealPool {
        StealPool::new(StealConfig::with_threads(threads).with_chunk(chunk))
    }
    use parlo_sync::AtomicUsize;

    #[test]
    fn pool_creation_and_teardown() {
        for threads in [1, 2, 4] {
            let p = StealPool::with_threads(threads);
            assert_eq!(p.num_threads(), threads);
            drop(p);
        }
    }

    #[test]
    fn steal_for_visits_each_index_once() {
        for threads in [1usize, 2, 4] {
            let mut p = chunked_pool(threads, 16);
            for round in 0..5 {
                let hits: Vec<AtomicUsize> = (0..1013).map(|_| AtomicUsize::new(0)).collect();
                p.for_each(0..1013, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads {threads} round {round}"
                );
            }
        }
    }

    #[test]
    fn offset_ranges_and_empty_ranges() {
        let mut p = chunked_pool(3, 8);
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        p.for_each(50..150, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            let expected = usize::from((50..150).contains(&i));
            assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
        }
        p.for_each(5..5, |_| panic!("must not run"));
        let got = p.reduce(7..7, || 1.5f64, |_, _| panic!(), |a, _| a);
        assert!((got - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reduction_matches_sequential_fold_with_p_minus_1_combines() {
        for threads in 1..=5usize {
            let mut p = StealPool::with_threads(threads);
            let before = p.stats();
            let sum = p.reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..1000u64).sum());
            let d = p.stats().since(&before);
            assert_eq!(d.reductions, 1);
            assert_eq!(d.combine_ops, threads as u64 - 1, "{threads} threads");
            assert_eq!(d.barrier_phases, 2, "one half-barrier per loop");
        }
    }

    #[test]
    fn chunk_accounting_is_exact() {
        let mut p = chunked_pool(4, 13);
        let before = p.stats();
        const LOOPS: usize = 7;
        for _ in 0..LOOPS {
            p.for_each(0..997, |_| {});
        }
        let d = p.stats().since(&before);
        assert_eq!(d.loops, LOOPS as u64);
        assert_eq!(d.barrier_phases, 2 * LOOPS as u64);
        let expected = LOOPS as u64 * total_chunks(&(0..997), 4, 13);
        assert_eq!(d.chunks_executed(), expected, "no chunk lost or duplicated");
        assert!(d.steals_hit <= d.steals_attempted);
        assert!(d.steals_hit <= d.chunks_executed());
    }

    #[test]
    fn perturbed_schedules_preserve_results() {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let config = StealConfig::with_threads(4)
                .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
                .with_chunk(5);
            let mut p = StealPool::new(config);
            let hits: Vec<AtomicUsize> = (0..503).map(|_| AtomicUsize::new(0)).collect();
            p.for_each(0..503, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "seed {seed}"
            );
            assert_eq!(p.stats().chunks_executed(), total_chunks(&(0..503), 4, 5));
        }
    }

    #[test]
    fn tiny_chunks_overflowing_the_deque_still_cover_the_range() {
        // 4096 one-iteration chunks on one worker exceed the 1024-entry deque; the
        // overflow must execute inline, not disappear.
        let mut p = chunked_pool(1, 1);
        let counter = AtomicUsize::new(0);
        p.for_each(0..4096, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4096);
        assert_eq!(p.stats().chunks_executed(), 4096);
    }

    #[test]
    fn placement_pool_uses_hierarchical_half_barrier() {
        use parlo_affinity::PlacementConfig;
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = StealPool::with_placement(4, &placement);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            p.for_each(0..100, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let h = p.hierarchy_stats().expect("hierarchical sync enabled");
        assert_eq!(h.cycles, 10);
        assert_eq!(h.cross_socket_rendezvous, 10, "one rendezvous per loop");
    }

    #[test]
    fn skewed_bodies_actually_get_stolen() {
        // One worker's static block carries almost all the work; with many small
        // chunks the idle workers must lift some of them.  Run enough rounds that at
        // least one steal is overwhelmingly likely, but assert only consistency plus
        // coverage so a single-core machine cannot make this flaky.
        let mut p = chunked_pool(4, 4);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            p.for_each(0..512, |i| {
                if i >= 384 {
                    // The last block is heavy.
                    let mut x = i as f64;
                    for _ in 0..2000 {
                        x = x.mul_add(1.000_000_1, 1e-9);
                    }
                    std::hint::black_box(x);
                }
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 5120);
        let s = p.stats();
        assert!(s.steals_attempted >= s.steals_hit);
        assert_eq!(s.chunks_executed(), 10 * total_chunks(&(0..512), 4, 4));
    }

    /// A body with a heavy tail block, so idle workers have something to steal.
    fn heavy_tail(i: usize) {
        if i >= 384 {
            let mut x = i as f64;
            for _ in 0..1000 {
                x = x.mul_add(1.000_000_1, 1e-9);
            }
            std::hint::black_box(x);
        }
    }

    #[test]
    fn saturated_local_tier_never_steals_remotely() {
        use parlo_affinity::PlacementConfig;
        // All four participants land on socket 0 of the synthetic 2×4 box, so the
        // local tier covers every victim and the tiered sweep never falls outward.
        let placement = PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None);
        let mut p = StealPool::new(StealConfig::from_placement(4, &placement).with_chunk(4));
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            p.for_each(0..512, |i| {
                heavy_tail(i);
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 5120);
        let s = p.stats();
        assert_eq!(
            s.remote_steals, 0,
            "no remote victim while the local tier lives"
        );
        assert_eq!(s.local_steals, s.steals_hit);
    }

    #[test]
    fn scripted_flat_ring_still_classifies_hits() {
        use crate::perturb::ScriptedOrder;
        // Every participant probes the others in ring order on a synthetic 2×2, so a
        // hit may land on either side of the socket boundary.
        let ring = (0..4)
            .map(|w| (1..4).map(|k| (w + k) % 4).collect())
            .collect();
        let placement = parlo_affinity::PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = StealPool::new(
            StealConfig::from_placement(4, &placement)
                .with_chunk(4)
                .with_perturbation(Arc::new(ScriptedOrder::new(ring, 5))),
        );
        let total = AtomicUsize::new(0);
        for _ in 0..5 {
            p.for_each(0..512, |i| {
                heavy_tail(i);
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 2560);
        let s = p.stats();
        assert_eq!(s.local_steals + s.remote_steals, s.steals_hit);
        assert_eq!(s.chunks_executed(), 5 * total_chunks(&(0..512), 4, 4));
    }

    #[test]
    fn scripted_victim_order_preserves_results() {
        use crate::perturb::ScriptedOrder;
        let config = StealConfig::with_threads(3)
            .with_chunk(4)
            .with_perturbation(Arc::new(ScriptedOrder::new(
                vec![vec![], vec![0, 2], vec![0]],
                11,
            )));
        let mut p = StealPool::new(config);
        let hits: Vec<AtomicUsize> = (0..301).map(|_| AtomicUsize::new(0)).collect();
        p.for_each(0..301, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(p.stats().chunks_executed(), total_chunks(&(0..301), 3, 4));
    }

    #[test]
    fn sticky_sites_replay_and_invalidate() {
        let mut p = StealPool::new(StealConfig::with_threads(4).with_chunk(8));
        let site = StealSite::new(1);
        let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            p.steal_for_at(site, 0..256, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3));
        let s = p.stats();
        assert_eq!(s.sticky_loops, 3);
        assert_eq!(s.sticky_hits, 2, "loops 2 and 3 replay the remembered site");
        assert_eq!(s.sticky_invalidations, 0);
        assert_eq!(p.remembered_sites(), 1);
        // 256 / 8 = 32 grid chunks; reuse is accounted on the two hit loops only.
        assert_eq!(s.sticky_chunks_total, 64);
        assert!(s.sticky_chunks_reused <= s.sticky_chunks_total);
        // A different range at the same site drops the entry and is not a hit.
        p.steal_for_at(site, 0..128, |_| {});
        let s = p.stats();
        assert_eq!(s.sticky_invalidations, 1);
        assert_eq!(s.sticky_hits, 2, "a shape change is never a hit");
    }

    #[test]
    fn single_thread_sticky_reuse_is_total() {
        let mut p = StealPool::new(StealConfig::with_threads(1).with_chunk(4));
        let site = StealSite::new(9);
        let mut got = 0u64;
        for _ in 0..2 {
            got = p.steal_reduce_at(site, 0..64, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        }
        assert_eq!(got, (0..64u64).sum());
        let s = p.stats();
        assert_eq!(s.sticky_hits, 1);
        assert_eq!(s.sticky_chunks_total, 16);
        assert_eq!(
            s.sticky_chunks_reused, 16,
            "one participant: reuse is total"
        );
        assert!((s.sticky_reuse_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(s.reductions, 2);
    }

    #[test]
    fn seeded_affinity_scripts_the_next_seeding() {
        let mut p = StealPool::new(StealConfig::with_threads(2).with_chunk(4));
        let site = StealSite::new(3);
        // All eight grid chunks assigned to the master: the next site-keyed loop is
        // a hit that seeds only deque 0.
        p.seed_affinity(site, 0..32, 4, &[0; 8]);
        assert_eq!(p.remembered_sites(), 1);
        let count = AtomicUsize::new(0);
        p.steal_for_at(site, 0..32, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
        let s = p.stats();
        assert_eq!(s.sticky_hits, 1);
        assert_eq!(s.sticky_chunks_total, 8);
    }

    #[test]
    fn effective_chunk_uses_config_override() {
        let p = chunked_pool(2, 32);
        assert_eq!(p.effective_chunk(1_000_000), 32);
        let q = StealPool::with_threads(2);
        assert_eq!(q.effective_chunk(1000), default_grain(1000, 2));
    }

    /// Both stealing runtimes size a loop with the one grain formula, and it returns
    /// the values the workspace has always used: `clamp(n / 8P, 1, 2048)`.
    #[test]
    fn one_grain_formula_sizes_both_stealing_runtimes() {
        for p in [1usize, 2, 4] {
            let steal = StealPool::with_threads(p);
            let cilk = CilkPool::new(CilkConfig::with_threads(p));
            for (n, literal) in [
                (0, 1),
                (1, 1),
                (8 * p - 1, 1),
                (8 * p, 1),
                (1000, 1000 / (8 * p)),
                (10_000_000, 2048),
            ] {
                let grain = default_grain(n, p);
                assert_eq!(grain, literal, "n {n} P {p}");
                assert_eq!(steal.effective_chunk(n), grain, "steal n {n} P {p}");
                assert_eq!(cilk.effective_grain(n), grain, "cilk n {n} P {p}");
            }
        }
        assert_eq!(default_grain(1000, 4), 31);
        assert_eq!(default_grain(100, 1), 12);
        assert_eq!(default_grain(64, 0), 8, "zero threads clamps to one");
    }
}
