//! The Cilk-like work-stealing scheduler, extended with the paper's hybrid fine-grain
//! path.
//!
//! Baseline behaviour (what the "Cilk" rows/series of the evaluation measure):
//!
//! * a persistent pool of workers, each owning a Chase–Lev deque;
//! * `cilk_for` recursively splits the iteration range in half down to a grain size
//!   (Cilkplus default: `max(1, N / (8 P))`, capped at 2048), pushing the upper half of
//!   every split onto the executing worker's deque;
//! * idle workers repeatedly steal from the top of random victims' deques;
//! * loop completion is detected through a shared count of outstanding iterations.
//!
//! Hybrid extension (§2, last paragraph of the paper): the pool also embeds a
//! **half-barrier** whose releases carry the fine-grain loop's job.  Idle workers
//! alternate one cycle of the random work-stealing algorithm with a poll of the
//! half-barrier release flag, so the
//! same pool can run statically scheduled fine-grain loops (the [`Loops`] methods of
//! [`crate::CilkFineGrain`], the pool's hybrid face) next to dynamically scheduled
//! coarse-grain loops (the [`Loops`] methods of [`CilkPool`] itself).  The fine-grain
//! loops are `parlo-core`'s harness over the static block ([`parlo_core::static_for`],
//! [`parlo_core::static_reduce`]) run on this pool's team, and they count through a
//! [`PoolStats`] like every other half-barrier runtime.
//!
//! [`Loops`]: parlo_core::Loops

use crate::deque::{Steal, WorkStealingDeque};
use crossbeam::utils::CachePadded;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{Epoch, HalfBarrier, Payload, WaitPolicy};
use parlo_core::PoolStats;
use parlo_exec::{Executor, Job, ReduceViews, Team, TeamSync};
use parlo_sync::{AtomicU64, AtomicUsize, Ordering, SingleWriterCounter};
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of a [`CilkPool`].
#[derive(Debug, Clone)]
pub struct CilkConfig {
    /// Number of workers (the master counts as worker 0).
    pub num_threads: usize,
    /// Machine topology (pinning and fine-grain tree layout).
    pub topology: Topology,
    /// Thread pinning policy.
    pub pin: PinPolicy,
    /// Waiting policy for the fine-grain half-barrier path.
    pub wait: WaitPolicy,
    /// Explicit grain size for every baseline loop and reduction; `None` derives one
    /// per loop from [`default_grain`].
    pub grain: Option<usize>,
}

impl Default for CilkConfig {
    fn default() -> Self {
        let topology = Topology::detect();
        let num_threads = topology.num_cores().max(1);
        CilkConfig {
            num_threads,
            pin: PinPolicy::Compact,
            wait: WaitPolicy::auto_for(num_threads),
            grain: None,
            topology,
        }
    }
}

impl CilkConfig {
    /// A configuration with `num_threads` workers and defaults for everything else.
    pub fn with_threads(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        CilkConfig {
            num_threads,
            wait: WaitPolicy::auto_for(num_threads),
            ..CilkConfig::default()
        }
    }

    /// A configuration with `num_threads` workers placed according to a shared
    /// [`parlo_affinity::PlacementConfig`] (topology source, pin policy).
    pub fn from_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        CilkConfig {
            topology: placement.topology(),
            pin: placement.pin,
            ..Self::with_threads(num_threads)
        }
    }
}

/// The Cilkplus grain-size heuristic: `min(2048, max(1, n / (8 p)))` — enough pieces
/// per worker for thieves to rebalance a skewed loop, few enough that splitting stays
/// a small fraction of it.
///
/// This is the workspace's one grain formula: a [`CilkPool`] loop splits down to
/// it, `parlo-steal`'s `StealPool` pre-splits its loops into chunks of it, and the
/// adaptive pool's `OmpDynamic` backend dispenses chunks of it, each unless its
/// config sets an explicit size.
///
/// Degenerate inputs are clamped rather than propagated: `n = 0` (and any `n < 8 p`)
/// yields grain 1, which is harmless because **empty loops never reach the splitter**
/// — every runtime in the workspace treats an empty range as a fast-path no-op (no
/// barrier cycle, no dispenser traffic, all `SyncStats` counters untouched).
pub fn default_grain(n: usize, nthreads: usize) -> usize {
    (n / (8 * nthreads.max(1))).clamp(1, 2048)
}

/// A range of outstanding iterations of the current `cilk_for` loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    lo: usize,
    hi: usize,
}

impl Task {
    fn len(&self) -> usize {
        self.hi - self.lo
    }
}

/// Type-erased descriptor of the current `cilk_for` loop.
#[derive(Clone, Copy)]
pub(crate) struct LoopDescriptor {
    pub(crate) data: *const (),
    /// Runs iterations `lo..hi` on behalf of `worker`.
    pub(crate) run_range: unsafe fn(*const (), usize, usize, usize),
    /// Invoked by a worker when it acquires work by *stealing* (not by popping its own
    /// deque).  Baseline reducers use this to close out the worker's current view.
    pub(crate) on_steal: Option<unsafe fn(*const (), usize)>,
    pub(crate) grain: usize,
}

impl LoopDescriptor {
    fn noop() -> Self {
        unsafe fn nop(_: *const (), _: usize, _: usize, _: usize) {}
        LoopDescriptor {
            data: std::ptr::null(),
            run_range: nop,
            on_steal: None,
            grain: 1,
        }
    }
}

/// Instrumentation counters of the baseline `cilk_for` path.  The task and steal
/// counts are shared words every participant bumps (part of what the baseline pays);
/// the per-loop counts are the driving master's alone, on a line of their own.
#[derive(Debug)]
pub(crate) struct CilkStats {
    pub(crate) master: CachePadded<LoopCounts>,
    pub(crate) tasks_executed: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) steal_attempts: AtomicU64,
}

/// The counts only the driving master bumps.
#[derive(Debug, Default)]
pub(crate) struct LoopCounts {
    pub(crate) loops: SingleWriterCounter,
    pub(crate) reductions: SingleWriterCounter,
    pub(crate) reduce_ops: SingleWriterCounter,
}

/// A point-in-time copy of the pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CilkStatsSnapshot {
    /// `cilk_for` loops executed.
    pub loops: u64,
    /// Fine-grain (half-barrier) loops executed.
    pub fine_loops: u64,
    /// Reductions executed (either flavor).
    pub reductions: u64,
    /// Leaf tasks executed across all `cilk_for` loops.
    pub tasks_executed: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts (successful or not).
    pub steal_attempts: u64,
    /// Reduce operations performed by the *baseline* reducer implementation (view
    /// merges; can substantially exceed `P − 1`).
    pub reduce_ops: u64,
    /// Combine operations performed by the *fine-grain* merged reduction (exactly
    /// `P − 1` per reduction).
    pub fine_combine_ops: u64,
}

/// What the participants of a Cilk pool share: for the baseline `cilk_for` path the
/// deques, the loop descriptor, the outstanding-iteration count and the counters, and
/// the fine-grain path's [`PoolStats`] (loops, barrier phases, reductions, combines).
pub(crate) struct CilkWork {
    deques: Vec<WorkStealingDeque<Task>>,
    descriptor: UnsafeCell<LoopDescriptor>,
    remaining: AtomicUsize,
    pub(crate) stats: CilkStats,
    pub(crate) fine: PoolStats,
    /// xorshift64* victim-selection state of each participant (owner-only access).
    rngs: Vec<CachePadded<AtomicU64>>,
}

// SAFETY: the descriptor cell is only written by the master strictly before the
// `remaining` release store that opens a cilk loop, and read by participants strictly
// after they observe it; everything else is atomic or immutable.  Deque `i` is pushed
// and popped only by participant `i` and stolen from by any — the Chase–Lev contract.
unsafe impl Sync for CilkWork {}
// SAFETY: same release-edge argument as Sync above.
unsafe impl Send for CilkWork {}

/// The hybrid sync shape: the embedded half-barrier, whose workers — instead of
/// blocking at the fork — alternate the release probe with one cycle of the random
/// work-stealing algorithm while they wait.
pub(crate) struct Hybrid {
    fine: HalfBarrier,
    pub(crate) work: CilkWork,
}

impl TeamSync for Hybrid {
    fn num_threads(&self) -> usize {
        self.fine.num_threads()
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job) {
        self.fine.master_fork(at, policy, job);
    }

    fn worker_fork(&self, id: usize, at: &mut Epoch, _policy: &WaitPolicy) -> Job {
        *at += 1;
        let mut idle_spins: u32 = 0;
        // Poll the half-barrier for a fine-grain static loop ...
        while !self.fine.poll_release(id, *at) {
            // ... alternating with one cycle of the random work-stealing algorithm.
            if self.work.remaining.load(Ordering::Acquire) > 0 && self.work.help(id) {
                idle_spins = 0;
            } else if idle_spins < 64 {
                // Nothing to do: back off gently (spin a little, then yield) so an idle
                // pool does not monopolise an oversubscribed machine.
                idle_spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: the fine path's releases carry its jobs (`master_fork` above).
        unsafe { Job::from_payload(self.fine.forward_release(id, *at)) }
    }

    #[inline]
    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        self.fine.master_join(at, policy, acc, f);
    }

    #[inline]
    fn worker_join<F>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        f: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        self.fine.worker_join(id, at, policy, acc, f);
    }
}

/// A Cilk-like work-stealing pool with the paper's hybrid fine-grain extension.
///
/// Loop methods take `&mut self`: the pool serves one master thread and loops do not
/// nest.
pub struct CilkPool {
    /// The shared team skeleton over the hybrid sync shape (the pool spawns no
    /// threads); fine-grain loops are its cycles, `cilk_for` loops run between them.
    pub(crate) team: Team<Hybrid>,
    config: CilkConfig,
}

impl std::fmt::Debug for CilkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CilkPool")
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

/// xorshift64* step: the victim rotation of both stealing pools.
///
/// Zero is the fixed point of every xorshift map: a state of 0 stays 0 forever,
/// which would pin the victim rotation to deque 0 for the rest of the process.
/// The guard reseeds a dead state with the golden-ratio constant, so the rotation
/// recovers in one step no matter what the caller fed in.
#[doc(hidden)]
#[inline]
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    if x == 0 {
        x = 0x9E37_79B9_7F4A_7C15;
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A guaranteed-nonzero [`xorshift`] seed for participant `id`.  The id mix alone can
/// produce 0 for exactly one (pathological) id, which would strand that worker on
/// the xorshift fixed point; route every seed through here instead.
#[doc(hidden)]
#[inline]
pub fn victim_seed(id: usize) -> u64 {
    let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    }
}

impl CilkPool {
    /// Creates a pool with `num_threads` workers.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(CilkConfig::with_threads(num_threads))
    }

    /// Creates a pool with `num_threads` workers placed according to a shared
    /// [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(CilkConfig::from_placement(num_threads, placement))
    }

    /// [`CilkPool::with_placement`] with the workers leased from a shared [`Executor`]
    /// instead of a private one.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(CilkConfig::from_placement(num_threads, placement), executor)
    }

    /// Creates a pool from an explicit configuration, with a private worker substrate.
    pub fn new(config: CilkConfig) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a pool from an explicit configuration, leasing its workers from the
    /// given substrate.
    pub fn new_on(config: CilkConfig, executor: &Arc<Executor>) -> Self {
        let nthreads = config.num_threads.max(1);
        let fine = HalfBarrier::new_hierarchical(&config.topology, nthreads);
        let work = CilkWork {
            deques: (0..nthreads)
                .map(|_| WorkStealingDeque::with_default_capacity())
                .collect(),
            descriptor: UnsafeCell::new(LoopDescriptor::noop()),
            remaining: AtomicUsize::new(0),
            stats: CilkStats {
                master: CachePadded::default(),
                tasks_executed: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                steal_attempts: AtomicU64::new(0),
            },
            fine: PoolStats::new(nthreads),
            rngs: (0..nthreads)
                .map(|id| CachePadded::new(AtomicU64::new(victim_seed(id))))
                .collect(),
        };
        let team = Team::build(
            "cilk".to_string(),
            Hybrid { fine, work },
            config.wait,
            &config.topology,
            config.pin,
            executor,
            None,
        );
        CilkPool { team, config }
    }

    /// The substrate this pool leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.team.executor()
    }

    /// Number of workers (master included).
    pub fn num_threads(&self) -> usize {
        self.team.num_threads()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &CilkConfig {
        &self.config
    }

    /// A snapshot of the pool's instrumentation counters.
    pub fn stats(&self) -> CilkStatsSnapshot {
        let s = &self.work().stats;
        let fine = self.work().fine.snapshot();
        CilkStatsSnapshot {
            loops: s.master.loops.get(),
            fine_loops: fine.loops,
            reductions: s.master.reductions.get() + fine.reductions,
            tasks_executed: s.tasks_executed.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            steal_attempts: s.steal_attempts.load(Ordering::Relaxed),
            reduce_ops: s.master.reduce_ops.get(),
            fine_combine_ops: fine.combine_ops,
        }
    }

    pub(crate) fn work(&self) -> &CilkWork {
        &self.team.sync().work
    }

    /// Instrumentation counters of the embedded tree half-barrier (always `Some`: the
    /// fine-grain path runs on the socket-composed tree).
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        self.team.sync().fine.hierarchy_stats()
    }

    /// The grain size a loop of `n` iterations uses on this pool: [`CilkConfig::grain`]
    /// if set, else [`default_grain`].
    pub fn effective_grain(&self, n: usize) -> usize {
        self.config
            .grain
            .unwrap_or_else(|| default_grain(n, self.num_threads()))
            .max(1)
    }

    // ----- baseline Cilk path --------------------------------------------------------

    /// Runs a type-erased `cilk_for` loop: publishes the descriptor, seeds the root
    /// task, and has the master work (and steal) until every iteration has executed.
    ///
    /// # Safety
    /// The harness behind `descriptor.data` must stay alive until this returns and be
    /// safe to use concurrently from all workers.
    pub(crate) unsafe fn run_cilk_loop(&self, range: Range<usize>, descriptor: LoopDescriptor) {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let work = self.work();
        self.team.drive(|| {
            // SAFETY: the previous loop fully drained (`remaining` hit zero), so no
            // worker reads the descriptor cell; publish it before opening the loop by
            // making `remaining` non-zero.
            unsafe { *work.descriptor.get() = descriptor };
            work.remaining.store(n, Ordering::Release);
            // The master processes the root task, then keeps helping until the loop
            // drains.
            work.process_task(
                0,
                Task {
                    lo: range.start,
                    hi: range.end,
                },
            );
            while work.remaining.load(Ordering::Acquire) > 0 {
                if !work.help(0) {
                    std::thread::yield_now();
                }
            }
        });
    }

    /// The team's reduction views typed as `T`, for the next loop.
    ///
    /// # Safety
    /// As for [`Team::views`]: the caller drives the pool and no loop is in flight.
    pub(crate) unsafe fn views<T>(&self) -> ReduceViews<'_, T> {
        // SAFETY: forwarded contract.
        unsafe { self.team.views() }
    }
}

impl CilkWork {
    /// One cycle of the work-stealing algorithm on behalf of participant `id`: obtain
    /// a task (own deque first, then one steal sweep) and process it.  Returns whether
    /// there was a task.
    fn help(&self, id: usize) -> bool {
        let Some((task, stolen)) = self.obtain_task(id) else {
            return false;
        };
        if stolen {
            // SAFETY: a task exists, so the descriptor is the current loop's.
            let desc = unsafe { *self.descriptor.get() };
            if let Some(f) = desc.on_steal {
                // SAFETY: the harness behind `desc.data` outlives the loop.
                unsafe { f(desc.data, id) };
            }
        }
        self.process_task(id, task);
        true
    }

    /// Tries to obtain a task: first the participant's own deque, then one
    /// random-victim steal cycle over the others.  Returns the task and whether it was
    /// stolen.
    fn obtain_task(&self, id: usize) -> Option<(Task, bool)> {
        // SAFETY: deque `id` is owned by the calling participant.
        if let Some(task) = unsafe { self.deques[id].pop() } {
            return Some((task, false));
        }
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        // One cycle of random stealing: try every other worker once, starting from a
        // random victim.
        let mut rng = self.rngs[id].load(Ordering::Relaxed);
        let start = (xorshift(&mut rng) as usize) % n;
        self.rngs[id].store(rng, Ordering::Relaxed);
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == id {
                continue;
            }
            self.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
            match self.deques[victim].steal() {
                Steal::Success(task) => {
                    self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some((task, true));
                }
                Steal::Retry | Steal::Empty => {}
            }
        }
        None
    }

    /// Processes a task: recursively splits it down to the grain size, pushing upper
    /// halves onto the participant's own deque, and runs the leaves.
    fn process_task(&self, id: usize, mut task: Task) {
        // SAFETY: the descriptor was published before `remaining` became non-zero, and
        // a task can only exist while `remaining > 0`.
        let desc = unsafe { *self.descriptor.get() };
        let grain = desc.grain.max(1);
        loop {
            if task.len() <= grain {
                self.stats.tasks_executed.fetch_add(1, Ordering::Relaxed);
                // SAFETY: contract of `run_cilk_loop`.
                unsafe { (desc.run_range)(desc.data, id, task.lo, task.hi) };
                self.remaining.fetch_sub(task.len(), Ordering::AcqRel);
                return;
            }
            let mid = task.lo + task.len() / 2;
            let upper = Task {
                lo: mid,
                hi: task.hi,
            };
            // SAFETY: deque `id` is owned by the calling participant.
            if unsafe { self.deques[id].push(upper) }.is_err() {
                // Deque full (extremely deep split): process the upper half inline.
                self.process_task(id, upper);
            }
            task.hi = mid;
        }
    }
}

// --------------------------------------------------------------------------------------
// Typed loop entry points (plain loops; reductions live in `reducer.rs`)
// --------------------------------------------------------------------------------------

/// Harness of a baseline `cilk_for_blocks`: on the master's stack, owning the block
/// body (a `&dyn` body from a `LoopRuntime` call is held as it is, or inside its
/// per-index adapter, not behind a reference).
struct CilkForHarness<F> {
    body: F,
}

unsafe fn exec_cilk_range<F: Fn(Range<usize>) + Sync>(
    data: *const (),
    _worker: usize,
    lo: usize,
    hi: usize,
) {
    // SAFETY: the caller passes a pointer to a harness the master keeps alive
    // until the loop drains.
    let h = unsafe { &*(data as *const CilkForHarness<F>) };
    (h.body)(lo..hi);
}

impl CilkPool {
    /// The baseline loop, `cilk_for`: recursive binary splitting down to
    /// [`CilkPool::effective_grain`], dynamic (work-stealing) scheduling.  `body(leaf)`
    /// runs once per leaf task, a non-empty piece of at most that many iterations.
    pub(crate) fn cilk_for_blocks<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        // Empty loops are a fast-path no-op (no dispenser traffic, no counters).
        if range.is_empty() {
            return;
        }
        let grain = self.effective_grain(range.len());
        let harness = CilkForHarness { body };
        self.work().stats.master.loops.add(1);
        // SAFETY: the harness outlives the loop; `exec_cilk_range::<F>` matches its type.
        unsafe {
            self.run_cilk_loop(
                range,
                LoopDescriptor {
                    data: &harness as *const _ as *const (),
                    run_range: exec_cilk_range::<F>,
                    on_steal: None,
                    grain,
                },
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::CilkFineGrain;
    use parlo_core::Loops;
    use parlo_sync::AtomicUsize;

    /// A pool of `threads` workers whose loops split down to `grain`.
    pub(crate) fn grained_pool(threads: usize, grain: usize) -> CilkPool {
        CilkPool::new(CilkConfig {
            grain: Some(grain),
            ..CilkConfig::with_threads(threads)
        })
    }

    #[test]
    fn xorshift_escapes_the_zero_fixed_point() {
        // Regression: xorshift64 maps 0 to 0 forever; a zero state must recover
        // (and keep producing distinct values) instead of pinning the victim
        // rotation to deque 0.
        let mut state = 0u64;
        let first = xorshift(&mut state);
        assert_ne!(first, 0);
        assert_ne!(state, 0);
        let second = xorshift(&mut state);
        assert_ne!(second, 0);
        assert_ne!(second, first);
    }

    #[test]
    fn victim_seed_is_nonzero_for_every_id() {
        // The one id whose mix would cancel the golden constant must still get a
        // nonzero seed; spot-check it along with ordinary ids.
        let inv = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(inverse_of_mix());
        assert_eq!(victim_seed(inv as usize), 0x9E37_79B9_7F4A_7C15);
        for id in 0..64 {
            assert_ne!(
                victim_seed(id),
                0,
                "id {id} seeded the xorshift fixed point"
            );
        }
    }

    /// Multiplicative inverse of the seed-mix constant mod 2^64 (it is odd, so one
    /// exists); used to construct the pathological id in the seed test.
    fn inverse_of_mix() -> u64 {
        let m = 0xA076_1D64_78BD_642Fu64;
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        assert_eq!(m.wrapping_mul(inv), 1);
        inv
    }

    #[test]
    fn grain_heuristic() {
        assert_eq!(default_grain(0, 4), 1);
        assert_eq!(default_grain(1000, 4), 31);
        assert_eq!(default_grain(10_000_000, 4), 2048);
        assert_eq!(default_grain(100, 1), 12);
    }

    #[test]
    fn pool_creation_and_teardown() {
        for threads in [1, 2, 4] {
            let p = CilkPool::with_threads(threads);
            assert_eq!(p.num_threads(), threads);
            drop(p);
        }
    }

    #[test]
    fn cilk_for_visits_each_index_once() {
        for threads in [1usize, 2, 4] {
            let mut p = grained_pool(threads, 16);
            let hits: Vec<AtomicUsize> = (0..1013).map(|_| AtomicUsize::new(0)).collect();
            p.for_each(0..1013, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cilk_for_with_offset_range() {
        let mut p = grained_pool(3, 8);
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        p.for_each(50..150, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            let expected = usize::from((50..150).contains(&i));
            assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
        }
    }

    #[test]
    fn fine_grain_for_visits_each_index_once() {
        for threads in [1usize, 2, 4] {
            let mut p = CilkFineGrain::with_threads(threads);
            let hits: Vec<AtomicUsize> = (0..513).map(|_| AtomicUsize::new(0)).collect();
            p.for_each(0..513, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn mixing_cilk_and_fine_grain_loops() {
        let mut p = CilkFineGrain::with_threads(4);
        let counter = AtomicUsize::new(0);
        for round in 0..20 {
            if round % 2 == 0 {
                p.pool.for_each(0..100, |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                p.for_each(0..100, |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
        let s = p.pool.stats();
        assert_eq!(s.loops, 10);
        assert_eq!(s.fine_loops, 10);
    }

    #[test]
    fn placement_pool_uses_hierarchical_fine_path() {
        use parlo_affinity::PlacementConfig;
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = CilkFineGrain::with_placement(4, &placement);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            p.for_each(0..100, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let h = p.pool.hierarchy_stats().expect("hierarchical fine path");
        assert_eq!(h.cycles, 10);
        assert_eq!(h.cross_socket_rendezvous, 10);
    }

    #[test]
    fn empty_range_is_noop() {
        let mut p = CilkFineGrain::with_threads(2);
        p.pool.for_each(5..5, |_| panic!("must not run"));
        p.for_each(5..5, |_| panic!("must not run"));
    }

    #[test]
    fn many_small_cilk_loops() {
        let mut p = CilkPool::with_threads(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            p.for_each(0..16, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
        assert!(p.stats().tasks_executed >= 100);
    }

    #[test]
    fn stats_track_steals_on_larger_loop() {
        let mut p = grained_pool(4, 64);
        let sum = AtomicUsize::new(0);
        p.for_each(0..100_000, |i| {
            sum.fetch_add(i & 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 50_000);
        // With several workers and >1500 leaf tasks some stealing is overwhelmingly
        // likely, but do not make the test flaky on a single-core machine: only check
        // the counters are consistent.
        let s = p.stats();
        assert!(s.steal_attempts >= s.steals);
        assert!(s.tasks_executed >= 100_000 / 64);
    }
}
