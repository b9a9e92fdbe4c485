//! The one team skeleton: idle workers bound to one master.
//!
//! The paper's whole argument (§2, Figure 1) rests on one structural fact — the workers
//! of a loop runtime are idle and bound to one master, so a loop needs one release and
//! one join.  Every runtime in the workspace shares that structure, and this module is
//! its single implementation:
//!
//! * [`Job`] — the type-erased work description the master publishes per loop;
//! * [`ReduceViews`] — the per-participant reduction views a merged reduction folds;
//! * [`walk_range`] / [`fold_range`] — how a participant walks one contiguous piece of
//!   its share, calling a body or folding into an accumulator (see below);
//! * [`TeamSync`] — the *sync shape*, the one thing a runtime swaps: what the master
//!   and a worker do at the fork point and at the completion point.  Implemented here
//!   for [`HalfBarrier`] (one release, one join), for [`FullBarrier`] (two full
//!   episodes per loop, the Table 1 ablation) and for [`ExtraReductionBarrier`] (the
//!   OpenMP-like structure: a third full barrier on reduction loops);
//! * [`TeamCore`] — the protocol state (job slot, detach flag, master and per-worker
//!   epochs, the single-driver guard) with the one loop cycle, the one detach cycle
//!   and the one worker scheduling loop;
//! * [`Team`] — a `TeamCore` plus its [`Lease`] on the substrate: the one place a
//!   runtime registers with an [`Executor`], pins its master and (re-)attaches its
//!   workers.
//!
//! *Which iterations participant `id` runs* is not the skeleton's business: that is
//! the `execute(id)` entry point of the [`Job`] each runtime publishes (a static block,
//! an OpenMP schedule, a chunk deque drained and stolen from, a recursive split).  A
//! pool is therefore a sync shape + its scheduling + its stats, on top of a `Team`.
//!
//! # Why the share walk is a frame of its own
//!
//! An `execute` entry point gets its harness as an erased `*const ()`.  A loop written
//! there — `for i in block { (h.body)(i) }` — reads the body through a reference LLVM
//! derived from a raw pointer: it may not assume the harness survives the opaque call
//! unchanged, so it reloads the callee every iteration.  For the `&dyn Fn(usize)` body
//! every `parlo_core::LoopRuntime` call arrives with, that was
//! `mov (%rbx),%rax; mov (%rax),%rdi; mov 0x8(%rax),%rax; call *0x28(%rax)` — three
//! dependent loads feeding each indirect call (for a generic closure, a reload of every
//! captured slice pointer after each raw store), paid per index and only on the
//! parallel side: `Sequential` receives its body as a `noalias readonly` parameter and
//! pays one hoisted `call`.  On MPDATA's kernel-dominated loops that was 2–10 µs per
//! loop, several times the dispatch burden `d`.
//!
//! [`walk_range`] and [`fold_range`] take the body **by `&F` parameter**, so inside
//! them it is `noalias readonly` too: callee, captured pointers and range bounds stay
//! in registers, and the inner loop of the `&dyn` instantiation is the counter, the
//! compare and one `call`.  That only holds while they are real frames — marked
//! `#[inline(always)]` they kept about half the gain (`mpdata` `speedup` 1.75 → 1.875
//! instead of → 1.95), because the parameter attributes dissolve once the frame is
//! inlined into the erased entry point.  Hence `#[inline(never)]`, one call per
//! contiguous piece (a static block, a dispensed chunk, a leaf task), and every pool
//! walking its share through this pair rather than by hand (CI greps for it).

use crate::{ClientHooks, Executor, Lease};
use crossbeam::utils::CachePadded;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{Epoch, FullBarrier, HalfBarrier, WaitPolicy};
use parlo_sync::{AtomicBool, AtomicU64, Ordering, UnsafeCell};
use std::ops::Range;
use std::sync::Arc;

/// A type-erased work descriptor: a pointer to a fully typed harness on the master's
/// stack plus the monomorphised functions that execute a participant's share and
/// (optionally) fold one participant's reduction view into another's.  The master
/// publishes it before the fork and does not return before the join completes, so the
/// pointee outlives every access — the lifetime-erasure argument of scoped threads.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    data: *const (),
    execute: unsafe fn(*const (), usize),
    combine: Option<unsafe fn(*const (), usize, usize)>,
}

// SAFETY: `Job::new` requires the entry points to be callable concurrently from every
// participant, i.e. the harness behind `data` is only ever used as a `Sync` value.
unsafe impl Send for Job {}

impl Job {
    /// A job that does nothing: the initial slot value, and what a detach cycle runs.
    pub fn noop() -> Self {
        unsafe fn nop(_data: *const (), _id: usize) {}
        Job {
            data: std::ptr::null(),
            execute: nop,
            combine: None,
        }
    }

    /// Builds a job over `harness`: `execute(data, id)` runs participant `id`'s share,
    /// `combine(data, into, from)` folds view `from` into view `into`.
    ///
    /// # Safety
    /// `harness` must outlive every call through the job (it must stay alive until the
    /// [`Team::run`] it is passed to returns), both entry points must treat `data` as a
    /// `*const H`, and they must be safe to call concurrently from all participants.
    pub unsafe fn new<H>(
        harness: &H,
        execute: unsafe fn(*const (), usize),
        combine: Option<unsafe fn(*const (), usize, usize)>,
    ) -> Self {
        Job {
            data: harness as *const H as *const (),
            execute,
            combine,
        }
    }

    /// Whether the job carries a merged reduction.
    pub fn has_combine(&self) -> bool {
        self.combine.is_some()
    }

    /// The completion-side hook of participant `into`: folds each arriving child's view.
    #[inline]
    fn fold_into(self, into: usize) -> impl FnMut(usize) {
        move |from| {
            if let Some(combine) = self.combine {
                parlo_trace::instant(parlo_trace::Phase::Combine, from as u64, 0);
                // SAFETY: `from` has arrived, so its view is final and its owner no
                // longer touches it; only `into` accesses both views from here on.
                unsafe { combine(self.data, into, from) };
            }
        }
    }
}

/// Calls `body(i)` for every `i` of `range`, in order: how every `execute` entry point
/// walks one contiguous piece of its share (see the module docs for why this is a
/// frame of its own and must not be inlined into the erased entry point).
#[inline(never)]
pub fn walk_range<F: Fn(usize)>(body: &F, range: Range<usize>) {
    for i in range {
        body(i);
    }
}

/// Folds every `i` of `range`, in order, into `acc` with `fold` and returns the
/// accumulator (moved through, never cloned): the reduction twin of [`walk_range`].
#[inline(never)]
pub fn fold_range<T, F: Fn(T, usize) -> T>(fold: &F, mut acc: T, range: Range<usize>) -> T {
    for i in range {
        acc = fold(acc, i);
    }
    acc
}

/// The per-participant views of one reduction, each padded to its own cache line.
/// Access is unsynchronized by design: the loop protocol gives every view exactly one
/// accessor at a time (its owner until it arrives, its join parent afterwards).
#[derive(Debug)]
pub struct ReduceViews<T> {
    slots: Vec<CachePadded<UnsafeCell<Option<T>>>>,
}

impl<T> ReduceViews<T> {
    /// `n` views, each initialised with `seed()`.
    pub fn new(n: usize, mut seed: impl FnMut() -> Option<T>) -> Self {
        ReduceViews {
            slots: (0..n)
                .map(|_| CachePadded::new(UnsafeCell::new(seed())))
                .collect(),
        }
    }

    /// Moves view `id` out (leaving it empty).
    ///
    /// # Safety
    /// No other thread may access view `id` concurrently.
    #[inline]
    pub unsafe fn take(&self, id: usize) -> Option<T> {
        // SAFETY: the caller guarantees exclusive access to view `id`.
        self.slots[id].with_mut(|v| unsafe { (*v).take() })
    }

    /// Stores `value` as view `id`.
    ///
    /// # Safety
    /// As for [`ReduceViews::take`].
    #[inline]
    pub unsafe fn put(&self, id: usize, value: T) {
        // SAFETY: the caller guarantees exclusive access to view `id`.
        self.slots[id].with_mut(|v| unsafe { *v = Some(value) });
    }

    /// Folds view `from` into view `into` with `f` (both must be present).
    ///
    /// # Safety
    /// No other thread may access either view concurrently.
    #[inline]
    pub unsafe fn combine(&self, into: usize, from: usize, f: impl FnOnce(T, T) -> T) {
        // SAFETY: exclusivity over both views is the caller's contract.
        unsafe {
            let a = self.take(into).expect("into-view present at combine");
            let b = self.take(from).expect("from-view present at combine");
            self.put(into, f(a, b));
        }
    }
}

/// The synchronization shape of a team: what happens at the fork point and at the
/// completion point of one loop, on the master and on a worker.  `at` is the
/// participant's epoch cursor — each phase advances it by however many barrier
/// episodes it consumes, identically on both sides, so shapes with a different (even a
/// per-loop varying) number of episodes share the skeleton's one resume mechanism.
pub trait TeamSync: Send + Sync + 'static {
    /// Participants (master included).
    fn num_threads(&self) -> usize;
    /// Master side of the fork point.
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy);
    /// Worker side of the fork point: returns once the loop's job may be read.
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy);
    /// Master side of the completion point; `on_child(c)` is called once per direct
    /// join child `c` after it has arrived.  `reduce` tells whether the job carries a
    /// merged reduction.
    fn master_join<F: FnMut(usize)>(
        &self,
        at: &mut Epoch,
        policy: &WaitPolicy,
        reduce: bool,
        on_child: F,
    );
    /// Worker side of the completion point.
    fn worker_join<F: FnMut(usize)>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        reduce: bool,
        on_child: F,
    );
}

/// The paper's shape: a release phase at the fork (the master never waits there) and a
/// join phase at the end (nobody acknowledges the workers) — one epoch per loop.
impl TeamSync for HalfBarrier {
    fn num_threads(&self) -> usize {
        HalfBarrier::num_threads(self)
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, _policy: &WaitPolicy) {
        *at += 1;
        self.release(*at);
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) {
        *at += 1;
        self.wait_release(id, *at, policy);
    }

    #[inline]
    fn master_join<F: FnMut(usize)>(&self, at: &mut Epoch, policy: &WaitPolicy, _: bool, f: F) {
        self.join(*at, policy, f);
    }

    #[inline]
    fn worker_join<F: FnMut(usize)>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        _: bool,
        f: F,
    ) {
        self.arrive(id, *at, policy, f);
    }
}

/// The conventional shape: a full fork barrier and a full join barrier (which folds
/// reduction views in its join phase) — two episodes per loop.
impl TeamSync for FullBarrier {
    fn num_threads(&self) -> usize {
        FullBarrier::num_threads(self)
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy) {
        *at += 1;
        self.master_wait(*at, policy);
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) {
        *at += 1;
        self.worker_wait(id, *at, policy);
    }

    #[inline]
    fn master_join<F: FnMut(usize)>(&self, at: &mut Epoch, policy: &WaitPolicy, _: bool, f: F) {
        *at += 1;
        self.master_wait_combine(*at, policy, f);
    }

    #[inline]
    fn worker_join<F: FnMut(usize)>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        _: bool,
        f: F,
    ) {
        *at += 1;
        self.worker_wait_combine(id, *at, policy, f);
    }
}

/// The OpenMP-like shape (the Intel runtime structure the paper measures against): a
/// full fork barrier, a full join barrier, and on reduction loops an **extra** full
/// barrier in between whose join phase aggregates the per-thread partial results — two
/// episodes per plain loop, three per reduction loop.
#[derive(Debug)]
pub struct ExtraReductionBarrier(pub FullBarrier);

impl TeamSync for ExtraReductionBarrier {
    fn num_threads(&self) -> usize {
        self.0.num_threads()
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy) {
        self.0.master_fork(at, policy);
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) {
        self.0.worker_fork(id, at, policy);
    }

    #[inline]
    fn master_join<F: FnMut(usize)>(
        &self,
        at: &mut Epoch,
        policy: &WaitPolicy,
        reduce: bool,
        f: F,
    ) {
        if reduce {
            *at += 1;
            self.0.master_wait_combine(*at, policy, f);
        }
        *at += 1;
        self.0.master_wait(*at, policy);
    }

    #[inline]
    fn worker_join<F: FnMut(usize)>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        reduce: bool,
        f: F,
    ) {
        if reduce {
            *at += 1;
            self.0.worker_wait_combine(id, *at, policy, f);
        }
        *at += 1;
        self.0.worker_wait(id, *at, policy);
    }
}

/// The protocol state of a team, independent of where its worker threads come from:
/// [`Team`] runs [`TeamCore::worker_body`] on leased substrate workers, the model
/// battery runs it on model-checked threads.
#[derive(Debug)]
pub struct TeamCore<S> {
    name: String,
    sync: S,
    policy: WaitPolicy,
    /// Written by the driver strictly before the fork, read by workers strictly after
    /// they observe it: the sync shape's release/acquire edge orders every access.
    slot: UnsafeCell<Job>,
    /// Asks the workers to leave [`TeamCore::worker_body`] after the cycle in flight.
    detach: AtomicBool,
    /// The master's epoch cursor.  Only the thread holding the `in_loop` claim touches
    /// it (an atomic because that thread is the lease switcher during a detach cycle).
    epoch: AtomicU64,
    /// Where each worker's cursor resumes after a detach/re-attach cycle.
    worker_epochs: Vec<CachePadded<AtomicU64>>,
    /// Set while a loop or a detach cycle is in flight.  Both claim it with a `swap`,
    /// so a racing second driver — or a lease revocation overlapping a loop — panics
    /// deterministically on whichever side comes second instead of corrupting the
    /// hand-off.  One atomic RMW per loop.
    in_loop: AtomicBool,
}

impl<S: TeamSync> TeamCore<S> {
    /// Fresh protocol state over `sync`: all epochs zero, nobody attached.
    pub fn new(name: String, sync: S, policy: WaitPolicy) -> Self {
        TeamCore {
            worker_epochs: (0..sync.num_threads())
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            name,
            sync,
            policy,
            slot: UnsafeCell::new(Job::noop()),
            detach: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            in_loop: AtomicBool::new(false),
        }
    }

    /// The single-driver guard (see the crate docs' multi-driver contract).
    #[inline]
    fn claim(&self, violation: &str) {
        assert!(
            !self.in_loop.swap(true, Ordering::Relaxed),
            "'{}' {violation} (see the parlo-exec multi-driver contract)",
            self.name
        );
    }

    /// One fork → execute → join cycle of `job`, the calling thread acting as master.
    ///
    /// # Safety
    /// The caller holds the team (no other cycle in flight), every worker
    /// `1..num_threads` is inside [`TeamCore::worker_body`], and the harness behind
    /// `job` stays alive until this returns.
    pub unsafe fn cycle(&self, job: Job) {
        let mut at = self.epoch.load(Ordering::Relaxed);
        // SAFETY: the previous cycle's join completed, so no worker reads the slot.
        self.slot.with_mut(|slot| unsafe { *slot = job });
        self.sync.master_fork(&mut at, &self.policy);
        // SAFETY: the master executes its share like any participant; the harness
        // outlives this call by the caller's contract.
        unsafe { (job.execute)(job.data, 0) };
        self.sync
            .master_join(&mut at, &self.policy, job.has_combine(), job.fold_into(0));
        self.epoch.store(at, Ordering::Relaxed);
    }

    /// The detach cycle — the hook a [`Team`] registers with the substrate: one no-op
    /// cycle that every attached worker completes (keeping every shape's epoch
    /// accounting aligned across re-attachment) before leaving its scheduling loop.
    pub fn detach_workers(&self) {
        self.claim(
            "lease revoked while a loop is in flight; concurrent drivers of one team \
             must coordinate",
        );
        self.detach.store(true, Ordering::Release);
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        parlo_trace::span_begin(parlo_trace::Phase::DetachCycle, next, 0);
        // SAFETY: the claim above excludes any loop; attached workers are in the body
        // (the substrate detaches only after the attach rendezvous); a no-op job
        // dereferences nothing.
        unsafe { self.cycle(Job::noop()) };
        parlo_trace::span_end(parlo_trace::Phase::DetachCycle);
        self.in_loop.store(false, Ordering::Relaxed);
    }

    /// Clears the detach request; must precede re-entering [`TeamCore::worker_body`].
    pub fn rearm(&self) {
        self.detach.store(false, Ordering::Relaxed);
    }

    /// One worker's scheduling loop: resumes at the cursor stored on its last detach,
    /// serves cycle after cycle, and returns after completing a detach cycle.
    pub fn worker_body(&self, id: usize) {
        let mut at = self.worker_epochs[id].load(Ordering::Relaxed);
        loop {
            self.sync.worker_fork(id, &mut at, &self.policy);
            let detaching = self.detach.load(Ordering::Acquire);
            // SAFETY: the fork established a happens-before edge with the driver's
            // publish of this cycle's job.
            let job = self.slot.with(|slot| unsafe { *slot });
            // SAFETY: the driver keeps the harness alive until its join completes,
            // which cannot happen before this worker arrives below.
            unsafe { (job.execute)(job.data, id) };
            self.sync.worker_join(
                id,
                &mut at,
                &self.policy,
                job.has_combine(),
                job.fold_into(id),
            );
            if detaching {
                self.worker_epochs[id].store(at, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// A team of `P − 1` leased substrate workers bound to one master: what every loop
/// runtime in the workspace is built on.
#[derive(Debug)]
pub struct Team<S> {
    core: Arc<TeamCore<S>>,
    /// The team's claim on the substrate; dropping it detaches the workers.
    lease: Lease,
}

impl<S: TeamSync> Team<S> {
    /// Registers a team over `sync` with `executor` — exclusively, or over an explicit
    /// `partition` of substrate worker ids (see [`Executor::register_partition`]).  An
    /// exclusive team pins the calling thread as its master (worker index 0 of
    /// `topology` under `pin`); a partition team never re-pins: it is typically built
    /// on a control thread and *driven* by an already pinned substrate worker.
    pub fn build(
        name: String,
        sync: S,
        wait: WaitPolicy,
        topology: &Topology,
        pin: PinPolicy,
        executor: &Arc<Executor>,
        partition: Option<&[usize]>,
    ) -> Self {
        let core = Arc::new(TeamCore::new(name.clone(), sync, wait));
        if partition.is_none() {
            // Latch the process-wide CPU count before this thread narrows its own
            // affinity mask (see `parlo_affinity::host_cpus`).
            parlo_affinity::host_cpus();
            if let Some(cpu) = topology.core_for_worker(0, pin) {
                let _ = parlo_affinity::pin_to_core(cpu);
            }
        }
        let hooks = ClientHooks {
            name,
            participants: core.sync.num_threads(),
            body: {
                let core = Arc::clone(&core);
                Arc::new(move |id| core.worker_body(id))
            },
            detach: {
                let core = Arc::clone(&core);
                Arc::new(move || core.detach_workers())
            },
        };
        let lease = match partition {
            None => executor.register(hooks),
            Some(workers) => executor.register_partition(hooks, workers.to_vec()),
        };
        Team { core, lease }
    }

    /// Runs `f` as the team's one driver: claims the team (a second simultaneous
    /// driver panics), re-acquires the lease if another runtime ran in between (one
    /// atomic load when it is still held), and brackets `f` in a `loop` trace span.
    pub fn drive<R>(&self, f: impl FnOnce() -> R) -> R {
        let core = &*self.core;
        core.claim("driven by two threads at once: a team serves exactly one master thread");
        if core.sync.num_threads() > 1 {
            self.lease.ensure_active(|| core.rearm());
        }
        parlo_trace::span_begin(
            parlo_trace::Phase::Loop,
            core.epoch.load(Ordering::Relaxed) + 1,
            core.sync.num_threads() as u64,
        );
        let out = f();
        parlo_trace::span_end(parlo_trace::Phase::Loop);
        core.in_loop.store(false, Ordering::Relaxed);
        out
    }

    /// Runs one job on all participants of the team.
    ///
    /// # Safety
    /// The harness behind `job` must stay alive until this call returns (see
    /// [`Job::new`]).
    pub unsafe fn run(&self, job: Job) {
        // SAFETY: `drive` holds the team and has every worker attached; harness
        // lifetime is the caller's contract.
        self.drive(|| unsafe { self.core.cycle(job) });
    }

    /// Participants (master included).
    pub fn num_threads(&self) -> usize {
        self.core.sync.num_threads()
    }

    /// The team's sync shape.
    pub fn sync(&self) -> &S {
        &self.core.sync
    }

    /// The substrate the team leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.lease.executor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_barrier::TreeShape;
    use parlo_sync::AtomicUsize;

    /// Counts executions per participant and reduces `id + 1` over the participants.
    struct Harness {
        hits: Vec<AtomicUsize>,
        views: ReduceViews<usize>,
    }

    impl Harness {
        fn new(n: usize) -> Self {
            Harness {
                hits: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                views: ReduceViews::new(n, || None),
            }
        }
    }

    unsafe fn exec(data: *const (), id: usize) {
        // SAFETY: the tests pass a pointer to a live `Harness`.
        let h = unsafe { &*(data as *const Harness) };
        h.hits[id].fetch_add(1, Ordering::Relaxed);
        // SAFETY: each participant writes only its own view before it arrives.
        unsafe { h.views.put(id, id + 1) };
    }

    unsafe fn comb(data: *const (), into: usize, from: usize) {
        // SAFETY: the tests pass a pointer to a live `Harness`; the join protocol
        // gives `into` exclusive access to both views.
        unsafe {
            (*(data as *const Harness))
                .views
                .combine(into, from, |a, b| a + b)
        };
    }

    /// One loop on `team`; a reduction loop returns the folded `id + 1` sum.
    fn run_loop<S: TeamSync>(team: &Team<S>, reduce: bool) -> Option<usize> {
        let n = team.num_threads();
        let h = Harness::new(n);
        // SAFETY: `h` outlives `run`; `exec`/`comb` match its type.
        unsafe { team.run(Job::new(&h, exec, reduce.then_some(comb as _))) };
        assert!(
            h.hits.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "every participant runs every loop exactly once"
        );
        // SAFETY: the loop has completed.
        reduce.then(|| unsafe { h.views.take(0) }.expect("master view"))
    }

    /// Loops → forced detach → re-attach → loops, over one sync shape and one lease
    /// kind, checking after every detach that the master's cursor and every worker's
    /// stored resume cursor agree on `episodes(plain, reductions, detaches)`.
    fn churn<S: TeamSync>(
        make: impl Fn(usize) -> S,
        partition: Option<&[usize]>,
        episodes: impl Fn(u64, u64, u64) -> u64,
    ) {
        const P: usize = 3;
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let build = |name: &str, partition| {
            Team::build(
                name.to_string(),
                make(P),
                WaitPolicy::default(),
                &topo,
                PinPolicy::None,
                &exec,
                partition,
            )
        };
        let team = build("under-test", partition);
        // An exclusive activation evicts both an exclusive holder and a partition.
        let evictor = build("evictor", None);
        let (mut plain, mut reductions) = (0u64, 0u64);
        for round in 1..=4u64 {
            for k in 0..round + 2 {
                let reduce = k % 2 == 1;
                assert_eq!(run_loop(&team, reduce), reduce.then_some(P * (P + 1) / 2));
                *(if reduce { &mut reductions } else { &mut plain }) += 1;
            }
            run_loop(&evictor, false);
            assert!(!team.lease.is_active(), "evicted in round {round}");
            let at = episodes(plain, reductions, round);
            assert_eq!(team.core.epoch.load(Ordering::Relaxed), at);
            for w in &team.core.worker_epochs[1..] {
                assert_eq!(
                    w.load(Ordering::Relaxed),
                    at,
                    "worker resumes where the master is"
                );
            }
        }
        assert_eq!(
            exec.stats().workers,
            P - 1,
            "one set of workers serves both teams"
        );
    }

    #[test]
    fn detach_and_reattach_keep_epochs_aligned_for_every_shape_and_lease_kind() {
        for partition in [None, Some(&[1usize, 2][..])] {
            churn(HalfBarrier::new_centralized, partition, |p, r, d| p + r + d);
            churn(
                |n| HalfBarrier::new_tree(TreeShape::uniform(n, 2)),
                partition,
                |p, r, d| p + r + d,
            );
            churn(
                |n| HalfBarrier::new_hierarchical(&Topology::synthetic(2, 2).unwrap(), n, 2),
                partition,
                |p, r, d| p + r + d,
            );
            for full in [
                FullBarrier::new_centralized as fn(usize) -> FullBarrier,
                |n| FullBarrier::new_tree(TreeShape::uniform(n, 2)),
            ] {
                churn(full, partition, |p, r, d| 2 * (p + r + d));
                churn(
                    |n| ExtraReductionBarrier(full(n)),
                    partition,
                    |p, r, d| 2 * p + 3 * r + 2 * d,
                );
            }
        }
    }

    #[test]
    fn single_participant_team_never_touches_the_substrate() {
        let topo = Topology::flat(2).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let team = Team::build(
            "solo".to_string(),
            HalfBarrier::new_centralized(1),
            WaitPolicy::default(),
            &topo,
            PinPolicy::None,
            &exec,
            None,
        );
        assert_eq!(run_loop(&team, true), Some(1));
        assert_eq!(exec.stats().workers, 0);
        assert_eq!(exec.stats().switches, 0);
    }

    #[test]
    fn walk_and_fold_visit_the_range_in_order_and_move_the_accumulator() {
        let seen = std::cell::RefCell::new(Vec::new());
        walk_range(&|i| seen.borrow_mut().push(i), 5..9);
        walk_range(&|_| panic!("an empty range calls nothing"), 9..9);
        // A `&dyn` body is the instantiation every `LoopRuntime` call goes through.
        let erased: &dyn Fn(usize) = &|i| seen.borrow_mut().push(10 * i);
        walk_range(&erased, 1..3);
        assert_eq!(*seen.borrow(), [5, 6, 7, 8, 10, 20]);

        /// Neither `Copy` nor `Clone`: folding compiles only if the accumulator moves.
        struct Trail(Vec<usize>);
        let start = Trail(Vec::with_capacity(8));
        let buffer = start.0.as_ptr();
        let push = |mut t: Trail, i| {
            t.0.push(i);
            t
        };
        let out = fold_range(&push, start, 3..7);
        assert_eq!(out.0, [3, 4, 5, 6]);
        assert_eq!(out.0.as_ptr(), buffer, "the same allocation comes back");
        let out = fold_range(&|_, _| panic!("an empty range folds nothing"), out, 7..7);
        assert_eq!(out.0.as_ptr(), buffer);
    }

    #[test]
    fn noop_job_is_harmless_and_jobs_dispatch_to_their_harness() {
        let noop = Job::noop();
        assert!(!noop.has_combine());
        // SAFETY: a no-op job dereferences nothing.
        unsafe { (noop.execute)(noop.data, 7) };
        noop.fold_into(0)(1);
        let h = Harness::new(2);
        // SAFETY: `h` outlives the job; this test is single-threaded.
        let job = unsafe { Job::new(&h, exec, Some(comb)) };
        assert!(job.has_combine());
        // SAFETY: as above.
        unsafe {
            (job.execute)(job.data, 0);
            (job.execute)(job.data, 1);
        }
        job.fold_into(0)(1);
        // SAFETY: single-threaded.
        let (into, from) = unsafe { (h.views.take(0), h.views.take(1)) };
        assert_eq!((into, from), (Some(3), None), "a folded view is consumed");
    }
}
