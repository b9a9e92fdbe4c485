//! The one team skeleton: idle workers bound to one master.
//!
//! The paper's whole argument (§2, Figure 1) rests on one structural fact — the workers
//! of a loop runtime are idle and bound to one master, so a loop needs one release and
//! one join.  Every runtime in the workspace shares that structure, and this module is
//! its single implementation:
//!
//! * [`Job`] — the type-erased work description of one loop: its entry points and a
//!   by-value copy of its harness, exactly one release payload long, carried to every
//!   worker in the release line that releases it;
//! * [`put_payload`] / [`take_payload`] — a merged reduction's accumulator in the
//!   payload its owner arrives with, for every `T` that [`payload_fits`];
//! * [`ReduceViews`] — a loop's handle on the team's per-participant reduction-view
//!   blocks, where a wider accumulator (and the ordered reduction's) waits instead;
//! * [`walk_range`] / [`fold_range`] — the per-index adapters: how a per-index body
//!   walks one contiguous piece of a share, calling the body or folding into an
//!   accumulator (see below);
//! * [`TeamSync`] — the *sync shape*, the one thing a runtime swaps: what the master
//!   and a worker do at the fork point (where the job travels) and at the completion
//!   point (where a merged reduction's accumulators travel).  Implemented here for [`HalfBarrier`] (one release, one join), for
//!   [`FullBarrier`] (two full episodes per loop, the Table 1 ablation) and for
//!   [`ExtraReductionBarrier`] (the OpenMP-like structure: a third full barrier on
//!   reduction loops);
//! * [`TeamCore`] — the protocol state (detach flag, master and per-worker epochs, the
//!   single-driver guard, the view blocks) with the one loop cycle, the one detach
//!   cycle and the one worker scheduling loop;
//! * [`Team`] — a `TeamCore` plus its [`Lease`] on the substrate: the one place a
//!   runtime registers with an [`Executor`], pins its master and (re-)attaches its
//!   workers.
//!
//! *Which iterations participant `id` runs* is not the skeleton's business: that is
//! the `execute(id)` entry point of the [`Job`] a runtime publishes — `parlo-core`'s
//! loop or merged-reduction harness over the runtime's dealer (a static block, an
//! OpenMP schedule, a chunk deque drained and stolen from).  A pool is therefore a
//! sync shape + its dealer + its stats, on top of a `Team`.
//!
//! # Why the share walk is a frame of its own
//!
//! A runtime dispatches contiguous pieces — a static block, a dispensed chunk, a leaf
//! task, a stolen or lent piece — and its `execute` entry point calls the loop's body
//! **once per piece**, with the piece: every harness holds a block body
//! (`Fn(Range<usize>)`, or `Fn(T, Range<usize>) -> T` for a fold).  A block kernel such
//! as MPDATA's walks the piece itself, inlined, as the paper's OpenMP and Cilk loops
//! run the iteration loop inside the outlined body.
//!
//! A per-index body (`parallel_for(range, body)`) reaches the same harness through an
//! adapter, `move |r| walk_range(&body, r)` or
//! `move |acc, r| fold_range(&fold, acc, r)`, which the entry point builds at the API
//! boundary and passes into the job by value: the adapter holds the body's handle —
//! for a `LoopRuntime` call, the `&dyn` body itself — so a worker still finds it in
//! the line that released it.  The adapter's piece walk is [`walk_range`] /
//! [`fold_range`], and those must stay frames of their own.  The entry point gets its
//! copy of the harness as an erased `*const ()`, and a loop written there —
//! `for i in block { (h.body)(i) }` — reads the body through a reference LLVM derived
//! from a raw pointer: it may not assume the harness survives the opaque call
//! unchanged, so it reloads the callee every iteration.  For the `&dyn Fn(usize)` body
//! every `parlo_core::LoopRuntime` call arrives with, that was `mov (%rbx),%rax; mov
//! (%rax),%rdi; mov 0x8(%rax),%rax; call *0x28(%rax)` — three dependent loads feeding
//! each indirect call (for a generic closure, a reload of every captured slice pointer
//! after each raw store), paid per index and only on the parallel side.  On MPDATA's
//! kernel-dominated loops that was 2–10 µs per loop, several times the dispatch burden
//! `d`.
//!
//! [`walk_range`] and [`fold_range`] take the body **by `&F` parameter**, so inside
//! them it is `noalias readonly`: callee, captured pointers and range bounds stay in
//! registers, and the inner loop of the `&dyn` instantiation is the counter, the
//! compare and one `call` — what `Sequential` pays for a per-index body.  That only
//! holds while they are real frames — marked `#[inline(always)]` they kept about half
//! the gain (`mpdata` `speedup` 1.75 → 1.875 instead of → 1.95), because the parameter
//! attributes dissolve once the frame is inlined into the erased entry point.  Hence
//! `#[inline(never)]`, one call per piece, and no pool walking a piece per index by
//! hand (CI greps for it, and for the adapters being the pair's only callers in the
//! pools).
//!
//! # What a loop costs each side
//!
//! The paper's burden `d` is one release and one join, and a merged reduction folds
//! into that join; everything else a loop costs on top of it is kept to the hand-off
//! itself, on both sides of it.  At P = 2 the loop's critical path crosses cores on
//! two lines — the release line down, the arrival line up — plus the caller's own
//! closure.
//!
//! **The master** hands its job to the sync shape, which writes it into the release
//! lines as it releases.  It writes no line a worker owns before the release, and its
//! own per-loop state (epoch cursor, in-flight claim, view stamp) sits on a line of its
//! own, away from the detach flag, sync shape and wait policy every worker reads each
//! loop.  Instrumentation takes no locked read-modify-write: what the master alone
//! counts (loops, reductions, phases, barrier cycles) is a relaxed load and store,
//! exact across a change of driving thread because [`TeamCore`]'s claim is an
//! acquire/release pair; what several participants count per loop (arrivals, combines)
//! goes on a line each writer owns and is summed on read.  What stays is the claim
//! `swap`, the lease check and the trace hooks' armed checks.
//!
//! **A worker** that sees its release must learn what to run before its first
//! iteration, and each line it reads on the way was just written by the master: every
//! one is a dependent miss.  With a job slot in the team that chain was the release
//! line → the slot → the harness on the master's stack → the `&dyn` operator's slot in
//! the pool method's frame → the body's environment.  Now the release line carries the
//! [`Job`] itself, whose harness holds the range, the thread count and a
//! `LoopRuntime` call's `&dyn` operators by value, so the chain is the release line →
//! the body's environment, which belongs to the caller.
//!
//! **The join** is the mirror image.  Every participant runs its share into an
//! accumulator on its own stack ([`Job`]'s `execute` leaves it in a [`Payload`]), folds
//! each join child's accumulator into it as soon as that child's arrival is seen — read
//! from the arrival line whose `Acquire` load saw the epoch, which is the line the
//! child just wrote — and arrives with the folded accumulator as its own payload; the
//! master's, returned by [`TeamCore::cycle`], holds the result.  So a parent reads one
//! line per child, the line it must read anyway to learn that the child arrived.  With
//! the accumulators in per-participant view blocks that was two dependent misses per
//! child: the arrival flag, then the child's block.  A plain loop's participant stores
//! its arrival epoch alone and copies nothing.  The view blocks remain for an
//! accumulator wider than a payload and for the ordered reduction, which folds every
//! view at the master in thread order: P padded blocks allocated at build, grown
//! between loops only when a wider `T` arrives, written by each owner before it arrives
//! and only *read* by its join parent.
//!
//! Measured with time-stamp-counter marks around a 512-iteration, grain-1
//! `parallel_sum` on a 2-thread `FineGrainPool`, medians of ten alternating runs of
//! 100 000 loops on a 2-vCPU Xeon.  Master, at 2.1 GHz: from the call to just before the release, 186 ns
//! when a reduction built its views as a fresh `Vec` of P padded slots and bumped locked
//! counters, 125 ns with team-owned views; from the completed join to the call's
//! return, 227 ns (including the `free` of that `Vec`) against 93 ns.  Then, through
//! `dyn LoopRuntime` with fenced marks and a 2.0 GHz time-stamp counter, job slot
//! against job in the release line: the worker, from seeing its release to the first
//! body call, 419 ns against 192 ns; the master, from the call to entering the release,
//! 208 ns against 58 ns (the slot and the harness were lines the worker had read, and
//! writing the job now falls inside the release: from entering it to the worker seeing
//! the epoch, 224 ns against 271 ns), and from the completed join to the return, 153 ns
//! against 40 ns; the whole call, 2.42 µs against 1.75 µs.
//!
//! Then, accumulators in view blocks against accumulators in the arrival payloads (with
//! `LoopRuntime::parallel_sum` carrying its summand in the job), from the benchmark's
//! `micro_sweep` rows, medians of five alternating `--trace 1` pairs on the same host:
//! a 512-iteration grain-1 reduction costs 213 ns more than the same plain loop against
//! 95 ns (`core.reduce_512x1_ns − core.for_512x1_ns`), the master's span from its first
//! fold to the end of its join is 103 ns against 31 ns (`core.combine_ns`), and the
//! empty loop 330 ns against 290 ns (`core.empty_for_ns`).

use crate::{ClientHooks, Executor, Lease};
use crossbeam::utils::CachePadded;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{Epoch, FullBarrier, HalfBarrier, Payload, WaitPolicy, EMPTY_PAYLOAD};
use parlo_sync::{AtomicBool, AtomicU64, Ordering, SingleWriterCounter, UnsafeCell};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ops::Range;
use std::sync::Arc;

/// Bytes of harness a [`Job`] carries: the release payload less its two entry points
/// (13 words on a 64-bit target).
const HARNESS_BYTES: usize = size_of::<Payload>() - 2 * size_of::<usize>();

/// A type-erased work descriptor, exactly one release payload long: the monomorphised
/// functions that execute a participant's share and (optionally) fold a join child's
/// accumulator into the caller's, followed by a by-value copy of the loop's harness.
///
/// The master hands the job to its sync shape, which writes it into the release line
/// every worker spins on ([`parlo_barrier::Payload`]); each participant then runs its
/// share against its *own* copy of the harness, so a worker reads nothing the master
/// wrote besides that line before its first iteration.  A harness is `Copy` and holds
/// the loop's parameters by value (the range as two integers, a `&dyn` body as the fat
/// pointer itself) and references to whatever the participants share — the caller's
/// closures, the team's view blocks, a dispenser on the master's stack.  The master
/// does not return before the join completes, so every such referent outlives every
/// access: the lifetime-erasure argument of scoped threads.
#[derive(Clone, Copy)]
#[repr(C, align(8))]
pub struct Job {
    execute: Execute,
    combine: Option<Combine>,
    harness: [MaybeUninit<u8>; HARNESS_BYTES],
}

/// A job's share entry point: `execute(data, id, acc)` runs participant `id`'s share
/// against the harness copy at `data`; a merged reduction leaves the participant's
/// accumulator in `acc` (when it travels in the payload, see [`payload_fits`]).
pub type Execute = unsafe fn(*const (), usize, &mut Payload);

/// A job's combine entry point: `combine(data, into, acc, from, child)` folds join
/// child `from`'s accumulator — `child`, the payload it arrived with — into participant
/// `into`'s, `acc`.
pub type Combine = unsafe fn(*const (), usize, &mut Payload, usize, &Payload);

const _: () = assert!(
    size_of::<Job>() == size_of::<Payload>() && align_of::<Job>() >= align_of::<Payload>(),
    "a job is exactly one release payload"
);

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("execute", &(self.execute as *const ()))
            .field("has_combine", &self.has_combine())
            .finish_non_exhaustive()
    }
}

impl Job {
    /// A job that does nothing: what a detach cycle runs.
    pub fn noop() -> Self {
        unsafe fn nop(_data: *const (), _id: usize, _acc: &mut Payload) {}
        Job {
            execute: nop,
            combine: None,
            harness: [MaybeUninit::uninit(); HARNESS_BYTES],
        }
    }

    /// Builds a job carrying a copy of `harness`: `execute` runs a participant's share
    /// and `combine` folds a join child's accumulator into its parent's (see [`Execute`]
    /// and [`Combine`]), each with `data` pointing at the calling participant's own
    /// copy.  A harness
    /// fits in 13 words (104 bytes on a 64-bit target) at an alignment of at most 8,
    /// which is checked when the job is built.
    ///
    /// # Safety
    /// Everything `harness` refers to must outlive every call through the job (it must
    /// stay alive until the [`Team::run`] it is passed to returns), both entry points
    /// must treat `data` as a `*const H`, and they must be safe to call concurrently
    /// from all participants.
    pub unsafe fn new<H: Copy>(harness: H, execute: Execute, combine: Option<Combine>) -> Self {
        const {
            assert!(
                size_of::<H>() <= HARNESS_BYTES && align_of::<H>() <= 8,
                "a job's harness is at most 13 words at an alignment of at most 8"
            )
        };
        let mut job = Job {
            execute,
            combine,
            harness: [MaybeUninit::uninit(); HARNESS_BYTES],
        };
        // SAFETY: the assertion above keeps an `H` inside the harness bytes, which
        // start 8-aligned (the job is 8-aligned and they follow two pointers).
        unsafe { job.harness.as_mut_ptr().cast::<H>().write(harness) };
        job
    }

    /// The job a release carried.
    ///
    /// # Safety
    /// `payload` was published as [`Job::payload`] of a job.
    #[inline]
    pub unsafe fn from_payload(payload: Payload) -> Self {
        // SAFETY: same size (asserted above); the bytes are a job's by the contract.
        unsafe { std::mem::transmute::<Payload, Job>(payload) }
    }

    /// The job as the payload of a release.
    #[inline]
    pub fn payload(&self) -> &Payload {
        // SAFETY: a job is exactly one payload long and at least as aligned, and a
        // payload's words are `MaybeUninit`, so any bytes read as one.
        unsafe { &*(self as *const Job).cast::<Payload>() }
    }

    /// Whether the job carries a merged reduction.
    pub fn has_combine(&self) -> bool {
        self.combine.is_some()
    }

    /// Runs participant `id`'s share against this copy of the harness, leaving a
    /// merged reduction's accumulator in `acc`.
    ///
    /// # Safety
    /// The contract of [`Job::new`].
    #[inline]
    unsafe fn run(&self, id: usize, acc: &mut Payload) {
        // SAFETY: forwarded contract.
        unsafe { (self.execute)(self.harness.as_ptr().cast(), id, acc) };
    }

    /// What a participant takes into the join: its accumulator if the job carries a
    /// merged reduction, nothing for a plain loop (which then arrives with its epoch
    /// alone).
    #[inline]
    fn accumulator<'p>(&self, acc: &'p mut Payload) -> Option<&'p mut Payload> {
        self.has_combine().then_some(acc)
    }

    /// The completion-side hook of participant `into`: folds each arriving child's
    /// accumulator into its own.
    #[inline]
    fn fold_into(&self, into: usize) -> impl FnMut(&mut Payload, usize, &Payload) + '_ {
        move |acc, from, child| {
            if let Some(combine) = self.combine {
                parlo_trace::instant(parlo_trace::Phase::Combine, from as u64, 0);
                // SAFETY: `from` has arrived, so its accumulator is final and its owner
                // no longer touches it; only `into` accesses both from here on.
                unsafe { combine(self.harness.as_ptr().cast(), into, acc, from, child) };
            }
        }
    }
}

/// Whether a `T` accumulator travels in the join's arrival payloads: it fits one
/// [`Payload`] (15 words) at an alignment of at most 8.  A wider `T` goes through the
/// team's view blocks ([`ReduceViews`]).
pub const fn payload_fits<T>() -> bool {
    size_of::<T>() <= size_of::<Payload>() && align_of::<T>() <= align_of::<Payload>()
}

/// Moves `value` into `payload`.
///
/// # Safety
/// [`payload_fits::<T>()`](payload_fits); whatever `payload` held is overwritten, not
/// dropped.
#[inline]
pub unsafe fn put_payload<T>(payload: &mut Payload, value: T) {
    assert!(
        payload_fits::<T>(),
        "a payload holds at most 15 words at alignment 8"
    );
    // SAFETY: a payload is 8-aligned and holds a `T` (caller's contract).
    unsafe { payload.as_mut_ptr().cast::<T>().write(value) };
}

/// Moves the `T` that [`put_payload`] put into `payload` out of it.
///
/// # Safety
/// `payload` holds a `T` put there by [`put_payload`] (or a byte copy of one) that was
/// not already moved out.
#[inline]
pub unsafe fn take_payload<T>(payload: &Payload) -> T {
    assert!(
        payload_fits::<T>(),
        "a payload holds at most 15 words at alignment 8"
    );
    // SAFETY: the caller's contract.
    unsafe { payload.as_ptr().cast::<T>().read() }
}

/// Calls `body(i)` for every `i` of `range`, in order: the piece walk of the adapter
/// `move |r| walk_range(&body, r)` that a per-index entry point hands its runtime as
/// the block body (see the module docs for why this is a frame of its own and must not
/// be inlined into the erased entry point).
#[inline(never)]
pub fn walk_range<F: Fn(usize)>(body: &F, range: Range<usize>) {
    for i in range {
        body(i);
    }
}

/// Folds every `i` of `range`, in order, into `acc` with `fold` and returns the
/// accumulator (moved through, never cloned): the reduction twin of [`walk_range`],
/// behind the adapter `move |acc, r| fold_range(&fold, acc, r)`.
#[inline(never)]
pub fn fold_range<T, F: Fn(T, usize) -> T>(fold: &F, mut acc: T, range: Range<usize>) -> T {
    for i in range {
        acc = fold(acc, i);
    }
    acc
}

/// Bytes per line of view storage: the false-sharing granule (two 64-byte lines on
/// x86-64, where the adjacent-line prefetcher pairs them).
const LINE: usize = 128;

/// One line of a participant's view block.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(128))]
struct Line([u8; LINE]);

/// Participant `id`'s view block: a whole number of [`Line`]s behind a cell the model
/// checker observes.  The first 8 bytes hold the stamp of the loop that last put a view
/// there; the view follows at [`value_offset`].
type ViewBlock = UnsafeCell<Box<[Line]>>;

/// `lines` zeroed lines: stamp 0, which no loop carries, so the block holds no view.
fn empty_block(lines: usize) -> Box<[Line]> {
    vec![Line([0; LINE]); lines].into_boxed_slice()
}

/// Where a `T` view sits in its block: after the 8-byte stamp, at `T`'s alignment.
fn value_offset<T>() -> usize {
    std::mem::align_of::<T>().max(8)
}

/// Lines a block needs to hold the stamp and a `T` view (at least one).
fn lines_for<T>() -> usize {
    (value_offset::<T>() + std::mem::size_of::<T>()).div_ceil(LINE)
}

/// The reduction views of one loop, typed as `T`: a handle on the team's per-participant
/// view blocks, obtained from [`TeamCore::views`] by the driver before the loop.  A
/// merged reduction whose `T` [`payload_fits`] passes its accumulators in the arrival
/// payloads instead; the blocks serve a wider `T`, a reduction that needs every view
/// at the master after the join (the ordered one), and the Cilk-like baseline's
/// per-worker reducer views.
///
/// The blocks belong to the team, not to the loop: they are allocated when the team is
/// built, grown between loops when a larger `T` arrives, and reused by every reduction,
/// so a reduction allocates nothing.  Each participant's block is its own set of padded
/// lines.  A view is *present* only if it was put under this handle's stamp, so views
/// left behind by an earlier loop — of any type — are never read.
///
/// Access is unsynchronized by design: the loop protocol gives every view one accessor
/// at a time — its owner until it arrives, its join parent afterwards.  The owner
/// writes its view before it arrives; the parent moves it out by *reading* it and never
/// writes the child's block back, so the owner's next `put` finds its line unshared
/// rather than modified in the parent's cache.
pub struct ReduceViews<'a, T> {
    blocks: &'a [ViewBlock],
    stamp: u64,
    _view: PhantomData<fn(T) -> T>,
}

impl<T> Clone for ReduceViews<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ReduceViews<'_, T> {}

impl<T> std::fmt::Debug for ReduceViews<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceViews")
            .field("participants", &self.blocks.len())
            .field("stamp", &self.stamp)
            .finish()
    }
}

impl<T> ReduceViews<'_, T> {
    /// Stores `value` as view `id`.
    ///
    /// # Safety
    /// No other thread accesses view `id` concurrently, and the loop this handle was
    /// obtained for is the team's current loop.
    #[inline]
    pub unsafe fn put(&self, id: usize, value: T) {
        // SAFETY: exclusive access to block `id` is the caller's contract, and
        // `TeamCore::views` sized every block for a stamp and a `T` at its offset.
        self.blocks[id].with_mut(|block| unsafe {
            let base = (&mut *block).as_mut_ptr().cast::<u8>();
            base.cast::<u64>().write(self.stamp);
            base.add(value_offset::<T>()).cast::<T>().write(value);
        });
    }

    /// Moves view `id` out, or returns `None` if it was not put under this handle.
    /// The block is only read, never written back.
    ///
    /// # Safety
    /// As for [`ReduceViews::put`], and view `id` was not already moved out since it
    /// was last put (its block still reads as holding it).
    #[inline]
    pub unsafe fn take(&self, id: usize) -> Option<T> {
        // SAFETY: as in `put`; the stamp is always initialized (zeroed at allocation,
        // only ever written as a `u64`), and a matching stamp means a `T` was written
        // at the value offset under this handle and not yet moved out.
        self.blocks[id].with(|block| unsafe {
            let base = (&*block).as_ptr().cast::<u8>();
            (base.cast::<u64>().read() == self.stamp)
                .then(|| base.add(value_offset::<T>()).cast::<T>().read())
        })
    }

    /// Folds view `from` into view `into` with `f` (both must be present); `from`
    /// counts as moved out afterwards.
    ///
    /// # Safety
    /// As for [`ReduceViews::take`], for both views.
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
///
/// The fork point carries the loop's [`Job`]: the master hands it to `master_fork`,
/// which publishes it as the payload of the release that opens the loop, and
/// `worker_fork` returns the copy the worker read from the line that released it.
pub trait TeamSync: Send + Sync + 'static {
    /// Participants (master included).
    fn num_threads(&self) -> usize;
    /// Master side of the fork point: releases the workers into `job`.
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job);
    /// Worker side of the fork point: returns the loop's job once released into it.
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job;
    /// Master side of the completion point.  With an accumulator `acc` (a merged
    /// reduction), `on_child(acc, c, payload)` is called once per direct join child `c`
    /// after it has arrived, with the payload it arrived with; without one, nothing is
    /// called.
    fn master_join<F>(
        &self,
        at: &mut Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload);
    /// Worker side of the completion point: folds its children as the master does, then
    /// arrives with `acc` as its payload (with the epoch alone without one).
    fn worker_join<F>(
        &self,
        id: usize,
        at: &mut Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload);
}

/// The paper's shape: a release phase at the fork (the master never waits there) and a
/// join phase at the end (nobody acknowledges the workers) — one epoch per loop.
impl TeamSync for HalfBarrier {
    fn num_threads(&self) -> usize {
        HalfBarrier::num_threads(self)
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, _policy: &WaitPolicy, job: &Job) {
        *at += 1;
        self.release(*at, job.payload());
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job {
        *at += 1;
        // SAFETY: a team's fork releases carry its jobs (`master_fork` above).
        unsafe { Job::from_payload(self.wait_release(id, *at, policy)) }
    }

    #[inline]
    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        self.join(*at, policy, acc, f);
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
        self.arrive(id, *at, policy, acc, f);
    }
}

/// The conventional shape: a full fork barrier and a full join barrier (which folds
/// reduction views in its join phase) — two episodes per loop.  The fork episode's
/// release carries the job; the join episode's carries nothing.
impl TeamSync for FullBarrier {
    fn num_threads(&self) -> usize {
        FullBarrier::num_threads(self)
    }

    #[inline]
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job) {
        *at += 1;
        self.master_wait(*at, policy, job.payload());
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job {
        *at += 1;
        // SAFETY: a team's fork episodes carry its jobs (`master_fork` above).
        unsafe { Job::from_payload(self.worker_wait(id, *at, policy)) }
    }

    #[inline]
    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        *at += 1;
        self.master_wait_combine(*at, policy, &EMPTY_PAYLOAD, acc, f);
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
        *at += 1;
        self.worker_wait_combine(id, *at, policy, acc, f);
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
    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job) {
        self.0.master_fork(at, policy, job);
    }

    #[inline]
    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job {
        self.0.worker_fork(id, at, policy)
    }

    #[inline]
    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        if acc.is_some() {
            *at += 1;
            self.0
                .master_wait_combine(*at, policy, &EMPTY_PAYLOAD, acc, f);
        }
        *at += 1;
        self.0.master_wait(*at, policy, &EMPTY_PAYLOAD);
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
        if acc.is_some() {
            *at += 1;
            self.0.worker_wait_combine(id, *at, policy, acc, f);
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
    /// The sync shape; its fork releases carry each loop's [`Job`].
    sync: S,
    policy: WaitPolicy,
    /// Asks the workers to leave [`TeamCore::worker_body`] after the cycle in flight.
    detach: AtomicBool,
    /// Where each worker's cursor resumes after a detach/re-attach cycle.
    worker_epochs: Vec<CachePadded<AtomicU64>>,
    /// One reduction-view block per participant (see [`ReduceViews`]); each block is
    /// written only by its participant and read by its join parent.
    views: Box<[ViewBlock]>,
    /// What only the driver touches per loop, on a line of its own: the fields above
    /// are read by every worker every loop and must not miss on the driver's stores.
    master: CachePadded<MasterState>,
}

/// The driver's per-loop state.  Only the thread holding the `in_loop` claim writes it
/// (atomics because that thread is the lease switcher during a detach cycle).
#[derive(Debug, Default)]
struct MasterState {
    /// The master's epoch cursor.
    epoch: AtomicU64,
    /// Set while a loop or a detach cycle is in flight.  Both claim it with a `swap`,
    /// so a racing second driver — or a lease revocation overlapping a loop — panics
    /// deterministically on whichever side comes second instead of corrupting the
    /// hand-off.  One atomic RMW per loop.
    in_loop: AtomicBool,
    /// Stamp of the last [`TeamCore::views`] handle; each handle gets a fresh one.
    view_stamp: SingleWriterCounter,
}

impl<S: TeamSync> TeamCore<S> {
    /// Fresh protocol state over `sync`: all epochs zero, nobody attached, one empty
    /// one-line view block per participant.
    pub fn new(name: String, sync: S, policy: WaitPolicy) -> Self {
        let n = sync.num_threads();
        TeamCore {
            worker_epochs: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            views: (0..n).map(|_| UnsafeCell::new(empty_block(1))).collect(),
            name,
            sync,
            policy,
            detach: AtomicBool::new(false),
            master: CachePadded::default(),
        }
    }

    /// The single-driver guard (see the crate docs' multi-driver contract).  The
    /// `Acquire` pairs with [`TeamCore::unclaim`]'s `Release`, so each claim holder
    /// sees everything the previous one wrote: the epoch cursor and every counter the
    /// driver alone bumps stay exact when the team changes hands between threads.
    #[inline]
    fn claim(&self, violation: &str) {
        assert!(
            !self.master.in_loop.swap(true, Ordering::Acquire),
            "'{}' {violation} (see the parlo-exec multi-driver contract)",
            self.name
        );
    }

    /// Gives the claim back (see [`TeamCore::claim`]).
    #[inline]
    fn unclaim(&self) {
        self.master.in_loop.store(false, Ordering::Release);
    }

    /// The team's view blocks typed as `T`, for the next loop's reduction: grows
    /// every block first if a `T` does not fit (the only allocation views ever make),
    /// then hands out a fresh stamp, so no view of an earlier loop reads as present.
    ///
    /// # Safety
    /// Only the team's driver calls this, between loops: no cycle is in flight, and a
    /// handle from an earlier call is not used once this one is taken.
    pub unsafe fn views<T>(&self) -> ReduceViews<'_, T> {
        const {
            assert!(
                std::mem::align_of::<T>() <= LINE,
                "reduction views are aligned to at most one 128-byte line"
            )
        };
        let lines = lines_for::<T>();
        // SAFETY: no loop is in flight (caller's contract), so no participant touches
        // any block; the next loop's release publishes the new blocks to the workers.
        if self.views[0].with(|block| unsafe { (&*block).len() }) < lines {
            for block in &self.views[..] {
                // SAFETY: as above.
                block.with_mut(|block| unsafe { *block = empty_block(lines) });
            }
        }
        self.master.view_stamp.add(1);
        ReduceViews {
            blocks: &self.views,
            stamp: self.master.view_stamp.get(),
            _view: PhantomData,
        }
    }

    /// One fork → execute → join cycle of `job`, the calling thread acting as master:
    /// the fork's release carries the job to every worker.  Returns the master's
    /// accumulator: after a merged reduction whose accumulator travels in the payload,
    /// every participant's folded into it.
    ///
    /// # Safety
    /// The caller holds the team (no other cycle in flight), every worker
    /// `1..num_threads` is inside [`TeamCore::worker_body`], and everything the job's
    /// harness refers to stays alive until this returns.
    pub unsafe fn cycle(&self, job: Job) -> Payload {
        let mut at = self.master.epoch.load(Ordering::Relaxed);
        self.sync.master_fork(&mut at, &self.policy, &job);
        let mut acc = EMPTY_PAYLOAD;
        // SAFETY: the master executes its share like any participant, on its own copy
        // of the harness; the harness's referents outlive this call by contract.
        unsafe { job.run(0, &mut acc) };
        let fold = job.fold_into(0);
        self.sync
            .master_join(&mut at, &self.policy, job.accumulator(&mut acc), fold);
        self.master.epoch.store(at, Ordering::Relaxed);
        acc
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
        let next = self.master.epoch.load(Ordering::Relaxed) + 1;
        parlo_trace::span_begin(parlo_trace::Phase::DetachCycle, next, 0);
        // SAFETY: the claim above excludes any loop; attached workers are in the body
        // (the substrate detaches only after the attach rendezvous); a no-op job
        // dereferences nothing.
        unsafe { self.cycle(Job::noop()) };
        parlo_trace::span_end(parlo_trace::Phase::DetachCycle);
        self.unclaim();
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
            let job = self.sync.worker_fork(id, &mut at, &self.policy);
            let detaching = self.detach.load(Ordering::Acquire);
            let mut acc = EMPTY_PAYLOAD;
            // SAFETY: the job is this cycle's, read from the release that opened it; the
            // driver keeps its harness's referents alive until its join completes,
            // which cannot happen before this worker arrives below.
            unsafe { job.run(id, &mut acc) };
            let fold = job.fold_into(id);
            self.sync
                .worker_join(id, &mut at, &self.policy, job.accumulator(&mut acc), fold);
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
            core.master.epoch.load(Ordering::Relaxed) + 1,
            core.sync.num_threads() as u64,
        );
        let out = f();
        parlo_trace::span_end(parlo_trace::Phase::Loop);
        core.unclaim();
        out
    }

    /// Runs one job on all participants of the team, and returns the master's
    /// accumulator (see [`TeamCore::cycle`]).
    ///
    /// # Safety
    /// Everything the job's harness refers to must stay alive until this call returns
    /// (see [`Job::new`]).
    pub unsafe fn run(&self, job: Job) -> Payload {
        // SAFETY: `drive` holds the team and has every worker attached; harness
        // lifetime is the caller's contract.
        self.drive(|| unsafe { self.core.cycle(job) })
    }

    /// The team's reduction views typed as `T` (see [`TeamCore::views`]).
    ///
    /// # Safety
    /// As for [`TeamCore::views`]: the caller drives the team and no loop is in flight.
    pub unsafe fn views<T>(&self) -> ReduceViews<'_, T> {
        // SAFETY: forwarded contract.
        unsafe { self.core.views() }
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
    use parlo_sync::AtomicUsize;

    /// Counts executions per participant and reduces `id + 1` over the participants in
    /// the arrival payloads.
    struct Harness {
        hits: Vec<AtomicUsize>,
    }

    impl Harness {
        fn new<S: TeamSync>(core: &TeamCore<S>) -> Self {
            Harness {
                hits: (0..core.sync.num_threads())
                    .map(|_| AtomicUsize::new(0))
                    .collect(),
            }
        }
    }

    /// The tests' jobs carry a reference to a live `Harness` (its counters are shared).
    unsafe fn harness<'a>(data: *const ()) -> &'a Harness {
        // SAFETY: the tests build their jobs over a `&Harness` that outlives the job.
        unsafe { *(data as *const &Harness) }
    }

    unsafe fn exec(data: *const (), id: usize, acc: &mut Payload) {
        // SAFETY: the tests' contract.
        let h = unsafe { harness(data) };
        h.hits[id].fetch_add(1, Ordering::Relaxed);
        // SAFETY: a `usize` fits a payload.
        unsafe { put_payload(acc, id + 1) };
    }

    unsafe fn comb(_: *const (), _: usize, acc: &mut Payload, _: usize, child: &Payload) {
        // SAFETY: both payloads hold a `usize` put by `exec` or by this fold.
        unsafe {
            put_payload(
                acc,
                take_payload::<usize>(acc) + take_payload::<usize>(child),
            )
        };
    }

    /// One loop on `team`; a reduction loop returns the folded `id + 1` sum.
    fn run_loop<S: TeamSync>(team: &Team<S>, reduce: bool) -> Option<usize> {
        let h = Harness::new(&team.core);
        // SAFETY: `h` outlives `run`; `exec`/`comb` match the job's harness type.
        let acc = unsafe { team.run(Job::new(&h, exec, reduce.then_some(comb as _))) };
        assert!(
            h.hits.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "every participant runs every loop exactly once"
        );
        // SAFETY: the master's `exec` put a `usize`, which the join folded into.
        reduce.then(|| unsafe { take_payload(&acc) })
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
            assert_eq!(team.core.master.epoch.load(Ordering::Relaxed), at);
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
            let two_sockets = Topology::synthetic(2, 2).unwrap();
            churn(HalfBarrier::new_centralized, partition, |p, r, d| p + r + d);
            churn(
                |n| HalfBarrier::new_hierarchical(&two_sockets, n),
                partition,
                |p, r, d| p + r + d,
            );
            for full in [
                FullBarrier::new_centralized as fn(usize) -> FullBarrier,
                |n| FullBarrier::topology_aware(&Topology::synthetic(2, 2).unwrap(), n),
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
        let mut acc = EMPTY_PAYLOAD;
        // SAFETY: a no-op job dereferences nothing.
        unsafe { noop.run(7, &mut acc) };
        assert!(
            noop.accumulator(&mut acc).is_none(),
            "a plain loop arrives bare"
        );
        noop.fold_into(0)(&mut acc, 1, &EMPTY_PAYLOAD);
        let core = TeamCore::new(
            "unattached".to_string(),
            HalfBarrier::new_centralized(2),
            WaitPolicy::default(),
        );
        let h = Harness::new(&core);
        // SAFETY: `h` outlives the job; this test is single-threaded.
        let job = unsafe { Job::new(&h, exec, Some(comb)) };
        assert!(job.has_combine());
        let mut child = EMPTY_PAYLOAD;
        // SAFETY: as above.
        unsafe {
            job.run(0, &mut acc);
            job.run(1, &mut child);
        }
        job.fold_into(0)(job.accumulator(&mut acc).unwrap(), 1, &child);
        // SAFETY: the fold left a `usize` in `acc`.
        let folded = unsafe { take_payload::<usize>(&acc) };
        assert_eq!(folded, 3, "child 1 folded into 0");
    }

    #[test]
    fn a_job_carries_its_harness_by_value_through_a_release_payload() {
        /// The shape of a pool's harness: the range as two integers, a `&dyn` body.
        #[derive(Clone, Copy)]
        struct Walk<'a> {
            start: usize,
            end: usize,
            body: &'a (dyn Fn(usize) + Sync),
        }
        unsafe fn walk(data: *const (), id: usize, _: &mut Payload) {
            // SAFETY: the job below carries a `Walk`.
            let h = unsafe { &*(data as *const Walk<'_>) };
            walk_range(&h.body, h.start + id..h.end);
        }
        let seen = std::sync::Mutex::new(Vec::new());
        let body = |i| seen.lock().unwrap().push(i);
        let harness = Walk {
            start: 3,
            end: 6,
            body: &body,
        };
        // SAFETY: `body` outlives the job and its copy; single-threaded.
        let job = unsafe { Job::new(harness, walk, None) };
        let released = HalfBarrier::new_centralized(2);
        released.release(1, job.payload());
        // SAFETY: the release above carried `job`.
        let copy = unsafe { Job::from_payload(released.forward_release(1, 1)) };
        assert!(!copy.has_combine());
        let mut acc = EMPTY_PAYLOAD;
        // SAFETY: as above.
        unsafe { copy.run(1, &mut acc) };
        assert_eq!(*seen.lock().unwrap(), [4, 5], "worker 1's share of 3..6");
    }

    #[test]
    fn views_are_per_loop_and_blocks_grow_for_a_larger_type() {
        let core = TeamCore::new(
            "views".to_string(),
            HalfBarrier::new_centralized(3),
            WaitPolicy::default(),
        );
        // Where block `id` starts, and how many lines it spans.
        let block = |id: usize| {
            // SAFETY: this test is single-threaded and runs no cycle.
            core.views[id].with(|b| unsafe { ((&*b).as_ptr() as usize, (&*b).len()) })
        };
        #[repr(align(64))]
        #[derive(Debug, PartialEq)]
        struct Aligned(u8);
        // SAFETY: one thread, no cycle ever runs, and each handle is used only until
        // the next `views` call.
        unsafe {
            let first = core.views::<u64>();
            first.put(1, 7);
            assert_eq!(first.take(2), None, "nothing put under this stamp");
            let before: Vec<_> = (0..3).map(block).collect();
            for pair in before.windows(2) {
                assert_eq!(pair[0].0 % LINE, 0, "blocks start on a line");
                assert!(
                    pair[0].0.abs_diff(pair[1].0) >= LINE,
                    "blocks share no line"
                );
            }
            let second = core.views::<u64>();
            assert_eq!(second.take(1), None, "a view of an earlier loop is absent");
            assert_eq!(
                before,
                (0..3).map(block).collect::<Vec<_>>(),
                "blocks reused"
            );
            // A view wider than a line grows every block; a stale stamp stays absent.
            let wide = core.views::<[u64; 40]>();
            assert_eq!(block(2).1, 3, "8-byte stamp + 320-byte view = 3 lines");
            assert_eq!(wide.take(1), None);
            wide.put(2, [9; 40]);
            assert_eq!(wide.take(2), Some([9; 40]));
            let aligned = core.views::<Aligned>();
            aligned.put(0, Aligned(5));
            assert_eq!(aligned.take(0), Some(Aligned(5)));
        }
    }
}
