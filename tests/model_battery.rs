//! Bounded model-checking battery over parlo's hot lock-free primitives.
//!
//! Exhaustively enumerates thread interleavings (up to the preemption bound)
//! of small closed programs built from the *real* shipped primitives — the
//! Chase–Lev chunk deque (and the stealing pool's lend / reclaim / steal hand-off
//! over it), the centralized release/join half-barrier pair, the socket-composed
//! tree half-barrier and a full barrier over it, the park hub, the trace event
//! ring, the serve completion and admission hand-offs, the team skeleton's
//! loop / detach / resume protocol, the job each release line carries and the
//! accumulator each arrival line carries back — and
//! checks every interleaving for data races (vector-clock happens-before over
//! the declared orderings), deadlocks and lost wakeups.
//!
//! Build and run with the model cfg (plain `cargo test` skips this file):
//!
//! ```sh
//! RUSTFLAGS="--cfg parlo_model" cargo test -p parlo --no-default-features --test model_battery
//! ```
//!
//! The mutation self-test at the bottom weakens one `Release` store to
//! `Relaxed` in a distilled copy of the deque's publication protocol and
//! asserts the checker reports the race — evidence that a green battery means
//! the orderings are load-bearing, not that the checker is blind.

#![cfg(parlo_model)]

use parlo_barrier::{
    wake_parked, CentralizedJoin, CentralizedRelease, Epoch, FullBarrier, HalfBarrier, Payload,
    WaitPolicy, EMPTY_PAYLOAD,
};
use parlo_exec::{put_payload, take_payload, ExtraReductionBarrier, Job, TeamCore, TeamSync};
use parlo_serve::{completion_pair, AdmissionProbe};
use parlo_steal::{ChunkDeque, ChunkRange, Steal};
use parlo_sync::model;
use parlo_sync::thread;
use parlo_sync::{fence, AtomicBool, AtomicIsize, AtomicU64, Ordering, UnsafeCell};
use parlo_trace::{EventKind, EventRing, Phase};
use std::sync::Arc;

/// Exactly-once chunk delivery: two pre-filled chunks, the owner pops once
/// while a thief drains from the top.  In every interleaving each chunk is
/// obtained by exactly one side, and the deque's internal slot cells stay
/// race-free (push's `Release` on `bottom` is the only publisher).
#[test]
fn chunk_handoff_owner_vs_thief_exactly_once() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(4));
        let c0 = ChunkRange { start: 0, end: 10 };
        let c1 = ChunkRange { start: 10, end: 20 };
        // SAFETY: this thread is the deque's owner; the thief only steals.
        unsafe {
            d.push(c0).unwrap();
            d.push(c1).unwrap();
        }
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match d2.steal() {
                    Steal::Success(c) => got.push(c),
                    // A failed CAS means the other side took that chunk;
                    // the next round observes the new top.
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            got
        });
        // SAFETY: this thread is the deque's owner.
        let popped = unsafe { d.pop() };
        let mut all = thief.join().unwrap();
        all.extend(popped);
        all.sort_by_key(|c| c.start);
        assert_eq!(all, vec![c0, c1], "every chunk delivered exactly once");
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The classic Chase–Lev razor edge: owner pop races a thief's steal for the
/// single last chunk.  The `top` CAS must arbitrate to exactly one winner in
/// every interleaving — zero winners loses a chunk, two duplicate it.
#[test]
fn last_chunk_steal_vs_pop_has_one_winner() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(2));
        let c = ChunkRange { start: 7, end: 9 };
        // SAFETY: this thread is the deque's owner.
        unsafe { d.push(c).unwrap() };
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || match d2.steal() {
            Steal::Success(got) => {
                assert_eq!(got, c);
                true
            }
            // Retry = lost the CAS to the owner; Empty = owner already won.
            Steal::Retry | Steal::Empty => false,
        });
        // SAFETY: this thread is the deque's owner.
        let mine = unsafe { d.pop() };
        if let Some(got) = mine {
            assert_eq!(got, c);
        }
        let stolen = thief.join().unwrap();
        assert_eq!(
            usize::from(mine.is_some()) + usize::from(stolen),
            1,
            "exactly one side obtains the last chunk"
        );
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// One participant of the pool's claim loop, distilled to its deque traffic (the
/// shape of `participate` / `execute_piece` in `crates/steal/src/pool.rs`): pop the own
/// deque, else probe the other one; whoever claims a piece while its own deque is
/// empty pushes the half `cut` says to lend and runs the other; leave only after the
/// own pop came back empty *and* the other deque was observed empty.  Returns the
/// ranges this participant ran.  `cut` is [`parlo_steal::lend_halves`] in the shipped
/// rule; the mutation check below swaps in a wrong one.
fn lending_participant(
    deques: &[ChunkDeque; 2],
    id: usize,
    cut: fn(ChunkRange) -> Option<(ChunkRange, ChunkRange)>,
) -> Vec<ChunkRange> {
    let (own, other) = (&deques[id], &deques[1 - id]);
    let mut ran = Vec::new();
    let mut claim = |piece: ChunkRange| {
        ran.push(match cut(piece) {
            // SAFETY: each model thread pushes to and pops from its own deque only.
            Some((run, lend)) if own.is_empty() && unsafe { own.push(lend) }.is_ok() => run,
            _ => piece,
        });
    };
    loop {
        // SAFETY: as above — `own` is this thread's deque.
        if let Some(piece) = unsafe { own.pop() } {
            claim(piece);
            continue;
        }
        match other.steal() {
            Steal::Success(piece) => claim(piece),
            // Lost the CAS to the owner's pop: the loop is live, look again.
            Steal::Retry => {}
            Steal::Empty => break,
        }
    }
    ran
}

/// A two-participant loop whose whole work is one chunk of `4 * LEND_FLOOR`
/// iterations, seeded by participant 0 *after* the thief started (participants seed
/// their own deques, so a thief's first sweep may well find nothing).  No deque sees
/// more than three pushes here (seed, two lends), so capacity 4 never reuses a slot:
/// a stalled thief reading a reused slot is the deque's own discard-on-failed-CAS
/// path, not part of this hand-off.
fn lending_round(
    cut: fn(ChunkRange) -> Option<(ChunkRange, ChunkRange)>,
) -> Result<model::Report, model::Violation> {
    model::Builder::new().try_check(move || {
        let len = 4 * parlo_steal::LEND_FLOOR;
        let deques = Arc::new([ChunkDeque::new(4), ChunkDeque::new(4)]);
        let d2 = Arc::clone(&deques);
        let thief = thread::spawn(move || lending_participant(&d2, 1, cut));
        // SAFETY: this thread owns deque 0.
        unsafe { deques[0].push(ChunkRange { start: 0, end: len }).unwrap() };
        let mut ran = lending_participant(&deques, 0, cut);
        ran.extend(thief.join().unwrap());
        ran.sort_by_key(|c| c.start);
        let mut next = 0;
        for c in &ran {
            assert_eq!(c.start, next, "an index ran twice or not at all: {ran:?}");
            next = c.end;
        }
        assert_eq!(next, len, "the tail of the loop was stranded: {ran:?}");
        assert!(deques.iter().all(|d| d.is_empty()));
    })
}

/// Lend / reclaim / steal hand-off: the lender pushes the upper half of its last
/// chunk, runs the lower half and pops; the thief steals concurrently and — its own
/// deque being empty — lends in turn, so halves cross in both directions.  In every
/// interleaving each index runs exactly once; in particular a thief that saw "all
/// empty" and left (before the seed, or between two lends) strands nothing, because
/// a lender pops its own deque again before it can leave.
#[test]
fn lent_halves_are_reclaimed_or_stolen_exactly_once() {
    let report = lending_round(parlo_steal::lend_halves).expect("lending is exactly-once");
    assert!(report.complete, "exploration must be exhaustive");
}

/// Mutation check for the model above: a rule that lends the *lower* half while
/// also running it executes those indices twice and never runs the upper half —
/// the model must report it (as the tiling assertion's panic), on a schedule that
/// replays.
#[test]
fn mutation_lending_the_half_being_run_is_caught() {
    fn lend_what_runs(piece: ChunkRange) -> Option<(ChunkRange, ChunkRange)> {
        parlo_steal::lend_halves(piece).map(|(lower, _upper)| (lower, lower))
    }
    let v = lending_round(lend_what_runs).expect_err("checker must catch the mutation");
    assert_eq!(v.kind, model::ViolationKind::Panic);
    assert!(
        !v.schedule.is_empty(),
        "violation carries a replayable schedule"
    );
}

/// Publication *through* the deque: the owner writes a payload cell and then
/// pushes concurrently with the thief's bounded steal attempts.  When a steal
/// succeeds, the only happens-before edge covering the payload read is the
/// push's `Release` store of `bottom` paired with steal's `Acquire` load —
/// exactly the edge the mutation self-test below knocks out.
#[test]
fn deque_publication_chain_is_race_free() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(2));
        let payload = Arc::new(UnsafeCell::new(0u64));
        let (d2, p2) = (Arc::clone(&d), Arc::clone(&payload));
        let thief = thread::spawn(move || {
            // Bounded attempts: some interleavings never observe the push,
            // which is fine — the racy ones are what we are exploring.
            for _ in 0..4 {
                if let Steal::Success(c) = d2.steal() {
                    // SAFETY: reading the payload the owner published before
                    // pushing this chunk; the model verifies the edge.
                    let v = p2.with(|p| unsafe { *p });
                    assert_eq!((c.start, v), (3, 41), "payload published with its chunk");
                    return true;
                }
            }
            false
        });
        // SAFETY: the thief only reads this cell after stealing the chunk
        // pushed below, which happens-after this write.
        payload.with_mut(|p| unsafe { *p = 41 });
        // SAFETY: this thread is the deque's owner.
        unsafe { d.push(ChunkRange { start: 3, end: 4 }).unwrap() };
        let _ = thief.join().unwrap();
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// Two full release→work→join epochs of the centralized half-barrier pair
/// with real payload traffic: the master broadcasts an input cell, workers
/// write per-worker result cells and arrive.  Verifies `signal`/`wait` and
/// `arrive`/`wait_all` publish everything — a bare arrival is one `Release`
/// store on the worker's own line — and that line reuse across epochs never
/// lets a stale read through.
#[test]
fn barrier_release_join_two_epoch_cycle() {
    let report = model::Builder::new().preemption_bound(Some(2)).check(|| {
        let release = Arc::new(CentralizedRelease::new());
        let join = Arc::new(CentralizedJoin::new(2));
        let input = Arc::new(UnsafeCell::new(0u64));
        let results = Arc::new([UnsafeCell::new(0u64), UnsafeCell::new(0u64)]);
        let spin = WaitPolicy::dedicated();
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let (release, join) = (Arc::clone(&release), Arc::clone(&join));
                let (input, results) = (Arc::clone(&input), Arc::clone(&results));
                thread::spawn(move || {
                    for epoch in 1..=2u64 {
                        release.wait(epoch, &spin);
                        // SAFETY: the master wrote `input` before signalling
                        // this epoch; `wait`'s Acquire load publishes it.
                        let x = input.with(|p| unsafe { *p });
                        // SAFETY: this worker is the cell's only writer, and
                        // the master reads it only after `wait_all`.
                        results[w as usize].with_mut(|p| unsafe { *p = x + w + 1 });
                        join.arrive(w as usize + 1, epoch, None);
                    }
                })
            })
            .collect();
        for epoch in 1..=2u64 {
            // SAFETY: workers of the previous epoch have all arrived
            // (wait_all below), and this epoch's workers read only after
            // the signal that follows this write.
            input.with_mut(|p| unsafe { *p = epoch * 10 });
            release.signal(epoch, &EMPTY_PAYLOAD);
            join.wait_all(epoch, &spin, None, |_, _, _| {});
            for w in 0..2u64 {
                // SAFETY: every worker arrived for this epoch; arrive's
                // Release publishes the result writes to wait_all's Acquire.
                let r = results[w as usize].with(|p| unsafe { *p });
                assert_eq!(r, epoch * 10 + w + 1, "epoch {epoch} worker {w}");
            }
        }
        for h in workers {
            h.join().unwrap();
        }
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The shipped tree — the half-barrier every pool's tree loops run — on a synthetic
/// 2-socket × 2-core machine at three participants: worker 1 is the master's
/// socket-local child, worker 2 the root of the remote socket, so the release reaches
/// it through its socket's release line and its arrival returns through the socket's
/// rendezvous line.
fn socket_composed_model(program: impl Fn(&parlo_affinity::Topology) + Send + Sync + 'static) {
    let topology = parlo_affinity::Topology::synthetic(2, 2).unwrap();
    let report = model::Builder::new()
        .preemption_bound(Some(2))
        .check(move || program(&topology));
    assert!(report.complete, "exploration must be exhaustive");
}

/// Two consecutive loops on the tree: each publishes an input, and the master reads
/// both workers' results after `join`.
#[test]
fn socket_composed_tree_two_loop_cycle() {
    socket_composed_model(|topology| {
        let hb = Arc::new(HalfBarrier::new_hierarchical(topology, 3));
        let input = Arc::new(UnsafeCell::new(0u64));
        let results = Arc::new([UnsafeCell::new(0u64), UnsafeCell::new(0u64)]);
        let spin = WaitPolicy::dedicated();
        let workers: Vec<_> = (1..=2usize)
            .map(|id| {
                let hb = Arc::clone(&hb);
                let (input, results) = (Arc::clone(&input), Arc::clone(&results));
                thread::spawn(move || {
                    for epoch in 1..=2u64 {
                        hb.wait_release(id, epoch, &spin);
                        // SAFETY: the master wrote `input` before releasing this epoch.
                        let x = input.with(|p| unsafe { *p });
                        // SAFETY: this worker is the cell's only writer, and the master
                        // reads it only after its join.
                        results[id - 1].with_mut(|p| unsafe { *p = x + id as u64 });
                        hb.arrive(id, epoch, &spin, None, |_, _, _| {});
                    }
                })
            })
            .collect();
        for epoch in 1..=2u64 {
            // SAFETY: the previous join ordered every worker's read of `input`.
            input.with_mut(|p| unsafe { *p = epoch * 10 });
            hb.release(epoch, &EMPTY_PAYLOAD);
            hb.join(epoch, &spin, None, |_, _, _| {});
            for id in 1..=2usize {
                // SAFETY: the join observed every arrival of this epoch.
                let r = results[id - 1].with(|p| unsafe { *p });
                assert_eq!(r, epoch * 10 + id as u64, "loop {epoch} worker {id}");
            }
        }
        for h in workers {
            h.join().unwrap();
        }
    });
}

/// One full-barrier episode over the same tree (its join, then its release): it must
/// carry every worker's write to the master and the master's write to every worker.
#[test]
fn socket_composed_full_barrier_episode() {
    socket_composed_model(|topology| {
        let fb = Arc::new(FullBarrier::topology_aware(topology, 3));
        let input = Arc::new(UnsafeCell::new(0u64));
        let results = Arc::new([UnsafeCell::new(0u64), UnsafeCell::new(0u64)]);
        let spin = WaitPolicy::dedicated();
        let workers: Vec<_> = (1..=2usize)
            .map(|id| {
                let fb = Arc::clone(&fb);
                let (input, results) = (Arc::clone(&input), Arc::clone(&results));
                thread::spawn(move || {
                    // SAFETY: this worker is the cell's only writer; the join publishes it.
                    results[id - 1].with_mut(|p| unsafe { *p = 100 + id as u64 });
                    fb.worker_wait(id, 1, &spin);
                    // SAFETY: the master wrote `input` before the release.
                    input.with(|p| unsafe { *p })
                })
            })
            .collect();
        // SAFETY: the workers read `input` only after the release.
        input.with_mut(|p| unsafe { *p = 30 });
        fb.master_wait(1, &spin, &EMPTY_PAYLOAD);
        for id in 1..=2usize {
            // SAFETY: the join observed every arrival.
            let r = results[id - 1].with(|p| unsafe { *p });
            assert_eq!(r, 100 + id as u64, "worker {id}");
        }
        for h in workers {
            assert_eq!(h.join().unwrap(), 30, "released after the master's write");
        }
    });
}

/// The park hub's sleep/notify handshake: a waiter with zero spin and yield
/// budgets goes straight to the condvar park while the signaller stores the
/// flag and calls [`wake_parked`].  Under the model a condvar wait never
/// times out, so the timed backstop cannot mask a lost wakeup — any
/// interleaving in which the waiter sleeps through the wake is reported as a
/// deadlock.
#[test]
fn park_wait_never_loses_the_wake() {
    let report = model::Builder::new().check(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let waiter = thread::spawn(move || {
            WaitPolicy {
                spins_before_yield: 0,
                yields_before_park: 0,
            }
            .wait_until(|| f2.load(Ordering::Acquire));
        });
        flag.store(true, Ordering::Release);
        wake_parked();
        waiter.join().unwrap();
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The trace ring at the overwrite boundary: capacity 2, three records, one
/// concurrent reader.  A racing snapshot must stay bounded and decodable
/// (stale is fine, garbage is not); the quiescent snapshot afterwards must
/// report exactly one overwritten event and keep the newest two in order.
#[test]
fn event_ring_overwrite_at_wrap_counts_drops() {
    let report = model::Builder::new().check(|| {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let reader = thread::spawn(move || {
            let (events, dropped) = r2.snapshot_events();
            assert!(events.len() <= 2, "never more than capacity");
            assert!(dropped <= 1, "cursor bounds the drop count");
            for e in &events {
                assert!(e.a < 3, "decoded events hold written payloads only");
            }
        });
        for i in 0..3u64 {
            ring.record(i, Phase::Probe, EventKind::Instant, i, 0);
        }
        reader.join().unwrap();
        let (events, dropped) = ring.snapshot_events();
        assert_eq!(dropped, 1, "oldest event overwritten at wrap");
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![1, 2],
            "newest two events survive, oldest first"
        );
        assert_eq!(ring.recorded(), 3);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The serve completion hand-off: `complete` publishes the result slot under
/// the lock, then flips the `done` flag (`Release`) and notifies; `wait`
/// spins on the flag and re-locks the slot.  No interleaving may lose the
/// result or the wake.
#[test]
fn serve_completion_handoff_is_clean() {
    let report = model::Builder::new().check(|| {
        let (handle, completer) = completion_pair();
        let waiter = thread::spawn(move || handle.wait());
        completer.complete(7.5);
        assert_eq!(waiter.join().unwrap(), 7.5);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The completion notifies only when it counts a parked waiter.  A waiter with no
/// spin budget (under the model a spinning one is stalled until the flag is stored
/// and never reaches the condvar) races `complete`: it either finds the result under
/// the lock or is counted before `complete` takes that lock — no interleaving leaves
/// it asleep beside a published result.
#[test]
fn serve_parked_waiter_never_misses_the_completion() {
    let report = model::Builder::new().check(|| {
        let (handle, completer) = completion_pair();
        let waiter = thread::spawn(move || handle.wait_parked());
        completer.complete(7.5);
        assert_eq!(waiter.join().unwrap(), 7.5);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The serve queue notifies its drivers only when its count of parked drivers is
/// non-zero.  A driver with no spin budget races a push: whether the push lands
/// before the driver's look at the queue, between the look and the park, or after
/// the park, the driver gets the job — the count moves under the same lock hold as
/// the failed look, so there is no window in which a push sees "nobody asleep"
/// while the driver is on its way to sleep.  A lost wake is a deadlock here.
#[test]
fn serve_parked_driver_never_misses_a_push() {
    let report = model::Builder::new().check(|| {
        let probe = Arc::new(AdmissionProbe::new(4));
        let p2 = Arc::clone(&probe);
        let driver = thread::spawn(move || p2.serve(1));
        probe.submit(7).expect("room for one");
        assert_eq!(driver.join().unwrap(), 1, "the driver served the push");
        let (parks, wakes) = probe.driver_parks_and_wakes();
        assert!(parks <= 1);
        assert_eq!(
            wakes, parks,
            "a notification is sent exactly when the driver had gone to sleep"
        );
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The other direction at capacity 1: a submitter finds the queue full and parks for
/// room while a driver pops the one queued job.  The pop notifies only if it finds a
/// submitter parked; no interleaving leaves the submitter asleep beside a free slot.
#[test]
fn serve_parked_submitter_never_misses_the_room() {
    let report = model::Builder::new().check(|| {
        let probe = Arc::new(AdmissionProbe::new(1));
        probe.submit(1).expect("the first request fills the queue");
        let p2 = Arc::clone(&probe);
        let submitter = thread::spawn(move || p2.submit(2));
        assert_eq!(probe.serve(1), 1, "the pop frees the only slot");
        submitter
            .join()
            .unwrap()
            .expect("the queue never closes: the waiting submit is admitted");
        assert_eq!(probe.serve(1), 1, "the second request was queued");
    });
    assert!(report.complete, "exploration must be exhaustive");
}

// ---------------------------------------------------------------------------
// Mutation self-test: prove the checker catches a seeded ordering bug.
// ---------------------------------------------------------------------------

/// A distilled copy of the deque's publication protocol (write the slot cell,
/// publish by storing `bottom`; steal loads `bottom` and reads the cell) with
/// the store's ordering injectable, so the battery can knock the `Release`
/// out and watch the checker object.
struct MiniDeque {
    bottom: AtomicIsize,
    slot: UnsafeCell<u64>,
}

impl MiniDeque {
    fn new() -> Self {
        MiniDeque {
            bottom: AtomicIsize::new(0),
            slot: UnsafeCell::new(0),
        }
    }

    /// Owner push with an injectable publication ordering (`Release` in the
    /// shipped deque; the mutation passes `Relaxed`).
    fn push(&self, value: u64, publish: Ordering) {
        // SAFETY: mirrors the deque's owner-only push; the steal side reads
        // the slot only after observing the bottom bump.
        self.slot.with_mut(|p| unsafe { *p = value });
        self.bottom.store(1, publish);
    }

    /// Thief-side steal: Acquire the cursor, then read the slot it covers.
    fn steal(&self) -> Option<u64> {
        // ordering: mirrors the shipped steal's SeqCst fence between the top
        // and bottom loads; kept so the distilled copy has the same shape.
        fence(Ordering::SeqCst);
        if self.bottom.load(Ordering::Acquire) > 0 {
            // SAFETY: a non-zero bottom means the owner pushed; with a
            // Release push the slot write happens-before this read.
            return Some(self.slot.with(|p| unsafe { *p }));
        }
        None
    }
}

fn mini_deque_round(publish: Ordering) -> Result<model::Report, model::Violation> {
    model::Builder::new().try_check(move || {
        let d = Arc::new(MiniDeque::new());
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || d2.steal());
        d.push(41, publish);
        if let Some(v) = thief.join().unwrap() {
            assert_eq!(v, 41);
        }
    })
}

/// Baseline: the shipped ordering is clean across every interleaving.
#[test]
fn mini_deque_release_publication_is_clean() {
    let report = mini_deque_round(Ordering::Release).expect("release publication is race-free");
    assert!(report.complete, "exploration must be exhaustive");
}

/// The seeded mutation: weakening the push's `Release` to `Relaxed` must be
/// reported as a data race, and the reported schedule must replay to the
/// same violation — the checker is demonstrably not blind to the orderings
/// this battery certifies.
#[test]
fn mutation_weakened_release_is_caught_and_replays() {
    let v = mini_deque_round(Ordering::Relaxed).expect_err("checker must catch the mutation");
    assert_eq!(v.kind, model::ViolationKind::DataRace);
    assert!(
        !v.schedule.is_empty(),
        "violation carries a replayable schedule"
    );
    let replayed = model::Builder::new()
        .replay(&v.schedule)
        .try_check(move || {
            // Re-run the mutated program on the pinned schedule.
            let d = Arc::new(MiniDeque::new());
            let d2 = Arc::clone(&d);
            let thief = thread::spawn(move || d2.steal());
            d.push(41, Ordering::Relaxed);
            let _ = thief.join().unwrap();
        })
        .expect_err("pinned schedule reproduces the race");
    assert_eq!(replayed.kind, model::ViolationKind::DataRace);
}

// ---------------------------------------------------------------------------
// The team skeleton: loop → detach cycle → resume at the stored epoch → loop.
// ---------------------------------------------------------------------------

/// What one modelled team loop computes: the master publishes `input`, every
/// participant writes `input + id` into its own output cell.
struct TeamHarness {
    input: UnsafeCell<u64>,
    out: [UnsafeCell<u64>; 2],
}

unsafe fn team_exec(data: *const (), id: usize, _: &mut Payload) {
    // SAFETY: the model programs below build their jobs over a `&TeamHarness` to a
    // live harness.
    let h = unsafe { *(data as *const &TeamHarness) };
    // SAFETY: the driver wrote `input` before the fork this participant passed.
    let x = h.input.with(|p| unsafe { *p });
    // SAFETY: participant `id` is the only writer of its cell until it has joined.
    h.out[id].with_mut(|p| unsafe { *p = x + id as u64 });
}

/// One loop of the skeleton on a 2-participant team, checked from the master: the
/// job, the input and both outputs cross threads only through the sync shape's
/// release/acquire edges, so any missing edge is a reported data race.
fn team_loop<S: TeamSync>(core: &TeamCore<S>, h: &TeamHarness, input: u64) {
    // SAFETY: the worker of the previous cycle has joined (or not started yet).
    h.input.with_mut(|p| unsafe { *p = input });
    let mut unused = EMPTY_PAYLOAD;
    // SAFETY: the harness outlives the cycle; `team_exec` matches its type; the
    // model thread spawned by the caller is inside `worker_body`.
    unsafe { core.cycle(Job::new(h, team_exec, None), &mut unused) };
    for id in 0..2 {
        // SAFETY: the join completed, so every participant's write is published.
        let got = h.out[id].with(|p| unsafe { *p });
        assert_eq!(
            got,
            input + id as u64,
            "participant {id} ran the published job"
        );
    }
}

/// The lease/epoch protocol every runtime shares, on model threads (the executor's
/// mutex/condvar hand-off is out of scope): a loop, the detach cycle that sends the
/// worker out of its scheduling loop, and a *second* worker thread that re-enters the
/// body, must resume at the epoch the first one stored and serve the next loop — a
/// resume one epoch off would either deadlock the fork or let the worker run ahead
/// of the publish, which the checker reports as a deadlock or a data race.
fn team_detach_resume_cycle<S: TeamSync>(sync: S) {
    let core = Arc::new(TeamCore::new(
        "model".to_string(),
        sync,
        WaitPolicy::dedicated(),
    ));
    let h = Arc::new(TeamHarness {
        input: UnsafeCell::new(0),
        out: [UnsafeCell::new(0), UnsafeCell::new(0)],
    });
    for round in 0..2u64 {
        // (Re-)attach: clear the detach request, then enter the body.
        core.rearm();
        let worker = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.worker_body(1))
        };
        team_loop(&core, &h, 10 * (round + 1));
        core.detach_workers();
        worker.join().unwrap();
    }
}

#[test]
fn team_skeleton_loop_detach_resume_loop_half_barrier() {
    let report = model::Builder::new()
        .preemption_bound(Some(2))
        .check(|| team_detach_resume_cycle(HalfBarrier::new_centralized(2)));
    assert!(report.complete, "exploration must be exhaustive");
}

#[test]
fn team_skeleton_loop_detach_resume_loop_full_barrier_shapes() {
    let report = model::Builder::new().preemption_bound(Some(2)).check(|| {
        team_detach_resume_cycle(FullBarrier::new_centralized(2));
    });
    assert!(report.complete, "exploration must be exhaustive");
    let report = model::Builder::new().preemption_bound(Some(2)).check(|| {
        team_detach_resume_cycle(ExtraReductionBarrier(FullBarrier::new_centralized(2)));
    });
    assert!(report.complete, "exploration must be exhaustive");
}

// ---------------------------------------------------------------------------
// The carried job: each loop's harness travels by value in the release lines.
// ---------------------------------------------------------------------------

/// A harness carried by value: the loop's `value`, and a reference to the cells the
/// participants record what they ran in.
#[derive(Clone, Copy)]
struct Carried<'a> {
    value: u64,
    ran: &'a [UnsafeCell<u64>; 3],
}

unsafe fn carried_exec(data: *const (), id: usize, _: &mut Payload) {
    // SAFETY: the job carries a `Carried`; `data` points at this participant's copy.
    let h = unsafe { &*(data as *const Carried<'_>) };
    // SAFETY: participant `id` is its cell's only writer, and the master reads it only
    // after its join.
    h.ran[id].with_mut(|p| unsafe { *p = h.value });
}

/// Two loops with distinct harness values on a 3-participant team over `sync`, then the
/// detach cycle.  Every participant must run each loop with that loop's value, read
/// from the line that released it: a stale payload fails the assertion, and a payload
/// read unordered with its write is a data race.
fn two_carried_loops<S: TeamSync>(sync: S) {
    let core = Arc::new(TeamCore::new(
        "carried".to_string(),
        sync,
        WaitPolicy::dedicated(),
    ));
    let ran = Arc::new([UnsafeCell::new(0), UnsafeCell::new(0), UnsafeCell::new(0)]);
    let workers: Vec<_> = (1..3)
        .map(|id| {
            let core = Arc::clone(&core);
            thread::spawn(move || core.worker_body(id))
        })
        .collect();
    for value in [11u64, 22] {
        let h = Carried { value, ran: &ran };
        let mut unused = EMPTY_PAYLOAD;
        // SAFETY: `ran` outlives the cycle; `carried_exec` reads the harness type the
        // job carries; both workers are inside `worker_body`.
        unsafe { core.cycle(Job::new(h, carried_exec, None), &mut unused) };
        for (id, cell) in ran.iter().enumerate() {
            // SAFETY: the join completed, so every participant's write is published.
            let got = cell.with(|p| unsafe { *p });
            assert_eq!(
                got, value,
                "participant {id} ran the loop it was released into"
            );
        }
    }
    core.detach_workers();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn carried_job_on_a_centralized_team_of_three() {
    let report = model::Builder::new()
        .preemption_bound(Some(2))
        .check(|| two_carried_loops(HalfBarrier::new_centralized(3)));
    assert!(report.complete, "exploration must be exhaustive");
}

/// The same on the socket-composed tree of [`socket_composed_model`]: worker 1 gets the
/// job from its own line, and worker 2 — the remote socket's root — from its socket's
/// release line, both written by the master; worker 2 takes its release through
/// `forward_release` like any forwarder (at three participants its socket has no
/// other member to forward to; forwarding to children is exercised at 2 × 4 and 4 × 8
/// by the barrier's unit tests and `tests/structural_invariants.rs`, a four-thread
/// model being beyond an exhaustive search here).
#[test]
fn carried_job_on_the_socket_composed_tree() {
    socket_composed_model(|topology| two_carried_loops(HalfBarrier::new_hierarchical(topology, 3)));
}

/// A distilled release line (one payload word) with the order of its two writes
/// injectable: the shipped one writes the payload and then stores the epoch with
/// `Release`; the mutation stores the epoch first.
struct MiniReleaseLine {
    epoch: AtomicU64,
    payload: UnsafeCell<u64>,
}

impl MiniReleaseLine {
    fn publish(&self, epoch: u64, payload: u64, payload_first: bool) {
        let write = || {
            // SAFETY: mirrors `ReleaseLine::publish`; the waiters of the previous epoch
            // have arrived, and (shipped order) the next ones read after the store.
            self.payload.with_mut(|p| unsafe { *p = payload });
        };
        if payload_first {
            write();
        }
        self.epoch.store(epoch, Ordering::Release);
        if !payload_first {
            write();
        }
    }

    fn wait(&self, epoch: u64) -> u64 {
        WaitPolicy::dedicated().wait_until(|| self.epoch.load(Ordering::Acquire) >= epoch);
        // SAFETY: with the shipped order the epoch's Acquire load orders the write.
        self.payload.with(|p| unsafe { *p })
    }
}

/// Two releases through the distilled line, each followed by the worker's arrival.  The
/// worker only reads what it was handed, so a wrong order can show only as a race.
fn mini_release_rounds(
    builder: model::Builder,
    payload_first: bool,
) -> Result<model::Report, model::Violation> {
    builder.try_check(move || {
        let line = Arc::new(MiniReleaseLine {
            epoch: AtomicU64::new(0),
            payload: UnsafeCell::new(0),
        });
        let arrived = Arc::new(AtomicU64::new(0));
        let (l2, a2) = (Arc::clone(&line), Arc::clone(&arrived));
        let worker = thread::spawn(move || {
            for epoch in 1..=2 {
                let _ = l2.wait(epoch);
                a2.store(epoch, Ordering::Release);
            }
        });
        for epoch in 1..=2 {
            line.publish(epoch, 10 * epoch, payload_first);
            WaitPolicy::dedicated().wait_until(|| arrived.load(Ordering::Acquire) >= epoch);
        }
        worker.join().unwrap();
    })
}

/// Baseline: the shipped order is clean across every interleaving.
#[test]
fn mini_release_line_payload_first_is_clean() {
    let report =
        mini_release_rounds(model::Builder::new(), true).expect("payload-then-epoch is race-free");
    assert!(report.complete, "exploration must be exhaustive");
}

/// The seeded mutation: a payload written after the epoch store races the released
/// worker's read, and the reported schedule replays to the same race.
#[test]
fn mutation_payload_after_epoch_is_caught_and_replays() {
    let v = mini_release_rounds(model::Builder::new(), false)
        .expect_err("checker must catch the mutation");
    assert_eq!(v.kind, model::ViolationKind::DataRace);
    assert!(
        !v.schedule.is_empty(),
        "violation carries a replayable schedule"
    );
    let replayed = mini_release_rounds(model::Builder::new().replay(&v.schedule), false)
        .expect_err("pinned schedule reproduces the race");
    assert_eq!(replayed.kind, model::ViolationKind::DataRace);
}

// ---------------------------------------------------------------------------
// The payload join: each accumulator travels up in its owner's arrival line.
// ---------------------------------------------------------------------------

/// A reduction harness carried by value: participant `id` contributes `input + id` to
/// every word of an `N`-word accumulator, which travels inline at `N = 1` and boxed at
/// `N = 16`, one word wider than a payload.
#[derive(Clone, Copy)]
struct SumHarness {
    input: u64,
}

/// One word wider than a payload: the accumulator travels as a box.
const WIDE: usize = 16;

unsafe fn sum_exec<const N: usize>(data: *const (), id: usize, acc: &mut Payload) {
    // SAFETY: the job carries a `SumHarness`; `data` points at this participant's copy.
    let h = unsafe { &*(data as *const SumHarness) };
    // SAFETY: `acc` holds nothing yet.
    unsafe { put_payload(acc, [h.input + id as u64; N]) };
}

unsafe fn sum_combine<const N: usize>(
    _: *const (),
    _: usize,
    acc: &mut Payload,
    _: usize,
    child: &Payload,
) {
    // SAFETY: `acc` holds the parent's `[u64; N]` and `child` the one its child arrived
    // with (read from the child's arrival line, which the checker observes).
    unsafe {
        let mut sum = take_payload::<[u64; N]>(acc);
        for (a, b) in sum.iter_mut().zip(take_payload::<[u64; N]>(child)) {
            *a += b;
        }
        put_payload(acc, sum);
    }
}

/// Two consecutive merged reductions of an `N`-word accumulator on a 3-participant team
/// over `sync`, then the detach cycle.  Each worker arrives with its accumulator in its
/// arrival line and the master folds it from there: the hazards are the master's read
/// of a child's payload against the child's write of it (ordered only by the arrival's
/// epoch store), and loop 2's write of that payload against loop 1's read (ordered only
/// by the master's next release).  A wrong sum is a stale or torn payload — at
/// `N = WIDE`, a stale or torn box pointer.
fn two_reductions_in_arrival_lines<const N: usize, S: TeamSync>(sync: S) {
    let core = Arc::new(TeamCore::new(
        "payload join".to_string(),
        sync,
        WaitPolicy::dedicated(),
    ));
    let workers: Vec<_> = (1..3)
        .map(|id| {
            let core = Arc::clone(&core);
            thread::spawn(move || core.worker_body(id))
        })
        .collect();
    for input in [10u64, 20] {
        // SAFETY: the harness holds no reference; the entry points match its type.
        let job = unsafe { Job::new(SumHarness { input }, sum_exec::<N>, Some(sum_combine::<N>)) };
        let mut acc = EMPTY_PAYLOAD;
        // SAFETY: both workers are inside `worker_body`.
        unsafe { core.cycle(job, &mut acc) };
        // SAFETY: the master's `sum_exec` put a `[u64; N]`, and every fold left one.
        let sum = unsafe { take_payload::<[u64; N]>(&acc) };
        assert_eq!(sum, [3 * input + 3; N], "loop with input {input}");
    }
    core.detach_workers();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn consecutive_reductions_in_arrival_lines_are_race_free() {
    let report = model::Builder::new()
        .preemption_bound(Some(2))
        .check(|| two_reductions_in_arrival_lines::<1, _>(HalfBarrier::new_centralized(3)));
    assert!(report.complete, "exploration must be exhaustive");
    // The tree of `socket_composed_model`: worker 1 arrives on its member line, worker
    // 2 — the remote socket's root — on its socket's rendezvous line.
    socket_composed_model(|topology| {
        two_reductions_in_arrival_lines::<1, _>(HalfBarrier::new_hierarchical(topology, 3))
    });
}

/// The same two reductions with an accumulator one word wider than a payload, which
/// travels as a box in the same arrival lines: each box is put by its owner before the
/// arrival that publishes its pointer and moved out exactly once by the join parent,
/// so a wrong sum is a stale, torn or reused box.  The payload accesses themselves are
/// the inline run's, explored at preemption bound 2 on both shapes above; the boxed
/// run explores them at bound 1 (1 755 and 2 259 interleavings, about two seconds;
/// bound 2 would be 62 034 and 102 267, one to two minutes on two cores).
#[test]
fn consecutive_boxed_reductions_in_arrival_lines_are_race_free() {
    let report = model::Builder::new()
        .preemption_bound(Some(1))
        .check(|| two_reductions_in_arrival_lines::<WIDE, _>(HalfBarrier::new_centralized(3)));
    assert!(report.complete, "exploration must be exhaustive");
    let topology = parlo_affinity::Topology::synthetic(2, 2).unwrap();
    let report = model::Builder::new()
        .preemption_bound(Some(1))
        .check(move || {
            two_reductions_in_arrival_lines::<WIDE, _>(HalfBarrier::new_hierarchical(&topology, 3))
        });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The centralized half-barrier with one seeded mutation: a worker of a merged
/// reduction stores its arrival epoch *before* its payload — it signals the bare epoch,
/// then arrives again through the shipped path, which writes the payload and stores
/// the same epoch once more.
struct EpochBeforePayload(HalfBarrier);

impl TeamSync for EpochBeforePayload {
    fn num_threads(&self) -> usize {
        self.0.num_threads()
    }

    fn master_fork(&self, at: &mut Epoch, policy: &WaitPolicy, job: &Job) {
        self.0.master_fork(at, policy, job);
    }

    fn worker_fork(&self, id: usize, at: &mut Epoch, policy: &WaitPolicy) -> Job {
        self.0.worker_fork(id, at, policy)
    }

    fn master_join<F>(&self, at: &mut Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, f: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        self.0.master_join(at, policy, acc, f);
    }

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
            self.0.arrive(id, *at, policy, None, |_, _, _| {});
        }
        self.0.worker_join(id, at, policy, acc, f);
    }
}

fn epoch_before_payload(builder: model::Builder) -> Result<model::Report, model::Violation> {
    builder.preemption_bound(Some(2)).try_check(|| {
        two_reductions_in_arrival_lines::<1, _>(EpochBeforePayload(HalfBarrier::new_centralized(3)))
    })
}

/// The seeded mutation: the master can see the epoch and read the payload while the
/// worker is still writing it, and the reported schedule replays to the same race.
#[test]
fn mutation_epoch_before_payload_is_caught_and_replays() {
    let v =
        epoch_before_payload(model::Builder::new()).expect_err("checker must catch the mutation");
    assert_eq!(v.kind, model::ViolationKind::DataRace);
    assert!(
        !v.schedule.is_empty(),
        "violation carries a replayable schedule"
    );
    let replayed = epoch_before_payload(model::Builder::new().replay(&v.schedule))
        .expect_err("pinned schedule reproduces the race");
    assert_eq!(replayed.kind, model::ViolationKind::DataRace);
}
