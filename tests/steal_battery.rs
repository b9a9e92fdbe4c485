//! The stealing-focused test battery (property tests).
//!
//! Work stealing is nondeterministic machinery, so these tests pin its invariants
//! under *many* schedules rather than one:
//!
//! * the chunk deque itself is checked against a reference model (`VecDeque`) for
//!   owner-LIFO / thief-FIFO ordering over arbitrary seeded operation sequences, and
//!   against a multi-threaded race for exactly-once delivery;
//! * the pool is driven through seeded steal schedules via the injectable
//!   [`SchedulePerturbation`] hook (delays + victim rotations derived from a
//!   proptest-sampled seed, which itself derives from the vendored proptest's
//!   `PROPTEST_RNG_SEED` plumbing) and must execute every chunk exactly once — no
//!   lost ranges, no duplicated ranges — with exact [`StealStats`] accounting;
//! * reductions must produce the sequential result under every perturbed schedule.

use parlo::prelude::*;
use parlo::steal::{total_chunks, worker_run_rev, ChunkDeque, ChunkRange, Steal, LEND_FLOOR};
use parlo::workloads::irregular::skewed_weight;
use parlo_sync::{AtomicUsize, Ordering};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Splitmix64, used to derive deterministic operation sequences from a sampled seed.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pool size the CI matrix pins via `PARLO_THREADS` (4 when unset/invalid, so a
/// local run still exercises a multi-worker pool).  Parsing goes through the single
/// shared helper in `parlo-bench`, so the battery can never diverge from the bench
/// bins on trimming or zero rejection.
fn env_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4)
}

/// The exactly-once and exact-accounting invariants at the *matrix-pinned* pool size:
/// the proptests below sample their own thread counts, so this is the test that makes
/// each `PARLO_THREADS` CI job exercise a distinct fixed pool size.
#[test]
fn battery_holds_at_the_env_pinned_pool_size() {
    let threads = env_threads();
    for seed in [3u64, 0x5EED, 0xFEED_FACE] {
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(5);
        let mut pool = StealPool::new(config);
        let hits: Vec<AtomicUsize> = (0..997).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(0..997, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "exactly once at {threads} threads (seed {seed})"
        );
        let sum = pool.reduce(0..997, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, (0..997u64).sum(), "{threads} threads (seed {seed})");
        let stats = pool.stats();
        assert_eq!(stats.chunks_per_worker.len(), threads);
        assert_eq!(
            stats.chunks_executed(),
            2 * total_chunks(&(0..997), threads, 5),
            "exact chunk coverage at {threads} threads"
        );
        assert_eq!(stats.combine_ops, threads as u64 - 1);
    }
}

/// Lending at the tail on the shape it exists for: the geometric skew puts half of
/// the loop's work into its last pre-split chunk.  Whoever claims a participant's
/// last chunk — its owner, popping it off a now-empty deque, or a thief, whose deque
/// is empty by definition — must lend, so `lends >= 1` holds under any OS schedule;
/// halves are not chunks, so the exact-coverage account still reads whole chunks.
#[test]
fn a_heavy_last_chunk_is_lent_and_every_index_still_runs_exactly_once() {
    const N: usize = 4096;
    for threads in 2..=4usize {
        let mut pool = StealPool::with_threads(threads);
        let chunk = pool.effective_chunk(N);
        assert!(
            chunk >= 2 * LEND_FLOOR,
            "{threads}T: chunks must be long enough to halve"
        );
        let before = pool.stats();
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(0..N, |i| {
            for _ in 0..skewed_weight(i, N) {
                std::hint::spin_loop();
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "exactly once at {threads} threads"
        );
        let weighted = pool.reduce(
            0..N,
            || 0u64,
            |a, i| a + skewed_weight(i, N) as u64,
            |a, b| a + b,
        );
        assert_eq!(weighted, (0..N).map(|i| skewed_weight(i, N) as u64).sum());
        let d = pool.stats().since(&before);
        assert_eq!(
            d.chunks_executed(),
            2 * total_chunks(&(0..N), threads, chunk),
            "{threads}T: lent halves are not chunks"
        );
        assert!(d.lends >= 2, "{threads}T: both loops lend: {d:?}");
        assert!(d.lent_steals <= d.lends);
        assert!(d.steals_hit <= d.chunks_executed());
        assert_eq!(d.local_steals + d.remote_steals, d.steals_hit);
        assert_eq!(d.combine_ops, threads as u64 - 1);
    }
}

/// A pool whose every sweep probes an out-of-range victim only: nobody ever steals, so
/// whatever a participant seeds or lends it also runs.
fn no_steal_pool(threads: usize, chunk: usize) -> StealPool {
    let script = ScriptedOrder::new(vec![vec![threads]; threads], 1);
    StealPool::new(
        StealConfig::with_threads(threads)
            .with_chunk(chunk)
            .with_perturbation(Arc::new(script)),
    )
}

/// Where lending must not happen, the pool runs exactly as it did before it could:
/// a lone participant has nobody to lend to, and a chunk too short to cut into two
/// halves of `LEND_FLOOR` iterations runs whole on every participant.
#[test]
fn lone_participants_and_short_chunks_never_lend() {
    let cases = [
        (1usize, 4 * LEND_FLOOR),
        (1, 1),
        (2, 2 * LEND_FLOOR - 1),
        (3, LEND_FLOOR),
        (4, 1),
    ];
    for (threads, chunk) in cases {
        // No steals, so each participant must execute precisely its own pre-split run.
        let mut pool = no_steal_pool(threads, chunk);
        let n = 10 * threads * chunk + 3;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let s = pool.stats();
        assert_eq!((s.lends, s.lent_steals), (0, 0), "{threads}T chunk {chunk}");
        assert_eq!(s.steals_hit, 0);
        let own_runs: Vec<u64> = (0..threads)
            .map(|tid| worker_run_rev(&(0..n), threads, tid, chunk).count() as u64)
            .collect();
        assert_eq!(s.chunks_per_worker, own_runs, "{threads}T chunk {chunk}");
    }
}

/// Sticky replay after lent rounds: a grid chunk's remembered owner is whoever
/// claimed it whole, so under the no-steal script — where every lent half comes back
/// through its lender's own pop — repeated site loops reuse the full assignment
/// although each of them lends.
#[test]
fn sticky_replay_counts_whole_chunks_across_lent_rounds() {
    for threads in 2..=4usize {
        let chunk = 4 * LEND_FLOOR;
        let n = 6 * threads * chunk;
        let mut pool = no_steal_pool(threads, chunk);
        let site = StealSite(0x1E4D);
        let expected: u64 = (0..n as u64).sum();
        for _ in 0..4 {
            let got = pool.steal_reduce_at(site, 0..n, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(got, expected);
        }
        let s = pool.stats();
        // Every participant halves its last chunk down to the floor: 4F -> 2F -> F.
        assert_eq!(s.lends, 4 * threads as u64 * 2, "{threads}T: {s:?}");
        assert_eq!(s.lent_steals, 0, "nobody may steal under this script");
        assert_eq!(s.sticky_hits, 3);
        assert_eq!(s.sticky_chunks_total, 3 * (n / chunk) as u64);
        assert_eq!(s.sticky_chunks_reused, s.sticky_chunks_total, "{threads}T");
        assert_eq!(s.chunks_executed(), 4 * (n / chunk) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-threaded model check of the chunk deque: for an arbitrary seeded
    /// sequence of pushes, owner pops and (quiescent) steals, the deque behaves
    /// exactly like a double-ended queue where the owner takes from the back (LIFO,
    /// most recently pushed first) and the thief from the front (FIFO, oldest first).
    #[test]
    fn chunk_deque_matches_the_lifo_fifo_reference_model(
        seed in 0u64..u64::MAX,
        ops in 16usize..200,
    ) {
        let deque = ChunkDeque::new(64);
        let mut model: VecDeque<ChunkRange> = VecDeque::new();
        let mut rng = seed;
        let mut next_chunk = 0usize;
        for _ in 0..ops {
            match splitmix64(&mut rng) % 3 {
                0 => {
                    let c = ChunkRange { start: next_chunk, end: next_chunk + 1 };
                    next_chunk += 1;
                    // SAFETY: this thread is the deque's owner.
                    if unsafe { deque.push(c) }.is_ok() {
                        model.push_back(c);
                    } else {
                        prop_assert_eq!(model.len(), deque.capacity(), "Full only at capacity");
                    }
                }
                1 => {
                    // Owner pop: must yield the most recently pushed remaining chunk.
                    // SAFETY: this thread is the deque's owner.
                    let got = unsafe { deque.pop() };
                    prop_assert_eq!(got, model.pop_back(), "owner is LIFO");
                }
                _ => {
                    // Quiescent steal: must yield the oldest remaining chunk.
                    let got = match deque.steal() {
                        Steal::Success(c) => Some(c),
                        Steal::Empty => None,
                        Steal::Retry => {
                            prop_assert!(false, "no contention, Retry impossible");
                            unreachable!()
                        }
                    };
                    prop_assert_eq!(got, model.pop_front(), "thief is FIFO");
                }
            }
            prop_assert_eq!(deque.len(), model.len());
        }
    }

    /// Multi-threaded exactly-once check of the deque: an owner pushes chunks and
    /// interleaves pops while thieves steal concurrently; the union of everything
    /// obtained is exactly the pushed set, with no duplicates and no losses.
    #[test]
    fn concurrent_deque_delivery_is_exactly_once(
        chunks in 32usize..600,
        thieves in 1usize..4,
        pop_stride in 2usize..5,
    ) {
        let deque = Arc::new(ChunkDeque::new(chunks.next_power_of_two()));
        let done = Arc::new(parlo_sync::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..thieves {
            let deque = deque.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match deque.steal() {
                        Steal::Success(c) => got.push(c),
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && deque.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            }));
        }
        let mut obtained: Vec<ChunkRange> = Vec::new();
        for k in 0..chunks {
            let c = ChunkRange { start: 8 * k, end: 8 * k + 8 };
            // SAFETY: this thread is the deque's owner.
            unsafe {
                if deque.push(c).is_err() {
                    obtained.push(c); // full: the pool would run it inline
                } else if k % pop_stride == 0 {
                    if let Some(p) = deque.pop() {
                        obtained.push(p);
                    }
                }
            }
        }
        // SAFETY: owner drain.
        while let Some(p) = unsafe { deque.pop() } {
            obtained.push(p);
        }
        done.store(true, Ordering::Release);
        for h in handles {
            obtained.extend(h.join().unwrap());
        }
        prop_assert_eq!(obtained.len(), chunks, "every chunk obtained");
        let starts: std::collections::HashSet<usize> =
            obtained.iter().map(|c| c.start).collect();
        prop_assert_eq!(starts.len(), chunks, "no chunk duplicated");
    }

    /// The pool invariant under perturbed schedules: for arbitrary ranges, chunk
    /// sizes, thread counts and perturbation seeds, every index executes exactly once
    /// and the StealStats account for every pre-split chunk exactly.
    #[test]
    fn every_chunk_executes_exactly_once_under_perturbed_schedules(
        len in 0usize..700,
        start in 0usize..64,
        // Up to several times `2 * LEND_FLOOR`, so the sampled schedules also lend,
        // reclaim and steal halves.
        chunk in 1usize..160,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(chunk);
        let mut pool = StealPool::new(config);
        let before = pool.stats();
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(start..start + len, |i| {
            hits[i - start].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "lost or duplicated iterations (seed {})", seed
        );
        let d = pool.stats().since(&before);
        let expected = total_chunks(&(start..start + len), threads, chunk);
        prop_assert_eq!(d.chunks_executed(), expected, "exact chunk coverage");
        prop_assert!(d.steals_hit <= d.steals_attempted);
        prop_assert!(d.steals_hit <= d.chunks_executed());
        if len > 0 {
            prop_assert_eq!(d.loops, 1);
            prop_assert_eq!(d.barrier_phases, 2, "one half-barrier per loop");
        }
    }

    /// Reductions remain schedule-independent under perturbation: the stealing
    /// reduction of integer values equals the sequential fold exactly, with P-1
    /// combines, for every seed.
    #[test]
    fn perturbed_reductions_match_the_sequential_fold(
        values in prop::collection::vec(-1000i64..1000, 0..400),
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let expected: i64 = values.iter().sum();
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(7);
        let mut pool = StealPool::new(config);
        let got = pool.reduce(0..values.len(), || 0i64, |a, i| a + values[i], |a, b| a + b);
        prop_assert_eq!(got, expected);
        if !values.is_empty() {
            prop_assert_eq!(pool.stats().combine_ops, (threads - 1) as u64);
        }
    }
}
