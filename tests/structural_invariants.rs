//! Unit tests for the paper's structural claims (Table 1 ablation), at a finer grain
//! than `tests/cross_runtime.rs`: every loop entry point of every runtime is checked
//! for its exact per-loop synchronization cost, and every reduction flavor for its
//! exact combine count, across thread counts and repetition counts.
//!
//! The claims under test (§2 and Table 1 of the paper):
//!
//! * a fine-grain loop performs exactly **one half-barrier cycle** — one release phase
//!   plus one join phase (2 phases) — per `parallel_for`, regardless of the loop
//!   variant;
//! * the full-barrier ablation performs exactly **two full barriers** (4 phases) per
//!   loop;
//! * a merged reduction performs exactly **`P − 1` combines** and *no additional
//!   barrier* beyond the loop's own half-barrier;
//! * the OpenMP-like baseline pays 2 full barriers per plain loop and 3 per
//!   reduction loop;
//! * the Cilk hybrid's fine-grain path has the same structure as the fine-grain pool;
//! * the work-stealing chunk pool pays exactly the same synchronization (one
//!   half-barrier cycle per loop, `P − 1` combines per reduction) and accounts every
//!   pre-split chunk exactly once;
//! * the hierarchical half-barrier performs exactly one cross-socket rendezvous per
//!   cycle and exactly one arrival per worker per cycle on each socket;
//! * every count stays exact when the thread driving a pool changes.
//!
//! These claims are only *observable* through the instrumentation counters.

use parlo_affinity::{PinPolicy, PlacementConfig, Topology};
use parlo_cilk::CilkFineGrain;
use parlo_core::{BarrierKind, Config, FineGrainPool, LoopRuntime, Loops, SyncStats};
use parlo_omp::{Schedule, ScheduledTeam};
use parlo_steal::{total_chunks, StealConfig, StealPool};
use std::sync::{Arc, Condvar, Mutex};

const HALF_KINDS: [BarrierKind; 2] = [BarrierKind::TreeHalf, BarrierKind::CentralizedHalf];
const FULL_KINDS: [BarrierKind; 1] = [BarrierKind::TreeFull];

#[test]
fn every_parallel_for_variant_costs_exactly_one_half_barrier_cycle() {
    for kind in HALF_KINDS {
        for threads in 1..=4 {
            let mut pool = FineGrainPool::new(Config::builder(threads).barrier(kind).build());
            let loops: [&mut dyn FnMut(&mut FineGrainPool); 3] = [
                &mut |p| p.parallel_for(0..100, |_| {}),
                &mut |p| p.for_blocks(0..100, |_| {}),
                &mut |p| p.broadcast(|_| {}),
            ];
            for run in loops {
                let before = pool.stats();
                run(&mut pool);
                let delta = pool.stats().since(&before);
                assert_eq!(delta.loops, 1, "{} @ {threads}T", kind.label());
                assert_eq!(
                    delta.barrier_phases,
                    2,
                    "one release + one join phase per loop ({} @ {threads}T)",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn full_barrier_ablation_doubles_the_phases_per_loop() {
    for kind in FULL_KINDS {
        for threads in 1..=4 {
            let mut pool = FineGrainPool::new(Config::builder(threads).barrier(kind).build());
            let before = pool.stats();
            pool.parallel_for(0..100, |_| {});
            let delta = pool.stats().since(&before);
            assert_eq!(
                delta.barrier_phases,
                4,
                "2 full barriers x 2 phases per loop ({} @ {threads}T)",
                kind.label()
            );
        }
    }
}

#[test]
fn merged_reduction_performs_exactly_p_minus_1_combines_and_no_extra_barrier() {
    const REPS: u64 = 7;
    for threads in 1..=6 {
        let mut pool = FineGrainPool::with_threads(threads);
        let before = pool.stats();
        for _ in 0..REPS {
            let sum = pool.reduce(0..500, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..500u64).sum());
        }
        let delta = pool.stats().since(&before);
        assert_eq!(delta.reductions, REPS);
        assert_eq!(
            delta.combine_ops,
            REPS * (threads as u64 - 1),
            "exactly P-1 combines per reduction at {threads} threads"
        );
        assert_eq!(
            delta.barrier_phases,
            REPS * 2,
            "the reduction is merged into the loop's own half-barrier (no third barrier)"
        );
    }
}

#[test]
fn ordered_reduction_also_performs_exactly_p_minus_1_combines() {
    for threads in 1..=6 {
        let mut pool = FineGrainPool::with_threads(threads);
        let before = pool.stats();
        let s = pool.parallel_reduce_ordered(
            0..26,
            String::new,
            |mut acc, i| {
                acc.push((b'a' + i as u8) as char);
                acc
            },
            |mut a, b| {
                a.push_str(&b);
                a
            },
        );
        assert_eq!(s, "abcdefghijklmnopqrstuvwxyz");
        let delta = pool.stats().since(&before);
        assert_eq!(delta.combine_ops, threads as u64 - 1);
        assert_eq!(delta.barrier_phases, 2);
    }
}

#[test]
fn omp_baseline_pays_two_full_barriers_per_loop_and_three_per_reduction() {
    for threads in 1..=4 {
        let mut team = ScheduledTeam::with_threads(threads, Schedule::Static);
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunked(8),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            team.schedule = schedule;
            let before = team.sync_stats();
            team.for_each(0..200, |_| {});
            let delta_phases = team.sync_stats().barrier_phases - before.barrier_phases;
            assert_eq!(
                delta_phases, 4,
                "fork + join full barriers per plain loop ({schedule:?} @ {threads}T)"
            );
        }

        for schedule in [
            Schedule::Static,
            Schedule::StaticChunked(8),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            team.schedule = schedule;
            let before = team.sync_stats();
            let sum = team.reduce(0..200, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..200u64).sum());
            let after = team.sync_stats();
            assert_eq!(
                after.barrier_phases - before.barrier_phases,
                6,
                "a reduction loop pays a third full barrier ({schedule:?} @ {threads}T)"
            );
            assert_eq!(
                after.combine_ops - before.combine_ops,
                threads as u64 - 1,
                "P - 1 combines ({schedule:?} @ {threads}T)"
            );
        }
    }
}

#[test]
fn hierarchical_barrier_has_exact_per_socket_arrivals_and_one_rendezvous_per_loop() {
    const LOOPS: u64 = 12;
    for (sockets, cores) in [(2usize, 4usize), (4, 8)] {
        let threads = sockets * cores;
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let mut pool = FineGrainPool::with_placement(threads, &placement);
        for _ in 0..LOOPS {
            pool.parallel_for(0..threads * 3, |_| {});
        }
        let h = pool
            .hierarchy_stats()
            .expect("synthetic placement enables the hierarchical half-barrier");
        assert_eq!(h.cycles, LOOPS, "{sockets}x{cores}");
        assert_eq!(
            h.cross_socket_rendezvous, LOOPS,
            "exactly one cross-socket rendezvous per loop on {sockets}x{cores}"
        );
        assert_eq!(h.socket_arrivals.len(), sockets);
        // Socket 0 hosts the master, which joins without an explicit arrival; every
        // remote socket records one arrival per member per loop.
        assert_eq!(h.socket_arrivals[0], LOOPS * (cores as u64 - 1));
        for s in 1..sockets {
            assert_eq!(h.socket_arrivals[s], LOOPS * cores as u64, "socket {s}");
        }
        // The barrier phases are unchanged by the hierarchy: still one half-barrier
        // (2 phases) per loop, i.e. the paper's structural claim holds hierarchically.
        assert_eq!(pool.stats().barrier_phases, LOOPS * 2);
    }
}

#[test]
fn hierarchical_reduction_still_combines_every_worker_exactly_once() {
    for (sockets, cores) in [(2usize, 4usize), (4, 8)] {
        let threads = sockets * cores;
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let mut pool = FineGrainPool::with_placement(threads, &placement);
        let sum = pool.reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, (0..1000u64).sum());
        assert_eq!(
            pool.stats().combine_ops,
            threads as u64 - 1,
            "P-1 combines on {sockets}x{cores}"
        );
    }
}

#[test]
fn partially_populated_sockets_keep_the_invariants() {
    // 6 threads on a 4x8 shape populate only one remote socket... (w/8)%4: workers
    // 0..5 all land on socket 0, so no rendezvous happens; 10 threads span 2 sockets.
    let placement = PlacementConfig::synthetic(4, 8).with_pin(PinPolicy::None);
    let topo = Topology::synthetic(4, 8).unwrap();
    for threads in [6usize, 10] {
        let populated = topo
            .worker_groups(threads)
            .iter()
            .filter(|g| !g.is_empty())
            .count();
        let mut pool = FineGrainPool::with_placement(threads, &placement);
        pool.parallel_for(0..100, |_| {});
        let h = pool.hierarchy_stats().unwrap();
        assert_eq!(h.cycles, 1);
        assert_eq!(
            h.cross_socket_rendezvous,
            u64::from(populated > 1),
            "{threads} threads"
        );
        assert_eq!(
            h.socket_arrivals.iter().sum::<u64>(),
            threads as u64 - 1,
            "every worker arrives exactly once ({threads} threads)"
        );
    }
}

#[test]
fn stealing_pool_pays_exactly_one_half_barrier_cycle_per_loop() {
    const REPS: u64 = 7;
    for threads in 1..=4 {
        let mut pool = StealPool::with_threads(threads);
        let before = pool.stats();
        for _ in 0..REPS {
            pool.for_each(0..200, |_| {});
        }
        let d = pool.stats().since(&before);
        assert_eq!(d.loops, REPS);
        assert_eq!(
            d.barrier_phases,
            REPS * 2,
            "one release + one join phase per stealing loop at {threads}T"
        );
    }
}

#[test]
fn stealing_reduction_performs_exactly_p_minus_1_combines_and_no_extra_barrier() {
    const REPS: u64 = 5;
    for threads in 1..=6 {
        let mut pool = StealPool::with_threads(threads);
        let before = pool.stats();
        for _ in 0..REPS {
            let sum = pool.reduce(0..500, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..500u64).sum());
        }
        let d = pool.stats().since(&before);
        assert_eq!(d.reductions, REPS);
        assert_eq!(
            d.combine_ops,
            REPS * (threads as u64 - 1),
            "exactly P-1 combines per stealing reduction at {threads} threads"
        );
        assert_eq!(
            d.barrier_phases,
            REPS * 2,
            "the reduction is merged into the loop's own half-barrier"
        );
    }
}

#[test]
fn stealing_pool_chunk_accounting_is_exact_across_thread_counts() {
    // The tiered sweep must account every pre-split chunk exactly once and classify
    // every hit as either same-socket or cross-socket.
    for threads in 1..=4usize {
        for chunk in [1usize, 7, 64] {
            let mut pool = StealPool::new(StealConfig::with_threads(threads).with_chunk(chunk));
            let before = pool.stats();
            pool.for_each(0..613, |_| {});
            let d = pool.stats().since(&before);
            assert_eq!(
                d.chunks_executed(),
                total_chunks(&(0..613), threads, chunk),
                "{threads}T chunk {chunk}: every pre-split chunk executed exactly once"
            );
            assert_eq!(d.chunks_per_worker.len(), threads);
            assert!(d.steals_hit <= d.steals_attempted);
            assert_eq!(
                d.local_steals + d.remote_steals,
                d.steals_hit,
                "every hit classified exactly once"
            );
        }
    }
}

#[test]
fn stealing_pool_keeps_hierarchical_invariants_on_synthetic_topologies() {
    const LOOPS: u64 = 6;
    for (sockets, cores) in [(2usize, 4usize), (4, 8)] {
        let threads = sockets * cores;
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let mut pool = StealPool::with_placement(threads, &placement);
        for _ in 0..LOOPS {
            pool.for_each(0..threads * 5, |_| {});
        }
        let h = pool
            .hierarchy_stats()
            .expect("synthetic placement enables the hierarchical half-barrier");
        assert_eq!(h.cycles, LOOPS, "{sockets}x{cores}");
        assert_eq!(
            h.cross_socket_rendezvous, LOOPS,
            "exactly one cross-socket rendezvous per stealing loop on {sockets}x{cores}"
        );
        assert_eq!(
            h.socket_arrivals.iter().sum::<u64>(),
            LOOPS * (threads as u64 - 1),
            "every worker arrives exactly once per loop"
        );
        let s = pool.stats();
        assert_eq!(s.barrier_phases, LOOPS * 2);
        // The sweep is locality-aware by default, and every hit lands in exactly
        // one tier bucket of the padded per-worker counter lines.
        assert_eq!(s.local_steals + s.remote_steals, s.steals_hit);
    }
}

#[test]
fn sticky_site_loops_keep_the_synchronization_and_chunk_invariants() {
    // Site-keyed (sticky-affinity) loops pay exactly the same synchronization as
    // plain stealing loops — one half-barrier cycle per loop, P-1 combines per
    // reduction — and the affinity table replay never changes the chunk accounting.
    use parlo_steal::{grid_chunks, StealSite};
    const REPS: u64 = 4;
    for threads in 1..=4usize {
        let mut pool = StealPool::new(StealConfig::with_threads(threads).with_chunk(11));
        let before = pool.stats();
        let site = StealSite(7);
        for _ in 0..REPS {
            let sum =
                pool.steal_reduce_at(site, 0..500, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..500u64).sum());
        }
        let d = pool.stats().since(&before);
        assert_eq!(d.loops, REPS, "{threads}T");
        assert_eq!(d.reductions, REPS);
        assert_eq!(
            d.barrier_phases,
            REPS * 2,
            "one half-barrier cycle per loop"
        );
        assert_eq!(d.combine_ops, REPS * (threads as u64 - 1));
        assert_eq!(
            d.chunks_executed(),
            REPS * grid_chunks(&(0..500), 11) as u64,
            "sticky replay preserves exact coverage of the chunk grid at {threads}T"
        );
        assert_eq!(d.sticky_loops, REPS);
        assert_eq!(
            d.sticky_hits,
            REPS - 1,
            "first visit is cold, the rest replay"
        );
        assert_eq!(d.sticky_invalidations, 0);
        assert!(d.sticky_chunks_reused <= d.sticky_chunks_total);
    }
}

#[test]
fn cilk_hybrid_fine_path_has_fine_grain_structure() {
    const REPS: u64 = 5;
    for threads in 1..=4 {
        let mut pool = CilkFineGrain::with_threads(threads);
        let before = pool.pool.stats();
        for _ in 0..REPS {
            pool.for_each(0..300, |_| {});
        }
        let mid = pool.pool.stats();
        assert_eq!(mid.fine_loops - before.fine_loops, REPS);

        for _ in 0..REPS {
            let sum = pool.reduce(0..300, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..300u64).sum());
        }
        let after = pool.pool.stats();
        assert_eq!(
            after.fine_combine_ops - mid.fine_combine_ops,
            REPS * (threads as u64 - 1),
            "hybrid fine-grain reduction: exactly P-1 combines per call at {threads} threads"
        );
    }
}

/// The hybrid path runs the fine-grain pool's own static loop and merged reduction on
/// the Cilk-like pool's team, so one `parallel_for` plus one `parallel_reduce` cost
/// the two runtimes the same, field for field: two loops, one reduction, two
/// half-barriers (4 phases) and `P − 1` combines.
#[test]
fn cilk_hybrid_and_fine_grain_pool_count_one_loop_alike() {
    let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
    for threads in 1..=4 {
        let mut fine = FineGrainPool::with_placement(threads, &placement);
        let mut hybrid = CilkFineGrain::with_placement(threads, &placement);
        let mut deltas = Vec::new();
        for rt in [&mut fine as &mut dyn LoopRuntime, &mut hybrid] {
            let before = rt.sync_stats();
            rt.parallel_for(0..300, &|_| {});
            let sum = rt.parallel_sum(0..300, &|i| i as f64);
            assert_eq!(sum, 44_850.0, "{} @ {threads}T", rt.name());
            deltas.push(rt.sync_stats().since(&before));
        }
        let expected = SyncStats {
            loops: 2,
            reductions: 1,
            barrier_phases: 4,
            combine_ops: threads as u64 - 1,
            dynamic_chunks: 0,
            steals: 0,
        };
        assert_eq!(deltas[0], expected, "fine-grain pool @ {threads}T");
        assert_eq!(
            deltas[1], deltas[0],
            "hybrid path vs fine-grain pool @ {threads}T"
        );
    }
}

/// A loop's job travels in the release line that releases each worker: written by the
/// master, copied down by a forwarder, or published into a remote socket's line.  Each
/// of 200 loops carries its ordinal by value — as the `init` of a `LoopRuntime`
/// reduction, which the pools put into the harness itself — over `0..P` on a static
/// schedule, so index `i` is participant `i`'s whole share and records the ordinal
/// that participant folded from.  Every participant must have seen exactly 1..=200 in
/// order: a worker released with a stale payload repeats or skips an ordinal.
#[test]
fn every_participant_runs_each_loop_with_that_loops_payload() {
    const LOOPS: u64 = 200;
    let on = |sockets, cores| PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
    let runtimes: Vec<(&str, Box<dyn LoopRuntime>)> = vec![
        (
            "2x4 tree",
            Box::new(FineGrainPool::with_placement(8, &on(2, 4))),
        ),
        (
            "4x8 tree",
            Box::new(FineGrainPool::with_placement(32, &on(4, 8))),
        ),
        (
            "2x2 full-barrier tree",
            Box::new(FineGrainPool::new(
                Config::builder(4)
                    .placement(&on(2, 2))
                    .barrier(BarrierKind::TreeFull)
                    .build(),
            )),
        ),
        (
            "2x2 OpenMP static",
            Box::new(ScheduledTeam::with_placement(
                4,
                Schedule::Static,
                &on(2, 2),
            )),
        ),
        (
            "2x2 Cilk fine-grain",
            Box::new(CilkFineGrain::with_placement(4, &on(2, 2))),
        ),
    ];
    for (name, mut rt) in runtimes {
        let p = rt.threads();
        let seen: Vec<Mutex<Vec<u64>>> = (0..p).map(|_| Mutex::new(Vec::new())).collect();
        let record = |acc: f64, i: usize| {
            seen[i]
                .lock()
                .expect("no participant panicked")
                .push(acc as u64);
            acc
        };
        for ordinal in 1..=LOOPS {
            let got = rt.parallel_reduce(0..p, ordinal as f64, &record, &|a, b| a.max(b));
            assert_eq!(got, ordinal as f64, "{name}: loop {ordinal}");
        }
        let want: Vec<u64> = (1..=LOOPS).collect();
        for (id, ordinals) in seen.iter().enumerate() {
            let ordinals = ordinals.lock().expect("no participant panicked");
            assert_eq!(*ordinals, want, "{name}: participant {id}");
        }
    }
}

/// One pool driven by two threads in strict alternation, handed over through a
/// `Mutex`.  The loop, reduction and phase counts and the barrier's cycle count are
/// bumped by whichever thread drives, with a relaxed load and store rather than a
/// locked RMW, so they are exact only if each driver sees every store of the one
/// before it: a lost store would show as a count one short.  Arrivals and combines
/// are bumped per participant and summed, and must be exact too.
#[test]
fn counters_stay_exact_across_a_driver_hand_off() {
    const TURNS: u64 = 20;
    for (sockets, cores) in [(1usize, 4usize), (2, 4)] {
        let threads = sockets * cores;
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let pool = FineGrainPool::with_placement(threads, &placement);
        // The pool and whose turn it is (turn `t` belongs to driver `t % 2`).
        let shared = Arc::new((Mutex::new((pool, 0u64)), Condvar::new()));
        let drivers: Vec<_> = (0..2u64)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (lock, turn_taken) = &*shared;
                    for _ in 0..TURNS {
                        let guard = lock.lock().expect("no driver panicked");
                        let mut guard = turn_taken
                            .wait_while(guard, |(_, turn)| *turn % 2 != me)
                            .expect("no driver panicked");
                        let (pool, turn) = &mut *guard;
                        pool.parallel_for(0..threads * 8, |_| {});
                        assert_eq!(pool.parallel_sum(0..1000, |i| i as f64), 499_500.0);
                        *turn += 1;
                        turn_taken.notify_all();
                    }
                })
            })
            .collect();
        for driver in drivers {
            driver.join().expect("driver thread");
        }
        let (lock, _) = &*shared;
        let guard = lock.lock().expect("no driver panicked");
        let (pool, turns) = &*guard;
        assert_eq!(*turns, 2 * TURNS);
        let loops = 2 * turns;
        let s = pool.sync_stats();
        let shape = format!("{sockets}x{cores}");
        assert_eq!(s.loops, loops, "{shape}");
        assert_eq!(s.reductions, *turns, "{shape}");
        assert_eq!(s.barrier_phases, 2 * loops, "{shape}");
        assert_eq!(s.combine_ops, turns * (threads as u64 - 1), "{shape}");
        let h = pool
            .hierarchy_stats()
            .expect("placement pools are hierarchical");
        assert_eq!(h.cycles, loops, "{shape}");
        // The master arrives nowhere; every other member of every socket once a loop.
        let mut arrivals = vec![loops * cores as u64; sockets];
        arrivals[0] -= loops;
        assert_eq!(h.socket_arrivals, arrivals, "{shape}");
    }
}
