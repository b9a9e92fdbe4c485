//! Integration tests spanning the whole workspace: every runtime behind the unified
//! `dyn LoopRuntime` interface (fine-grain, OpenMP-like under all three worksharing
//! schedules, Cilk-like in both its baseline and hybrid fine-grain paths, and the
//! adaptive selection runtime) must agree with each other and with sequential
//! execution on the evaluation workloads, and the structural claims of the paper
//! (barrier phases per loop, combines per reduction) must hold end to end.

use parlo::prelude::*;
use parlo_steal::total_chunks;
use parlo_sync::{AtomicUsize, Ordering};
use parlo_workloads::cache::{self, CacheTable};
use parlo_workloads::phoenix::{histogram, kmeans, linear_regression as linreg};
use parlo_workloads::{irregular, Mpdata, Sequential};

/// The full evaluation roster (including the adaptive runtime) as trait objects.
fn runtimes(threads: usize) -> Vec<Box<dyn LoopRuntime>> {
    let mut all = all_runtimes(threads);
    all.push(Box::new(AdaptivePool::with_threads(threads)));
    all
}

#[test]
fn all_runtimes_cover_a_loop_exactly_once() {
    let n = 1009;
    for r in runtimes(4).iter_mut() {
        // Several rounds so the adaptive runtime is exercised both while calibrating
        // and after routing.
        for round in 0..3 {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            r.parallel_for(0..n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "runtime {} round {round}",
                r.name()
            );
        }
    }
}

#[test]
fn all_three_omp_schedules_are_reachable_behind_dyn_loop_runtime() {
    let roster = runtimes(3);
    let names: Vec<String> = roster.iter().map(|r| r.name()).collect();
    for expected in [
        "sequential",
        "OpenMP static",
        "OpenMP dynamic",
        "OpenMP guided",
        "Cilk",
        "fine-grain Cilk",
        "fine-grain stealing",
        "adaptive",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
    assert!(names.iter().any(|n| n.starts_with("fine-grain (")));
}

#[test]
fn mpdata_is_runtime_independent() {
    // The advected field is deterministic: every runtime must produce bit-identical
    // results because the per-node updates do not depend on the schedule.
    let mesh = parlo_workloads::Mesh::triangulated_grid(16, 12, 5);
    let reference = {
        let mut solver = Mpdata::new(mesh.clone());
        solver.run(&mut Sequential, 8, false);
        solver.psi
    };
    for r in runtimes(3).iter_mut() {
        let mut solver = Mpdata::new(mesh.clone());
        solver.run(r.as_mut(), 8, false);
        assert_eq!(solver.psi, reference, "runtime {}", r.name());
    }
}

#[test]
fn regression_sums_agree_across_runtimes() {
    let points = linreg::generate_points(30_000, -1.5, 12.0, 0.25, 99);
    let expected = linreg::sequential(&points);
    let (slope, intercept) = expected.line().unwrap();
    assert!((slope - -1.5).abs() < 0.05);
    assert!((intercept - 12.0).abs() < 0.5);

    let mut pool = FineGrainPool::with_threads(4);
    let fine = linreg::with_fine_grain(&mut pool, &points);
    let mut team = OmpTeam::with_threads(3);
    let omp = linreg::with_omp(&mut team, Schedule::Static, &points);
    let mut cilk = CilkPool::with_threads(3);
    let base = linreg::with_cilk_baseline(&mut cilk, &points);
    let hybrid = linreg::with_cilk_fine_grain(&mut cilk, &points);
    for got in [fine, omp, base, hybrid] {
        assert!((got.sx - expected.sx).abs() < 1e-6);
        assert!((got.sxy - expected.sxy).abs() < 1e-3);
        assert_eq!(got.n, expected.n);
    }
}

#[test]
fn histogram_and_kmeans_agree_across_runtimes() {
    let pixels = histogram::generate_image(20_000, 3);
    let expected = histogram::sequential(&pixels);
    let mut pool = FineGrainPool::with_threads(3);
    assert_eq!(histogram::with_fine_grain(&mut pool, &pixels), expected);
    let mut team = OmpTeam::with_threads(2);
    assert_eq!(
        histogram::with_omp(&mut team, Schedule::Dynamic(256), &pixels),
        expected
    );

    let (points, centres) = kmeans::generate_points(3000, 3, 8);
    let seq = kmeans::sequential(&points, centres.clone(), 4);
    let fine = kmeans::with_fine_grain(&mut pool, &points, centres, 4);
    for (a, b) in seq.centroids.iter().zip(&fine.centroids) {
        assert!((a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
    }
}

#[test]
fn structural_claims_of_the_paper_hold() {
    let threads = 4;
    // Fine-grain: one half-barrier (2 phases) per loop, P-1 combines per reduction.
    let mut pool = FineGrainPool::with_threads(threads);
    pool.parallel_for(0..100, |_| {});
    let _ = pool.parallel_reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    let s = pool.stats();
    assert_eq!(
        s.barrier_phases, 4,
        "2 loops x 1 half-barrier (2 phases) each"
    );
    assert_eq!(s.combine_ops, (threads - 1) as u64);

    // The same structure is visible through the unified SyncStats interface.
    let sync = LoopRuntime::sync_stats(&pool);
    assert_eq!(sync.loops, 2);
    assert_eq!(sync.barrier_phases, 4);
    assert_eq!(sync.combine_ops, (threads - 1) as u64);
    assert_eq!(sync.steals, 0);

    // Full-barrier ablation: twice the phases for the same loops.
    let mut full = FineGrainPool::new(
        Config::builder(threads)
            .barrier(BarrierKind::TreeFull)
            .build(),
    );
    full.parallel_for(0..100, |_| {});
    assert_eq!(
        full.stats().barrier_phases,
        4,
        "1 loop x 2 full barriers (4 phases)"
    );
    drop(full);

    // OpenMP-like: 2 full barriers per plain loop, 3 per reduction loop.
    let mut team = OmpTeam::with_threads(threads);
    team.parallel_for(0..100, Schedule::Static, |_| {});
    let _ = team.parallel_reduce(
        0..100,
        Schedule::Static,
        || 0u64,
        |a, i| a + i as u64,
        |a, b| a + b,
    );
    assert_eq!(team.stats().barrier_phases, 4 + 6);
    assert_eq!(team.stats().combine_ops, (threads - 1) as u64);

    // Cilk hybrid: the fine-grain path performs exactly P-1 combines; the baseline
    // reducer path performs at least one merge per worker view it created.
    let mut cilk = CilkPool::with_threads(threads);
    let _ = cilk.fine_grain_reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert_eq!(cilk.stats().fine_combine_ops, (threads - 1) as u64);
    let _ = cilk.cilk_reduce(0..100_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert!(cilk.stats().reduce_ops >= 1);
}

#[test]
fn irregular_workloads_are_runtime_independent_on_flat_and_synthetic_topologies() {
    // The two irregular workloads produce exactly representable sums, so every
    // runtime — the stealing pool included — must agree with sequential execution
    // bit-for-bit, on the flat detected machine and on synthetic 2x4 / 4x8 shapes
    // with hierarchical synchronization.
    let skewed_expected = irregular::skewed_sequential(600, 2);
    let tri_expected = irregular::triangular_sequential(300);
    let placements = [
        None,
        Some(PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None)),
        Some(PlacementConfig::synthetic(4, 8).with_pin(PinPolicy::None)),
    ];
    for placement in placements {
        let mut roster = match placement {
            None => runtimes(4),
            Some(p) => all_runtimes_with_placement(4, &p),
        };
        for r in roster.iter_mut() {
            assert_eq!(
                irregular::skewed_sum(r.as_mut(), 600, 2),
                skewed_expected,
                "skewed-geometric on {} ({placement:?})",
                r.name()
            );
            assert_eq!(
                irregular::triangular_sum(r.as_mut(), 300),
                tri_expected,
                "triangular-nest on {} ({placement:?})",
                r.name()
            );
        }
    }
}

#[test]
fn stealing_runtime_accounts_every_chunk_and_steal_on_irregular_workloads() {
    // Exact chunk-coverage and steal accounting through StealStats: across several
    // irregular loops, the executed chunk count equals the pre-split count, the
    // per-worker counts sum to the total, and hits never exceed attempts.
    for (sockets, cores) in [(1usize, 4usize), (2, 4), (4, 8)] {
        let threads = 4;
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let mut pool =
            StealPool::new(StealConfig::from_placement(threads, &placement).with_chunk(9));
        let before = pool.stats();
        let n = 500;
        assert_eq!(
            irregular::skewed_sum(&mut pool, n, 2),
            irregular::skewed_sequential(n, 2)
        );
        assert_eq!(
            irregular::triangular_sum(&mut pool, n),
            irregular::triangular_sequential(n)
        );
        let d = pool.stats().since(&before);
        assert_eq!(d.loops, 2, "{sockets}x{cores}");
        assert_eq!(d.reductions, 2);
        assert_eq!(d.barrier_phases, 4, "one half-barrier per loop");
        assert_eq!(d.combine_ops, 2 * (threads as u64 - 1), "P-1 combines each");
        assert_eq!(
            d.chunks_executed(),
            2 * total_chunks(&(0..n), threads, 9),
            "exact chunk coverage on {sockets}x{cores}"
        );
        assert_eq!(d.chunks_per_worker.len(), threads);
        assert_eq!(
            d.chunks_per_worker.iter().sum::<u64>(),
            d.chunks_executed(),
            "per-worker counts sum to the total"
        );
        assert!(d.steals_hit <= d.steals_attempted);
        assert!(d.steals_hit <= d.chunks_executed());
    }
}

#[test]
fn cache_hostile_workload_is_runtime_independent_across_the_full_roster() {
    // The cache-hostile probe kernel sums integer-valued f64 terms, so — like the
    // irregular kernels — every runtime must agree with sequential execution
    // bit-for-bit, on the flat machine and on a synthetic multi-socket shape.
    let n = 400;
    let units = 6;
    let table = CacheTable::for_iters(n);
    let expected = cache::cache_hostile_sequential(&table, n, units);
    let placements = [
        None,
        Some(PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None)),
    ];
    for placement in placements {
        let mut roster = match placement {
            None => runtimes(4),
            Some(p) => all_runtimes_with_placement(4, &p),
        };
        for r in roster.iter_mut() {
            assert_eq!(
                cache::cache_hostile_sum(r.as_mut(), &table, n, units),
                expected,
                "cache-hostile on {} ({placement:?})",
                r.name()
            );
        }
    }
}

#[test]
fn tiered_stealing_is_bit_equal_with_exact_chunk_accounting() {
    // Stealing across a socket boundary changes only who runs a chunk, never the
    // results or the chunk accounting: the sums are bit-identical to sequential
    // execution and exactly the pre-split chunk count executes.
    let n = 600;
    let units = 4;
    let chunk = 7;
    let threads = 4;
    let table = CacheTable::for_iters(n);
    let expected = cache::cache_hostile_sequential(&table, n, units);
    let skewed_expected = irregular::skewed_sequential(n, 2);
    let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
    let mut pool =
        StealPool::new(StealConfig::from_placement(threads, &placement).with_chunk(chunk));
    let before = pool.stats();
    assert_eq!(
        cache::cache_hostile_sum(&mut pool, &table, n, units),
        expected
    );
    assert_eq!(irregular::skewed_sum(&mut pool, n, 2), skewed_expected);
    let d = pool.stats().since(&before);
    assert_eq!(
        d.chunks_executed(),
        2 * total_chunks(&(0..n), threads, chunk),
        "exact chunk coverage"
    );
    assert_eq!(
        d.local_steals + d.remote_steals,
        d.steals_hit,
        "every hit classified exactly once"
    );
}

#[test]
fn hierarchical_sync_preserves_results_on_synthetic_topologies() {
    // The whole roster runs on synthetic multi-socket shapes with the hierarchical
    // half-barrier enabled; every runtime must still agree with sequential execution.
    // Pinning is off: the synthetic shape's core ids need not exist on the CI machine.
    for (sockets, cores) in [(2usize, 4usize), (4, 8)] {
        let threads = (sockets * cores).min(8);
        let placement = PlacementConfig::synthetic(sockets, cores).with_pin(PinPolicy::None);
        let n = 1009;
        let expected: f64 = (0..n).map(|i| (i as f64).sqrt()).sum();
        for r in all_runtimes_with_placement(threads, &placement).iter_mut() {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            r.parallel_for(0..n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "runtime {} on {sockets}x{cores}",
                r.name()
            );
            let got = r.parallel_sum(0..n, &|i| (i as f64).sqrt());
            assert!(
                (got - expected).abs() < 1e-6,
                "runtime {} on {sockets}x{cores}: {got} vs {expected}",
                r.name()
            );
        }
    }
}

#[test]
fn simulated_experiments_reproduce_the_paper_shape() {
    use parlo_sim::{experiments, SimMachine};
    let m = SimMachine::paper_machine();

    // Table 1 shape: the hierarchical fine-grain row has the lowest burden (in
    // particular no worse than the flat tree half-barrier), Cilk the highest.
    let t1 = experiments::table1(&m);
    let burdens: Vec<f64> = t1.rows.iter().map(|(_, v)| v[0]).collect();
    assert_eq!(t1.rows.len(), 9);
    assert_eq!(t1.rows[0].0, "Fine-grain hierarchical");
    assert_eq!(t1.rows[1].0, "Fine-grain tree");
    assert_eq!(t1.rows[4].0, "Fine-grain stealing");
    assert_eq!(t1.rows[5].0, "Fine-grain steal-local");
    assert!(
        burdens[0] <= burdens[1],
        "hierarchical must not regress the flat half-barrier"
    );
    assert!(burdens[1..].iter().all(|&d| d >= burdens[0]));
    assert_eq!(t1.rows[8].0, "Cilk");
    assert!(
        burdens[8]
            >= *burdens[..8]
                .iter()
                .fold(&0.0, |a, b| if b > a { b } else { a })
    );
    // The stealing runtime's per-worker deques stay far below the shared chunk
    // dispenser (OpenMP dynamic) and the recursive splitter (Cilk), and the
    // locality-aware sweep shaves the cross-socket steal premium off the random
    // sweep without ever costing more.
    let dynamic = burdens[t1
        .rows
        .iter()
        .position(|r| r.0 == "OpenMP dynamic")
        .unwrap()];
    assert!(burdens[4] < dynamic, "stealing beats the shared dispenser");
    assert!(
        burdens[4] < burdens[8],
        "stealing beats recursive splitting"
    );
    assert!(
        burdens[5] <= burdens[4],
        "the tiered sweep never costs more than random-victim stealing"
    );

    // Figure 2 shape: the fine-grain scheduler beats OpenMP at 48 threads.
    let ratio = experiments::figure2_right(&m);
    assert!(ratio.at(48).unwrap() > 1.05);

    // Figure 3 shape: fine-grain beats both baselines at 48 threads.
    let (fine, cilk) = experiments::figure3a(&m, 2_000_000);
    assert!(fine.at(48).unwrap() > cilk.at(48).unwrap());
}

/// One row of the share-walk table: a runtime under one schedule, with its plain loop,
/// its reduction, its `dyn LoopRuntime` face and, where it has one, its ordered
/// reduction.  The block-cyclic and dispensed shares are OpenMP's `static,3` and
/// `dynamic,2` rows.
enum Walker {
    FineBlock(FineGrainPool),
    Omp(ScheduledTeam),
    Cilk(CilkPool),
    CilkFine(CilkFineGrain),
    Steal(StealPool),
}

impl Walker {
    fn table(threads: usize) -> Vec<(&'static str, Walker)> {
        let omp = |s| Walker::Omp(ScheduledTeam::with_threads(threads, s));
        vec![
            (
                "fine block",
                Walker::FineBlock(FineGrainPool::with_threads(threads)),
            ),
            ("omp static", omp(Schedule::Static)),
            ("omp static,3", omp(Schedule::StaticChunked(3))),
            ("omp dynamic,2", omp(Schedule::Dynamic(2))),
            ("omp guided,1", omp(Schedule::Guided(1))),
            ("cilk", Walker::Cilk(CilkPool::with_threads(threads))),
            (
                "cilk fine",
                Walker::CilkFine(CilkFineGrain::with_threads(threads)),
            ),
            ("steal", Walker::Steal(StealPool::with_threads(threads))),
        ]
    }

    fn each<F: Fn(usize) + Sync>(&mut self, range: std::ops::Range<usize>, body: F) {
        match self {
            Walker::FineBlock(p) => p.parallel_for(range, body),
            Walker::Omp(t) => t.team.parallel_for(range, t.schedule, body),
            Walker::Cilk(p) => p.cilk_for(range, body),
            Walker::CilkFine(f) => f.pool.fine_grain_for(range, body),
            Walker::Steal(p) => p.steal_for(range, body),
        }
    }

    fn reduce<T: Send>(
        &mut self,
        range: std::ops::Range<usize>,
        identity: impl Fn() -> T + Sync,
        fold: impl Fn(T, usize) -> T + Sync,
        combine: impl Fn(T, T) -> T + Sync,
    ) -> T {
        match self {
            Walker::FineBlock(p) => p.parallel_reduce(range, identity, fold, combine),
            Walker::Omp(t) => t
                .team
                .parallel_reduce(range, t.schedule, identity, fold, combine),
            Walker::Cilk(p) => p.cilk_reduce(range, identity, fold, combine),
            Walker::CilkFine(f) => f.pool.fine_grain_reduce(range, identity, fold, combine),
            Walker::Steal(p) => p.steal_reduce(range, identity, fold, combine),
        }
    }

    /// The same path behind the object-safe interface.
    fn as_dyn(&mut self) -> &mut dyn LoopRuntime {
        match self {
            Walker::FineBlock(p) => p,
            Walker::Omp(t) => t,
            Walker::Cilk(p) => p,
            Walker::CilkFine(f) => f,
            Walker::Steal(p) => p,
        }
    }
}

#[test]
fn share_walk_is_exact_on_every_runtime_and_schedule() {
    const START: usize = 1000;
    for threads in 1..=4usize {
        for (name, mut w) in Walker::table(threads) {
            for len in [0, 1, threads - 1, threads, threads + 1, 257] {
                let at = format!("{name}, P = {threads}, len = {len}");
                let range = START..START + len;
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let once = |hits: &[AtomicUsize], what: &str| {
                    assert!(
                        hits.iter().all(|h| h.swap(0, Ordering::Relaxed) == 1),
                        "{at}: {what} must hit every index exactly once"
                    );
                };

                // Plain loop: generic body, then the same loop with a `&dyn` body.
                w.each(range.clone(), |i| {
                    hits[i - START].fetch_add(1, Ordering::Relaxed);
                });
                once(&hits, "generic body");
                w.as_dyn().parallel_for(range.clone(), &|i| {
                    hits[i - START].fetch_add(1, Ordering::Relaxed);
                });
                once(&hits, "dyn body");

                // Reduction: exact integer result, `fold` called once per index.
                let folds = AtomicUsize::new(0);
                let square = |i: usize| (i as u64) * (i as u64);
                let expected: u64 = range.clone().map(square).sum();
                let got = w.reduce(
                    range.clone(),
                    || 0u64,
                    |acc, i| {
                        folds.fetch_add(1, Ordering::Relaxed);
                        hits[i - START].fetch_add(1, Ordering::Relaxed);
                        acc + square(i)
                    },
                    |a, b| a + b,
                );
                assert_eq!(got, expected, "{at}: integer reduction");
                assert_eq!(folds.load(Ordering::Relaxed), len, "{at}: fold calls");
                once(&hits, "fold");

                // The object-safe face gives the bit-identical f64 as the generic call.
                let generic =
                    w.reduce(range.clone(), || 0.0, |acc, i| acc + i as f64, |a, b| a + b);
                let erased = w.as_dyn().parallel_reduce(
                    range.clone(),
                    0.0,
                    &|acc, i| acc + i as f64,
                    &|a, b| a + b,
                );
                assert_eq!(generic.to_bits(), erased.to_bits(), "{at}: dyn parity");
                assert_eq!(generic, range.clone().sum::<usize>() as f64, "{at}");

                // Only the fine-grain block path has an order-preserving reduction.
                if let Walker::FineBlock(p) = &mut w {
                    let got = p.parallel_reduce_ordered(
                        range.clone(),
                        String::new,
                        |acc, i| acc + &format!("[{i}]"),
                        |a, b| a + &b,
                    );
                    let expected: String = range.clone().map(|i| format!("[{i}]")).collect();
                    assert_eq!(got, expected, "{at}: ordered reduction");
                }
            }
        }
    }
}
