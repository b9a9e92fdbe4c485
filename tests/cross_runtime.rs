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
use std::ops::Range;
use std::sync::Mutex;

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
            let pieces = Mutex::new(Vec::new());
            r.parallel_for_blocks(0..n, &|piece| pieces.lock().unwrap().push(piece));
            let at = format!("runtime {} round {round}", r.name());
            assert_exact_cover(pieces.into_inner().unwrap(), &(0..n), &at);
        }
    }
}

/// Asserts that `pieces` are non-empty, disjoint and cover `range` exactly once.
fn assert_exact_cover(mut pieces: Vec<Range<usize>>, range: &Range<usize>, at: &str) {
    assert!(pieces.iter().all(|p| !p.is_empty()), "{at}: an empty piece");
    pieces.sort_by_key(|p| p.start);
    let mut next = range.start;
    for piece in &pieces {
        assert_eq!(
            piece.start, next,
            "{at}: pieces {pieces:?} leave a gap or overlap"
        );
        next = piece.end;
    }
    assert_eq!(next, range.end, "{at}: pieces {pieces:?} stop short");
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

/// A check to run on every `Loops` implementor: a generic closure, one call per
/// runtime type.
trait OnEveryRuntime {
    /// Runs the check on `rt`.  `scheduled` keeps the counters of a loop's `SyncStats`
    /// delta that the runtime's schedule fixes.
    fn run<R: Loops>(&mut self, rt: &mut R, scheduled: fn(SyncStats) -> SyncStats);
}

/// Runs `check` on every `Loops` implementor at `threads` participants, one runtime at
/// a time: the sequential reference (one participant whatever `threads` is), the
/// fine-grain pool, the OpenMP-like team under each schedule (its block-cyclic and
/// dispensed shares are the `static,3` and `dynamic,2` rows), both paths of the
/// Cilk-like pool and the stealing pool.
fn on_every_runtime(threads: usize, check: &mut impl OnEveryRuntime) {
    let exact = |delta| delta;
    check.run(&mut Sequential, exact);
    check.run(&mut FineGrainPool::with_threads(threads), exact);
    for schedule in [
        Schedule::Static,
        Schedule::StaticChunked(3),
        Schedule::Dynamic(2),
        Schedule::Guided(1),
    ] {
        check.run(&mut ScheduledTeam::with_threads(threads, schedule), exact);
    }
    // The steal count, and on the Cilk-like baseline the views (so combines) it closes
    // out, are the thieves' timing.
    let baseline = |delta| SyncStats {
        steals: 0,
        combine_ops: 0,
        ..delta
    };
    check.run(&mut CilkPool::with_threads(threads), baseline);
    check.run(&mut CilkFineGrain::with_threads(threads), exact);
    let stealing = |delta| SyncStats { steals: 0, ..delta };
    check.run(&mut StealPool::with_threads(threads), stealing);
}

#[test]
fn regression_sums_agree_across_runtimes() {
    struct Regression {
        points: Vec<linreg::Point>,
        expected: linreg::RegressionSums,
    }
    impl OnEveryRuntime for Regression {
        fn run<R: Loops>(&mut self, rt: &mut R, _: fn(SyncStats) -> SyncStats) {
            let got = linreg::parallel(rt, &self.points);
            assert!((got.sx - self.expected.sx).abs() < 1e-6, "{}", rt.name());
            assert!((got.sxy - self.expected.sxy).abs() < 1e-3, "{}", rt.name());
            assert_eq!(got.n, self.expected.n, "{}", rt.name());
        }
    }
    let points = linreg::generate_points(30_000, -1.5, 12.0, 0.25, 99);
    let expected = linreg::sequential(&points);
    let (slope, intercept) = expected.line().unwrap();
    assert!((slope - -1.5).abs() < 0.05);
    assert!((intercept - 12.0).abs() < 0.5);
    on_every_runtime(3, &mut Regression { points, expected });
}

#[test]
fn histogram_and_kmeans_agree_across_runtimes() {
    struct HistogramKmeans {
        pixels: Vec<[u8; 3]>,
        histogram: histogram::Histogram,
        points: Vec<kmeans::Point2>,
        centres: Vec<kmeans::Point2>,
        kmeans: kmeans::KmeansResult,
    }
    impl OnEveryRuntime for HistogramKmeans {
        fn run<R: Loops>(&mut self, rt: &mut R, _: fn(SyncStats) -> SyncStats) {
            let got = histogram::parallel(rt, &self.pixels);
            assert_eq!(got, self.histogram, "{}", rt.name());
            let got = kmeans::parallel(rt, &self.points, self.centres.clone(), 4);
            for (a, b) in self.kmeans.centroids.iter().zip(&got.centroids) {
                let close = (a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9;
                assert!(close, "{}: {a:?} vs {b:?}", rt.name());
            }
        }
    }
    let pixels = histogram::generate_image(20_000, 3);
    let (points, centres) = kmeans::generate_points(3000, 3, 8);
    on_every_runtime(
        3,
        &mut HistogramKmeans {
            histogram: histogram::sequential(&pixels),
            kmeans: kmeans::sequential(&points, centres.clone(), 4),
            pixels,
            points,
            centres,
        },
    );
}

#[test]
fn structural_claims_of_the_paper_hold() {
    let threads = 4;
    // Fine-grain: one half-barrier (2 phases) per loop, P-1 combines per reduction.
    let mut pool = FineGrainPool::with_threads(threads);
    pool.parallel_for(0..100, |_| {});
    let _ = pool.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
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
    let mut team = ScheduledTeam::with_threads(threads, Schedule::Static);
    team.for_each(0..100, |_| {});
    let _ = team.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert_eq!(Loops::sync_stats(&team).barrier_phases, 4 + 6);
    assert_eq!(Loops::sync_stats(&team).combine_ops, (threads - 1) as u64);

    // Cilk hybrid: the fine-grain path performs exactly P-1 combines; the baseline
    // reducer path performs at least one merge per worker view it created.
    let mut cilk = CilkFineGrain::with_threads(threads);
    let _ = cilk.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert_eq!(cilk.pool.stats().fine_combine_ops, (threads - 1) as u64);
    let _ = cilk
        .pool
        .reduce(0..100_000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert!(cilk.pool.stats().reduce_ops >= 1);
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

/// The share walk on one runtime: for each start and length, its plain loop and its
/// reduction, generic and behind `dyn LoopRuntime`, and its block entry points.
struct ShareWalk {
    threads: usize,
}

/// The starts the share walk runs at: an ordinary offset, and one whose ranges end at
/// `usize::MAX`, where the dealing arithmetic must not overflow.
const STARTS: [usize; 2] = [1000, usize::MAX - 257];

impl ShareWalk {
    fn lens(&self) -> [usize; 6] {
        let p = self.threads;
        [0, 1, p - 1, p, p + 1, 257]
    }
}

impl OnEveryRuntime for ShareWalk {
    fn run<R: Loops>(&mut self, rt: &mut R, scheduled: fn(SyncStats) -> SyncStats) {
        let name = rt.name();
        for start in STARTS {
            for len in self.lens() {
                let at = format!("{name}, P = {}, start = {start}, len = {len}", self.threads);
                let range = start..start + len;
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let once = |hits: &[AtomicUsize], what: &str| {
                    assert!(
                        hits.iter().all(|h| h.swap(0, Ordering::Relaxed) == 1),
                        "{at}: {what} must hit every index exactly once"
                    );
                };

                // Plain loop: generic body, then the same loop with a `&dyn` body.
                rt.for_each(range.clone(), |i| {
                    hits[i - start].fetch_add(1, Ordering::Relaxed);
                });
                once(&hits, "generic body");
                rt.parallel_for(range.clone(), &|i| {
                    hits[i - start].fetch_add(1, Ordering::Relaxed);
                });
                once(&hits, "dyn body");

                // Reduction: exact integer result, `fold` called once per index.
                let folds = AtomicUsize::new(0);
                let square = |i: usize| ((i - start) as u64) * ((i - start) as u64);
                let expected: u64 = range.clone().map(square).sum();
                let got = rt.reduce(
                    range.clone(),
                    || 0u64,
                    |acc, i| {
                        folds.fetch_add(1, Ordering::Relaxed);
                        hits[i - start].fetch_add(1, Ordering::Relaxed);
                        acc + square(i)
                    },
                    |a, b| a + b,
                );
                assert_eq!(got, expected, "{at}: integer reduction");
                assert_eq!(folds.load(Ordering::Relaxed), len, "{at}: fold calls");
                once(&hits, "fold");

                // The object-safe face gives the bit-identical f64 as the generic call.
                let term = |i: usize| (i - start) as f64;
                let generic =
                    rt.reduce(range.clone(), || 0.0, |acc, i| acc + term(i), |a, b| a + b);
                let erased =
                    rt.parallel_reduce(range.clone(), 0.0, &|acc, i| acc + term(i), &|a, b| a + b);
                assert_eq!(generic.to_bits(), erased.to_bits(), "{at}: dyn parity");
                assert_eq!(generic, (0..len).sum::<usize>() as f64, "{at}");

                // The block entry points: one call per non-empty piece, the pieces
                // disjoint and covering the range once; the block fold threads the
                // participant's accumulator, so it is the per-index reduction bit for
                // bit, at the same synchronization cost.
                let pieces = Mutex::new(Vec::new());
                rt.parallel_for_blocks(range.clone(), &|piece| pieces.lock().unwrap().push(piece));
                let for_pieces = std::mem::take(&mut *pieces.lock().unwrap());
                assert_exact_cover(for_pieces, &range, &format!("{at}: block body"));
                let square = |i: usize| ((i - start) * (i - start)) as f64;
                let before = rt.sync_stats();
                let per_index =
                    rt.parallel_reduce(range.clone(), 0.0, &|acc, i| acc + square(i), &|a, b| {
                        a + b
                    });
                let between = rt.sync_stats();
                let blocks = rt.parallel_reduce_blocks(
                    range.clone(),
                    0.0,
                    &|acc, piece| {
                        pieces.lock().unwrap().push(piece.clone());
                        piece.fold(acc, |acc, i| acc + square(i))
                    },
                    &|a, b| a + b,
                );
                let after = rt.sync_stats();
                assert_eq!(blocks.to_bits(), per_index.to_bits(), "{at}: block fold");
                assert_eq!(
                    scheduled(after.since(&between)),
                    scheduled(between.since(&before)),
                    "{at}: block and per-index reductions cost the same"
                );
                let fold_pieces = pieces.into_inner().unwrap();
                assert_exact_cover(fold_pieces, &range, &format!("{at}: block fold"));
            }
        }
    }
}

#[test]
fn share_walk_is_exact_on_every_runtime_and_schedule() {
    for threads in 1..=4usize {
        let mut walk = ShareWalk { threads };
        on_every_runtime(threads, &mut walk);

        // Only the fine-grain pool has an order-preserving reduction.
        let mut pool = FineGrainPool::with_threads(threads);
        for start in STARTS {
            for len in walk.lens() {
                let range = start..start + len;
                let got = pool.parallel_reduce_ordered(
                    range.clone(),
                    String::new,
                    |acc, i| acc + &format!("[{i}]"),
                    |a, b| a + &b,
                );
                let expected: String = range.map(|i| format!("[{i}]")).collect();
                assert_eq!(got, expected, "P = {threads}, start = {start}, len = {len}");
            }
        }
    }
}

/// Live [`Counted`] accumulators.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// A reduction accumulator wider than one 128-byte view line that counts its live
/// instances, so a view leaked or dropped twice by a reduction shows in [`LIVE`].
struct Counted {
    /// Widens the view past one line.
    sum: [u64; 16],
    items: Vec<usize>,
}

impl Counted {
    fn new() -> Self {
        LIVE.fetch_add(1, Ordering::Relaxed);
        Counted {
            sum: [0; 16],
            items: Vec::new(),
        }
    }

    fn push(mut self, i: usize) -> Self {
        self.sum[i % 16] += i as u64;
        self.items.push(i);
        self
    }

    fn merge(mut self, mut other: Counted) -> Self {
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        self.items.append(&mut other.items);
        self
    }

    /// Asserts that this is the one live accumulator and that it folded `range`
    /// exactly once, then drops it and asserts that none is left.
    fn check(mut self, range: &Range<usize>, at: &str) {
        assert_eq!(
            LIVE.load(Ordering::Relaxed),
            1,
            "{at}: live views after the call"
        );
        self.items.sort_unstable();
        assert!(
            self.items.iter().copied().eq(range.clone()),
            "{at}: folded items"
        );
        assert_eq!(
            self.sum.iter().sum::<u64>(),
            range.clone().sum::<usize>() as u64
        );
        drop(self);
        assert_eq!(
            LIVE.load(Ordering::Relaxed),
            0,
            "{at}: live views after the drop"
        );
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

#[test]
fn reductions_neither_leak_nor_double_drop_a_view() {
    struct NoLeak {
        threads: usize,
    }
    impl NoLeak {
        /// An empty range, one shorter than P, and one that deals every participant
        /// several pieces.
        fn ranges(&self) -> [Range<usize>; 3] {
            [7..7, 3..3 + self.threads - 1, 0..500]
        }
    }
    impl OnEveryRuntime for NoLeak {
        fn run<R: Loops>(&mut self, rt: &mut R, _: fn(SyncStats) -> SyncStats) {
            for range in self.ranges() {
                let at = format!("{} @ P={}, {range:?}", rt.name(), self.threads);
                let got = rt.reduce(range.clone(), Counted::new, Counted::push, Counted::merge);
                got.check(&range, &format!("{at}: reduce"));
                let got = rt.reduce_blocks(
                    range.clone(),
                    Counted::new,
                    |acc, piece| piece.fold(acc, Counted::push),
                    Counted::merge,
                );
                got.check(&range, &format!("{at}: reduce_blocks"));
            }
        }
    }
    for threads in [1, 2, 4] {
        let mut check = NoLeak { threads };
        on_every_runtime(threads, &mut check);
        let mut pool = FineGrainPool::with_threads(threads);
        for range in check.ranges() {
            let got = pool.parallel_reduce_ordered(
                range.clone(),
                Counted::new,
                Counted::push,
                Counted::merge,
            );
            assert!(got.items.iter().copied().eq(range.clone()), "ordered");
            got.check(&range, &format!("ordered @ P={threads}, {range:?}"));
        }
    }
}

/// Live [`Words`] accumulators (a counter of its own: tests run concurrently).
static LIVE_WORDS: AtomicUsize = AtomicUsize::new(0);

/// A counted reduction accumulator of `N` words: at `N = 15` it is exactly one
/// arrival payload, the widest `T` that travels in the join's arrival lines; at
/// `N = 16` it is one word wider and takes the team's view blocks.
struct Words<const N: usize>([u64; N]);

impl<const N: usize> Words<N> {
    fn new() -> Self {
        LIVE_WORDS.fetch_add(1, Ordering::Relaxed);
        Words([0; N])
    }

    fn push(mut self, i: usize) -> Self {
        self.0[i % N] += i as u64 + 1;
        self
    }

    fn merge(mut self, other: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
        self
    }

    /// Asserts that this is the one live accumulator and that it holds exactly the fold
    /// of `range`, then drops it and asserts that none is left.
    fn check(self, range: &Range<usize>, at: &str) {
        assert_eq!(
            LIVE_WORDS.load(Ordering::Relaxed),
            1,
            "{at}: live after the call"
        );
        let mut want = [0u64; N];
        for i in range.clone() {
            want[i % N] += i as u64 + 1;
        }
        assert_eq!(self.0, want, "{at}: folded words");
        drop(self);
        assert_eq!(
            LIVE_WORDS.load(Ordering::Relaxed),
            0,
            "{at}: live after the drop"
        );
    }
}

impl<const N: usize> Drop for Words<N> {
    fn drop(&mut self) {
        LIVE_WORDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The payload boundary: a 15-word accumulator (the payload path) and a 16-word one
/// (the view-block path) on every runtime at P = 1, 2, 4 — the fine-grain pool under
/// every barrier kind — each reducing to the exact result with `P − 1` combines and no
/// accumulator leaked or dropped twice.
#[test]
fn accumulators_one_payload_wide_and_one_word_wider_reduce_exactly_on_every_runtime() {
    struct Boundary {
        threads: usize,
    }
    impl Boundary {
        fn one<const N: usize, R: Loops>(
            &self,
            rt: &mut R,
            scheduled: fn(SyncStats) -> SyncStats,
            blocks: bool,
        ) {
            let range = 5..5 + 40 * self.threads + 3;
            let at = format!(
                "{} @ P={}, {N} words{}",
                Loops::name(rt),
                self.threads,
                if blocks { ", blocks" } else { "" }
            );
            let before = Loops::sync_stats(rt);
            let got = if blocks {
                rt.reduce_blocks(
                    range.clone(),
                    Words::<N>::new,
                    |acc, piece| piece.fold(acc, Words::push),
                    Words::merge,
                )
            } else {
                rt.reduce(range.clone(), Words::<N>::new, Words::push, Words::merge)
            };
            let delta = Loops::sync_stats(rt).since(&before);
            got.check(&range, &at);
            let want = SyncStats {
                combine_ops: Loops::threads(rt) as u64 - 1,
                ..delta
            };
            assert_eq!(scheduled(delta), scheduled(want), "{at}: P − 1 combines");
        }
    }
    impl OnEveryRuntime for Boundary {
        fn run<R: Loops>(&mut self, rt: &mut R, scheduled: fn(SyncStats) -> SyncStats) {
            for blocks in [false, true] {
                self.one::<15, R>(rt, scheduled, blocks);
                self.one::<16, R>(rt, scheduled, blocks);
            }
        }
    }
    assert_eq!(std::mem::size_of::<Words<15>>(), 120, "one payload");
    for threads in [1, 2, 4] {
        let mut check = Boundary { threads };
        on_every_runtime(threads, &mut check);
        for kind in BarrierKind::ALL {
            let mut pool = FineGrainPool::new(Config::builder(threads).barrier(kind).build());
            check.run(&mut pool, |delta| delta);
        }
    }
}

/// `LoopRuntime::parallel_sum` is `parallel_reduce(range, 0.0, &|acc, i| acc + f(i),
/// &|a, b| a + b)` bit for bit, on every runtime, `Sequential` and the adaptive pool
/// included.  The terms' float sum depends on association — a run of 63 ones adds up
/// exactly before the 1e16 that follows it and is rounded away one by one after it —
/// so a participant that folded its pieces in another order would differ.
/// Where the pieces a participant runs depend on timing (the dispensed OpenMP
/// schedules, the Cilk-like baseline, the stealing pool, the adaptive router's
/// backends) two calls may fold different pieces, so at P > 1 those compare sums of
/// exact integers instead.
#[test]
fn parallel_sum_is_parallel_reduce_bit_for_bit_on_every_runtime() {
    let sensitive = |i: usize| if i.is_multiple_of(64) { 1e16 } else { 1.0 };
    let exact = |i: usize| (i % 7) as f64;
    let range = 3..3 + 997;
    for threads in [1, 2, 3] {
        let mut deterministic: Vec<Box<dyn LoopRuntime>> = vec![
            Box::new(Sequential),
            Box::new(ScheduledTeam::with_threads(threads, Schedule::Static)),
            Box::new(ScheduledTeam::with_threads(
                threads,
                Schedule::StaticChunked(3),
            )),
            Box::new(CilkFineGrain::with_threads(threads)),
        ];
        for kind in BarrierKind::ALL {
            let config = Config::builder(threads).barrier(kind).build();
            deterministic.push(Box::new(FineGrainPool::new(config)));
        }
        let timed: Vec<Box<dyn LoopRuntime>> = vec![
            Box::new(ScheduledTeam::with_threads(threads, Schedule::Dynamic(2))),
            Box::new(ScheduledTeam::with_threads(threads, Schedule::Guided(1))),
            Box::new(CilkPool::with_threads(threads)),
            Box::new(StealPool::with_threads(threads)),
            Box::new(AdaptivePool::with_threads(threads)),
        ];
        let fixed = deterministic.into_iter().map(|rt| (rt, true));
        for (mut rt, fixed) in fixed.chain(timed.into_iter().map(|rt| (rt, threads == 1))) {
            let f: &(dyn Fn(usize) -> f64 + Sync) = if fixed { &sensitive } else { &exact };
            let at = format!("{} @ P={threads}", rt.name());
            for _ in 0..3 {
                let sum = rt.parallel_sum(range.clone(), f);
                let reduced =
                    rt.parallel_reduce(range.clone(), 0.0, &|acc, i| acc + f(i), &|a, b| a + b);
                assert_eq!(sum.to_bits(), reduced.to_bits(), "{at}: {sum} vs {reduced}");
            }
            let empty = rt.parallel_sum(9..9, f);
            assert_eq!(
                empty.to_bits(),
                0.0f64.to_bits(),
                "{at}: an empty sum is 0.0"
            );
        }
    }
    // The terms do depend on association: the sequential left fold differs from the
    // same terms folded right to left.
    let left = range.clone().fold(0.0, |acc, i| acc + sensitive(i));
    let right = range.clone().rev().fold(0.0, |acc, i| acc + sensitive(i));
    assert_ne!(left.to_bits(), right.to_bits(), "{left} vs {right}");
}
