//! Property-based tests (proptest) of the core invariants across the workspace.

use parlo::cilk::CilkConfig;
use parlo::prelude::*;
use parlo_sync::{AtomicUsize, Ordering};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every index of a parallel loop is executed exactly once, for any range, thread
    /// count and barrier configuration.
    #[test]
    fn fine_grain_loop_covers_every_index_exactly_once(
        len in 0usize..600,
        start in 0usize..50,
        threads in 1usize..5,
        kind in 0..BarrierKind::ALL.len(),
    ) {
        let kind = BarrierKind::ALL[kind];
        let mut pool = FineGrainPool::new(Config::builder(threads).barrier(kind).build());
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(start..start + len, |i| {
            hits[i - start].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// The merged (half-barrier) reduction equals the sequential fold for arbitrary
    /// inputs, and performs exactly P-1 combines.
    #[test]
    fn fine_grain_reduction_matches_sequential_fold(
        values in prop::collection::vec(-1000i64..1000, 0..500),
        threads in 1usize..5,
    ) {
        let expected: i64 = values.iter().sum();
        let mut pool = FineGrainPool::with_threads(threads);
        let before = pool.stats();
        let got = pool.reduce(0..values.len(), || 0i64, |a, i| a + values[i], |a, b| a + b);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(pool.stats().since(&before).combine_ops, (threads - 1) as u64);
    }

    /// The ordered reduction reproduces the sequential fold of a non-commutative
    /// operator (string concatenation) for any input and thread count.
    #[test]
    fn ordered_reduction_preserves_order(
        words in prop::collection::vec("[a-c]{0,3}", 0..60),
        threads in 1usize..5,
    ) {
        let expected: String = words.concat();
        let mut pool = FineGrainPool::with_threads(threads);
        let got = pool.parallel_reduce_ordered(
            0..words.len(),
            String::new,
            |mut acc, i| { acc.push_str(&words[i]); acc },
            |mut a, b| { a.push_str(&b); a },
        );
        prop_assert_eq!(got, expected);
    }

    /// OpenMP-like worksharing covers every index exactly once under every schedule.
    #[test]
    fn omp_schedules_cover_every_index(
        len in 0usize..500,
        threads in 1usize..4,
        schedule in 0usize..4,
        chunk in 1usize..17,
    ) {
        let schedule = match schedule {
            0 => Schedule::Static,
            1 => Schedule::StaticChunked(chunk),
            2 => Schedule::Dynamic(chunk),
            _ => Schedule::Guided(chunk),
        };
        let mut team = ScheduledTeam::with_threads(threads, schedule);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        team.for_each(0..len, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// The Cilk baseline loop covers every index exactly once for arbitrary grain sizes.
    #[test]
    fn cilk_for_covers_every_index(
        len in 0usize..800,
        threads in 1usize..4,
        grain in 1usize..40,
    ) {
        let mut pool = CilkPool::new(CilkConfig { grain: Some(grain), ..CilkConfig::with_threads(threads) });
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(0..len, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// The Cilk baseline reduction matches the sequential fold (commutative operator)
    /// for arbitrary inputs and grains.
    #[test]
    fn cilk_reduce_matches_sequential(
        values in prop::collection::vec(0u32..1000, 0..600),
        threads in 1usize..4,
        grain in 1usize..64,
    ) {
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        let mut pool = CilkPool::new(CilkConfig { grain: Some(grain), ..CilkConfig::with_threads(threads) });
        let got = pool.reduce(0..values.len(), || 0u64, |a, i| a + values[i] as u64, |a, b| a + b);
        prop_assert_eq!(got, expected);
    }

    /// The static block partition covers the range exactly once with balanced blocks.
    #[test]
    fn static_block_partition_is_exact_and_balanced(
        len in 0usize..10_000,
        threads in 1usize..64,
    ) {
        let range = 0..len;
        let mut seen = Vec::with_capacity(len);
        let mut sizes = Vec::new();
        for t in 0..threads {
            let block = parlo_core::static_block(&range, threads, t);
            sizes.push(block.len());
            seen.extend(block);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..len).collect::<Vec<_>>());
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// The work-stealing deque preserves the multiset of pushed items under owner
    /// pops (single-threaded property; the concurrent property is covered by the
    /// stress tests in parlo-cilk).
    #[test]
    fn deque_preserves_items(ops in prop::collection::vec(0u32..3, 1..200)) {
        let deque: parlo_cilk::WorkStealingDeque<u64> = parlo_cilk::WorkStealingDeque::new(256);
        let mut pushed = 0u64;
        let mut expected: HashSet<u64> = HashSet::new();
        let mut obtained: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                0 => {
                    // SAFETY: the proptest thread is the deque's sole owner.
                    if unsafe { deque.push(pushed) }.is_ok() {
                        expected.insert(pushed);
                    }
                    pushed += 1;
                }
                1 => {
                    // SAFETY: the proptest thread is the deque's sole owner.
                    if let Some(v) = unsafe { deque.pop() } {
                        prop_assert!(expected.contains(&v));
                        prop_assert!(obtained.insert(v), "duplicate item {}", v);
                    }
                }
                _ => {
                    if let Some(v) = deque.steal().success() {
                        prop_assert!(expected.contains(&v));
                        prop_assert!(obtained.insert(v), "duplicate item {}", v);
                    }
                }
            }
        }
        // Drain and verify everything pushed is obtained exactly once.
        // SAFETY: the proptest thread is the deque's sole owner.
        while let Some(v) = unsafe { deque.pop() } {
            prop_assert!(obtained.insert(v));
        }
        prop_assert_eq!(obtained, expected);
    }

    /// The Amdahl burden fit recovers a known burden from synthetic measurements.
    #[test]
    fn burden_fit_recovers_known_burden(
        burden_us in 0.5f64..100.0,
        threads in 2usize..64,
    ) {
        let burden = burden_us * 1e-6;
        let measurements: Vec<parlo_analysis::BurdenMeasurement> = (0..12)
            .map(|k| {
                let t_seq = 1e-6 * 1.7f64.powi(k);
                parlo_analysis::BurdenMeasurement {
                    t_seq,
                    speedup: parlo_analysis::model_speedup(t_seq, burden, threads),
                }
            })
            .collect();
        let fit = parlo_analysis::fit_burden(&measurements, threads).unwrap();
        prop_assert!((fit.burden - burden).abs() / burden < 0.01);
    }

    /// Mesh generation invariants hold for arbitrary grid sizes and seeds.
    #[test]
    fn mesh_invariants(nx in 2usize..20, ny in 2usize..20, seed in 0u64..1000) {
        let mesh = parlo_workloads::Mesh::triangulated_grid(nx, ny, seed);
        prop_assert_eq!(mesh.num_nodes(), nx * ny);
        prop_assert!(mesh.validate().is_ok());
    }

    /// Simulator monotonicity: the half-barrier never costs more than the full-barrier
    /// loop, and every scheduler's burden grows with the thread count.
    #[test]
    fn simulator_monotonicity(p in 2usize..48) {
        use parlo_sim::{burden_ns, LoopShape, SimMachine, SimScheduler};
        let m = SimMachine::paper_machine();
        let shape = LoopShape::default();
        let half = burden_ns(&m, SimScheduler::FineGrainTree, p, shape);
        let full = burden_ns(&m, SimScheduler::FineGrainTreeFull, p, shape);
        prop_assert!(half <= full);
        for s in SimScheduler::TABLE1_ORDER {
            prop_assert!(burden_ns(&m, s, p, shape) <= burden_ns(&m, s, 48, shape) * 1.05);
        }
    }
}
