//! Work-stealing quick start: run an irregular (skewed) workload on the stealing
//! chunk pool and inspect how the chunks moved.
//!
//! ```sh
//! cargo run --example steal_quickstart
//! ```

use parlo::prelude::*;
use parlo_workloads::irregular;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);
    let mut pool = StealPool::with_threads(threads);

    // A uniform reduction first: same API shape as every other runtime in the roster.
    let data: Vec<u64> = (0..1_000_000).collect();
    let sum = pool.reduce(0..data.len(), || 0u64, |acc, i| acc + data[i], |a, b| a + b);
    println!("sum = {sum}");
    assert_eq!(sum, 499_999_500_000);

    // Now the skewed-geometric workload: the last static block carries most of the
    // work, so idle workers steal chunks from its owner's deque.
    let n = 100_000;
    let skewed = irregular::skewed_sum(&mut pool, n, 8);
    assert_eq!(
        skewed,
        irregular::skewed_sequential(n, 8),
        "schedule-independent result"
    );
    println!("skewed-geometric sum over {n} iterations = {skewed}");

    let stats = pool.stats();
    println!(
        "loops = {}, chunks executed = {} (per worker: {:?})",
        stats.loops,
        stats.chunks_executed(),
        stats.chunks_per_worker
    );
    println!(
        "steals: {} attempted, {} hit",
        stats.steals_attempted, stats.steals_hit
    );
    println!(
        "synchronization: {} barrier phases ({} per loop, same half-barrier as the fine-grain pool)",
        stats.barrier_phases,
        stats.barrier_phases / stats.loops.max(1)
    );
    println!("steal quickstart done");
}
