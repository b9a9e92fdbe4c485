//! Quickstart: the fine-grain scheduler's loop and reduction API in a few lines.  The
//! loop and the reduction are the generic `Loops` vocabulary, so the same two calls
//! run on every pool in the workspace.
//!
//! Run with `cargo run --release --example quickstart`.

use parlo::prelude::*;
use parlo_sync::{AtomicUsize, Ordering};

fn main() {
    // A pool with one thread per detected core, topology-aware tree half-barrier.
    let mut pool = FineGrainPool::with_default_config();
    println!(
        "pool: {} threads, configuration: {}",
        pool.num_threads(),
        pool.config().barrier.label()
    );

    // 1. A statically scheduled parallel loop.
    let data: Vec<f64> = (0..1_000_000).map(|i| i as f64).collect();
    let hits = AtomicUsize::new(0);
    pool.for_each(0..data.len(), |i| {
        if (data[i] as usize).is_multiple_of(97) {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    });
    println!("multiples of 97: {}", hits.load(Ordering::Relaxed));

    // 2. A reduction merged into the join half-barrier (exactly P-1 combines).
    let sum = pool.reduce(0..data.len(), || 0.0, |acc, i| acc + data[i], |a, b| a + b);
    println!("sum = {sum:.0}");

    // 3. An ordered (non-commutative) reduction.
    let digits = pool.parallel_reduce_ordered(
        0..10,
        String::new,
        |mut acc, i| {
            acc.push_str(&i.to_string());
            acc
        },
        |mut a, b| {
            a.push_str(&b);
            a
        },
    );
    println!("digits in order: {digits}");

    // 4. Instrumentation: the pool counts loops, barrier phases and combines.
    let stats = pool.stats();
    println!(
        "stats: {} loops, {} barrier phases, {} reductions, {} combines",
        stats.loops, stats.barrier_phases, stats.reductions, stats.combine_ops
    );
    assert_eq!(stats.combine_ops, 2 * (pool.num_threads() as u64 - 1));
}
