//! The hybrid scheduler: one pool that runs fine-grain loops statically through the
//! half-barrier and coarse-grain loops dynamically through work stealing, exactly the
//! extension described in §2 of the paper ("alternating a cycle of the random work
//! stealing algorithm with polling in the half-barrier").
//!
//! Run with `cargo run --release --example hybrid_scheduling`.

use parlo::prelude::*;
use parlo_sync::{AtomicUsize, Ordering};

/// An artificially imbalanced body: iteration cost grows with the index, which is the
//  regime where dynamic scheduling pays off.
fn imbalanced_work(i: usize) -> f64 {
    let rounds = 1 + (i % 64) * 8;
    let mut x = 1.0001f64;
    for _ in 0..rounds {
        x = x.mul_add(1.0000001, 1e-9);
    }
    x
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    // One pool, two faces: `hybrid` runs the fine-grain loops, `hybrid.pool` the
    // baseline work-stealing ones.
    let mut hybrid = CilkFineGrain::with_threads(threads);
    println!("hybrid pool with {threads} workers\n");

    // Fine-grain phase: thousands of tiny loops, statically scheduled via the
    // half-barrier that the workers poll between steal attempts.
    let counter = AtomicUsize::new(0);
    for _ in 0..1_000 {
        hybrid.for_each(0..64, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
    }
    println!(
        "fine-grain phase: 1000 loops x 64 iterations -> {} iterations, {} fine-grain loops recorded",
        counter.load(Ordering::Relaxed),
        hybrid.pool.stats().fine_loops
    );

    // Coarse-grain phase: one large, imbalanced loop, dynamically scheduled by the same
    // pool through recursive splitting and random stealing.
    let sum = hybrid.pool.reduce(
        0..200_000,
        || 0.0f64,
        |acc, i| acc + imbalanced_work(i),
        |a, b| a + b,
    );
    let stats = hybrid.pool.stats();
    println!(
        "coarse-grain phase: work-stealing reduction checksum {sum:.1}, {} leaf tasks, {} steals ({} attempts)",
        stats.tasks_executed, stats.steals, stats.steal_attempts
    );

    // Alternating both kinds of loop on the same pool works too.
    let probe = AtomicUsize::new(0);
    for round in 0..100 {
        if round % 2 == 0 {
            hybrid.for_each(0..32, |_| {
                probe.fetch_add(1, Ordering::Relaxed);
            });
        } else {
            hybrid.pool.for_each(0..32, |_| {
                probe.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    println!(
        "alternating phase: {} iterations executed across {} fine-grain + {} cilk loops",
        probe.load(Ordering::Relaxed),
        hybrid.pool.stats().fine_loops - 1000,
        hybrid.pool.stats().loops - 1
    );
}
