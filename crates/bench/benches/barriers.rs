//! Criterion bench of the barrier primitives themselves: one release+join cycle of the
//! half-barrier (tree and centralized) against one full-barrier cycle.  This is the
//! ablation behind the "half vs full" design choice.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use parlo_bench::{bench_threads as threads, fine_grain_ablation_pool, fine_grain_ablations};

fn bench_barriers(c: &mut Criterion) {
    let t = threads();
    let mut group = c.benchmark_group("barrier_cycle");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    // An empty broadcast is exactly one fork/join synchronization cycle of the pool.
    // The shared ablation list covers the tree half-barrier in both layouts
    // (hierarchical and flat) plus the centralized and full-barrier variants.
    for (label, kind, hierarchical) in fine_grain_ablations() {
        let mut pool = fine_grain_ablation_pool(t, kind, hierarchical);
        group.bench_function(label, |b| {
            b.iter(|| {
                pool.broadcast(|info| {
                    criterion::black_box(info.id);
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_barriers);
criterion_main!(benches);
