//! Trace quickstart: arm the per-worker event tracer, run a few loops, check the
//! recorded timeline against `SyncStats`, export Chrome trace-event JSON and
//! render the unified stats registry as text.
//!
//! Run with `cargo run --release --example trace_quickstart`.  The resulting
//! JSON file loads directly into `chrome://tracing` or <https://ui.perfetto.dev>.

use parlo::prelude::*;
use parlo::trace;

fn main() {
    // 1. Arm the tracer and name this thread's track.  Without the (default-on)
    //    `trace` feature every call here is an inline no-op.
    trace::enable();
    trace::set_thread_label("main");
    println!("trace layer compiled in: {}", trace::COMPILED);

    // 2. Run work on the fine-grain pool: each scheduled cycle emits one Loop
    //    span on the master track plus dispatch/join/release barrier events on
    //    the worker tracks.
    let mut pool = FineGrainPool::with_threads(4);
    let before = Loops::sync_stats(&pool);
    for _ in 0..8 {
        pool.parallel_for(0..10_000, |_| {});
    }
    let sum = pool.reduce(0..1_000_000, || 0.0, |a, i| a + i as f64, |a, b| a + b);
    println!("sum = {sum:.0}");
    let delta = Loops::sync_stats(&pool).since(&before);
    drop(pool);

    // 3. Snapshot the rings and check the structural contract: the master track
    //    carries exactly one Loop span per cycle SyncStats counted.
    trace::disable();
    let snap = trace::snapshot();
    println!("trace: {}", snap.summary());
    if trace::COMPILED {
        let master = snap
            .tracks
            .iter()
            .find(|t| t.label == "main")
            .expect("master track");
        let loop_spans = master
            .events
            .iter()
            .filter(|e| e.kind == trace::EventKind::Begin && e.phase == trace::Phase::Loop)
            .count() as u64;
        println!(
            "loop spans on master track: {loop_spans} (SyncStats counted {})",
            delta.loops
        );
        assert_eq!(loop_spans, delta.loops);
    }

    // 4. Export for chrome://tracing / Perfetto.  The bench bins do the same
    //    thing behind their `--trace <path>` flag.
    let path = std::env::temp_dir().join("parlo_trace_quickstart.json");
    let path = path.to_string_lossy();
    trace::write_chrome_trace(&path, &snap).expect("write chrome trace");
    println!("chrome trace written to {path}");

    // 5. Text metrics: any stats family can be registered and re-rendered live;
    //    here the loop-cycle delta from above.
    let mut registry = StatsRegistry::new();
    registry.register("sync", move || delta);
    print!("{}", registry.render_text());
    println!("trace quickstart done");
}
