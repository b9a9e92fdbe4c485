//! Trace well-formedness battery (ISSUE 7).
//!
//! Exercises the whole substrate with tracing armed and checks the structural
//! contract of the recorded timelines: spans nest per worker, timestamps are
//! monotonic per track, the master track's loop spans bit-match `SyncStats` cycle
//! counts, and the Chrome trace-event export parses with the vendored serde and
//! round-trips.  The trace state is process-global, so every recording test
//! serializes on one mutex and identifies its master track by a unique label.
//!
//! The same file compiles without the `trace` feature (CI runs it under
//! `--no-default-features` too); the disabled half asserts the whole layer
//! compiles to nothing.

#[cfg(feature = "trace")]
mod enabled {
    use parlo_core::{FineGrainPool, LoopRuntime, Loops};
    use parlo_trace::{EventKind, Phase, TraceSnapshot, TrackSnapshot};
    use std::sync::Mutex;

    /// Serializes the recording tests: rings, the enable flag and the track
    /// registry are process-global.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_armed_trace<R>(label: &str, f: impl FnOnce() -> R) -> (R, TraceSnapshot) {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        parlo_trace::clear();
        parlo_trace::enable();
        parlo_trace::set_thread_label(label);
        let out = f();
        parlo_trace::disable();
        (out, parlo_trace::snapshot())
    }

    fn track<'a>(snap: &'a TraceSnapshot, label: &str) -> &'a TrackSnapshot {
        snap.tracks
            .iter()
            .find(|t| t.label == label)
            .unwrap_or_else(|| panic!("no track labelled {label:?}"))
    }

    /// A stealing pool of `threads` participants whose loops use chunks of `chunk`.
    fn chunked_steal_pool(threads: usize, chunk: usize) -> parlo_steal::StealPool {
        parlo_steal::StealPool::new(
            parlo_steal::StealConfig::with_threads(threads).with_chunk(chunk),
        )
    }

    fn count(snap: &TraceSnapshot, kind: EventKind, phase: Phase) -> usize {
        snap.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == kind && e.phase == phase)
            .count()
    }

    #[test]
    fn master_loop_spans_bit_match_sync_stats() {
        let (delta, snap) = with_armed_trace("battery-master", || {
            let mut pool = FineGrainPool::with_threads(3);
            let before = Loops::sync_stats(&pool);
            for _ in 0..5 {
                pool.parallel_for(0..64, |_| {});
            }
            for _ in 0..3 {
                let _ = pool.reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            }
            pool.for_blocks(0..64, |_| {});
            pool.broadcast(|_| {});
            Loops::sync_stats(&pool).since(&before)
        });
        assert_eq!(delta.loops, 10);
        let master = track(&snap, "battery-master");
        let loop_begins = master
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.phase == Phase::Loop)
            .count() as u64;
        assert_eq!(
            loop_begins, delta.loops,
            "every run_job cycle must produce exactly one Loop span on the master track"
        );
        assert_eq!(master.dropped, 0, "battery workloads must fit the ring");
        // Combine instants are recorded next to every record_combine bump, on
        // whichever thread performed the combine.
        assert_eq!(
            count(&snap, EventKind::Instant, Phase::Combine) as u64,
            delta.combine_ops
        );
        // The half-barrier phases themselves are also on the timeline (release
        // instants, join/dispatch/arrival spans); detach cycles go through the same
        // barrier, so these are lower-bounded by the loop count rather than equal.
        assert!(count(&snap, EventKind::Instant, Phase::Release) as u64 >= delta.loops);
        assert!(count(&snap, EventKind::Begin, Phase::Join) as u64 >= delta.loops);
    }

    /// The same contract for the other three runtime families: every one of them
    /// runs its loops, detach cycles and join-phase combines through the one team
    /// skeleton, so each `SyncStats` loop is exactly one `loop` span on the master's
    /// track, each join-phase combine one `combine` instant, and releasing the lease
    /// exactly one `detach-cycle` span.
    #[test]
    fn every_runtime_family_emits_one_loop_span_per_sync_stats_loop() {
        use parlo_cilk::{CilkFineGrain, CilkPool};
        use parlo_omp::{Schedule, ScheduledTeam};
        type Build = fn() -> Box<dyn LoopRuntime>;
        // (label, constructor, combines happen inside the join phase)
        let families: [(&str, Build, bool); 5] = [
            (
                "battery-omp-static",
                || Box::new(ScheduledTeam::with_threads(3, Schedule::Static)),
                true,
            ),
            (
                "battery-omp-dynamic",
                || Box::new(ScheduledTeam::with_threads(3, Schedule::Dynamic(4))),
                true,
            ),
            // Baseline Cilk merges its reducer views after the loop, not in a join.
            (
                "battery-cilk",
                || Box::new(CilkPool::with_threads(3)),
                false,
            ),
            (
                "battery-cilk-fine",
                || Box::new(CilkFineGrain::with_threads(3)),
                true,
            ),
            (
                "battery-steal",
                || Box::new(parlo_steal::StealPool::with_threads(3)),
                true,
            ),
        ];
        for (label, build, combines_in_join) in families {
            let (delta, snap) = with_armed_trace(label, || {
                let mut rt = build();
                let before = rt.sync_stats();
                for _ in 0..4 {
                    rt.parallel_for(0..64, &|_| {});
                }
                for _ in 0..3 {
                    let sum = rt.parallel_sum(0..100, &|i| i as f64);
                    assert_eq!(sum, 4950.0, "{label}");
                }
                rt.parallel_for(0..0, &|_| {});
                rt.sync_stats().since(&before)
                // `rt` drops here, inside the armed window: one lease release.
            });
            assert_eq!(delta.loops, 7, "{label}: empty loops are not loops");
            let master = track(&snap, label);
            assert_eq!(master.dropped, 0, "{label}");
            let begins = |phase| {
                master
                    .events
                    .iter()
                    .filter(|e| e.kind == EventKind::Begin && e.phase == phase)
                    .count() as u64
            };
            assert_eq!(begins(Phase::Loop), delta.loops, "{label}");
            assert_eq!(begins(Phase::DetachCycle), 1, "{label}");
            if combines_in_join {
                assert_eq!(
                    count(&snap, EventKind::Instant, Phase::Combine) as u64,
                    delta.combine_ops,
                    "{label}"
                );
            }
        }
    }

    /// The stealing pool's hand-offs reconcile exactly with `StealStats`: one
    /// `steal-hit` instant per whole chunk stolen, and one `steal-lend` instant per
    /// lent half pushed (`a == b`: the lender's own deque) and per lent half a thief
    /// took (`a != b`: thief and victim) — so a timeline shows who halved the tail
    /// and who picked the halves up, and a lent half is never mistaken for a hit.
    #[test]
    fn steal_hits_and_lends_bit_match_steal_stats() {
        let (delta, snap) = with_armed_trace("battery-steal-lend", || {
            let mut steal = chunked_steal_pool(3, 64);
            let before = steal.stats();
            for _ in 0..10 {
                // 8 chunks of 64 on 3 participants: long enough to halve twice.
                steal.for_each(0..512, |i| {
                    if i >= 448 {
                        std::hint::spin_loop();
                    }
                });
            }
            steal.stats().since(&before)
        });
        assert!(snap.tracks.iter().all(|t| t.dropped == 0));
        let lends = |thief_side: bool| {
            snap.tracks
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| e.kind == EventKind::Instant && e.phase == Phase::StealLend)
                .filter(|e| (e.a != e.b) == thief_side)
                .count() as u64
        };
        assert!(delta.lends >= 10, "every loop lends at its tail: {delta:?}");
        assert_eq!(lends(false), delta.lends);
        assert_eq!(lends(true), delta.lent_steals);
        assert_eq!(
            count(&snap, EventKind::Instant, Phase::StealHit) as u64,
            delta.steals_hit
        );
        assert_eq!(
            count(&snap, EventKind::Instant, Phase::StealTier) as u64,
            delta.steals_hit
        );
    }

    #[test]
    fn spans_nest_and_timestamps_are_monotonic_per_track() {
        let ((), snap) = with_armed_trace("battery-nesting", || {
            let mut pool = FineGrainPool::with_threads(4);
            for _ in 0..20 {
                pool.parallel_for(0..256, |_| {});
            }
            let _ = pool.reduce(0..512, || 0.0f64, |a, i| a + i as f64, |a, b| a + b);
            let mut steal = chunked_steal_pool(3, 4);
            for _ in 0..10 {
                steal.for_each(0..64, |_| {});
            }
        });
        assert!(snap.total_events() > 0);
        for t in &snap.tracks {
            let mut last_ts = 0u64;
            let mut depth = 0i64;
            for e in &t.events {
                assert!(
                    e.ts_ns >= last_ts,
                    "track {:?}: timestamps must be monotonic",
                    t.label
                );
                last_ts = e.ts_ns;
                match e.kind {
                    EventKind::Begin => depth += 1,
                    EventKind::End => {
                        depth -= 1;
                        assert!(
                            depth >= 0 || t.dropped > 0,
                            "track {:?}: span end without begin",
                            t.label
                        );
                    }
                    EventKind::Instant | EventKind::Counter => {}
                }
            }
            if t.dropped == 0 {
                assert_eq!(depth, 0, "track {:?}: spans must balance", t.label);
            }
        }
    }

    #[test]
    fn chrome_export_parses_with_vendored_serde_and_round_trips() {
        let ((), snap) = with_armed_trace("battery-chrome", || {
            let mut pool = FineGrainPool::with_threads(3);
            for _ in 0..7 {
                pool.parallel_for(0..64, |_| {});
            }
        });
        let json = parlo_trace::chrome_trace_string(&snap);
        let value: parlo_trace::serde::Value =
            parlo_trace::serde_json::from_str(&json).expect("chrome export must be valid JSON");
        let map = value.as_map().expect("top level is an object");
        let events = parlo_trace::serde::map_get(map, "traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents is an array");
        assert!(!events.is_empty());
        // One thread_name metadata record per non-empty track.
        let meta = events
            .iter()
            .filter(|e| {
                e.as_map()
                    .and_then(|m| parlo_trace::serde::map_get(m, "ph"))
                    .and_then(|v| v.as_str())
                    == Some("M")
            })
            .count();
        assert_eq!(
            meta,
            snap.tracks.iter().filter(|t| !t.events.is_empty()).count()
        );
        // The exported "B" loop events match the in-memory Loop span begins.
        let loop_b = events
            .iter()
            .filter(|e| {
                let m = e.as_map().unwrap();
                parlo_trace::serde::map_get(m, "ph").and_then(|v| v.as_str()) == Some("B")
                    && parlo_trace::serde::map_get(m, "name").and_then(|v| v.as_str())
                        == Some("loop")
            })
            .count();
        assert_eq!(loop_b, count(&snap, EventKind::Begin, Phase::Loop));
        // Round-trip: serialize the parsed value and parse again — same value.
        let json2 = parlo_trace::serde_json::to_string(&value).expect("round-trip serialize");
        let value2: parlo_trace::serde::Value =
            parlo_trace::serde_json::from_str(&json2).expect("round-trip parse");
        assert_eq!(value, value2);
    }

    #[test]
    fn steal_serve_and_adaptive_events_are_recorded() {
        let (route_delta, snap) = with_armed_trace("battery-families", || {
            // 2 chunks across 3 participants: somebody must sweep for work.
            let mut steal = chunked_steal_pool(3, 4);
            for _ in 0..20 {
                steal.for_each(0..8, |_| {});
            }
            // A short serving session: enqueue + batch + complete on the driver.
            let exec = parlo_exec::Executor::new(
                &parlo_affinity::Topology::flat(4).unwrap(),
                parlo_affinity::PinPolicy::None,
            );
            let server = parlo_serve::Server::on_executor(
                parlo_serve::ServeConfig::default()
                    .with_workers(3)
                    .with_gang(parlo_serve::GangSizing::Fixed(3)),
                &exec,
            );
            for i in 0..4u64 {
                server
                    .submit(parlo_serve::LoopRequest::for_each(
                        parlo_serve::LoopSite::new(i),
                        0..64,
                        |_| {},
                    ))
                    .unwrap()
                    .wait();
            }
            drop(server);
            // Adaptive calibration: probes first, then routed executions.
            let mut adaptive = parlo_adaptive::AdaptivePool::with_threads(2);
            let site = parlo_adaptive::LoopSite::new(99);
            let before = adaptive.adaptive_stats();
            for _ in 0..40 {
                adaptive.parallel_for_at(site, 0..64, |_| {});
            }
            adaptive.adaptive_stats().since(&before)
        });
        assert!(count(&snap, EventKind::Instant, Phase::StealSweep) > 0);
        assert_eq!(count(&snap, EventKind::Instant, Phase::Enqueue), 4);
        assert!(count(&snap, EventKind::Begin, Phase::Batch) >= 1);
        assert!(count(&snap, EventKind::Instant, Phase::Complete) >= 1);
        assert!(count(&snap, EventKind::Counter, Phase::QueueDepth) >= 4);
        assert!(count(&snap, EventKind::Instant, Phase::Probe) as u64 >= 1);
        assert_eq!(
            count(&snap, EventKind::Instant, Phase::Route) as u64,
            route_delta.routed_loops,
            "one route instant per routed execution"
        );
        assert_eq!(
            count(&snap, EventKind::Instant, Phase::Probe) as u64,
            route_delta.seq_probes + route_delta.probes,
            "one probe instant per calibration run (sequential or parallel)"
        );
    }

    #[test]
    fn runtime_disabled_flag_suppresses_all_recording() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        parlo_trace::disable();
        parlo_trace::clear();
        let mut pool = FineGrainPool::with_threads(3);
        for _ in 0..5 {
            pool.parallel_for(0..64, |_| {});
        }
        drop(pool);
        assert_eq!(parlo_trace::snapshot().total_events(), 0);
    }

    /// Overhead guard (enabled half): a recorded event is a handful of relaxed
    /// stores into an owner-local ring — budget it generously at 2 µs to stay
    /// robust on loaded CI machines while still catching a lock or allocation
    /// sneaking onto the emission path (those cost tens of µs under contention).
    #[test]
    fn enabled_per_event_cost_is_bounded() {
        let ((), _snap) = with_armed_trace("battery-overhead", || {
            const N: u32 = 100_000;
            let start = std::time::Instant::now();
            for i in 0..N {
                parlo_trace::instant(Phase::StealSweep, i as u64, 0);
            }
            let per_event = start.elapsed().as_nanos() as f64 / N as f64;
            assert!(
                per_event < 2_000.0,
                "per-event emission cost {per_event:.0} ns exceeds the 2 µs budget"
            );
        });
    }
}

/// The disabled half: without the `trace` feature the layer must compile to
/// nothing — no ring state, no registration, empty snapshots — which is the
/// "zero atomics on the hot path" contract of the overhead guard.
#[cfg(not(feature = "trace"))]
mod disabled {
    use parlo_core::{FineGrainPool, LoopRuntime, Loops};

    #[test]
    // The point of the test is that COMPILED is the constant `false` here.
    #[allow(clippy::assertions_on_constants)]
    fn trace_layer_compiles_to_nothing() {
        assert!(!parlo_trace::COMPILED);
        assert_eq!(parlo_trace::track_capacity(), 0);
        parlo_trace::enable();
        parlo_trace::set_thread_label("ghost");
        parlo_trace::span_begin(parlo_trace::Phase::Loop, 1, 2);
        parlo_trace::instant(parlo_trace::Phase::Release, 0, 0);
        parlo_trace::counter(parlo_trace::Phase::QueueDepth, 3);
        parlo_trace::span_end(parlo_trace::Phase::Loop);
        assert!(!parlo_trace::is_enabled());
        let snap = parlo_trace::snapshot();
        assert!(snap.tracks.is_empty());
        assert_eq!(snap.total_events(), 0);
    }

    #[test]
    fn pools_run_identically_without_the_layer() {
        let mut pool = FineGrainPool::with_threads(3);
        let before = pool.sync_stats();
        let sum = pool.reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, 499_500);
        let delta = pool.sync_stats().since(&before);
        assert_eq!(delta.loops, 1);
        assert_eq!(parlo_trace::snapshot().total_events(), 0);
    }
}
