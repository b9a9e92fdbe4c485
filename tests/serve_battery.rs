//! Multi-tenant serving battery for `parlo-serve`.
//!
//! The bug class the server exists to fix: before partition leases, a second
//! concurrent driver of the substrate panicked (racily at best) instead of sharing
//! it.  The battery asserts the shared-substrate contract end to end:
//!
//! * (a) **tenancy** — several tenant threads submit through one [`Server`] on one
//!   executor; every tenant's sums are bit-equal to the sequential reference, while
//!   the substrate census (via [`ExecStats`] and a name-filtered `/proc/self/task`
//!   count) never exceeds `P − 1`;
//! * (b) **batching** — queued micro-loops are fused so a backlog costs fewer
//!   half-barrier cycles than requests ([`ServeStats::fused`] observes it);
//! * (c) **admission** — a full queue rejects `try_submit` with
//!   [`Rejected::QueueFull`] instead of blocking or corrupting, and every accepted
//!   job still completes exactly;
//! * (d) **lease churn** — a seeded proptest builds and drops servers of varying
//!   gang sizes on one long-lived executor; results stay exact and no activation or
//!   worker leaks across the churn;
//! * (e) **block bodies** — a seeded proptest drives ragged batches (empty ranges,
//!   single iterations, offset ranges, `for`/`sum` mixed) through gangs of 1 to 4:
//!   every index runs exactly once on whichever of the three execution paths (inline,
//!   pooled, fused) its request takes, and a site completes in submission order.
//!
//! The census is process-wide, so the tests serialize on the census lock of
//! `tests/common`, exactly like the substrate battery.

use parlo_affinity::PinPolicy;
use parlo_exec::Executor;
use parlo_serve::{GangSizing, LoopRequest, LoopSite, Rejected, ServeConfig, Server};
use parlo_sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{assert_census_settles_to_zero, census_lock, substrate_thread_census};

/// The machine size the CI matrix pins via `PARLO_THREADS`; 4 when unset so a local
/// run still exercises a multi-gang server.
fn pinned_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4).clamp(2, 8)
}

/// A `P`-core substrate with no OS pinning (the battery runs on arbitrary hosts).
fn executor(cores: usize) -> Arc<Executor> {
    Executor::new(
        &parlo_affinity::Topology::flat(cores).expect("flat topology"),
        PinPolicy::None,
    )
}

/// `sum(0..n) of i` — integer-valued, so any scheduling or batching corruption
/// (a lost iteration, a double-executed fused segment) breaks exact equality.
fn expected_sum(n: usize) -> f64 {
    (0..n).map(|i| i as f64).sum()
}

#[test]
fn tenants_share_one_substrate_with_bit_equal_results_and_bounded_census() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    let server = Arc::new(Server::on_executor(
        ServeConfig::default().with_gang(GangSizing::Fixed(2)),
        &executor,
    ));

    // (a) Four tenant threads, each its own loop site, each checking every result
    // against the sequential reference — concurrently, through one server.
    let tenants: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let site = LoopSite::new(t as u64);
                for round in 0..20 {
                    let n = 500 + 37 * t + round;
                    let handle = server
                        .submit(LoopRequest::sum(site, 0..n, |i| i as f64))
                        .expect("server accepts while alive");
                    assert_eq!(
                        handle.wait(),
                        expected_sum(n),
                        "tenant {t} round {round}: result not bit-equal to sequential"
                    );
                }
            })
        })
        .collect();
    for t in tenants {
        t.join().expect("tenant thread");
    }

    // The substrate never grew past its capacity: P − 1 workers serve every gang
    // (driver workers included), however many tenants submit.
    let stats = executor.stats();
    assert!(
        stats.workers < cores,
        "substrate spawned {} workers on a {cores}-core machine (cap is P - 1)",
        stats.workers
    );
    if let Some(census) = substrate_thread_census() {
        assert!(
            census < cores,
            "/proc census found {census} substrate threads, expected <= {}",
            cores - 1
        );
    }
    let serve = server.stats();
    assert_eq!(serve.submitted, 80, "4 tenants x 20 rounds");
    assert_eq!(serve.completed, 80);
    assert_eq!(serve.rejected, 0);

    // Teardown joins everything — nothing leaks.
    drop(server);
    drop(executor);
    assert_census_settles_to_zero("substrate threads leaked past executor drop");
}

#[test]
fn queued_micro_loops_are_batched_through_one_barrier_cycle() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    let server = Server::on_executor(
        ServeConfig::default().with_gang(GangSizing::Fixed(cores - 1)),
        &executor,
    );
    let site = LoopSite::new(7);

    // (b) Stall the single gang inside a first request, pile up a backlog of
    // same-site micro-loops behind it, then release: the drained backlog must fuse.
    // Only `For` loops fuse (a `Sum` needs its own reduction tree and rides alone),
    // so the backlog sums through side effects and checks exactness that way.
    let release = Arc::new(AtomicBool::new(false));
    let gate = {
        let release = Arc::clone(&release);
        server
            .submit(LoopRequest::for_each(site, 0..1, move |_| {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }))
            .expect("gate accepted")
    };
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect());
    let handles: Vec<_> = (0..32usize)
        .map(|k| {
            let sums = Arc::clone(&sums);
            server
                .submit(LoopRequest::for_each(site, 0..100 + k, move |i| {
                    sums[k].fetch_add(i as u64, Ordering::Relaxed);
                }))
                .expect("backlog accepted")
        })
        .collect();
    release.store(true, Ordering::Release);
    gate.wait();
    for (k, h) in handles.iter().enumerate() {
        h.wait();
        assert_eq!(
            sums[k].load(Ordering::Relaxed),
            expected_sum(100 + k) as u64,
            "backlog job {k}: fused execution lost or duplicated iterations"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 33);
    assert!(
        stats.fused >= 1,
        "a 32-deep micro-loop backlog must fuse requests into shared batches: {stats:?}"
    );
    assert!(
        stats.batches < stats.completed,
        "fusion must spend fewer barrier cycles than requests: {stats:?}"
    );
}

#[test]
fn full_queue_rejects_try_submit_without_losing_accepted_jobs() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    // batch_max = 1 so the stalled gate job cannot drag queued jobs into its own
    // batch, and a tiny queue so the backlog hits capacity after a handful of pushes.
    let server = Server::on_executor(
        ServeConfig::default()
            .with_gang(GangSizing::Fixed(cores - 1))
            .with_queue_capacity(2)
            .with_batch_max(1),
        &executor,
    );
    let site = LoopSite::new(0);

    let release = Arc::new(AtomicBool::new(false));
    let gate = {
        let release = Arc::clone(&release);
        server
            .submit(LoopRequest::for_each(site, 0..1, move |_| {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }))
            .expect("gate accepted")
    };

    // (c) With the gang stalled, keep pushing until admission control says full:
    // at most gate + capacity jobs fit, so the 4th push can never be accepted.
    let mut accepted = Vec::new();
    let mut saw_full = false;
    for k in 0..4 {
        match server.try_submit(LoopRequest::sum(site, 0..50 + k, |i| i as f64)) {
            Ok(h) => accepted.push((k, h)),
            Err(e) => {
                assert_eq!(e, Rejected::QueueFull);
                saw_full = true;
                break;
            }
        }
    }
    assert!(
        saw_full,
        "a capacity-2 queue accepted 4 jobs behind a stalled gang"
    );

    release.store(true, Ordering::Release);
    gate.wait();
    for (k, h) in &accepted {
        assert_eq!(h.wait(), expected_sum(50 + k), "accepted job {k} lost");
    }
    let stats = server.stats();
    assert!(stats.rejected >= 1, "rejection must be counted: {stats:?}");
    assert_eq!(stats.completed, 1 + accepted.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (d) Lease churn: servers of proptest-chosen gang sizes come and go on one
    /// long-lived executor, interleaved with checked submissions.  Partition leases
    /// are carved, activated, revoked and re-carved over the same worker ids every
    /// round — any stale activation, worker-id overlap or epoch desync across the
    /// churn breaks exactness, panics the overlap guard, or hangs the drop.
    #[test]
    fn lease_churn_across_gang_sizes_preserves_results(
        gang_sizes in proptest::collection::vec(1usize..5, 1..6),
        iters in 64usize..512,
    ) {
        let _guard = census_lock();
        let cores = pinned_threads();
        let executor = executor(cores);
        for (round, g) in gang_sizes.iter().enumerate() {
            let server = Server::on_executor(
                ServeConfig::default().with_gang(GangSizing::Fixed(*g)),
                &executor,
            );
            for t in 0..3u64 {
                let n = iters + round + t as usize;
                let handle = server
                    .submit(LoopRequest::sum(LoopSite::new(t), 0..n, |i| i as f64))
                    .expect("server accepts while alive");
                prop_assert_eq!(handle.wait(), expected_sum(n));
            }
            let stats = server.stats();
            prop_assert_eq!(stats.completed, 3);
            drop(server);
            prop_assert!(
                executor.stats().active.is_empty(),
                "round {} (gang size {}) leaked an activation",
                round,
                g
            );
        }
        prop_assert!(executor.stats().workers < cores);
    }

    /// (e) Block-granular bodies: the server hands a tenant's closure whole blocks, and
    /// which blocks depends on the path — the whole range on an inline gang, one block
    /// per gang member for a pooled job, a member's share of each overlapped job in a
    /// fused batch.  Whatever the cut, every `for_each` index runs exactly once and
    /// nothing outside the range runs, a `sum`'s closure is called exactly `len`
    /// times and its integer-valued result is bit-equal to the sequential fold, and a
    /// site's requests complete in the order they were submitted.  The gang is stalled
    /// behind a gate while the batch queues up, so that `for` loops fuse.
    #[test]
    fn block_bodies_run_every_index_exactly_once(
        gang in 1usize..5,
        raw in proptest::collection::vec(0u64..1 << 32, 1..24),
    ) {
        let _guard = census_lock();
        let executor = executor(5);
        // One gang, so that "completes in submission order" is a property of the
        // server and not of a race between gangs.
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(gang)
                .with_gang(GangSizing::Fixed(gang)),
            &executor,
        );
        prop_assert_eq!(server.stats().gangs, 1);
        let release = Arc::new(AtomicBool::new(false));
        let gate = {
            let release = Arc::clone(&release);
            server
                .submit(LoopRequest::for_each(LoopSite::new(99), 0..1, move |_| {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }))
                .expect("gate accepted")
        };

        // Decode each draw into a ragged request: three sites, offset starts, and
        // lengths 0, 1 or 2..62.
        struct Sent {
            site: u64,
            range: std::ops::Range<usize>,
            is_sum: bool,
            /// Per index of `0..range.end + 2`: how often the closure saw it.
            hits: Arc<Vec<AtomicU32>>,
            handle: parlo_serve::JobHandle,
        }
        let term = |i: usize| ((i * 7) % 13) as f64;
        let mut sent = Vec::new();
        for x in &raw {
            let site = x % 3;
            let start = (x >> 2) as usize % 40;
            let len = match (x >> 8) % 4 {
                0 => 0,
                1 => 1,
                _ => 2 + (x >> 12) as usize % 61,
            };
            let is_sum = (x >> 20) % 3 == 0;
            let range = start..start + len;
            let hits: Arc<Vec<AtomicU32>> =
                Arc::new((0..range.end + 2).map(|_| AtomicU32::new(0)).collect());
            let request = {
                let hits = Arc::clone(&hits);
                if is_sum {
                    LoopRequest::sum(LoopSite::new(site), range.clone(), move |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        term(i)
                    })
                } else {
                    LoopRequest::for_each(LoopSite::new(site), range.clone(), move |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    })
                }
            };
            prop_assert_eq!(request.len(), len);
            let handle = server.submit(request).expect("accepted");
            sent.push(Sent { site, range, is_sum, hits, handle });
        }
        release.store(true, Ordering::Release);
        gate.wait();

        // Per-site FIFO: once a site's last request is done, so is every earlier one.
        for site in 0..3 {
            let of_site: Vec<&Sent> = sent.iter().filter(|s| s.site == site).collect();
            if let Some(last) = of_site.last() {
                last.handle.wait();
                prop_assert!(
                    of_site.iter().all(|s| s.handle.is_done()),
                    "site {} completed out of submission order",
                    site
                );
            }
        }
        for (k, s) in sent.iter().enumerate() {
            let value = s.handle.wait();
            let expected: f64 = if s.is_sum {
                s.range.clone().map(term).sum()
            } else {
                0.0
            };
            // `+ 0.0` folds the two zeros an empty sum may resolve to into one.
            prop_assert_eq!(
                (value + 0.0).to_bits(),
                (expected + 0.0).to_bits(),
                "request {} ({:?}, sum = {}) resolved to {}",
                k, &s.range, s.is_sum, value
            );
            for (i, hit) in s.hits.iter().enumerate() {
                prop_assert_eq!(
                    hit.load(Ordering::Relaxed),
                    u32::from(s.range.contains(&i)),
                    "request {} ({:?}, gang of {}): index {} ran a wrong number of times",
                    k, &s.range, gang, i
                );
            }
        }
        prop_assert_eq!(server.stats().completed, sent.len() as u64 + 1);
    }
}
