//! `serve` — the request path.  The calling thread generates requests; the server gets
//! the other `P - 1` threads as one gang.  A cycle is an **open** part at a fixed rate
//! (latency from the time a request was *due*, so a stall charges the requests it
//! delayed), then alternating blocks of a **closed** loop with 64 requests outstanding
//! (throughput) and of **inline** execution of the same request stream on the calling
//! thread (the reference the speed-up is taken against, interleaved as finely as the
//! loop workloads interleave `Sequential`).
//!
//! 70 % of requests are fusable `for_each` loops, 30 % are `sum` reductions, 256-2048
//! iterations, over eight `LoopSite`s.  Every `sum` is checked exactly, and every
//! eighth `for_each` has its whole output checked.

use super::{Ctx, SplitMix};
use crate::sched::touched;
use crate::span::Recorder;
use crate::spec::SERVE_CLOSED_OUTSTANDING;
use parlo::affinity::pin_to_core;
use parlo::serve::{GangSizing, JobHandle, LoopRequest, LoopSite, ServeConfig, Server};
use parlo::workloads::microbench::work_unit;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests in the generated stream; it is replayed cyclically.
pub const STREAM_LEN: usize = 4096;
pub const MIN_ITERS: usize = 256;
pub const MAX_ITERS: usize = 2048;
pub const SITES: u64 = 8;
/// The server's admission queue; a blocked `submit` is backpressure, not a failure.
pub const QUEUE_CAPACITY: usize = 1024;
/// Output buffers for in-flight `for_each` requests: more than can be in flight.
const SLOTS: usize = QUEUE_CAPACITY + 2 * SERVE_CLOSED_OUTSTANDING;
/// One `for_each` in this many has its whole output verified.
const VERIFY_EVERY: u32 = 8;
/// A request outstanding this long at a drain counts as failed, ns.
const DRAIN_TIMEOUT_NS: u64 = 10_000_000_000;

/// The open part of a full cycle, ns: 4800 requests at the benchmark's rate.
pub const OPEN_NS: u64 = 200_000_000;
/// A closed block and the inline block that follows it, ns: the loop workloads' 4:1.
pub const CLOSED_BLOCK_NS: u64 = 20_000_000;
pub const INLINE_BLOCK_NS: u64 = 5_000_000;
/// Closed/inline pairs in a full cycle (800 ms).
pub const PAIRS: usize = 32;
/// Pairs whose throughputs make one slice ratio (100 ms, as for the loop workloads).
pub const PAIRS_PER_SLICE: usize = 4;

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub sum: bool,
    pub site: u64,
    pub iters: usize,
    pub units: usize,
}

/// The request stream for a seed: a fixed multiset of requests (so every seed costs the
/// same) in a seeded order.
pub fn stream(seed: u64) -> Vec<Spec> {
    let mut specs: Vec<Spec> = (0..STREAM_LEN)
        .map(|k| Spec {
            // Three in ten, spread evenly over the sizes.
            sum: k % 10 < 3,
            site: (k as u64 / 10) % SITES,
            iters: MIN_ITERS + k * (MAX_ITERS - MIN_ITERS) / (STREAM_LEN - 1),
            units: [1, 2, 4][(k / 10) % 3],
        })
        .collect();
    let mut rng = SplitMix(seed);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    specs
}

/// What a `for_each` iteration stores: the request's tag mixed with real work.
#[inline]
fn for_value(i: usize, salt: usize, units: usize, tag: u32) -> u32 {
    tag ^ work_unit(i + salt, units).to_bits() as u32
}

/// What a `sum` iteration adds: integer-valued, so any order sums exactly.
#[inline]
fn sum_term(i: usize, salt: usize, units: usize) -> f64 {
    (work_unit(i + salt, units) + ((i + salt) % 251) as f64).floor()
}

/// The open loop's schedule: request `k` is due at `start + k / rate`, whatever the
/// generator or the server are doing.
#[derive(Debug, Clone)]
pub struct Pacer {
    start_ns: u64,
    period_ns: f64,
    next: u64,
}

impl Pacer {
    pub fn new(start_ns: u64, rate_per_s: f64) -> Self {
        Pacer {
            start_ns,
            period_ns: 1e9 / rate_per_s,
            next: 0,
        }
    }

    /// When request `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * self.period_ns).round() as u64
    }

    /// The next request and its due time, if it is due by `now_ns`.  After a stall this
    /// returns the overdue requests one by one, each with its original due time.
    pub fn poll(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.due_ns(self.next);
        (now_ns >= due).then(|| {
            self.next += 1;
            (self.next - 1, due)
        })
    }
}

/// Samples of the open parts.
#[derive(Default)]
pub struct OpenSamples {
    /// Completion minus due time of `for_each` requests, ns.
    pub for_ns: Vec<u32>,
    /// Completion minus due time of `sum` requests, ns.
    pub sum_ns: Vec<u32>,
    /// Submission minus due time (how late the generator ran), ns.
    pub lag_ns: Vec<u32>,
    /// Requests still outstanding when the part's time was up (drained afterwards).
    pub backlog_at_end: u64,
}

impl OpenSamples {
    /// Accounts one request: latency runs from when it was due, not from when the
    /// generator got round to sending it.
    pub fn record(&mut self, is_sum: bool, due_ns: u64, sent_ns: u64, done_ns: u64) {
        let clamp = |ns: u64| ns.min(u32::MAX as u64) as u32;
        self.lag_ns.push(clamp(sent_ns.saturating_sub(due_ns)));
        let latency = clamp(done_ns.saturating_sub(due_ns));
        if is_sum {
            self.sum_ns.push(latency);
        } else {
            self.for_ns.push(latency);
        }
    }

    pub fn pooled(&self) -> Vec<u32> {
        let mut all = self.for_ns.clone();
        all.extend_from_slice(&self.sum_ns);
        all
    }
}

/// Everything the serve engine accumulates over a run.
#[derive(Default)]
pub struct Totals {
    pub open: OpenSamples,
    pub closed_done: u64,
    pub closed_ns: u64,
    pub inline_done: u64,
    pub inline_ns: u64,
    /// Inline service time of each request, ns.
    pub inline_svc_ns: Vec<u32>,
    /// Per slice: closed throughput over inline throughput.
    pub slice_speedups: Vec<f64>,
    /// Duration of each `submit` call, ns (recorded only when `time_submits`).
    pub submit_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

struct Pending {
    handle: JobHandle,
    spec: Spec,
    due_ns: u64,
    sent_ns: u64,
    /// Output buffer of a `for_each`, `u32::MAX` for a `sum`.
    slot: u32,
    tag: u32,
    expected_sum: f64,
}

pub struct Serve {
    pub server: Server,
    specs: Vec<Spec>,
    expected_sums: Vec<f64>,
    salt: usize,
    bufs: Vec<Arc<[AtomicU32]>>,
    free_slots: Vec<u32>,
    outstanding: VecDeque<Pending>,
    cursor: usize,
    sent: u32,
    epoch: Instant,
    /// Time every `submit` call (the traced run does; it costs two clock reads).
    pub time_submits: bool,
    pub totals: Totals,
}

impl Serve {
    /// Builds executor, server (one gang of all `P - 1` workers), stream, reference
    /// sums and output buffers, then serves `warmup_ops` requests closed-loop.
    pub fn setup(ctx: &Ctx, warmup_ops: u64) -> Self {
        let executor = ctx.executor();
        let workers = ctx.threads - 1;
        let config = ServeConfig::default()
            .with_workers(workers)
            .with_gang(GangSizing::Fixed(workers.max(1)))
            .with_queue_capacity(QUEUE_CAPACITY);
        let server = Server::on_executor(config, &executor);
        if let Some(core) = executor.topology().core_for_worker(0, executor.pin()) {
            // The generator takes the master's core, as an exclusive pool's master
            // would; the server's workers are pinned to the others.  Pinned only after
            // the server is built: see `host::release_master`.
            let _ = pin_to_core(core);
        }
        let specs = stream(ctx.seed);
        let salt = SplitMix(ctx.seed ^ 0x5E57E).below(1 << 20) as usize;
        let expected_sums = specs
            .iter()
            .map(|s| {
                let exact: f64 = (0..s.iters).map(|i| sum_term(i, salt, s.units)).sum();
                exact + f64::from(u8::from(ctx.corrupt && s.sum))
            })
            .collect();
        let bufs = (0..SLOTS)
            .map(|_| (0..MAX_ITERS).map(|_| AtomicU32::new(1)).collect())
            .collect();
        let mut w = Serve {
            server,
            specs,
            expected_sums,
            salt,
            bufs,
            free_slots: (0..SLOTS as u32).rev().collect(),
            outstanding: VecDeque::with_capacity(SLOTS),
            cursor: 0,
            sent: 0,
            epoch: Instant::now(),
            time_submits: false,
            totals: Totals::default(),
        };
        w.closed_until(
            |w| w.totals.closed_done >= warmup_ops,
            &mut Recorder::disabled(),
        );
        w.totals.closed_done = 0;
        w.totals.closed_ns = 0;
        w
    }

    /// Touches sample stores big enough for `seconds` of measuring, so that the timed
    /// window faults no page.
    pub fn reserve(&mut self, seconds: f64) {
        let n = (seconds * 60_000.0) as usize + 4096;
        self.totals.open.for_ns = touched(n);
        self.totals.open.sum_ns = touched(n / 2);
        self.totals.open.lag_ns = touched(n);
        self.totals.inline_svc_ns = touched(n);
        if self.time_submits {
            self.totals.submit_ns = touched(2 * n);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends the stream's next request, due at `due_ns`.
    fn send(&mut self, due_ns: u64, rec: &mut Recorder) {
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.specs.len();
        let spec = self.specs[idx];
        let salt = self.salt;
        let tag = self.sent.wrapping_mul(0x9E37_79B1) | 1;
        self.sent = self.sent.wrapping_add(1);
        let site = LoopSite(spec.site);
        let (request, slot) = if spec.sum {
            let units = spec.units;
            let f = move |i| sum_term(i, salt, units);
            (LoopRequest::sum(site, 0..spec.iters, f), u32::MAX)
        } else {
            let slot = self
                .free_slots
                .pop()
                .expect("more output buffers than requests in flight");
            let buf = Arc::clone(&self.bufs[slot as usize]);
            let units = spec.units;
            let body =
                move |i: usize| buf[i].store(for_value(i, salt, units, tag), Ordering::Relaxed);
            (LoopRequest::for_each(site, 0..spec.iters, body), slot)
        };
        self.totals.attempted += 1;
        let span = rec.begin("serve.submit", u64::from(self.sent));
        let t0 = self.time_submits.then(Instant::now);
        let submitted = self.server.submit(request);
        if let Some(t0) = t0 {
            self.totals.submit_ns.push(t0.elapsed().as_nanos() as u32);
        }
        rec.end(span);
        match submitted {
            Ok(handle) => self.outstanding.push_back(Pending {
                handle,
                spec,
                due_ns,
                sent_ns: self.now_ns(),
                slot,
                tag,
                expected_sum: self.expected_sums[idx],
            }),
            Err(_) => {
                self.totals.failed += 1;
                if slot != u32::MAX {
                    self.free_slots.push(slot);
                }
            }
        }
    }

    /// Checks a completed request's result and frees its buffer.
    fn settle(&mut self, p: &Pending) {
        let value = p.handle.wait();
        let ok = if p.spec.sum {
            value == p.expected_sum
        } else {
            let ok = !(p.tag / 2).is_multiple_of(VERIFY_EVERY)
                || self.bufs[p.slot as usize][..p.spec.iters]
                    .iter()
                    .enumerate()
                    .all(|(i, v)| {
                        v.load(Ordering::Relaxed) == for_value(i, self.salt, p.spec.units, p.tag)
                    });
            self.free_slots.push(p.slot);
            ok
        };
        self.totals.failed += u64::from(!ok);
    }

    /// Removes every completed request among the oldest 64 outstanding, calling `done`
    /// with it and the time it was seen complete.  Returns how many completed.
    fn reap(&mut self, mut done: impl FnMut(&mut Self, &Pending, u64)) -> usize {
        let mut reaped = 0;
        let mut i = 0;
        while i < self.outstanding.len().min(64) {
            if self.outstanding[i].handle.is_done() {
                let now = self.now_ns();
                let p = self.outstanding.remove(i).expect("index in range");
                self.settle(&p);
                done(self, &p, now);
                reaped += 1;
            } else {
                i += 1;
            }
        }
        reaped
    }

    /// Waits for everything outstanding; what is not back in time has failed.
    fn drain(&mut self, mut done: impl FnMut(&mut Self, &Pending, u64)) {
        let deadline = self.now_ns() + DRAIN_TIMEOUT_NS;
        while !self.outstanding.is_empty() {
            if self.reap(&mut done) == 0 {
                if self.now_ns() > deadline {
                    self.totals.failed += self.outstanding.len() as u64;
                    // Their buffers may still be written: leave them out of the free list.
                    self.outstanding.clear();
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Open loop at `rate_per_s` for `dur_ns`.
    pub fn open_part(&mut self, rate_per_s: f64, dur_ns: u64, rec: &mut Recorder) {
        let span = rec.begin("harness.open_part", 0);
        let start = self.now_ns();
        let mut pacer = Pacer::new(start, rate_per_s);
        let record = |w: &mut Self, p: &Pending, now: u64| {
            w.totals.open.record(p.spec.sum, p.due_ns, p.sent_ns, now);
        };
        loop {
            let now = self.now_ns();
            if now - start >= dur_ns {
                break;
            }
            if let Some((_, due)) = pacer.poll(now) {
                self.send(due, rec);
            }
            self.reap(record);
        }
        self.totals.open.backlog_at_end += self.outstanding.len() as u64;
        self.drain(record);
        rec.end(span);
    }

    /// Closed loop with `SERVE_CLOSED_OUTSTANDING` requests in flight until `stop`.
    fn closed_until(&mut self, stop: impl Fn(&Self) -> bool, rec: &mut Recorder) {
        let span = rec.begin("harness.closed_part", 0);
        let start = self.now_ns();
        let count = |w: &mut Self, _: &Pending, _: u64| w.totals.closed_done += 1;
        while !stop(self) {
            while self.outstanding.len() < SERVE_CLOSED_OUTSTANDING {
                let now = self.now_ns();
                self.send(now, rec);
            }
            self.reap(count);
        }
        self.drain(count);
        self.totals.closed_ns += self.now_ns() - start;
        rec.end(span);
    }

    /// Closed loop for `dur_ns`.
    pub fn closed_part(&mut self, dur_ns: u64, rec: &mut Recorder) {
        let end = self.now_ns() + dur_ns;
        self.closed_until(|w| w.now_ns() >= end, rec);
    }

    /// Executes the stream's next requests on the calling thread for `dur_ns`.
    pub fn inline_part(&mut self, dur_ns: u64, rec: &mut Recorder) {
        let span = rec.begin("harness.inline_part", 0);
        let start = Instant::now();
        let buf = Arc::clone(&self.bufs[0]);
        loop {
            let idx = self.cursor;
            self.cursor = (self.cursor + 1) % self.specs.len();
            let spec = self.specs[idx];
            let t0 = Instant::now();
            let ok = if spec.sum {
                let sum: f64 = (0..spec.iters)
                    .map(|i| sum_term(i, self.salt, spec.units))
                    .sum();
                std::hint::black_box(sum) == self.expected_sums[idx]
            } else {
                for (i, out) in buf[..spec.iters].iter().enumerate() {
                    out.store(for_value(i, self.salt, spec.units, 1), Ordering::Relaxed);
                }
                true
            };
            let t1 = Instant::now();
            self.totals
                .inline_svc_ns
                .push(t1.duration_since(t0).as_nanos() as u32);
            self.totals.attempted += 1;
            self.totals.failed += u64::from(!ok);
            self.totals.inline_done += 1;
            if t1.duration_since(start).as_nanos() as u64 >= dur_ns {
                break;
            }
        }
        self.totals.inline_ns += start.elapsed().as_nanos() as u64;
        rec.end(span);
    }

    /// One cycle: `open_ns` of open loop, then `pairs` closed/inline block pairs.  Every
    /// `PAIRS_PER_SLICE` pairs (or what is left of them) record one slice speed-up.
    pub fn cycle(&mut self, open_rate: f64, open_ns: u64, pairs: usize, rec: &mut Recorder) {
        self.open_part(open_rate, open_ns, rec);
        let mut done = 0;
        while done < pairs {
            let slice = PAIRS_PER_SLICE.min(pairs - done);
            let t = &self.totals;
            let before = [t.closed_done, t.closed_ns, t.inline_done, t.inline_ns];
            for _ in 0..slice {
                self.closed_part(CLOSED_BLOCK_NS, rec);
                self.inline_part(INLINE_BLOCK_NS, rec);
            }
            let t = &self.totals;
            let after = [t.closed_done, t.closed_ns, t.inline_done, t.inline_ns];
            let delta = |k: usize| (after[k] - before[k]) as f64;
            let (closed, inline) = (delta(0) / delta(1), delta(2) / delta(3));
            if inline > 0.0 {
                self.totals.slice_speedups.push(closed / inline);
            }
            done += slice;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_orders_the_same_multiset() {
        let key = |s: &Spec| (s.iters, s.sum, s.site, s.units);
        let (mut a, mut b) = (stream(1), stream(2));
        assert_ne!(a, b, "the seed orders the stream");
        assert_eq!(stream(1), a, "the same seed gives the same stream");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "every seed costs the same");
        let sums = a.iter().filter(|s| s.sum).count();
        assert!((sums as f64 / a.len() as f64 - 0.3).abs() < 0.01);
        assert_eq!(a.first().unwrap().iters, MIN_ITERS);
        assert_eq!(a.last().unwrap().iters, MAX_ITERS);
        assert!(a.iter().all(|s| s.site < SITES));
    }

    #[test]
    fn a_stalled_clock_charges_the_requests_it_delayed() {
        // 1000 requests/s: one per millisecond.
        let mut pacer = Pacer::new(5_000_000, 1000.0);
        let mut open = OpenSamples::default();
        assert_eq!(pacer.poll(4_999_999), None, "not due yet");
        assert_eq!(pacer.poll(5_000_000), Some((0, 5_000_000)));
        open.record(false, 5_000_000, 5_000_100, 5_040_000);
        assert_eq!(pacer.poll(5_500_000), None);
        // The clock (generator, host) stalls until t = 9.2 ms: requests 1-4 are overdue
        // and are released back to back, each with the due time it always had.
        let now = 9_200_000;
        let mut released = Vec::new();
        while let Some((k, due)) = pacer.poll(now) {
            released.push((k, due));
            open.record(k % 2 == 0, due, now, now + 50_000);
        }
        assert_eq!(
            released,
            vec![
                (1, 6_000_000),
                (2, 7_000_000),
                (3, 8_000_000),
                (4, 9_000_000)
            ]
        );
        assert_eq!(pacer.poll(now), None, "request 5 is due at 10 ms");
        // Latency runs from the due time: the stall is in it, 3.25 ms for request 1.
        assert_eq!(open.for_ns, vec![40_000, 3_250_000, 1_250_000]);
        assert_eq!(open.sum_ns, vec![2_250_000, 250_000]);
        assert_eq!(
            open.lag_ns,
            vec![100, 3_200_000, 2_200_000, 1_200_000, 200_000]
        );
        assert_eq!(open.pooled().len(), 5);
    }

    #[test]
    fn request_bodies_are_deterministic_and_integer_valued() {
        let t = sum_term(17, 5, 2);
        assert_eq!(t, t.floor());
        assert_eq!(t, sum_term(17, 5, 2));
        assert_ne!(
            for_value(3, 0, 1, 1),
            for_value(3, 0, 1, 3),
            "the tag is in the value"
        );
    }
}
