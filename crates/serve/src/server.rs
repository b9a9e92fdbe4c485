//! The server: gang allocation over the substrate, the per-gang driver loop, and the
//! tenant-facing submission API.

use crate::queue::{tenant_wait, Completion, JobHandle, QueuedJob, Rejected, ServeQueue};
use parlo_adaptive::{gang_size_hint, LoopSite};
use parlo_core::{Config, FineGrainPool, Loops, StatsRegistry, WaitPolicy};
use parlo_exec::{ClientHooks, Executor, Lease};
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// How the server picks the gang size (workers per concurrently served loop).
#[derive(Clone, Copy, Debug)]
pub enum GangSizing {
    /// A fixed gang size, clamped to the worker budget.
    Fixed(usize),
    /// Size gangs from the paper's burden model: `g* = ceil(sqrt(T/d))` for loops of
    /// sequential time `t_secs` and per-loop scheduling burden `burden_secs` (see
    /// [`parlo_adaptive::gang_size_hint`]).  Calibrate `t_secs` and `burden_secs`
    /// with [`parlo_adaptive::AdaptivePool`] (e.g. via
    /// [`AdaptivePool::gang_hint`](parlo_adaptive::AdaptivePool::gang_hint)) or take
    /// them from a bench sweep.
    Model {
        /// Expected sequential time of a served loop, in seconds.
        t_secs: f64,
        /// Fitted per-loop scheduling burden, in seconds.
        burden_secs: f64,
    },
}

impl GangSizing {
    fn size(&self, max: usize) -> usize {
        match *self {
            GangSizing::Fixed(g) => g.clamp(1, max.max(1)),
            GangSizing::Model {
                t_secs,
                burden_secs,
            } => gang_size_hint(t_secs, burden_secs, max),
        }
    }
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Substrate workers the server may lease, `None` for the executor's full
    /// capacity.  Always clamped to the capacity; workers left over after cutting
    /// whole gangs stay parked in the substrate.
    pub workers: Option<usize>,
    /// Gang sizing policy.
    pub gang: GangSizing,
    /// Admission-queue capacity: at most this many requests may be queued before
    /// [`Server::try_submit`] rejects and [`Server::submit`] applies backpressure.
    pub queue_capacity: usize,
    /// Most queued `for` loops fused into one half-barrier cycle per batch.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: None,
            gang: GangSizing::Fixed(2),
            queue_capacity: 1024,
            batch_max: 8,
        }
    }
}

impl ServeConfig {
    /// Replaces the worker budget.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Replaces the gang sizing policy.
    pub fn with_gang(mut self, gang: GangSizing) -> Self {
        self.gang = gang;
        self
    }

    /// Replaces the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Replaces the batching limit.
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }
}

/// The loop behind one request (the fusable `for` kind, or a reduction).
///
/// The tenant's closure is erased at the *block* level: the server hands a body a
/// contiguous sub-range and the per-index loop inside it is the tenant's own
/// monomorphised code, so a request pays one `dyn` call per block — one per gang
/// member, or one in all on an inline gang — never one per index.
pub(crate) enum LoopKind {
    /// A `parallel_for`: the body runs every index of the block it is given.
    For {
        /// Iteration space.
        range: Range<usize>,
        /// Loop body over a block of `range`.
        body: Arc<dyn Fn(Range<usize>) + Send + Sync>,
    },
    /// A `parallel_sum`: the summand's sum over the block it is given.
    Sum {
        /// Iteration space.
        range: Range<usize>,
        /// Partial sum over a block of `range`.
        f: Arc<dyn Fn(Range<usize>) -> f64 + Send + Sync>,
    },
}

/// One loop a tenant wants served.
pub struct LoopRequest {
    pub(crate) site: LoopSite,
    pub(crate) kind: LoopKind,
}

impl LoopRequest {
    /// A `parallel_for` request: `body(i)` is called exactly once per index of
    /// `range`.  Requests sharing a [`LoopSite`] are served FIFO relative to each
    /// other; distinct sites share the server round-robin.
    pub fn for_each<F>(site: LoopSite, range: Range<usize>, body: F) -> LoopRequest
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        LoopRequest {
            site,
            kind: LoopKind::For {
                range,
                body: Arc::new(move |block: Range<usize>| {
                    for i in block {
                        body(i);
                    }
                }),
            },
        }
    }

    /// A `parallel_sum` request: the handle resolves to the sum of `f(i)` over
    /// `range`.
    pub fn sum<F>(site: LoopSite, range: Range<usize>, f: F) -> LoopRequest
    where
        F: Fn(usize) -> f64 + Send + Sync + 'static,
    {
        LoopRequest {
            site,
            kind: LoopKind::Sum {
                range,
                f: Arc::new(move |block: Range<usize>| block.map(&f).sum()),
            },
        }
    }

    /// The request's loop site.
    pub fn site(&self) -> LoopSite {
        self.site
    }

    /// Iterations in the request.
    pub fn len(&self) -> usize {
        match &self.kind {
            LoopKind::For { range, .. } | LoopKind::Sum { range, .. } => range.len(),
        }
    }

    /// Whether the request's range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs a request sequentially on the current thread (an inline gang, the gangless
/// fallback and the shutdown drain) and returns its result: the whole range is one
/// block.
fn run_seq(kind: &LoopKind) -> f64 {
    match kind {
        LoopKind::For { range, body } => {
            body(range.clone());
            0.0
        }
        LoopKind::Sum { range, f } => f(range.clone()),
    }
}

/// Runs a single request on the gang's pool: a `for` as one block per participant, a
/// sum as a block reduction, each participant summing its own block.
fn run_pooled(pool: &mut FineGrainPool, kind: &LoopKind) -> f64 {
    match kind {
        LoopKind::For { range, body } => {
            pool.for_blocks(range.clone(), |block| body(block));
            0.0
        }
        LoopKind::Sum { range, f } => pool.reduce_blocks(
            range.clone(),
            || 0.0,
            |acc, block| acc + f(block),
            |a, b| a + b,
        ),
    }
}

/// The range and the body of a member of a fused batch.
fn for_parts(job: &QueuedJob) -> (&Range<usize>, &(dyn Fn(Range<usize>) + Send + Sync)) {
    match &job.kind {
        LoopKind::For { range, body } => (range, &**body),
        LoopKind::Sum { .. } => unreachable!("multi-job batches are for-only"),
    }
}

/// Runs a multi-job batch — `for` loops only, the queue guarantees it — as a single
/// `for_blocks` over the concatenation of their index spaces, so the whole
/// batch costs one half-barrier cycle.  Each participant walks the jobs its block of
/// the concatenation overlaps and hands each its share as one block.
fn run_fused(pool: &mut FineGrainPool, batch: &[QueuedJob]) {
    let total = batch.iter().map(|job| for_parts(job).0.len()).sum();
    pool.for_blocks(0..total, |block| {
        // `start..end` is the job's place in the concatenation.
        let mut start = 0;
        for job in batch {
            if start >= block.end {
                break;
            }
            let (range, body) = for_parts(job);
            let end = start + range.len();
            let (lo, hi) = (block.start.max(start), block.end.min(end));
            if lo < hi {
                body(range.start + (lo - start)..range.start + (hi - start));
            }
            start = end;
        }
    });
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    fused: AtomicU64,
}

parlo_core::stats_family! {
    /// A snapshot of a server's accounting.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ServeStats: "serve" {
        /// Gangs serving concurrently (0 in the degenerate inline mode).
        pub gangs: usize,
        /// Workers per gang (driver included).
        pub gang_size: usize,
        /// Requests currently queued.
        pub queued: usize,
        /// Requests accepted so far.
        pub submitted: u64,
        /// Requests completed so far.
        pub completed: u64,
        /// Requests turned away by admission control.
        pub rejected: u64,
        /// Half-barrier batches the drivers ran.
        pub batches: u64,
        /// Extra loops that rode along in a fused batch (each saved one full
        /// half-barrier cycle relative to serving it alone).
        pub fused: u64,
        /// Times a driver found no work within its spin budget and went to sleep on
        /// the queue's condvar.
        pub driver_parks: u64,
        /// Notifications sent to sleeping drivers.  A request that arrives while its
        /// driver sleeps pays a wake-up; one that arrives while it polls does not.
        pub driver_wakes: u64,
    }
}

/// How long an idle driver polls the queue before it parks: what a pool worker of this
/// substrate would be given to wait for its next loop — a long spin when every
/// substrate thread has a core of its own, the park policy's short one when the host
/// is oversubscribed.
fn driver_wait(executor: &Executor) -> WaitPolicy {
    WaitPolicy::auto_for(executor.capacity() + 1)
}

/// One gang's shared state: its detach flag, its (lazily activated) pool over the
/// gang's non-driver workers, and the queue it serves.
struct GangState {
    /// Raised by the driver lease's detach hook; the driver exits its serving loop.
    detach: AtomicBool,
    /// `None` for a 1-worker gang (the driver runs requests inline).
    pool: Mutex<Option<FineGrainPool>>,
    queue: Arc<ServeQueue>,
    batch_max: usize,
    counters: Arc<Counters>,
}

/// The serving loop run by a gang's driver worker (the body of its driver lease):
/// pop a batch, serve it, repeat until detached.  Resumable — a re-activation after
/// a detach enters the loop again with the flag reset.
fn driver_loop(gang: &GangState) {
    // One buffer for the driver's lifetime; it grows to the largest batch seen.
    let mut batch = Vec::new();
    // `pop_batch_into` returns `false` only when the detach flag is up.
    while gang
        .queue
        .pop_batch_into(&mut batch, gang.batch_max, &gang.detach)
    {
        run_batch(gang, &batch);
        batch.clear();
    }
}

/// Serves one popped batch on the gang's workers: inline when the gang is its driver
/// alone, else a single job on the pool or a multi-job batch fused into one cycle.
fn run_batch(gang: &GangState, batch: &[QueuedJob]) {
    parlo_trace::span_begin(parlo_trace::Phase::Batch, batch.len() as u64, 0);
    // The counters move *before* the handles complete: a tenant that has seen its
    // handle resolve must also find its request in `ServeStats`.
    gang.counters.batches.fetch_add(1, Ordering::Relaxed);
    if batch.len() > 1 {
        gang.counters
            .fused
            .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
    }
    let complete = |job: &QueuedJob, value: f64| {
        gang.counters.completed.fetch_add(1, Ordering::Relaxed);
        job.done.complete(value);
    };
    let mut guard = gang.pool.lock().unwrap_or_else(|p| p.into_inner());
    match (guard.as_mut(), batch) {
        (None, _) => {
            for job in batch {
                complete(job, run_seq(&job.kind));
            }
        }
        (Some(pool), [job]) => complete(job, run_pooled(pool, &job.kind)),
        (Some(pool), _) => {
            run_fused(pool, batch);
            for job in batch {
                complete(job, 0.0);
            }
        }
    }
    drop(guard);
    parlo_trace::instant(parlo_trace::Phase::Complete, batch.len() as u64, 0);
    parlo_trace::span_end(parlo_trace::Phase::Batch);
}

/// The multi-tenant loop server (see the crate docs for the architecture).  Methods
/// take `&self`: wrap the server in an `Arc` and submit from any number of threads.
pub struct Server {
    executor: Arc<Executor>,
    queue: Arc<ServeQueue>,
    gangs: Vec<Arc<GangState>>,
    drivers: Vec<Lease>,
    counters: Arc<Counters>,
    gang_size: usize,
}

impl Server {
    /// Creates a server with a private substrate on the detected machine.
    pub fn new(config: ServeConfig) -> Server {
        let topology = parlo_affinity::Topology::detect();
        let executor = Executor::new(&topology, parlo_affinity::PinPolicy::Compact);
        Self::on_executor(config, &executor)
    }

    /// Creates a server on a shared substrate.  The server assumes it is the only
    /// allocator of partition leases on the executor while it lives; activating an
    /// *exclusive* lease on the same executor evicts the server's gangs mid-flight
    /// and panics deterministically on the in-flight guard of whichever pool was
    /// serving a loop.
    pub fn on_executor(config: ServeConfig, executor: &Arc<Executor>) -> Server {
        let budget = config
            .workers
            .unwrap_or_else(|| executor.capacity())
            .min(executor.capacity());
        let queue =
            ServeQueue::with_waits(config.queue_capacity, driver_wait(executor), tenant_wait());
        let counters = Arc::new(Counters::default());
        let mut gangs = Vec::new();
        let mut drivers = Vec::new();
        let gang_size = if budget == 0 {
            0
        } else {
            config.gang.size(budget)
        };
        if let Some(n_gangs) = budget.checked_div(gang_size) {
            for k in 0..n_gangs {
                let ids: Vec<usize> = (k * gang_size + 1..=(k + 1) * gang_size).collect();
                let pool_ids = &ids[1..];
                let pool = if pool_ids.is_empty() {
                    None
                } else {
                    let cfg = Config::builder(pool_ids.len() + 1)
                        .topology(executor.topology().clone())
                        .pin(executor.pin())
                        .build();
                    Some(FineGrainPool::new_on_partition(cfg, executor, pool_ids))
                };
                let gang = Arc::new(GangState {
                    detach: AtomicBool::new(false),
                    pool: Mutex::new(pool),
                    queue: Arc::clone(&queue),
                    batch_max: config.batch_max.max(1),
                    counters: Arc::clone(&counters),
                });
                let body = {
                    let gang = Arc::clone(&gang);
                    Arc::new(move |_local: usize| driver_loop(&gang))
                };
                let detach = {
                    let gang = Arc::clone(&gang);
                    Arc::new(move || {
                        gang.detach.store(true, Ordering::Release);
                        gang.queue.wake_drivers();
                    })
                };
                let lease = executor.register_partition(
                    ClientHooks {
                        name: format!("serve-driver-{k}"),
                        participants: 2,
                        body,
                        detach,
                    },
                    vec![ids[0]],
                );
                lease.ensure_active(|| gang.detach.store(false, Ordering::Release));
                gangs.push(gang);
                drivers.push(lease);
            }
        }
        Server {
            executor: Arc::clone(executor),
            queue,
            gangs,
            drivers,
            counters,
            gang_size,
        }
    }

    /// The substrate the server leases its gangs from.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Submits a loop with backpressure: a full queue makes the call wait for room
    /// (a short spin, a few yields, then parked) rather than fail.  Errs only when the
    /// server is shutting down.
    pub fn submit(&self, request: LoopRequest) -> Result<JobHandle, Rejected> {
        self.admit(request, true)
    }

    /// Submits a loop with fail-fast admission: a full queue returns
    /// [`Rejected::QueueFull`] immediately.
    pub fn try_submit(&self, request: LoopRequest) -> Result<JobHandle, Rejected> {
        self.admit(request, false)
    }

    fn admit(&self, request: LoopRequest, block: bool) -> Result<JobHandle, Rejected> {
        if self.gangs.is_empty() {
            // Degenerate mode (no workers to lease): serve inline, still through the
            // handle so tenants are oblivious.
            let done = Completion::new();
            done.complete(run_seq(&request.kind));
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(JobHandle::new(done));
        }
        // Re-ensure the driver leases before taking any queue lock (the executor
        // state lock and the queue lock are only ever taken in exec → queue order;
        // see `ServeQueue::wake_drivers`).  One atomic load per gang when all are
        // attached — the common case.
        for (lease, gang) in self.drivers.iter().zip(&self.gangs) {
            lease.ensure_active(|| gang.detach.store(false, Ordering::Release));
        }
        let done = Completion::new();
        let job = QueuedJob {
            kind: request.kind,
            done: Arc::clone(&done),
        };
        let pushed = if block {
            self.queue.push_wait(request.site, job)
        } else {
            self.queue.try_push(request.site, job)
        };
        match pushed {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle::new(done))
            }
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// A snapshot of the server's accounting.
    pub fn stats(&self) -> ServeStats {
        snapshot_serve_stats(
            &self.counters,
            &self.queue,
            self.gangs.len(),
            self.gang_size,
        )
    }

    /// A [`StatsRegistry`] over everything the server can observe: its own serving
    /// counters (`serve.*`) and the substrate's executor accounting (`exec.*`).
    /// The registry holds live handles — render it any time for current numbers.
    pub fn stats_registry(&self) -> StatsRegistry {
        let mut registry = StatsRegistry::new();
        let counters = Arc::clone(&self.counters);
        let queue = Arc::clone(&self.queue);
        let (gangs, gang_size) = (self.gangs.len(), self.gang_size);
        registry.register("serve", move || {
            snapshot_serve_stats(&counters, &queue, gangs, gang_size)
        });
        let executor = Arc::clone(&self.executor);
        registry.register("exec", move || executor.stats());
        registry
    }

    /// The registry rendered as a text metrics page, one `family.name value` line
    /// per counter.
    pub fn metrics_text(&self) -> String {
        self.stats_registry().render_text()
    }
}

/// Lock-free: every field is an atomic load, so a metrics scrape never contends with
/// the request path.
fn snapshot_serve_stats(
    counters: &Counters,
    queue: &ServeQueue,
    gangs: usize,
    gang_size: usize,
) -> ServeStats {
    let (driver_parks, driver_wakes) = queue.driver_parks_and_wakes();
    ServeStats {
        gangs,
        gang_size,
        queued: queue.len(),
        submitted: counters.submitted.load(Ordering::Relaxed),
        completed: counters.completed.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        fused: counters.fused.load(Ordering::Relaxed),
        driver_parks,
        driver_wakes,
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // 1. Close admission: new submissions fail, parked submitters wake and err.
        self.queue.close();
        // 2. Detach the drivers (each finishes its in-flight batch first).
        self.drivers.clear();
        // 3. Serve whatever is still queued inline — a handle obtained before the
        //    drop must always resolve.
        for job in self.queue.drain() {
            job.done.complete(run_seq(&job.kind));
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        // 4. The gang pools drop with `self.gangs`, detaching their partitions.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_affinity::{PinPolicy, Topology};
    use parlo_sync::AtomicUsize;

    fn executor(cores: usize) -> Arc<Executor> {
        Executor::new(&Topology::flat(cores).unwrap(), PinPolicy::None)
    }

    #[test]
    fn serves_for_loops_and_sums_on_one_gang() {
        let exec = executor(4);
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(3)
                .with_gang(GangSizing::Fixed(3)),
            &exec,
        );
        assert_eq!(server.stats().gangs, 1);
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..257).map(|_| AtomicUsize::new(0)).collect());
        let h = {
            let hits = Arc::clone(&hits);
            server
                .submit(LoopRequest::for_each(LoopSite::new(1), 0..257, move |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap()
        };
        let s = server
            .submit(LoopRequest::sum(LoopSite::new(2), 0..1000, |i| i as f64))
            .unwrap();
        h.wait();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(s.wait(), 499_500.0);
        assert!(server.stats().completed >= 2);
    }

    #[test]
    fn metrics_text_exposes_serve_and_exec_families() {
        let exec = executor(4);
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(3)
                .with_gang(GangSizing::Fixed(3)),
            &exec,
        );
        let h = server
            .submit(LoopRequest::for_each(LoopSite::new(7), 0..64, |_| {}))
            .unwrap();
        h.wait();
        let registry = server.stats_registry();
        assert_eq!(registry.len(), 2);
        let text = server.metrics_text();
        assert!(text.contains("serve.gangs 1"), "got:\n{text}");
        assert!(text.contains("serve.submitted 1"), "got:\n{text}");
        assert!(text.contains("exec.workers"), "got:\n{text}");
        assert!(text.contains("exec.leases"), "got:\n{text}");
        // The registry holds live handles: a later render sees newer counters.
        server
            .submit(LoopRequest::for_each(LoopSite::new(7), 0..64, |_| {}))
            .unwrap()
            .wait();
        assert!(registry.render_text().contains("serve.submitted 2"));
    }

    #[test]
    fn gang_allocation_cuts_disjoint_partitions() {
        let exec = executor(9);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(4)),
            &exec,
        );
        let stats = server.stats();
        assert_eq!(stats.gangs, 2, "8 workers cut into two gangs of 4");
        assert_eq!(stats.gang_size, 4);
        assert!(exec.stats().workers <= exec.capacity());
        // Both drivers are active partitions.
        assert_eq!(exec.stats().active.len(), 2);
    }

    #[test]
    fn model_sizing_uses_the_burden_model() {
        let exec = executor(9);
        // T = 100us, d = 1us -> g* = 10, clamped to the 8-worker budget.
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Model {
                t_secs: 100e-6,
                burden_secs: 1e-6,
            }),
            &exec,
        );
        assert_eq!(server.stats().gang_size, 8);
        assert_eq!(server.stats().gangs, 1);
    }

    #[test]
    fn degenerate_single_core_serves_inline() {
        let exec = executor(1);
        let server = Server::on_executor(ServeConfig::default(), &exec);
        assert_eq!(server.stats().gangs, 0);
        let h = server
            .submit(LoopRequest::sum(LoopSite::new(7), 0..100, |i| i as f64))
            .unwrap();
        assert!(h.is_done(), "inline mode completes before submit returns");
        assert_eq!(h.wait(), 4950.0);
        assert_eq!(exec.stats().workers, 0, "no substrate threads were spawned");
    }

    #[test]
    fn single_worker_gangs_serve_without_a_pool() {
        let exec = executor(3);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(1)),
            &exec,
        );
        assert_eq!(server.stats().gangs, 2, "two 1-worker gangs");
        let a = server
            .submit(LoopRequest::sum(LoopSite::new(1), 0..100, |i| i as f64))
            .unwrap();
        let b = server
            .submit(LoopRequest::sum(LoopSite::new(2), 0..10, |i| i as f64))
            .unwrap();
        assert_eq!(a.wait(), 4950.0);
        assert_eq!(b.wait(), 45.0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let exec = executor(2);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(1)),
            &exec,
        );
        let handles: Vec<JobHandle> = (0..64)
            .map(|k| {
                server
                    .submit(LoopRequest::sum(LoopSite::new(k), 0..10, |i| i as f64))
                    .unwrap()
            })
            .collect();
        drop(server);
        for h in handles {
            assert_eq!(h.wait(), 45.0, "every accepted handle resolves");
        }
    }

    #[test]
    fn an_idle_driver_parks_and_the_next_submit_wakes_it() {
        let exec = executor(4);
        if driver_wait(&exec).spins_before_yield == u32::MAX {
            // `PARLO_WAIT=spin`: the operator asked for drivers that never sleep.
            return;
        }
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(3)
                .with_gang(GangSizing::Fixed(3)),
            &exec,
        );
        // No clock: an idle driver spends its budget and parks, and says so.
        while server.stats().driver_parks == 0 {
            std::thread::yield_now();
        }
        assert_eq!(server.stats().driver_wakes, 0, "nobody has pushed yet");
        let h = server
            .submit(LoopRequest::sum(LoopSite::new(1), 0..100, |i| i as f64))
            .unwrap();
        assert_eq!(h.wait(), 4950.0, "a sleeping driver still serves");
        let stats = server.stats();
        assert_eq!(stats.driver_wakes, 1, "the push found the driver asleep");
        let text = server.metrics_text();
        assert!(text.contains("serve.driver_parks "), "got:\n{text}");
        assert!(text.contains("serve.driver_wakes 1"), "got:\n{text}");
    }

    #[test]
    fn an_oversubscribed_host_gives_the_driver_the_short_budget() {
        if std::env::var_os("PARLO_WAIT").is_some() {
            return;
        }
        // One substrate thread more than the host has hardware threads.
        let crowded = driver_wait(&executor(parlo_affinity::host_cpus() + 1));
        assert_eq!(crowded, WaitPolicy::park());
        let roomy = driver_wait(&executor(1));
        assert!(roomy.spins_before_yield > crowded.spins_before_yield);
    }

    #[test]
    fn rejected_is_a_real_error_type() {
        assert!(Rejected::QueueFull.to_string().contains("full"));
        assert!(Rejected::ShuttingDown.to_string().contains("shutting down"));
    }
}
