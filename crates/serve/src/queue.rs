//! The bounded admission queue and the completion handle.
//!
//! One queue is shared by every gang driver of a [`crate::Server`].  It holds one
//! FIFO per [`LoopSite`] that has work queued and pops round-robin across them, so
//! per-site order is preserved while no site can starve another; a FIFO is dropped
//! the moment it empties, so the queue's size follows the sites that are waiting *now*,
//! not every site ever seen.
//!
//! All three waits of the crate — a driver waiting for work, a submitter waiting for
//! queue room, a tenant waiting on a completion — are one helper, [`wait_for`]: check
//! under the lock, poll a lock-free hint for the [`WaitPolicy`]'s spin and yield
//! budgets, then park on the condvar.  The queue and every completion count their
//! parked waiters under their lock and notify a condvar only when that count is
//! non-zero: a push, a pop or a completion with nobody asleep makes no system call.

use crate::server::LoopKind;
use parlo_adaptive::LoopSite;
use parlo_core::WaitPolicy;
use parlo_sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// Emptied site FIFOs kept for the next site that shows up, so that a handful of hot
/// sites flickering between empty and non-empty allocate nothing; the rest are freed.
const SPARE_FIFOS: usize = 16;

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity (only from [`crate::Server::try_submit`];
    /// the blocking path waits for room instead).
    QueueFull,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "serve admission queue is full"),
            Rejected::ShuttingDown => write!(f, "serve server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

fn lock<S>(mutex: &Mutex<S>) -> MutexGuard<'_, S> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// The budget of a tenant-side wait (queue room, a completion): the short spin and
/// the few yields of the park policy, because nothing is known about how many tenant
/// threads there are or whether each has a core to burn.
pub(crate) fn tenant_wait() -> WaitPolicy {
    WaitPolicy::park()
}

/// No budget at all: a waiter that finds nothing goes straight to its condvar.  What
/// the model-checking hooks wait with, so that every park path is explored.
fn straight_to_park() -> WaitPolicy {
    WaitPolicy {
        spins_before_yield: 0,
        yields_before_park: 0,
    }
}

/// Polls `ready` for `policy`'s spin budget, then for its yield budget.  `false` means
/// both are spent: the caller parks.  A serve waiter ends up on its condvar even under
/// a policy that never parks: an endless yield budget is cut to the park policy's
/// (the `u32::MAX` spins of `PARLO_WAIT=spin` are, as asked for, never spent).
fn poll_within(policy: &WaitPolicy, ready: &impl Fn() -> bool) -> bool {
    for _ in 0..policy.spins_before_yield {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    let yields = policy
        .yields_before_park
        .min(WaitPolicy::park().yields_before_park);
    for _ in 0..yields {
        if ready() {
            return true;
        }
        parlo_sync::thread::yield_now();
    }
    ready()
}

/// The crate's one waiting discipline.
///
/// `take` is the authoritative check: it runs under `mutex` and returns `Some` when
/// the wait is over.  Until then the waiter polls `hint` — lock-free, allowed to lag —
/// within `policy`'s budgets, and once those are spent parks on `cv`.  `parked(state,
/// true)` runs under the same lock hold as the failed `take` that precedes the park
/// and `parked(state, false)` right after the wake, so a notifier that changes the
/// state under the lock can tell whether anybody is asleep and skip the notification
/// otherwise.  A woken waiter that finds nothing to take starts over with a fresh
/// budget.
fn wait_for<S, T>(
    mutex: &Mutex<S>,
    cv: &Condvar,
    policy: &WaitPolicy,
    hint: impl Fn() -> bool,
    mut take: impl FnMut(&mut S) -> Option<T>,
    mut parked: impl FnMut(&mut S, bool),
) -> T {
    let mut state = lock(mutex);
    let mut budget_spent = false;
    loop {
        if let Some(taken) = take(&mut state) {
            return taken;
        }
        if budget_spent {
            parked(&mut state, true);
            state = cv.wait(state).unwrap_or_else(|p| p.into_inner());
            parked(&mut state, false);
            budget_spent = false;
        } else {
            drop(state);
            budget_spent = !poll_within(policy, &hint);
            state = lock(mutex);
        }
    }
}

/// Counts a waiter in before its condvar wait and out after it (the `parked` argument
/// of [`wait_for`]).
fn count_parked(count: &mut u32, parking: bool) {
    if parking {
        *count += 1;
    } else {
        *count -= 1;
    }
}

/// The result slot of a completion, under its lock.
struct Slot {
    value: f64,
    done: bool,
    /// Waiters asleep on the completion's condvar: `complete` notifies only if there
    /// are any, so a request nobody sleeps on completes without a system call.
    parked: u32,
}

// A tenant polls dozens of completions and allocates one per request: a bigger one
// measurably slows the request path, so the slot stays the size of an `Option<f64>`.
const _: () = assert!(std::mem::size_of::<Slot>() == std::mem::size_of::<Option<f64>>());

/// Shared completion state of one submitted loop.
pub(crate) struct Completion {
    /// Fast-path flag; set (release) strictly after the result slot is written.
    done: AtomicBool,
    result: Mutex<Slot>,
    cv: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Arc<Completion> {
        Arc::new(Completion {
            done: AtomicBool::new(false),
            result: Mutex::new(Slot {
                value: 0.0,
                done: false,
                parked: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Publishes the loop's result and wakes every parked waiter.  A waiter counts
    /// itself in `parked` under the same lock hold as the look that found no result,
    /// so it is either counted here or finds the result.
    pub(crate) fn complete(&self, value: f64) {
        let mut slot = lock(&self.result);
        slot.value = value;
        slot.done = true;
        let wake = slot.parked > 0;
        drop(slot);
        self.done.store(true, Ordering::Release);
        if wake {
            self.cv.notify_all();
        }
    }
}

/// A tenant's handle on one submitted loop.  Cloneable; any number of threads may
/// wait on the same handle.
#[derive(Clone)]
pub struct JobHandle {
    inner: Arc<Completion>,
}

impl JobHandle {
    pub(crate) fn new(inner: Arc<Completion>) -> JobHandle {
        JobHandle { inner }
    }

    /// Whether the loop has completed (one atomic load).
    pub fn is_done(&self) -> bool {
        self.inner.done.load(Ordering::Acquire)
    }

    /// Blocks until the loop completes and returns its result (`0.0` for a plain
    /// `for` loop, the reduction value for a sum).  Bounded spin, then yields, then
    /// parks — a waiter behind a long queue costs no CPU.
    pub fn wait(&self) -> f64 {
        self.wait_within(&tenant_wait())
    }

    /// [`JobHandle::wait`] with no spin or yield budget: a waiter that does not find
    /// the result goes straight to the condvar.  The model-checking hook for the
    /// completion's parked-waiter gate (under the model a spinning waiter is stalled
    /// until the flag is stored, so the park path would never be explored).
    #[doc(hidden)]
    pub fn wait_parked(&self) -> f64 {
        self.wait_within(&straight_to_park())
    }

    fn wait_within(&self, policy: &WaitPolicy) -> f64 {
        wait_for(
            &self.inner.result,
            &self.inner.cv,
            policy,
            || self.is_done(),
            |slot| slot.done.then_some(slot.value),
            |slot, parking| count_parked(&mut slot.parked, parking),
        )
    }
}

/// The producing side of a detached completion, created by [`completion_pair`].
///
/// This is the model-checking hook for the serve hand-off: the model battery
/// drives a raw `complete` against a concurrent [`JobHandle::wait`] without
/// standing up a whole [`crate::Server`].  The server's gang drivers use the
/// same underlying completion state internally.
pub struct Completer {
    inner: Arc<Completion>,
}

impl Completer {
    /// Publishes the result and wakes every waiter on the paired handle.
    pub fn complete(&self, value: f64) {
        self.inner.complete(value);
    }
}

/// Creates a connected ([`JobHandle`], [`Completer`]) pair over a fresh
/// completion slot — the exact primitive a submitted job rides on.
pub fn completion_pair() -> (JobHandle, Completer) {
    let inner = Completion::new();
    (JobHandle::new(Arc::clone(&inner)), Completer { inner })
}

/// One queued request: the loop to run and where to publish its result.
pub(crate) struct QueuedJob {
    pub(crate) kind: LoopKind,
    pub(crate) done: Arc<Completion>,
}

struct SiteQueue {
    site: LoopSite,
    jobs: VecDeque<QueuedJob>,
}

struct QueueState {
    /// One non-empty FIFO per site with queued work, in round-robin order.
    sites: Vec<SiteQueue>,
    /// Round-robin cursor into `sites` (next site to pop from); `0` when empty.
    rr: usize,
    /// Total queued jobs across all sites.
    len: usize,
    closed: bool,
    /// Drivers asleep on `jobs_cv` / submitters asleep on `space_cv`.  Moved only
    /// under the lock, by the waiter itself, around its condvar wait.
    drivers_parked: u32,
    submitters_parked: u32,
    /// Buffers of emptied FIFOs, reused for the next new site (at most `SPARE_FIFOS`).
    spare: Vec<VecDeque<QueuedJob>>,
}

impl QueueState {
    /// Pops the head job of site `idx` and moves the cursor to the site after it.  A
    /// FIFO that empties leaves `sites`; removal keeps the order of the others, so the
    /// rotation stays fair.
    fn pop_at(&mut self, idx: usize) -> QueuedJob {
        let fifo = &mut self.sites[idx].jobs;
        let job = fifo.pop_front().expect("a listed site has queued work");
        let next = if fifo.is_empty() {
            let emptied = self.sites.remove(idx).jobs;
            if self.spare.len() < SPARE_FIFOS {
                self.spare.push(emptied);
            }
            idx
        } else {
            idx + 1
        };
        self.rr = if next < self.sites.len() { next } else { 0 };
        self.len -= 1;
        job
    }

    /// Pops the head job of the site at the cursor.
    fn pop_rr(&mut self) -> Option<QueuedJob> {
        let idx = self.rr;
        (!self.sites.is_empty()).then(|| self.pop_at(idx))
    }

    /// Pops the head job of the first site from the cursor on whose head is a fusable
    /// `for` loop.
    fn pop_rr_for(&mut self) -> Option<QueuedJob> {
        let n = self.sites.len();
        let idx = (0..n).map(|k| (self.rr + k) % n).find(|&idx| {
            matches!(
                self.sites[idx].jobs.front(),
                Some(job) if matches!(job.kind, LoopKind::For { .. })
            )
        })?;
        Some(self.pop_at(idx))
    }
}

/// The bounded multi-site admission queue (see the module docs for the discipline).
pub(crate) struct ServeQueue {
    state: Mutex<QueueState>,
    /// Mirror of `state.len`, stored under the lock and read without it: the hint the
    /// waiters poll, and what a stats scrape reads instead of taking the lock.
    len: AtomicUsize,
    /// Drivers park here for work.
    jobs_cv: Condvar,
    /// Submitters park here for queue room.
    space_cv: Condvar,
    capacity: usize,
    /// How long a driver polls for work before it parks.
    driver_wait: WaitPolicy,
    /// How long a submitter polls for room before it parks.
    submitter_wait: WaitPolicy,
    /// Times a driver went to sleep on `jobs_cv`.
    driver_parks: AtomicU64,
    /// Notifications sent to `jobs_cv` (each found at least one driver asleep).
    driver_wakes: AtomicU64,
}

impl ServeQueue {
    /// A queue of `capacity` requests whose drivers and submitters poll within the
    /// given budgets before they park.
    pub(crate) fn with_waits(
        capacity: usize,
        driver_wait: WaitPolicy,
        submitter_wait: WaitPolicy,
    ) -> Arc<ServeQueue> {
        Arc::new(ServeQueue {
            state: Mutex::new(QueueState {
                sites: Vec::new(),
                rr: 0,
                len: 0,
                closed: false,
                drivers_parked: 0,
                submitters_parked: 0,
                spare: Vec::new(),
            }),
            len: AtomicUsize::new(0),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
            driver_wait,
            submitter_wait,
            driver_parks: AtomicU64::new(0),
            driver_wakes: AtomicU64::new(0),
        })
    }

    /// Notifies the drivers, if any is asleep.  Called with the lock held, after the
    /// change the drivers wait for (a push, the closing, a raised detach flag).
    fn wake_drivers_locked(&self, st: &QueueState) {
        if st.drivers_parked > 0 {
            self.driver_wakes.fetch_add(1, Ordering::Relaxed);
            self.jobs_cv.notify_all();
        }
    }

    /// Notifies the submitters, if any is asleep.  Called with the lock held, after
    /// room appeared or the queue closed.
    fn wake_submitters_locked(&self, st: &QueueState) {
        if st.submitters_parked > 0 {
            self.space_cv.notify_all();
        }
    }

    fn push_locked(&self, st: &mut QueueState, site: LoopSite, job: QueuedJob) {
        match st.sites.iter_mut().find(|s| s.site == site) {
            Some(s) => s.jobs.push_back(job),
            None => {
                let mut jobs = st.spare.pop().unwrap_or_default();
                jobs.push_back(job);
                st.sites.push(SiteQueue { site, jobs });
            }
        }
        st.len += 1;
        self.len.store(st.len, Ordering::Relaxed);
        parlo_trace::instant(parlo_trace::Phase::Enqueue, st.len as u64, 0);
        parlo_trace::counter(parlo_trace::Phase::QueueDepth, st.len as u64);
        self.wake_drivers_locked(st);
    }

    /// Fail-fast admission: rejects when closed or at capacity.
    pub(crate) fn try_push(&self, site: LoopSite, job: QueuedJob) -> Result<(), Rejected> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(Rejected::ShuttingDown);
        }
        if st.len >= self.capacity {
            return Err(Rejected::QueueFull);
        }
        self.push_locked(&mut st, site, job);
        Ok(())
    }

    /// Backpressure admission: waits for room; fails only when the server closes
    /// while waiting.
    pub(crate) fn push_wait(&self, site: LoopSite, job: QueuedJob) -> Result<(), Rejected> {
        let mut job = Some(job);
        wait_for(
            &self.state,
            &self.space_cv,
            &self.submitter_wait,
            || self.len.load(Ordering::Relaxed) < self.capacity,
            |st| {
                if st.closed {
                    return Some(Err(Rejected::ShuttingDown));
                }
                if st.len >= self.capacity {
                    return None;
                }
                self.push_locked(st, site, job.take().expect("a job is pushed once"));
                Some(Ok(()))
            },
            |st, parking| count_parked(&mut st.submitters_parked, parking),
        )
    }

    /// A driver's pop: waits until work is available, then moves one job and up to
    /// `batch_max` in all into `batch` (empty on entry) in round-robin site order.  A batch of more
    /// than one job contains only `for` loops (those are the fusable kind); a
    /// reduction always rides alone.  Returns `false`, with `batch` untouched, when
    /// `stop` is raised (the caller's detach flag).
    pub(crate) fn pop_batch_into(
        &self,
        batch: &mut Vec<QueuedJob>,
        batch_max: usize,
        stop: &AtomicBool,
    ) -> bool {
        wait_for(
            &self.state,
            &self.jobs_cv,
            &self.driver_wait,
            || self.len.load(Ordering::Relaxed) > 0 || stop.load(Ordering::Acquire),
            |st| {
                if stop.load(Ordering::Acquire) {
                    return Some(false);
                }
                batch.push(st.pop_rr()?);
                if matches!(batch[0].kind, LoopKind::For { .. }) {
                    while batch.len() < batch_max {
                        match st.pop_rr_for() {
                            Some(job) => batch.push(job),
                            None => break,
                        }
                    }
                }
                self.len.store(st.len, Ordering::Relaxed);
                parlo_trace::counter(parlo_trace::Phase::QueueDepth, st.len as u64);
                if batch.len() > 1 {
                    parlo_trace::instant(parlo_trace::Phase::Fuse, batch.len() as u64, 0);
                }
                self.wake_submitters_locked(st);
                Some(true)
            },
            |st, parking| {
                count_parked(&mut st.drivers_parked, parking);
                self.driver_parks
                    .fetch_add(u64::from(parking), Ordering::Relaxed);
            },
        )
    }

    /// Closes admission and wakes every parked submitter and driver.
    pub(crate) fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        self.wake_drivers_locked(&st);
        self.wake_submitters_locked(&st);
    }

    /// Wakes parked drivers so they re-check their detach flags (called from a
    /// gang's detach hook; may run with the executor's state lock held, so it takes
    /// only the queue lock — the one place the exec → queue lock order appears).
    pub(crate) fn wake_drivers(&self) {
        self.wake_drivers_locked(&lock(&self.state));
    }

    /// Empties the queue (shutdown path: the server completes the leftovers inline).
    pub(crate) fn drain(&self) -> Vec<QueuedJob> {
        let mut st = lock(&self.state);
        let mut out = Vec::with_capacity(st.len);
        while let Some(job) = st.pop_rr() {
            out.push(job);
        }
        self.len.store(0, Ordering::Relaxed);
        self.wake_submitters_locked(&st);
        out
    }

    /// Jobs currently queued (the lock-free mirror: exact when nothing is in flight).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Times a driver parked on the condvar, and notifications sent to parked drivers.
    pub(crate) fn driver_parks_and_wakes(&self) -> (u64, u64) {
        (
            self.driver_parks.load(Ordering::Relaxed),
            self.driver_wakes.load(Ordering::Relaxed),
        )
    }
}

/// The model-checking hook for the admission hand-off, in the style of
/// [`completion_pair`]: the real queue, without a [`crate::Server`] around it, and
/// with every spin and yield budget at zero, so that a wait that cannot be served at
/// once goes straight to its condvar.  The model battery drives a parking driver
/// against a push, and a parking submitter against a pop at capacity 1; an
/// interleaving that loses a wake-up to the parked-waiter gate is a deadlock there.
#[doc(hidden)]
pub struct AdmissionProbe {
    queue: Arc<ServeQueue>,
    never_stop: AtomicBool,
}

impl AdmissionProbe {
    /// A queue of `capacity` requests with no spin or yield budget on either side.
    pub fn new(capacity: usize) -> AdmissionProbe {
        AdmissionProbe {
            queue: ServeQueue::with_waits(capacity, straight_to_park(), straight_to_park()),
            never_stop: AtomicBool::new(false),
        }
    }

    /// The queue half of [`crate::Server::submit`]: admits an empty `for` loop at
    /// `site`, waiting for room.
    pub fn submit(&self, site: u64) -> Result<(), Rejected> {
        let job = QueuedJob {
            kind: LoopKind::For {
                range: 0..0,
                body: Arc::new(|_| {}),
            },
            done: Completion::new(),
        };
        self.queue.push_wait(LoopSite::new(site), job)
    }

    /// One driver pop of at most `batch_max` requests, waiting for work; returns how
    /// many it took.
    pub fn serve(&self, batch_max: usize) -> usize {
        let mut batch = Vec::new();
        self.queue
            .pop_batch_into(&mut batch, batch_max, &self.never_stop);
        batch.len()
    }

    /// Times a driver parked, and notifications sent to parked drivers.
    pub fn driver_parks_and_wakes(&self) -> (u64, u64) {
        self.queue.driver_parks_and_wakes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LoopKind;
    use std::ops::Range;

    /// The shapes the tests below call: a queue with the tenant budget on both sides,
    /// and a pop that returns its batch.
    impl ServeQueue {
        fn new(capacity: usize) -> Arc<ServeQueue> {
            ServeQueue::with_waits(capacity, tenant_wait(), tenant_wait())
        }

        fn pop_batch(&self, batch_max: usize, stop: &AtomicBool) -> Option<Vec<QueuedJob>> {
            let mut batch = Vec::new();
            self.pop_batch_into(&mut batch, batch_max, stop)
                .then_some(batch)
        }
    }

    fn for_job(range: Range<usize>) -> QueuedJob {
        QueuedJob {
            kind: LoopKind::For {
                range,
                body: Arc::new(|_| {}),
            },
            done: Completion::new(),
        }
    }

    fn sum_job(range: Range<usize>) -> QueuedJob {
        QueuedJob {
            kind: LoopKind::Sum {
                range,
                f: Arc::new(|block| block.map(|i| i as f64).sum()),
            },
            done: Completion::new(),
        }
    }

    fn job_len(j: &QueuedJob) -> usize {
        match &j.kind {
            LoopKind::For { range, .. } | LoopKind::Sum { range, .. } => range.len(),
        }
    }

    #[test]
    fn pops_round_robin_across_sites() {
        let q = ServeQueue::new(16);
        let (a, b) = (LoopSite::new(1), LoopSite::new(2));
        // Two jobs per site, distinguishable by length: a=10,11  b=20,21.
        q.try_push(a, for_job(0..10)).unwrap();
        q.try_push(a, for_job(0..11)).unwrap();
        q.try_push(b, for_job(0..20)).unwrap();
        q.try_push(b, for_job(0..21)).unwrap();
        let stop = AtomicBool::new(false);
        let order: Vec<usize> = (0..4)
            .map(|_| job_len(&q.pop_batch(1, &stop).unwrap()[0]))
            .collect();
        assert_eq!(
            order,
            vec![10, 20, 11, 21],
            "sites alternate, FIFO within a site"
        );
    }

    #[test]
    fn batches_fuse_consecutive_for_loops_only() {
        let q = ServeQueue::new(16);
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..5)).unwrap();
        q.try_push(site, for_job(0..6)).unwrap();
        q.try_push(site, for_job(0..7)).unwrap();
        q.try_push(site, sum_job(0..8)).unwrap();
        q.try_push(site, for_job(0..9)).unwrap();
        let stop = AtomicBool::new(false);
        let b1 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(
            b1.iter().map(job_len).collect::<Vec<_>>(),
            vec![5, 6, 7],
            "fusion stops at the reduction"
        );
        let b2 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(b2.len(), 1, "a reduction rides alone");
        assert_eq!(job_len(&b2[0]), 8);
        let b3 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(job_len(&b3[0]), 9);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn batch_max_caps_fusion() {
        let q = ServeQueue::new(16);
        let site = LoopSite::new(1);
        for _ in 0..5 {
            q.try_push(site, for_job(0..4)).unwrap();
        }
        let stop = AtomicBool::new(false);
        assert_eq!(q.pop_batch(3, &stop).unwrap().len(), 3);
        assert_eq!(q.pop_batch(3, &stop).unwrap().len(), 2);
    }

    #[test]
    fn admission_control_rejects_at_capacity_and_after_close() {
        let q = ServeQueue::new(2);
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..1)).unwrap();
        q.try_push(site, for_job(0..1)).unwrap();
        assert_eq!(
            q.try_push(site, for_job(0..1)).unwrap_err(),
            Rejected::QueueFull
        );
        q.close();
        assert_eq!(
            q.try_push(site, for_job(0..1)).unwrap_err(),
            Rejected::ShuttingDown
        );
        assert_eq!(
            q.push_wait(site, for_job(0..1)).unwrap_err(),
            Rejected::ShuttingDown
        );
    }

    #[test]
    fn pop_batch_returns_none_on_stop() {
        let q = ServeQueue::new(4);
        let stop = AtomicBool::new(true);
        assert!(q.pop_batch(4, &stop).is_none());
    }

    #[test]
    fn parked_submitter_wakes_when_room_appears() {
        let q = ServeQueue::new(1);
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..1)).unwrap();
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.push_wait(site, for_job(0..2)));
        // Give the submitter time to reach the parked phase, then free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let stop = AtomicBool::new(false);
        let popped = q.pop_batch(1, &stop).unwrap();
        assert_eq!(job_len(&popped[0]), 1);
        submitter.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn emptied_site_fifos_are_reclaimed() {
        let q = ServeQueue::new(16);
        let stop = AtomicBool::new(false);
        // A long-lived server whose tenants mint fresh site ids: served one after
        // another, no site outlives its last job.
        for id in 0..10_000u64 {
            q.try_push(LoopSite::new(id), for_job(0..1)).unwrap();
            assert_eq!(lock(&q.state).sites.len(), 1, "one site has work");
            assert_eq!(q.pop_batch(4, &stop).unwrap().len(), 1);
            assert_eq!(lock(&q.state).sites.len(), 0, "site {id} leaked its FIFO");
        }
        // With work pending the listed sites are exactly the non-empty ones, and the
        // rotation stays fair across a removal in the middle: a=1 job, b=2, c=2.
        let (a, b, c) = (LoopSite::new(1), LoopSite::new(2), LoopSite::new(3));
        for (site, len) in [(a, 10), (b, 20), (b, 21), (c, 30), (c, 31)] {
            q.try_push(site, for_job(0..len)).unwrap();
        }
        let mut order = Vec::new();
        for listed in [2, 2, 2, 1, 0] {
            order.push(job_len(&q.pop_batch(1, &stop).unwrap()[0]));
            let st = lock(&q.state);
            assert_eq!(st.sites.len(), listed);
            assert!(st.sites.iter().all(|s| !s.jobs.is_empty()));
            assert!(st.spare.len() <= SPARE_FIFOS);
        }
        assert_eq!(order, vec![10, 20, 30, 21, 31]);
    }

    #[test]
    fn a_push_with_no_parked_driver_sends_no_wake() {
        let q = ServeQueue::new(16);
        let stop = AtomicBool::new(false);
        for k in 0..8 {
            q.try_push(LoopSite::new(k % 2), for_job(0..4)).unwrap();
            q.push_wait(LoopSite::new(k % 2), for_job(0..4)).unwrap();
        }
        while q.len() > 0 {
            q.pop_batch(4, &stop).unwrap();
        }
        assert_eq!(
            q.driver_parks_and_wakes(),
            (0, 0),
            "work was always there: nobody parked, so nobody was notified"
        );
    }

    #[test]
    fn every_waiter_on_a_handle_is_released() {
        let (handle, completer) = completion_pair();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let handle = handle.clone();
                std::thread::spawn(move || handle.wait())
            })
            .collect();
        // Whether a waiter is still polling or already parked (and counted) when the
        // result lands, it gets it.
        completer.complete(2.5);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), 2.5);
        }
        assert!(handle.is_done());
        assert_eq!(handle.wait(), 2.5, "a late waiter finds the result");
    }
}
