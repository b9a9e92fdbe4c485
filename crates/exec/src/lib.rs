//! # parlo-exec — the shared worker substrate
//!
//! Every loop runtime in the workspace (the fine-grain half-barrier pool, the
//! OpenMP-like team, the Cilk-like pool and the work-stealing chunk pool) needs `P − 1`
//! worker threads bound to one master.  Before this crate existed each pool spawned its
//! own set, so a roster of seven runtimes plus an adaptive pool holding four backends
//! kept up to **8 × (P − 1)** parked-but-live OS threads, all compact-pinned to the
//! *same* cores — self-inflicted oversubscription that inflated every measured burden.
//!
//! An [`Executor`] owns the OS threads instead: at most `P − 1` pinned workers per
//! placement, created lazily and exactly once.  Runtimes *lease* the workers:
//!
//! * a pool [`register`](Executor::register)s itself at construction (through
//!   [`Team::build`]), providing a **worker body** (its scheduling loop, resumable at
//!   a stored epoch) and a **detach hook** (drives the pool's synchronization through
//!   one no-op cycle so every worker exits the body and parks back in the substrate);
//! * the first loop after construction — or after another pool ran — *activates* the
//!   lease: the substrate detaches the previous holder, waits for its workers to park,
//!   and runs the new pool's body on every worker it needs (the **attach rendezvous**:
//!   the activation does not complete until every participating worker is in the body,
//!   so no worker can lag an activation and miss barrier epochs);
//! * while a pool holds the lease, its loops run exactly as they always did — the
//!   substrate adds **zero** work to the per-loop hot path (one relaxed atomic load to
//!   confirm the lease is still held);
//! * dropping a pool releases its lease; dropping the last handle to an executor joins
//!   the workers, so nothing leaks.
//!
//! The invariant this buys: **the total number of live OS worker threads is bounded by
//! the executor capacity (`P − 1`), no matter how many runtimes are alive** — testable
//! through [`ExecStats`] and [`process_thread_count`].
//!
//! ## Partitioned leases: the multi-driver contract
//!
//! An [exclusive lease](Executor::register) owns *all* the workers while active, so
//! clients taking turns on one executor must be driven from a single master thread at
//! a time.  A [partition lease](Executor::register_partition) instead names an
//! explicit subset of substrate worker ids, and **any number of partition leases over
//! pairwise-disjoint subsets may be active simultaneously, each driven by its own
//! thread** — this is how `parlo-serve` space-shares one substrate across concurrent
//! tenants without ever exceeding the `P − 1` census.  The contract:
//!
//! * a partition names sorted, unique substrate worker ids (`1..`); its client has
//!   `participants == ids.len() + 1` and its body receives **pool-local** participant
//!   ids (`1..=ids.len()`, position in the partition plus one), so a pool built on a
//!   sub-lease is oblivious to which substrate workers serve it;
//! * activating a partition detaches an exclusive holder (which owns every worker,
//!   including the partition's) but **panics deterministically** if it overlaps
//!   another *active partition* — overlap means two drivers claimed the same worker,
//!   which is an allocation bug, never a timing accident;
//! * activating an exclusive lease detaches every active client, partitions included;
//! * all activation, rendezvous and detach accounting is per client, under one lock,
//!   so concurrent drivers can attach and detach disjoint partitions freely.
//!
//! Clients built on the [`Team`] skeleton assert their own half of the contract with
//! its one in-flight guard: loop entry ([`Team::drive`]) and lease revocation
//! ([`TeamCore::detach_workers`]) both `swap` the same flag, so whichever of a racing
//! second driver or a mid-loop revocation comes second panics deterministically
//! instead of corrupting the hand-off.
//!
//! ## One worker-loop skeleton
//!
//! The substrate only knows bodies and detach hooks; what every loop runtime puts
//! behind them is the same protocol — resume at a stored epoch, wait at the fork, run
//! the published job, arrive at the join, leave after a detach cycle.  That protocol
//! lives once, in [`TeamCore`] and its lease-holding owner [`Team`]: a runtime picks a
//! [`TeamSync`] shape, publishes [`Job`]s through [`Team::run`], and keeps only its own
//! scheduling and statistics.

#![warn(missing_docs)]

mod team;

pub use team::{
    fold_range, payload_fits, put_payload, take_payload, walk_range, Combine, Execute,
    ExtraReductionBarrier, Job, ReduceViews, Team, TeamCore, TeamSync,
};

use parlo_affinity::{PinPolicy, PlacementConfig, Topology};
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What a runtime hands the substrate when registering: how many participants it has,
/// how a leased worker serves it, and how to make those workers leave again.
pub struct ClientHooks {
    /// Diagnostic label shown in [`ExecStats::active`].
    pub name: String,
    /// Participants of the runtime, master included.  For an exclusive lease, workers
    /// `1..participants` take part while the client is active and the body receives
    /// the substrate worker id unchanged (substrate worker `i` *is* pool participant
    /// `i`).  For a partition lease, `participants` must equal the partition size plus
    /// one and the body receives pool-local ids.
    pub participants: usize,
    /// The worker's scheduling loop: called with the participant id, runs until the
    /// client detaches it (and must return promptly once the detach hook has fired).
    /// Must be resumable: a body that is re-entered after a detach continues from the
    /// state it saved on the way out.
    pub body: Arc<dyn Fn(usize) + Send + Sync>,
    /// Drives the client's synchronization through one no-op cycle such that every
    /// attached worker exits the body.  Called from the substrate while switching
    /// leases (on whichever thread triggered the switch; may block on the client's
    /// own barrier).
    pub detach: Arc<dyn Fn() + Send + Sync>,
}

/// One activation of a client on (a subset of) the workers.
struct Activation {
    client: u64,
    name: String,
    /// Substrate worker ids serving this activation, sorted ascending.  For an
    /// exclusive activation this is `1..=needed`, so position-plus-one equals the
    /// substrate id and the body sees the id unchanged.
    workers: Arc<Vec<usize>>,
    /// Whether this activation owns the whole substrate (detached by any activation)
    /// or only its listed workers (coexists with disjoint partitions).
    exclusive: bool,
    /// The lease's hot-path flag; true from rendezvous completion to detach start.
    attached: Arc<AtomicBool>,
    body: Arc<dyn Fn(usize) + Send + Sync>,
    detach: Arc<dyn Fn() + Send + Sync>,
}

impl Activation {
    /// The pool-local participant id substrate worker `id` serves this activation
    /// with, or `None` when the activation does not cover the worker.
    fn local_id(&self, id: usize) -> Option<usize> {
        self.workers.iter().position(|&w| w == id).map(|p| p + 1)
    }
}

/// State shared with the worker threads.
struct ExecState {
    /// Bumped once per activation; workers watch it to pick up new bodies.
    generation: u64,
    /// The clients currently holding workers (at most one exclusive, or any number of
    /// pairwise-disjoint partitions).
    actives: Vec<Activation>,
    /// Per-client count of workers currently inside that client's body.  Entries
    /// outlive the activation (a detach waits on the count draining to zero after the
    /// activation is removed), and are dropped when the count reaches zero.
    in_body: Vec<(u64, usize)>,
    /// Workers spawned so far (ids `1..=spawned`).
    spawned: usize,
    /// Live leases.
    registered: usize,
    /// Id source for leases (0 is reserved for "no client").
    next_client: u64,
    /// Set once, when the last executor handle drops.
    shutdown: bool,
}

impl ExecState {
    fn in_body_of(&self, client: u64) -> usize {
        self.in_body
            .iter()
            .find(|(c, _)| *c == client)
            .map_or(0, |(_, n)| *n)
    }

    fn enter_body(&mut self, client: u64) {
        match self.in_body.iter_mut().find(|(c, _)| *c == client) {
            Some((_, n)) => *n += 1,
            None => self.in_body.push((client, 1)),
        }
    }

    fn exit_body(&mut self, client: u64) {
        if let Some(pos) = self.in_body.iter().position(|(c, _)| *c == client) {
            self.in_body[pos].1 -= 1;
            if self.in_body[pos].1 == 0 {
                self.in_body.swap_remove(pos);
            }
        }
    }
}

/// The part of the executor the worker threads reference.  Workers hold only this
/// (not the [`Executor`] itself), so dropping the last executor handle can join them.
struct WorkerShared {
    topology: Topology,
    pin: PinPolicy,
    state: Mutex<ExecState>,
    /// Workers wait here for a new generation.
    worker_cv: Condvar,
    /// Activating/detaching threads wait here for per-client `in_body` counts to
    /// reach a rendezvous target (all entered) or drain (all parked).
    master_cv: Condvar,
}

/// A snapshot of a substrate's thread accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Live OS worker threads owned by the substrate (grows on demand, never beyond
    /// the largest worker id any client asked for).
    pub workers: usize,
    /// Live leases (registered clients).
    pub leases: usize,
    /// Labels of the clients currently holding workers — at most one entry for an
    /// exclusive holder, one entry per active partition otherwise.
    pub active: Vec<String>,
    /// Lease activations performed so far.
    pub switches: u64,
    /// `pin_map[i]` is the core worker `i + 1` was pinned to at spawn (`None` when the
    /// pin policy placed it nowhere).
    pub pin_map: Vec<Option<usize>>,
}

/// The shared worker substrate: owns up to `P − 1` pinned OS threads and leases them
/// to loop runtimes, exclusively or in disjoint partitions.  See the crate docs for
/// the protocol.
pub struct Executor {
    shared: Arc<WorkerShared>,
    switches: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock_state();
        f.debug_struct("Executor")
            .field("workers", &st.spawned)
            .field("leases", &st.registered)
            .field(
                "active",
                &st.actives
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Executor {
    /// Creates a substrate for the given machine shape and pin policy.  No threads are
    /// spawned until a client's first activation asks for them.
    pub fn new(topology: &Topology, pin: PinPolicy) -> Arc<Executor> {
        Arc::new(Executor {
            shared: Arc::new(WorkerShared {
                topology: topology.clone(),
                pin,
                state: Mutex::new(ExecState {
                    generation: 0,
                    actives: Vec::new(),
                    in_body: Vec::new(),
                    spawned: 0,
                    registered: 0,
                    next_client: 0,
                    shutdown: false,
                }),
                worker_cv: Condvar::new(),
                master_cv: Condvar::new(),
            }),
            switches: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Creates a substrate for a shared [`PlacementConfig`] (resolves its topology
    /// source and takes its pin policy).
    pub fn for_placement(placement: &PlacementConfig) -> Arc<Executor> {
        Self::new(&placement.topology(), placement.pin)
    }

    /// The machine shape the workers are pinned to.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// The pin policy workers are placed with at spawn.
    pub fn pin(&self) -> PinPolicy {
        self.shared.pin
    }

    /// The substrate's natural worker capacity, `P − 1` for a `P`-core placement:
    /// one core is the (or *a*) master's, the rest can each host one worker.  A
    /// partition allocator (such as `parlo-serve`) must not hand out ids beyond it.
    pub fn capacity(&self) -> usize {
        self.shared.topology.num_cores().saturating_sub(1)
    }

    /// Registers an exclusive client and returns its lease.  Until the lease is
    /// [`activate`](Lease::activate)d, the registration costs nothing.
    pub fn register(self: &Arc<Self>, hooks: ClientHooks) -> Lease {
        self.register_lease(hooks, None)
    }

    /// Registers a client over an explicit partition of substrate worker ids and
    /// returns its lease.  `workers` must be sorted ascending, unique, with every id
    /// at least 1, and `hooks.participants` must equal `workers.len() + 1` (the
    /// driving master plus one participant per listed worker) — violations panic, as
    /// they are allocation bugs, not runtime conditions.  Disjoint partitions may be
    /// active at the same time, each driven by its own thread; see the crate docs for
    /// the full contract.
    pub fn register_partition(self: &Arc<Self>, hooks: ClientHooks, workers: Vec<usize>) -> Lease {
        assert!(
            workers.windows(2).all(|w| w[0] < w[1]),
            "partition worker ids must be sorted and unique: {workers:?}"
        );
        assert!(
            workers.iter().all(|&w| w >= 1),
            "partition worker ids start at 1 (0 is the client's own master): {workers:?}"
        );
        assert_eq!(
            hooks.participants,
            workers.len() + 1,
            "a partition client has one participant per leased worker plus its master"
        );
        self.register_lease(hooks, Some(Arc::new(workers)))
    }

    fn register_lease(
        self: &Arc<Self>,
        hooks: ClientHooks,
        partition: Option<Arc<Vec<usize>>>,
    ) -> Lease {
        let mut st = self.lock_state();
        st.registered += 1;
        st.next_client += 1;
        let id = st.next_client;
        drop(st);
        Lease {
            exec: Arc::clone(self),
            id,
            hooks,
            partition,
            attached: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A snapshot of the substrate's thread accounting.
    pub fn stats(&self) -> ExecStats {
        let st = self.lock_state();
        ExecStats {
            workers: st.spawned,
            leases: st.registered,
            active: st.actives.iter().map(|a| a.name.clone()).collect(),
            switches: self.switches.load(Ordering::Relaxed),
            pin_map: (1..=st.spawned)
                .map(|id| self.shared.topology.core_for_worker(id, self.shared.pin))
                .collect(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn wait_master<'a>(&self, st: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
        self.shared
            .master_cv
            .wait(st)
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Detaches `client` (if active) and waits until every one of its workers has
    /// parked back in the substrate.  Must be called with the state lock held;
    /// returns it.
    fn detach_client_locked<'a>(
        &self,
        mut st: MutexGuard<'a, ExecState>,
        client: u64,
    ) -> MutexGuard<'a, ExecState> {
        // A concurrent activation of this client may still be mid-rendezvous; let it
        // complete first, or its late workers would scan an empty `actives` and the
        // detach hook below would wait for arrivals that never come.
        loop {
            let Some(a) = st.actives.iter().find(|a| a.client == client) else {
                return st;
            };
            if st.in_body_of(client) >= a.workers.len() {
                break;
            }
            st = self.wait_master(st);
        }
        parlo_trace::span_begin(parlo_trace::Phase::LeaseDetach, client, 0);
        let pos = st
            .actives
            .iter()
            .position(|a| a.client == client)
            .expect("activation present: checked above under the same lock");
        let active = st.actives.remove(pos);
        active.attached.store(false, Ordering::Release);
        // The hook drives the departing client's own synchronization; workers in
        // the body reach their exit without needing the state lock.  Workers that
        // parked under their wait policy between the client's loops are woken by
        // the hook's own release stores; the explicit wake below also covers a
        // worker that committed to park right as the lease flipped to detached.
        (active.detach)();
        parlo_barrier::wake_parked();
        while st.in_body_of(client) > 0 {
            st = self.wait_master(st);
        }
        parlo_trace::span_end(parlo_trace::Phase::LeaseDetach);
        st
    }

    /// Spawns substrate workers until ids `1..=upto` exist.
    fn spawn_to(&self, st: &mut MutexGuard<'_, ExecState>, upto: usize) {
        while st.spawned < upto {
            let id = st.spawned + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("parlo-exec-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("failed to spawn substrate worker thread");
            self.handles
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .push(handle);
            st.spawned += 1;
        }
    }

    /// Hands workers to `lease`'s client: detaches whatever holds them (everything
    /// for an exclusive lease, only an exclusive holder for a partition), grows
    /// capacity if needed, publishes the new body and waits for the attach
    /// rendezvous.
    fn switch_to(&self, lease: &Lease) {
        let mut st = self.lock_state();
        if let Some(a) = st.actives.iter().find(|a| a.client == lease.id) {
            // Already active (possibly attached by another thread of the same
            // tenant): return only once the rendezvous is complete, so the caller
            // can rely on every participant being inside the body.
            let need = a.workers.len();
            while st.in_body_of(lease.id) < need {
                st = self.wait_master(st);
            }
            return;
        }
        parlo_trace::span_begin(
            parlo_trace::Phase::LeaseAttach,
            lease.id,
            lease.hooks.participants as u64,
        );
        let (workers, exclusive) = match &lease.partition {
            None => {
                // Exclusive: every active client must leave, partitions included.
                while let Some(a) = st.actives.first() {
                    let client = a.client;
                    st = self.detach_client_locked(st, client);
                }
                let needed = lease.hooks.participants.saturating_sub(1);
                (Arc::new((1..=needed).collect::<Vec<_>>()), true)
            }
            Some(part) => {
                // A partition evicts an exclusive holder (it owns every worker,
                // including ours)...
                while let Some(a) = st.actives.iter().find(|a| a.exclusive) {
                    let client = a.client;
                    st = self.detach_client_locked(st, client);
                }
                // ...but overlapping another active partition means two drivers
                // claimed the same worker: an allocation bug, so panic — loudly and
                // deterministically, never racily.
                for a in &st.actives {
                    if let Some(shared_id) = part.iter().find(|id| a.workers.contains(id)) {
                        panic!(
                            "partition lease '{}' overlaps active partition '{}' on \
                             substrate worker {shared_id}: partitions of one executor \
                             must be pairwise disjoint",
                            lease.hooks.name, a.name
                        );
                    }
                }
                (Arc::clone(part), false)
            }
        };
        self.spawn_to(&mut st, workers.last().copied().unwrap_or(0));
        st.generation += 1;
        st.actives.push(Activation {
            client: lease.id,
            name: lease.hooks.name.clone(),
            workers: Arc::clone(&workers),
            exclusive,
            attached: Arc::clone(&lease.attached),
            body: lease.hooks.body.clone(),
            detach: lease.hooks.detach.clone(),
        });
        self.shared.worker_cv.notify_all();
        // Attach rendezvous: a worker that missed an activation would miss the
        // client's barrier epochs and desynchronize it, so the switch completes only
        // when every participating worker is inside the body.
        while st.in_body_of(lease.id) < workers.len() {
            st = self.wait_master(st);
        }
        self.switches.fetch_add(1, Ordering::Relaxed);
        lease.attached.store(true, Ordering::Release);
        if !exclusive {
            parlo_trace::instant(
                parlo_trace::Phase::PartitionActivate,
                lease.id,
                workers.len() as u64,
            );
        }
        parlo_trace::span_end(parlo_trace::Phase::LeaseAttach);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut st = self.lock_state();
            // Every lease holds an Arc to the executor, so by the time the last
            // handle drops, all clients are deregistered and detached.
            debug_assert!(
                st.actives.is_empty(),
                "executor dropped with an active lease"
            );
            st.shutdown = true;
            self.shared.worker_cv.notify_all();
        }
        let handles = std::mem::take(
            &mut *self
                .handles
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<WorkerShared>, id: usize) {
    match shared.topology.core_for_worker(id, shared.pin) {
        Some(core) => {
            let _ = parlo_affinity::pin_to_core(core);
            parlo_trace::set_thread_label(&format!("worker-{id} (core {core})"));
        }
        None => parlo_trace::set_thread_label(&format!("worker-{id} (unpinned)")),
    }
    let mut seen: u64 = 0;
    loop {
        // Park until a new generation covers this worker.  Entering a body and
        // bumping the per-client count happen under the same lock section as reading
        // the generation, so the switch path's rendezvous counts are never stale.
        let (client, local, body) = {
            let mut st = shared
                .state
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    // Scan every active client (not just the newest): with disjoint
                    // partitions attaching concurrently, the activation that covers
                    // this worker is not necessarily the one that bumped the
                    // generation last.
                    let found = st.actives.iter().find_map(|a| {
                        a.local_id(id)
                            .map(|local| (a.client, local, a.body.clone()))
                    });
                    if let Some((client, local, body)) = found {
                        st.enter_body(client);
                        shared.master_cv.notify_all();
                        break (client, local, body);
                    }
                    continue;
                }
                st = shared
                    .worker_cv
                    .wait(st)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        // A panic inside a scheduling-loop body leaves the client's barrier protocol
        // undrainable (its master is already blocked in a join that the dead worker
        // will never arrive at) and would leak the body count, turning every *other*
        // pool's next lease switch into a silent distributed hang.  Abort instead:
        // an immediate, attributable crash at the panic site.
        let abort_guard = AbortOnUnwind(id);
        body(local);
        std::mem::forget(abort_guard);
        // Let go of the client's state *before* reporting the exit: whoever waits for
        // this worker to park (a lease drop, a lease switch) may tear the client down
        // right after, and must not find the substrate still holding a reference.
        drop(body);
        let mut st = shared
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        st.exit_body(client);
        shared.master_cv.notify_all();
    }
}

/// Aborts the process if dropped during an unwind (see the call site in
/// [`worker_loop`]); forgotten on the normal path.
struct AbortOnUnwind(usize);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!(
            "parlo-exec worker {} panicked inside a client's scheduling loop; the \
             client's synchronization cannot be drained — aborting",
            self.0
        );
        std::process::abort();
    }
}

/// A client's handle on the substrate.  Dropping it detaches the client's workers (if
/// attached) and deregisters the client.
pub struct Lease {
    exec: Arc<Executor>,
    id: u64,
    hooks: ClientHooks,
    /// The substrate worker ids this lease covers (`None` = exclusive: all of them).
    partition: Option<Arc<Vec<usize>>>,
    /// The hot-path flag: true while this client holds its workers.
    attached: Arc<AtomicBool>,
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("client", &self.hooks.name)
            .field("participants", &self.hooks.participants)
            .field("partition", &self.partition)
            .field("active", &self.is_active())
            .finish()
    }
}

impl Lease {
    /// Whether this client currently holds its workers.  One atomic load — this is
    /// the per-loop hot-path check.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.attached.load(Ordering::Acquire)
    }

    /// The substrate worker ids this lease covers, or `None` for an exclusive lease.
    pub fn partition(&self) -> Option<&[usize]> {
        self.partition.as_deref().map(|v| v.as_slice())
    }

    /// Makes this client a holder of workers, detaching whatever holds them first
    /// (everything for an exclusive lease, only an exclusive holder for a partition
    /// lease).  A no-op when the client is already active; clients with at most one
    /// participant never need workers and may skip the call entirely.
    ///
    /// The caller (the pool) must reset its own detach flag *before* activating, so
    /// workers entering the body see a live client — prefer
    /// [`Lease::ensure_active`], which enforces that ordering.
    pub fn activate(&self) {
        self.ensure_active(|| ());
    }

    /// The standard client fast path: returns immediately (one atomic load) when the
    /// client already holds the workers; otherwise runs `prepare` — where the client
    /// resets its detach flag — strictly before the hand-off begins, then activates.
    /// Having the reset-before-activate ordering live here keeps every pool's
    /// `ensure_workers` from re-deriving it.
    #[inline]
    pub fn ensure_active(&self, prepare: impl FnOnce()) {
        if self.is_active() {
            return;
        }
        prepare();
        self.exec.switch_to(self);
    }

    /// The substrate this lease draws workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut st = self.exec.lock_state();
        st.registered -= 1;
        if st.actives.iter().any(|a| a.client == self.id) {
            let _st = self.exec.detach_client_locked(st, self.id);
        }
    }
}

/// The number of OS threads of the current process (`/proc/self/task`), or `None`
/// where that interface does not exist.  The substrate tests use it to assert the
/// whole-process census, not just the substrate's own accounting.
pub fn process_thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.flatten().count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicBool, AtomicUsize};

    /// A minimal client: its "scheduling loop" parks on a flag and counts entries.
    struct FlagClient {
        detach: Arc<AtomicBool>,
        entered: Arc<AtomicUsize>,
        ids: Arc<Mutex<Vec<usize>>>,
    }

    impl FlagClient {
        fn hooks(name: &str, participants: usize) -> (ClientHooks, FlagClient) {
            let detach = Arc::new(AtomicBool::new(false));
            let entered = Arc::new(AtomicUsize::new(0));
            let ids = Arc::new(Mutex::new(Vec::new()));
            let client = FlagClient {
                detach: detach.clone(),
                entered: entered.clone(),
                ids: ids.clone(),
            };
            let body_detach = detach.clone();
            let hooks = ClientHooks {
                name: name.to_string(),
                participants,
                body: Arc::new(move |id| {
                    entered.fetch_add(1, Ordering::Relaxed);
                    ids.lock().unwrap().push(id);
                    while !body_detach.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }),
                detach: Arc::new(move || detach.store(true, Ordering::Release)),
            };
            (hooks, client)
        }

        fn reset(&self) {
            self.detach.store(false, Ordering::Release);
            self.ids.lock().unwrap().clear();
        }
    }

    #[test]
    fn lazy_spawn_and_capacity_growth() {
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        assert_eq!(
            exec.stats().workers,
            0,
            "no threads before first activation"
        );
        assert_eq!(exec.capacity(), 7);

        let (hooks_a, a) = FlagClient::hooks("a", 3);
        let lease_a = exec.register(hooks_a);
        a.reset();
        lease_a.activate();
        assert_eq!(exec.stats().workers, 2);
        assert!(lease_a.is_active());
        assert_eq!(exec.stats().active, vec!["a".to_string()]);

        // A larger client grows the capacity; the first client's workers are reused.
        let (hooks_b, b) = FlagClient::hooks("b", 5);
        let lease_b = exec.register(hooks_b);
        b.reset();
        lease_b.activate();
        assert!(!lease_a.is_active());
        assert!(lease_b.is_active());
        let stats = exec.stats();
        assert_eq!(stats.workers, 4, "grown to the largest client, not summed");
        assert_eq!(stats.leases, 2);
        assert_eq!(stats.switches, 2);
        assert_eq!(stats.pin_map.len(), 4);
    }

    #[test]
    fn attach_rendezvous_enters_every_participant() {
        let topo = Topology::flat(4).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks, client) = FlagClient::hooks("rendezvous", 4);
        let lease = exec.register(hooks);
        for round in 1..=3u64 {
            client.reset();
            lease.activate();
            // activate() returning means all 3 workers are inside the body (the
            // body-side counter may trail the rendezvous by an instant: the worker
            // bumps the count under the lock just before running the closure).
            let expected = 3 * round as usize;
            while client.entered.load(Ordering::Relaxed) < expected {
                std::thread::yield_now();
            }
            assert_eq!(client.entered.load(Ordering::Relaxed), expected);
            // Force a detach by activating another client.
            let (other_hooks, other) = FlagClient::hooks("other", 2);
            let other_lease = exec.register(other_hooks);
            other.reset();
            other_lease.activate();
            assert!(!lease.is_active());
        }
    }

    #[test]
    fn dropping_the_last_handle_joins_the_workers() {
        // `Executor::drop` joins synchronously; the whole-process `/proc` census that
        // proves it is asserted in `tests/exec_substrate.rs`, where it can be
        // serialized — here sibling unit tests spawn threads concurrently.
        let topo = Topology::flat(4).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks, client) = FlagClient::hooks("c", 4);
        let lease = exec.register(hooks);
        client.reset();
        lease.activate();
        assert_eq!(exec.stats().workers, 3);
        drop(lease);
        assert_eq!(exec.stats().leases, 0);
        assert!(exec.stats().active.is_empty(), "lease drop detaches");
        let shared = Arc::downgrade(&exec.shared);
        drop(exec);
        assert_eq!(
            shared.strong_count(),
            0,
            "every worker exited and was joined"
        );
    }

    #[test]
    fn single_participant_clients_never_need_workers() {
        let topo = Topology::flat(2).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks, _client) = FlagClient::hooks("solo", 1);
        let lease = exec.register(hooks);
        // A 1-participant client may activate, but needs no workers.
        lease.activate();
        assert_eq!(exec.stats().workers, 0);
    }

    #[test]
    fn disjoint_partitions_are_simultaneously_active() {
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks_a, a) = FlagClient::hooks("part-a", 3);
        let lease_a = exec.register_partition(hooks_a, vec![1, 2]);
        let (hooks_b, b) = FlagClient::hooks("part-b", 3);
        let lease_b = exec.register_partition(hooks_b, vec![3, 4]);
        a.reset();
        b.reset();
        lease_a.activate();
        lease_b.activate();
        assert!(
            lease_a.is_active() && lease_b.is_active(),
            "disjoint partitions coexist"
        );
        let stats = exec.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(
            stats.active,
            vec!["part-a".to_string(), "part-b".to_string()]
        );
        // Partition bodies receive pool-local participant ids, not substrate ids.
        while b.entered.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        let mut ids = b.ids.lock().unwrap().clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "substrate workers 3,4 serve as locals 1,2");
    }

    #[test]
    fn overlapping_partitions_panic_deterministically() {
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks_a, a) = FlagClient::hooks("part-a", 3);
        let lease_a = exec.register_partition(hooks_a, vec![1, 2]);
        a.reset();
        lease_a.activate();
        let (hooks_b, _b) = FlagClient::hooks("part-b", 2);
        let lease_b = exec.register_partition(hooks_b, vec![2]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lease_b.activate();
        }))
        .expect_err("activating an overlapping partition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("overlaps"), "panic message: {msg}");
        // The first partition is untouched by the failed activation.
        assert!(lease_a.is_active());
        drop(lease_b);
        drop(lease_a);
    }

    #[test]
    fn exclusive_activation_detaches_partitions_and_vice_versa() {
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let (hooks_a, a) = FlagClient::hooks("part-a", 2);
        let lease_a = exec.register_partition(hooks_a, vec![1]);
        let (hooks_x, x) = FlagClient::hooks("excl", 3);
        let lease_x = exec.register(hooks_x);
        a.reset();
        lease_a.activate();
        x.reset();
        lease_x.activate();
        assert!(!lease_a.is_active(), "exclusive evicts partitions");
        assert!(lease_x.is_active());
        a.reset();
        lease_a.activate();
        assert!(
            !lease_x.is_active(),
            "a partition evicts an exclusive holder"
        );
        assert!(lease_a.is_active());
    }

    #[test]
    fn partitions_activated_from_concurrent_threads() {
        let topo = Topology::flat(8).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        let mut joins = Vec::new();
        for t in 0..3usize {
            let exec = Arc::clone(&exec);
            joins.push(std::thread::spawn(move || {
                let (hooks, c) = FlagClient::hooks(&format!("t{t}"), 3);
                let ids = vec![2 * t + 1, 2 * t + 2];
                let lease = exec.register_partition(hooks, ids);
                c.reset();
                for _ in 0..10 {
                    lease.activate();
                    assert!(lease.is_active());
                    std::thread::yield_now();
                }
                drop(lease);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = exec.stats();
        assert!(stats.active.is_empty());
        assert_eq!(stats.leases, 0);
        assert!(stats.workers <= 6);
    }

    #[test]
    fn register_partition_validates_its_shape() {
        let topo = Topology::flat(4).unwrap();
        let exec = Executor::new(&topo, PinPolicy::None);
        for workers in [vec![2, 1], vec![1, 1], vec![0]] {
            let exec = Arc::clone(&exec);
            let workers_clone = workers.clone();
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let (hooks, _c) = FlagClient::hooks("bad", workers_clone.len() + 1);
                exec.register_partition(hooks, workers_clone)
            }));
            assert!(res.is_err(), "malformed partition {workers:?} must panic");
        }
    }
}
