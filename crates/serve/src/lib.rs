//! # parlo-serve — multi-tenant loop serving on the shared substrate
//!
//! The pools in this workspace are *single-driver*: a [`parlo_core::FineGrainPool`]
//! serves exactly one master thread, and before partition leases existed a second
//! concurrent driver on one substrate crashed racily (or worse, silently corrupted a
//! hand-off).  This crate turns the substrate into a **loop server** instead: many
//! tenant threads submit parallel loops to one [`Server`], which space-shares the
//! `P − 1` substrate workers among *gangs* and runs every loop to completion without
//! ever spawning an extra OS thread.
//!
//! ## Architecture
//!
//! The server splits its worker budget into gangs of `g` workers each, sized by the
//! paper's burden model ([`GangSizing::Model`] routes through
//! [`parlo_adaptive::gang_size_hint`]: `g* = ceil(sqrt(T/d))`).  Each gang is two
//! partition leases on the shared [`parlo_exec::Executor`]:
//!
//! * a **driver lease** over the gang's first worker, whose body is the serving loop:
//!   it pops requests from the admission queue and plays the *master* role;
//! * a **pool lease** over the remaining `g − 1` workers, held by a
//!   [`parlo_core::FineGrainPool`] built with [`parlo_core::FineGrainPool::new_on_partition`]
//!   (pool-local participant ids, no re-pinning), which the driver drives through the
//!   ordinary half-barrier loop entry points.
//!
//! Disjoint partitions may be active simultaneously (see the `parlo-exec` crate docs
//! for the multi-driver contract), so all gangs serve concurrently while the total
//! worker census stays bounded by the substrate capacity.
//!
//! ## Queueing discipline
//!
//! * **Block-granular bodies**: [`LoopRequest::for_each`] and [`LoopRequest::sum`]
//!   erase the tenant's closure at the level of a *block* of indices, not of one
//!   index: the per-index loop is the tenant's own monomorphised code, and the server
//!   pays one `dyn` call per block — one in all on an inline (1-worker) gang, one per
//!   gang member for a pooled loop, one per overlapped request per member in a fused
//!   batch.
//! * **One wait, three users**: a driver waiting for work, a submitter waiting for
//!   queue room and a tenant waiting on a [`JobHandle`] share one discipline — look
//!   under the lock, poll a lock-free hint (an atomic mirror of the queue length, the
//!   completion's `done` flag) for a spin budget and then a yield budget, and only
//!   then park on the condvar.  The **driver** gets the budget
//!   [`parlo_core::WaitPolicy::auto_for`] gives a pool worker of the same substrate:
//!   a long spin when every substrate thread has a core, the park policy's short one
//!   when the host is oversubscribed.  So under load a request is picked up by a
//!   polling driver, with no sleep/wake round trip, and a quiet server still ends up
//!   parked at ~0 CPU ([`ServeStats::driver_parks`] counts it).  **Tenants** always
//!   get the short budget — queued submitters and handle waiters never busy-spin.
//! * **No wake-up without a sleeper**: the queue counts its parked drivers and parked
//!   submitters under its lock, a completion its parked waiters under its own, and
//!   each notifies a condvar only when the count is non-zero, so a push, a pop or a
//!   completion with nobody asleep makes no system call
//!   ([`ServeStats::driver_wakes`] counts the notifications sent to drivers).  The
//!   count moves under the same lock hold as the failed look that precedes the park,
//!   which is why no wake-up can be lost; the model battery checks every interleaving
//!   of a parking driver against a push, of a parking submitter against a pop and of
//!   a waiting tenant against a completion.
//! * **Admission control**: the queue is bounded. [`Server::try_submit`] fails fast
//!   with [`Rejected::QueueFull`]; [`Server::submit`] applies backpressure by waiting
//!   for room.
//! * **Completion**: the driver writes the result under the handle's lock and raises
//!   its `done` flag; [`JobHandle::is_done`] is one atomic load, and
//!   [`JobHandle::wait`] is the shared wait on that flag.
//! * **Small-loop batching**: consecutive queued `for`-loops are fused into one
//!   half-barrier cycle — the driver runs a single `parallel_for_blocks` over the
//!   concatenation of their index spaces and each gang member hands every request its
//!   block overlaps that request's share, so a backlog of micro-loops pays one
//!   fork/join instead of one per loop.  A `sum` rides alone, as one
//!   `parallel_reduce_blocks` over its range (each member sums its own block).
//! * **Fairness**: requests are keyed by [`LoopSite`]; the queue holds one FIFO per
//!   site that has work queued and the driver pops round-robin across them, so a
//!   chatty tenant cannot starve the others.  A FIFO is dropped when it empties: the
//!   queue's size and its pop cost follow the sites waiting now, not every site a
//!   long-lived server has ever seen.
//! * **Scrapes do not contend**: [`Server::stats`] and [`Server::metrics_text`] read
//!   atomics only, never the queue lock.
//!
//! On a machine with no workers to lease (capacity 0) the server degenerates to
//! inline execution on the submitting thread — same results, no threads.
//!
//! ## Example
//!
//! ```
//! use parlo_serve::{LoopRequest, Server, ServeConfig};
//! use parlo_adaptive::LoopSite;
//! use parlo_sync::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let server = Server::new(ServeConfig::default().with_workers(3));
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = {
//!     let hits = hits.clone();
//!     server
//!         .submit(LoopRequest::for_each(LoopSite::new(1), 0..100, move |_i| {
//!             hits.fetch_add(1, Ordering::Relaxed);
//!         }))
//!         .unwrap()
//! };
//! h.wait();
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! ```

#![warn(missing_docs)]

mod queue;
mod server;

pub use parlo_adaptive::LoopSite;
#[doc(hidden)]
pub use queue::AdmissionProbe;
pub use queue::{completion_pair, Completer, JobHandle, Rejected};
pub use server::{GangSizing, LoopRequest, ServeConfig, ServeStats, Server};
