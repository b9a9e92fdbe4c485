//! The topology-aware tree half-barrier — the crate's one tree.
//!
//! An MCS tree (Mellor-Crummey & Scott 1991) over all threads would still use **one**
//! global flag array and let a parent on one socket wait on a child on another.  On a
//! multi-socket machine the scheduler overhead `d` of the paper's burden model
//! `S = T/(d + T/P)` is dominated by barrier traffic, and that traffic is dominated by
//! cross-socket cache-line transfers — so this structure makes the socket the unit of
//! composition (on one socket it is exactly the heap-ordered MCS tree):
//!
//! * **socket-local trees**: each socket's participants form a private heap-ordered
//!   tree with the fan the topology suggests ([`Topology::suggested_arrival_fanin`],
//!   MCS recommend 4); arrivals drain up it and releases fan out down it;
//! * **a single cross-socket rendezvous**: per cycle, each remote socket's root
//!   publishes exactly one cache line to the master and the master performs exactly one
//!   collection pass over those per-socket lines — all other arrival traffic stays
//!   inside a socket;
//! * **remote sockets released first**: the master stores one padded per-socket release
//!   line per remote socket *first* (the signals with the longest latency leave
//!   earliest), then every socket fans the release out locally;
//! * **per-socket flag grouping**: every per-thread flag is cache-line padded *and*
//!   allocated in a per-socket array, so the lines a socket's threads spin on are never
//!   interleaved with another socket's flags;
//! * **the payload rides both signals**: every flag — a member's and a socket's, for
//!   the release and for the arrival — is a [`SignalLine`]: the epoch and a
//!   [`Payload`] in one padded line.  The master publishes the release payload into
//!   each remote socket's line and into its own children's lines; a member that
//!   forwards the release copies the payload it read into each child's line before
//!   storing the child's epoch.  So however deep a worker sits, the line that releases
//!   it is the only line it reads to learn what to run.  On the way up, a participant
//!   with an accumulator folds each child's arrival payload into it, read from the
//!   child's line as soon as that line's epoch is seen, and arrives with the folded
//!   accumulator as its own payload: a merged reduction crosses cores on the arrival
//!   lines alone.
//!
//! The structure is instrumented ([`HierarchyStats`]) so the hierarchy is unit-testable
//! on synthetic topologies without multi-socket hardware: exact per-socket arrival
//! counts and the one-rendezvous-per-cycle invariant are observable counters.  None of
//! them costs a cycle a locked read-modify-write: the master alone bumps `cycles` and
//! the rendezvous count, and every member bumps its own arrival line, summed per
//! socket on read.

use crate::line::{lines, Gather, SignalLine};
use crate::{Epoch, Payload, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_affinity::Topology;
use parlo_sync::{ParticipantCounter, SingleWriterCounter};

/// One socket's share of the barrier: its members, its local tree (over *local*
/// indices) and its padded signal lines.
#[derive(Debug)]
struct SocketGroup {
    /// Global participant ids; `members[0]` is the socket root.
    members: Vec<usize>,
    /// Local tree: `children[l]` lists the local indices whose arrival local index `l`
    /// waits for (and combines), and which it wakes after being released itself.
    children: Vec<Vec<usize>>,
    /// Arrival lines (epoch and accumulator), one per member, grouped per socket.
    arrival: Vec<CachePadded<SignalLine>>,
    /// Release lines (epoch and job), one per member, grouped per socket.
    release: Vec<CachePadded<SignalLine>>,
    /// Instrumentation: `arrive` calls per member, each member bumping its own line.
    arrivals: ParticipantCounter,
}

impl SocketGroup {
    fn new(members: Vec<usize>, fan: usize) -> Self {
        let k = members.len();
        let mut children = vec![Vec::new(); k];
        for l in 1..k {
            children[(l - 1) / fan].push(l);
        }
        SocketGroup {
            members,
            children,
            arrival: lines(k),
            release: lines(k),
            arrivals: ParticipantCounter::new(k),
        }
    }
}

/// A point-in-time copy of the hierarchy's instrumentation counters.
///
/// The structural invariants the barrier guarantees per completed cycle:
///
/// * `cross_socket_rendezvous` grows by exactly **one** when more than one socket is
///   populated (and by zero otherwise) — the master's single collection pass over the
///   per-socket arrival lines;
/// * `socket_arrivals[s]` grows by exactly the number of participants of socket `s`
///   that execute the worker protocol (every member, except the master on its own
///   socket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Release phases executed (one per fork/join cycle).
    pub cycles: u64,
    /// Cross-socket rendezvous completed by the master (one per cycle when more than
    /// one socket is populated).
    pub cross_socket_rendezvous: u64,
    /// Worker arrivals recorded per populated socket.
    pub socket_arrivals: Vec<u64>,
}

/// A half-barrier composed of socket-local trees and a single cross-socket rendezvous.
///
/// The protocol (and the epoch discipline) is identical to [`crate::HalfBarrier`]:
/// participant 0 is the master; per loop the master calls
/// [`release`](HierarchicalHalfBarrier::release) then
/// [`join`](HierarchicalHalfBarrier::join), and each worker calls
/// [`wait_release`](HierarchicalHalfBarrier::wait_release) then
/// [`arrive`](HierarchicalHalfBarrier::arrive), with epochs increasing by one per loop.
#[derive(Debug)]
pub struct HierarchicalHalfBarrier {
    nthreads: usize,
    groups: Vec<SocketGroup>,
    /// `locate[worker] = (group index, local index)`.
    locate: Vec<(usize, usize)>,
    /// Cross-socket arrival rendezvous lines, one per populated socket (index 0 unused).
    socket_arrival: Vec<CachePadded<SignalLine>>,
    /// Cross-socket release lines, one per populated socket (index 0 unused).
    socket_release: Vec<CachePadded<SignalLine>>,
    /// Instrumentation bumped by the master alone (`release` and `join`), on a line
    /// of its own.
    cycles: CachePadded<SingleWriterCounter>,
    rendezvous: CachePadded<SingleWriterCounter>,
}

impl HierarchicalHalfBarrier {
    /// Creates a hierarchical half-barrier for `nthreads` participants laid out
    /// compactly over `topology`, with the topology's suggested fan
    /// ([`Topology::suggested_arrival_fanin`]) for both phases.
    pub fn new(topology: &Topology, nthreads: usize) -> Self {
        assert!(
            nthreads > 0,
            "a half-barrier needs at least one participant"
        );
        let fan = topology.suggested_arrival_fanin();
        let groups: Vec<SocketGroup> = topology
            .worker_groups(nthreads)
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|members| SocketGroup::new(members, fan))
            .collect();
        assert_eq!(
            groups[0].members[0], 0,
            "participant 0 (the master) must be the root of the first populated socket"
        );
        let mut locate = vec![(usize::MAX, usize::MAX); nthreads];
        for (g, group) in groups.iter().enumerate() {
            for (l, &w) in group.members.iter().enumerate() {
                locate[w] = (g, l);
            }
        }
        debug_assert!(locate.iter().all(|&(g, _)| g != usize::MAX));
        let nsockets = groups.len();
        HierarchicalHalfBarrier {
            nthreads,
            groups,
            locate,
            socket_arrival: lines(nsockets),
            socket_release: lines(nsockets),
            cycles: CachePadded::default(),
            rendezvous: CachePadded::default(),
        }
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Number of populated sockets.
    pub fn num_sockets(&self) -> usize {
        self.groups.len()
    }

    /// The populated socket a participant belongs to.
    pub fn socket_of(&self, id: usize) -> usize {
        self.locate[id].0
    }

    /// A snapshot of the instrumentation counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            cycles: self.cycles.get(),
            cross_socket_rendezvous: self.rendezvous.get(),
            socket_arrivals: self.groups.iter().map(|g| g.arrivals.sum()).collect(),
        }
    }

    /// The participants whose accumulators participant `id` folds during a merged
    /// reduction: its local tree children, plus — for the master — the root of every
    /// remote socket.  Every worker appears in exactly one participant's list.
    pub fn combine_children(&self, id: usize) -> Vec<usize> {
        let (g, l) = self.locate[id];
        let group = &self.groups[g];
        let mut out: Vec<usize> = group.children[l]
            .iter()
            .map(|&c| group.members[c])
            .collect();
        if id == 0 {
            out.extend(self.groups.iter().skip(1).map(|g| g.members[0]));
        }
        out
    }

    // ----- master side -------------------------------------------------------------

    /// Master: release phase.  Publishes `epoch` and `payload` into the per-socket
    /// release line of every remote socket first (the highest-latency signals leave
    /// earliest), then fans out over the master's own socket-local tree.  Never waits.
    #[inline]
    pub fn release(&self, epoch: Epoch, payload: &Payload) {
        self.cycles.add(1);
        for line in self.socket_release.iter().skip(1) {
            line.publish(epoch, payload);
        }
        self.fan_out(0, 0, epoch, payload);
        crate::wake_parked();
    }

    /// Master: join phase.  Waits for the master's socket-local tree children first,
    /// then performs the single cross-socket rendezvous: one collection pass over the
    /// per-socket arrival lines.  With an accumulator, each arrival is folded into it
    /// as it is seen, `on_child(acc, child, payload)` with the payload `child` arrived
    /// with (a socket root for a remote socket); without one, nothing is called.
    #[inline]
    pub fn join<F>(&self, epoch: Epoch, policy: &WaitPolicy, acc: Option<&mut Payload>, on_child: F)
    where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        let mut gather = Gather { acc, on_child };
        let home = &self.groups[0];
        for &c in &home.children[0] {
            gather.child(&home.arrival[c], home.members[c], epoch, policy);
        }
        if self.groups.len() > 1 {
            for (g, line) in self.socket_arrival.iter().enumerate().skip(1) {
                gather.child(line, self.groups[g].members[0], epoch, policy);
            }
            self.rendezvous.add(1);
        }
    }

    // ----- worker side -------------------------------------------------------------

    /// Worker `id`: wait until released for `epoch`, then forward the release down the
    /// socket-local tree; returns the payload the release carried.
    #[inline]
    pub fn wait_release(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) -> Payload {
        debug_assert!(id > 0 && id < self.nthreads);
        let line = self.release_line(id);
        policy.wait_until(|| line.reached(epoch));
        self.forward_release(id, epoch)
    }

    /// Worker `id`: non-blocking release probe (the hybrid scheduler's polling path).
    /// When it returns `true` the caller must invoke
    /// [`forward_release`](HierarchicalHalfBarrier::forward_release) before executing
    /// the loop.
    #[inline]
    pub fn poll_release(&self, id: usize, epoch: Epoch) -> bool {
        self.release_line(id).reached(epoch)
    }

    /// The line worker `id` is released through: its socket's release line for a
    /// remote socket root, its own line for every other worker.
    #[inline]
    fn release_line(&self, id: usize) -> &SignalLine {
        let (g, l) = self.locate[id];
        if l == 0 {
            &self.socket_release[g]
        } else {
            &self.groups[g].release[l]
        }
    }

    /// Worker `id`: take a release observed through
    /// [`poll_release`](HierarchicalHalfBarrier::poll_release) (or inside
    /// [`wait_release`](HierarchicalHalfBarrier::wait_release)): read its payload,
    /// forward epoch and payload to the worker's socket-local tree children, and return
    /// the payload.
    #[inline]
    pub fn forward_release(&self, id: usize, epoch: Epoch) -> Payload {
        let (g, l) = self.locate[id];
        let payload = self.release_line(id).payload();
        if !self.groups[g].children[l].is_empty() {
            self.fan_out(g, l, epoch, &payload);
            crate::wake_parked();
        }
        payload
    }

    /// Publishes `epoch` and `payload` into the release lines of local index `l`'s
    /// children on socket `g`.
    #[inline]
    fn fan_out(&self, g: usize, l: usize, epoch: Epoch, payload: &Payload) {
        let group = &self.groups[g];
        for &c in &group.children[l] {
            group.release[c].publish(epoch, payload);
        }
    }

    /// Worker `id`: arrive for `epoch`.  Waits for the worker's socket-local tree
    /// children — folding each one's payload into `acc` with `on_child`, as
    /// [`join`](HierarchicalHalfBarrier::join) does — then publishes its own arrival,
    /// on the worker's per-thread line for interior participants, on the socket's
    /// single rendezvous line for a remote socket root: with the folded `acc` as its
    /// payload, or, without an accumulator, the epoch alone.
    #[inline]
    pub fn arrive<F>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        acc: Option<&mut Payload>,
        on_child: F,
    ) where
        F: FnMut(&mut Payload, usize, &Payload),
    {
        debug_assert!(id > 0 && id < self.nthreads);
        let (g, l) = self.locate[id];
        let group = &self.groups[g];
        let mut gather = Gather { acc, on_child };
        for &c in &group.children[l] {
            gather.child(&group.arrival[c], group.members[c], epoch, policy);
        }
        group.arrivals.add(l, 1);
        let line = if l == 0 {
            &self.socket_arrival[g]
        } else {
            &group.arrival[l]
        };
        line.arrive(epoch, gather.acc.as_deref());
        crate::wake_parked();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{fill_of, filled};
    use parlo_sync::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Cycles in which every worker — released by the master, a forwarder or through
    /// its socket line — must receive the payload of its own cycle.  Every other cycle
    /// is a reduction: each worker arrives with its id folded with its children's, and
    /// the master's join must see the sum of all ids, one fold per direct child.
    fn run_cycles(hb: Arc<HierarchicalHalfBarrier>, cycles: u64) {
        let n = hb.num_threads();
        let policy = WaitPolicy::oversubscribed();
        let work = Arc::new(AtomicUsize::new(0));
        let add = |acc: &mut Payload, _: usize, child: &Payload| {
            *acc = filled(fill_of(*acc) + fill_of(*child));
        };
        let mut handles = Vec::new();
        for id in 1..n {
            let hb = hb.clone();
            let work = work.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=cycles {
                    let payload = hb.wait_release(id, epoch, &policy);
                    assert_eq!(fill_of(payload), epoch, "worker {id} got a stale payload");
                    // ordering: SeqCst keeps the harness counter's visibility
                    // independent of the orderings of the barrier under test.
                    work.fetch_add(1, Ordering::SeqCst);
                    let mut acc = filled(id as u64);
                    hb.arrive(
                        id,
                        epoch,
                        &policy,
                        (epoch % 2 == 0).then_some(&mut acc),
                        add,
                    );
                }
            }));
        }
        for epoch in 1..=cycles {
            hb.release(epoch, &filled(epoch));
            // ordering: SeqCst harness counter, independent of the barrier under test.
            work.fetch_add(1, Ordering::SeqCst);
            let mut combines = 0;
            let mut acc = filled(0);
            let reduce = epoch % 2 == 0;
            hb.join(epoch, &policy, reduce.then_some(&mut acc), |acc, c, p| {
                combines += 1;
                add(acc, c, p);
            });
            if reduce {
                assert_eq!(combines, hb.combine_children(0).len());
                assert_eq!(fill_of(acc), (n * (n - 1) / 2) as u64, "cycle {epoch}");
            } else {
                assert_eq!(combines, 0, "a plain join folds nothing");
            }
            // ordering: as above — sharp post-join visibility check.
            assert_eq!(work.load(Ordering::SeqCst) as u64, epoch * n as u64);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cycles_on_synthetic_two_socket_machine() {
        let topo = Topology::synthetic(2, 4).unwrap();
        run_cycles(Arc::new(HierarchicalHalfBarrier::new(&topo, 8)), 50);
    }

    #[test]
    fn cycles_on_synthetic_four_socket_machine() {
        let topo = Topology::synthetic(4, 8).unwrap();
        run_cycles(Arc::new(HierarchicalHalfBarrier::new(&topo, 32)), 25);
    }

    #[test]
    fn cycles_with_partially_populated_sockets() {
        // 5 threads on a 2×4 machine: socket 0 holds workers 0..4, socket 1 holds 4.
        let topo = Topology::synthetic(2, 4).unwrap();
        let hb = HierarchicalHalfBarrier::new(&topo, 5);
        assert_eq!(hb.num_sockets(), 2);
        assert_eq!(hb.socket_of(4), 1);
        run_cycles(Arc::new(hb), 30);
    }

    #[test]
    fn single_participant() {
        let topo = Topology::synthetic(2, 4).unwrap();
        let hb = HierarchicalHalfBarrier::new(&topo, 1);
        let policy = WaitPolicy::default();
        for epoch in 1..=10 {
            hb.release(epoch, &filled(epoch));
            hb.join(epoch, &policy, Some(&mut filled(0)), |_, _, _| {
                panic!("no children expected")
            });
        }
        let s = hb.stats();
        assert_eq!(s.cycles, 10);
        assert_eq!(s.cross_socket_rendezvous, 0, "one socket, no rendezvous");
    }

    #[test]
    fn per_socket_arrivals_and_one_rendezvous_per_cycle() {
        let topo = Topology::synthetic(2, 3).unwrap();
        let hb = Arc::new(HierarchicalHalfBarrier::new(&topo, 6));
        run_cycles(hb.clone(), 40);
        let s = hb.stats();
        assert_eq!(s.cycles, 40);
        assert_eq!(s.cross_socket_rendezvous, 40, "exactly one per cycle");
        // Socket 0: 2 workers (master excluded); socket 1: 3 workers.
        assert_eq!(s.socket_arrivals, vec![40 * 2, 40 * 3]);
    }

    #[test]
    fn combine_children_cover_every_worker_exactly_once() {
        for (sockets, cores, n) in [(2, 4, 8), (4, 8, 32), (2, 4, 5), (3, 2, 6)] {
            let topo = Topology::synthetic(sockets, cores).unwrap();
            let hb = HierarchicalHalfBarrier::new(&topo, n);
            let mut all: Vec<usize> = (0..n).flat_map(|id| hb.combine_children(id)).collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (1..n).collect::<Vec<_>>(),
                "{sockets}x{cores} @ {n} threads"
            );
        }
    }

    #[test]
    fn poll_release_then_forward_reaches_local_children() {
        let topo = Topology::synthetic(2, 4).unwrap();
        let hb = HierarchicalHalfBarrier::new(&topo, 8);
        // Worker 4 is the root of socket 1.
        assert!(!hb.poll_release(4, 1));
        hb.release(1, &filled(11));
        assert!(hb.poll_release(4, 1), "socket line stored by the master");
        assert!(!hb.poll_release(5, 1), "local fan-out has not happened yet");
        assert_eq!(fill_of(hb.forward_release(4, 1)), 11);
        assert!(hb.poll_release(5, 1));
        assert_eq!(fill_of(hb.forward_release(5, 1)), 11, "forwarded payload");
    }

    #[test]
    fn flags_are_grouped_per_socket() {
        let topo = Topology::synthetic(4, 8).unwrap();
        let hb = HierarchicalHalfBarrier::new(&topo, 32);
        assert_eq!(hb.num_sockets(), 4);
        for g in 0..4 {
            assert_eq!(hb.groups[g].arrival.len(), 8);
            assert_eq!(hb.groups[g].release.len(), 8);
            assert!(hb.groups[g].members.iter().all(|&w| hb.socket_of(w) == g));
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_threads_panics() {
        let topo = Topology::synthetic(2, 2).unwrap();
        let _ = HierarchicalHalfBarrier::new(&topo, 0);
    }
}
