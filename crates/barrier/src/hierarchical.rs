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
//!   interleaved with another socket's flags.
//!
//! The structure is instrumented ([`HierarchyStats`]) so the hierarchy is unit-testable
//! on synthetic topologies without multi-socket hardware: exact per-socket arrival
//! counts and the one-rendezvous-per-cycle invariant are observable counters.  None of
//! them costs a cycle a locked read-modify-write: the master alone bumps `cycles` and
//! the rendezvous count, and every member bumps its own arrival line, summed per
//! socket on read.

use crate::{Epoch, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_affinity::Topology;
use parlo_sync::{AtomicU64, Ordering, ParticipantCounter, SingleWriterCounter};

fn padded_flags(n: usize) -> Vec<CachePadded<AtomicU64>> {
    (0..n)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect()
}

/// One socket's share of the barrier: its members, its local tree (over *local*
/// indices) and its padded flag arrays.
#[derive(Debug)]
struct SocketGroup {
    /// Global participant ids; `members[0]` is the socket root.
    members: Vec<usize>,
    /// Local tree: `children[l]` lists the local indices whose arrival local index `l`
    /// waits for (and combines), and which it wakes after being released itself.
    children: Vec<Vec<usize>>,
    /// Arrival flags (epoch counters), one padded line per member, grouped per socket.
    arrival: Vec<CachePadded<AtomicU64>>,
    /// Release flags (epoch counters), one padded line per member, grouped per socket.
    release: Vec<CachePadded<AtomicU64>>,
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
            arrival: padded_flags(k),
            release: padded_flags(k),
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
    socket_arrival: Vec<CachePadded<AtomicU64>>,
    /// Cross-socket release lines, one per populated socket (index 0 unused).
    socket_release: Vec<CachePadded<AtomicU64>>,
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
            socket_arrival: padded_flags(nsockets),
            socket_release: padded_flags(nsockets),
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

    /// The participants whose views participant `id` combines during a merged
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

    /// Master: release phase.  Stores the per-socket release line of every remote
    /// socket first (the highest-latency signals leave earliest), then fans out over
    /// the master's own socket-local tree.  Never waits.
    #[inline]
    pub fn release(&self, epoch: Epoch) {
        self.cycles.add(1);
        for flag in self.socket_release.iter().skip(1) {
            flag.store(epoch, Ordering::Release);
        }
        self.fan_out(0, 0, epoch);
        crate::wake_parked();
    }

    /// Master: join phase.  Combines the master's socket-local tree children first,
    /// then performs the single cross-socket rendezvous: one collection pass over the
    /// per-socket arrival lines, invoking `on_child(socket_root)` per remote socket.
    #[inline]
    pub fn join<F: FnMut(usize)>(&self, epoch: Epoch, policy: &WaitPolicy, mut on_child: F) {
        let home = &self.groups[0];
        for &c in &home.children[0] {
            policy.wait_until(|| home.arrival[c].load(Ordering::Acquire) >= epoch);
            on_child(home.members[c]);
        }
        if self.groups.len() > 1 {
            for (g, flag) in self.socket_arrival.iter().enumerate().skip(1) {
                policy.wait_until(|| flag.load(Ordering::Acquire) >= epoch);
                on_child(self.groups[g].members[0]);
            }
            self.rendezvous.add(1);
        }
    }

    // ----- worker side -------------------------------------------------------------

    /// Worker `id`: wait until released for `epoch`, then forward the release down the
    /// socket-local tree.
    #[inline]
    pub fn wait_release(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) {
        debug_assert!(id > 0 && id < self.nthreads);
        let flag = self.release_flag(id);
        policy.wait_until(|| flag.load(Ordering::Acquire) >= epoch);
        self.forward_release(id, epoch);
    }

    /// Worker `id`: non-blocking release probe (the hybrid scheduler's polling path).
    /// When it returns `true` the caller must invoke
    /// [`forward_release`](HierarchicalHalfBarrier::forward_release) before executing
    /// the loop.
    #[inline]
    pub fn poll_release(&self, id: usize, epoch: Epoch) -> bool {
        self.release_flag(id).load(Ordering::Acquire) >= epoch
    }

    /// The line worker `id` is released through: its socket's release line for a
    /// remote socket root, its own line for every other worker.
    #[inline]
    fn release_flag(&self, id: usize) -> &AtomicU64 {
        let (g, l) = self.locate[id];
        if l == 0 {
            &self.socket_release[g]
        } else {
            &self.groups[g].release[l]
        }
    }

    /// Worker `id`: forward a release observed through
    /// [`poll_release`](HierarchicalHalfBarrier::poll_release) to the worker's
    /// socket-local tree children.
    #[inline]
    pub fn forward_release(&self, id: usize, epoch: Epoch) {
        let (g, l) = self.locate[id];
        if !self.groups[g].children[l].is_empty() {
            self.fan_out(g, l, epoch);
            crate::wake_parked();
        }
    }

    /// Stores `epoch` into the release lines of local index `l`'s children on socket
    /// `g`.
    #[inline]
    fn fan_out(&self, g: usize, l: usize, epoch: Epoch) {
        let group = &self.groups[g];
        for &c in &group.children[l] {
            group.release[c].store(epoch, Ordering::Release);
        }
    }

    /// Worker `id`: arrive for `epoch`.  Waits for (and combines, via `on_child`) the
    /// worker's socket-local tree children, then publishes its own arrival — on the
    /// worker's per-thread line for interior participants, on the socket's single
    /// rendezvous line for a remote socket root.
    #[inline]
    pub fn arrive<F: FnMut(usize)>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        mut on_child: F,
    ) {
        debug_assert!(id > 0 && id < self.nthreads);
        let (g, l) = self.locate[id];
        let group = &self.groups[g];
        for &c in &group.children[l] {
            policy.wait_until(|| group.arrival[c].load(Ordering::Acquire) >= epoch);
            on_child(group.members[c]);
        }
        group.arrivals.add(l, 1);
        if l == 0 {
            self.socket_arrival[g].store(epoch, Ordering::Release);
        } else {
            group.arrival[l].store(epoch, Ordering::Release);
        }
        crate::wake_parked();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::AtomicUsize;
    use std::sync::Arc;

    fn run_cycles(hb: Arc<HierarchicalHalfBarrier>, cycles: u64) {
        let n = hb.num_threads();
        let policy = WaitPolicy::oversubscribed();
        let work = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for id in 1..n {
            let hb = hb.clone();
            let work = work.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=cycles {
                    hb.wait_release(id, epoch, &policy);
                    // ordering: SeqCst keeps the harness counter's visibility
                    // independent of the orderings of the barrier under test.
                    work.fetch_add(1, Ordering::SeqCst);
                    hb.arrive(id, epoch, &policy, |_| {});
                }
            }));
        }
        for epoch in 1..=cycles {
            hb.release(epoch);
            // ordering: SeqCst harness counter, independent of the barrier under test.
            work.fetch_add(1, Ordering::SeqCst);
            let mut combines = 0;
            hb.join(epoch, &policy, |_| combines += 1);
            assert_eq!(combines, hb.combine_children(0).len());
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
            hb.release(epoch);
            hb.join(epoch, &policy, |_| panic!("no children expected"));
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
        hb.release(1);
        assert!(hb.poll_release(4, 1), "socket line stored by the master");
        assert!(!hb.poll_release(5, 1), "local fan-out has not happened yet");
        hb.forward_release(4, 1);
        assert!(hb.poll_release(5, 1));
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
