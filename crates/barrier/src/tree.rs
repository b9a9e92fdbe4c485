//! MCS-style tree synchronization primitives.
//!
//! The paper uses "a scalable tree barrier algorithm [Mellor-Crummey & Scott 1991] and
//! tune[s] it to the organisation of our evaluation machine".  The tree has two
//! independent halves:
//!
//! * an **arrival (join) tree** with configurable fan-in (MCS recommend 4): each node
//!   waits for its children's arrival flags, optionally folds their partial reduction
//!   values into its own, and then sets its own flag for its parent;
//! * a **wakeup (release) tree** with configurable fan-out (MCS recommend 2): the root
//!   sets its children's release flags; every released node forwards the signal to its
//!   own children before starting work.
//!
//! [`TreeShape`] describes the tree; it can be built uniformly or tuned to a
//! [`Topology`] so that each socket's threads form a socket-local subtree and only the
//! subtree roots cross the interconnect.

use crate::{Epoch, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_affinity::Topology;
use parlo_sync::{AtomicU64, Ordering};

/// The static structure of a synchronization tree over participants `0..n` with
/// participant 0 at the root (the master).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl TreeShape {
    /// Builds a uniform tree with the given fan (each node has up to `fan` children),
    /// numbered heap-style: the children of node `i` are `fan*i + 1 ..= fan*i + fan`.
    pub fn uniform(n: usize, fan: usize) -> Self {
        assert!(n > 0, "a tree needs at least one participant");
        let fan = fan.max(1);
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        for (i, slot) in parent.iter_mut().enumerate().skip(1) {
            let p = (i - 1) / fan;
            *slot = Some(p);
            children[p].push(i);
        }
        TreeShape { parent, children }
    }

    /// Builds a flat tree: every participant `1..n` is a direct child of the root.
    /// Equivalent to a centralized structure expressed as a tree.
    pub fn flat(n: usize) -> Self {
        Self::uniform(n, n.max(1))
    }

    /// Builds a topology-aware tree for `n` participants laid out compactly over
    /// `topology`: participants on the same socket form a socket-local uniform subtree
    /// with the given `fan`, and the socket-subtree roots are children of participant 0
    /// (which is the root of the socket-0 subtree as well as the global root).
    ///
    /// With this layout only one arrival and one release signal per remote socket cross
    /// the processor interconnect per barrier episode.
    pub fn topology_aware(topology: &Topology, n: usize, fan: usize) -> Self {
        assert!(n > 0, "a tree needs at least one participant");
        let fan = fan.max(1);
        let groups = topology.worker_groups(n);
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut socket_roots = Vec::new();
        for group in groups.iter().filter(|g| !g.is_empty()) {
            // Build a uniform subtree over the members of this group, in group order.
            let root = group[0];
            socket_roots.push(root);
            for (local_idx, &member) in group.iter().enumerate().skip(1) {
                let local_parent = (local_idx - 1) / fan;
                let p = group[local_parent];
                parent[member] = Some(p);
                children[p].push(member);
            }
        }
        // Attach remote socket roots under the global root (participant 0).
        for &root in &socket_roots {
            if root != 0 {
                parent[root] = Some(0);
                children[0].push(root);
            }
        }
        TreeShape { parent, children }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree has exactly one participant.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of participant `i` (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// The children of participant `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Depth of participant `i` (root has depth 0).
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the whole tree (maximum depth over all participants).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|i| self.depth(i)).max().unwrap_or(0)
    }

    /// Checks structural invariants: exactly one root (participant 0), every other
    /// participant reachable from the root, parent/children arrays consistent.
    pub fn validate(&self) -> bool {
        if self.parent.is_empty() || self.parent[0].is_some() {
            return false;
        }
        // parent/children consistency
        for i in 1..self.len() {
            match self.parent[i] {
                Some(p) if p < self.len() => {
                    if !self.children[p].contains(&i) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        // reachability (and acyclicity) from the root
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if seen[i] {
                return false;
            }
            seen[i] = true;
            stack.extend_from_slice(&self.children[i]);
        }
        seen.into_iter().all(|s| s)
    }
}

/// The release (wakeup) half of a tree barrier.
///
/// Flags are epoch counters: the root stores the new epoch into its children's flags;
/// every woken participant forwards the epoch to its own children before returning, so
/// the wakeup propagates in `O(height)` critical-path steps while the fan-out bounds the
/// work any single participant performs.
#[derive(Debug)]
pub struct TreeRelease {
    shape: TreeShape,
    flags: Vec<CachePadded<AtomicU64>>,
}

impl TreeRelease {
    /// Creates a release tree over the given shape, with all flags at epoch 0.
    pub fn new(shape: TreeShape) -> Self {
        let flags = (0..shape.len())
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        TreeRelease { shape, flags }
    }

    /// The tree shape.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Root (master) side: signal `epoch` to the root's children.  The master itself
    /// never waits — this is the *release-only* half of the fork barrier.
    #[inline]
    pub fn signal_root(&self, epoch: Epoch) {
        for &c in self.shape.children(0) {
            self.flags[c].store(epoch, Ordering::Release);
        }
        crate::wake_parked();
    }

    /// Worker side: wait until this participant has been released for `epoch`, then
    /// forward the release to its children.
    #[inline]
    pub fn wait_and_forward(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) {
        debug_assert_ne!(id, 0, "the root releases, it is never released");
        policy.wait_until(|| self.flags[id].load(Ordering::Acquire) >= epoch);
        if !self.shape.children(id).is_empty() {
            for &c in self.shape.children(id) {
                self.flags[c].store(epoch, Ordering::Release);
            }
            crate::wake_parked();
        }
    }

    /// Non-blocking probe: has this participant been released for `epoch`?
    /// Used by the hybrid scheduler, which alternates work-stealing attempts with this
    /// poll.  The caller must still invoke [`TreeRelease::forward`] once it decides to
    /// enter the loop, so its children get woken.
    #[inline]
    pub fn poll(&self, id: usize, epoch: Epoch) -> bool {
        self.flags[id].load(Ordering::Acquire) >= epoch
    }

    /// Forwards a release that was detected via [`TreeRelease::poll`].
    #[inline]
    pub fn forward(&self, id: usize, epoch: Epoch) {
        if !self.shape.children(id).is_empty() {
            for &c in self.shape.children(id) {
                self.flags[c].store(epoch, Ordering::Release);
            }
            crate::wake_parked();
        }
    }
}

/// The arrival (join) half of a tree barrier.
///
/// Flags are epoch counters: each participant waits for its children's flags to reach
/// the current epoch — invoking a caller-supplied combine hook per child, which is how
/// the scheduler merges reductions into the join phase with exactly `P − 1` combine
/// operations — and then publishes its own flag.  The root simply waits for its
/// children; it publishes nothing because nobody waits on the master.
#[derive(Debug)]
pub struct TreeJoin {
    shape: TreeShape,
    flags: Vec<CachePadded<AtomicU64>>,
}

impl TreeJoin {
    /// Creates a join tree over the given shape, with all flags at epoch 0.
    pub fn new(shape: TreeShape) -> Self {
        let flags = (0..shape.len())
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        TreeJoin { shape, flags }
    }

    /// The tree shape.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Participant `id` arrives for `epoch`: waits for each child in turn (calling
    /// `on_child(child)` as soon as that child has arrived, so partial reduction views
    /// can be folded pairwise), then publishes its own arrival.  The root returns after
    /// its children have arrived without publishing anything.
    #[inline]
    pub fn arrive_and_combine<F: FnMut(usize)>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        mut on_child: F,
    ) {
        for &c in self.shape.children(id) {
            policy.wait_until(|| self.flags[c].load(Ordering::Acquire) >= epoch);
            on_child(c);
        }
        if id != 0 {
            self.flags[id].store(epoch, Ordering::Release);
            crate::wake_parked();
        }
    }

    /// Participant `id` arrives for `epoch` with no reduction work.
    #[inline]
    pub fn arrive(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) {
        self.arrive_and_combine(id, epoch, policy, |_| {});
    }

    /// Returns `true` if participant `id` has already arrived for `epoch` (the root is
    /// considered arrived once all of its children are).
    pub fn has_arrived(&self, id: usize, epoch: Epoch) -> bool {
        if id == 0 {
            self.shape
                .children(0)
                .iter()
                .all(|&c| self.flags[c].load(Ordering::Acquire) >= epoch)
        } else {
            self.flags[id].load(Ordering::Acquire) >= epoch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uniform_shape_structure() {
        let s = TreeShape::uniform(7, 2);
        assert_eq!(s.len(), 7);
        assert_eq!(s.parent(0), None);
        assert_eq!(s.children(0), &[1, 2]);
        assert_eq!(s.children(1), &[3, 4]);
        assert_eq!(s.children(2), &[5, 6]);
        assert_eq!(s.depth(6), 2);
        assert_eq!(s.height(), 2);
        assert!(s.validate());
    }

    #[test]
    fn flat_shape_has_height_one() {
        let s = TreeShape::flat(9);
        assert_eq!(s.children(0).len(), 8);
        assert_eq!(s.height(), 1);
        assert!(s.validate());
    }

    #[test]
    fn single_participant_shape() {
        let s = TreeShape::uniform(1, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s.height(), 0);
        assert!(s.validate());
    }

    #[test]
    fn topology_aware_shape_keeps_sockets_local() {
        let topo = Topology::synthetic(4, 12).unwrap();
        let s = TreeShape::topology_aware(&topo, 48, 4);
        assert!(s.validate());
        // Exactly three remote socket roots hang off the global root, plus the
        // socket-0-local children of participant 0.
        let groups = topo.worker_groups(48);
        let remote_roots: Vec<usize> = groups[1..].iter().map(|g| g[0]).collect();
        for r in &remote_roots {
            assert_eq!(s.parent(*r), Some(0));
        }
        // Every non-root participant's parent is on the same socket, except the socket
        // roots themselves.
        for (sidx, group) in groups.iter().enumerate() {
            for &w in &group[1..] {
                let p = s.parent(w).unwrap();
                assert!(
                    groups[sidx].contains(&p),
                    "worker {w} on socket {sidx} has remote parent {p}"
                );
            }
        }
    }

    #[test]
    fn topology_aware_fewer_threads_than_cores() {
        let topo = Topology::synthetic(2, 4).unwrap();
        let s = TreeShape::topology_aware(&topo, 3, 4);
        assert!(s.validate());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn release_tree_propagates_to_all() {
        let shape = TreeShape::uniform(8, 2);
        let rel = Arc::new(TreeRelease::new(shape));
        let policy = WaitPolicy::oversubscribed();
        let mut handles = Vec::new();
        for id in 1..8 {
            let rel = rel.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=20u64 {
                    rel.wait_and_forward(id, epoch, &policy);
                }
            }));
        }
        for epoch in 1..=20u64 {
            rel.signal_root(epoch);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn join_tree_collects_all_arrivals() {
        let shape = TreeShape::uniform(8, 4);
        let join = Arc::new(TreeJoin::new(shape));
        let policy = WaitPolicy::oversubscribed();
        let mut handles = Vec::new();
        for id in 1..8 {
            let join = join.clone();
            handles.push(std::thread::spawn(move || {
                for epoch in 1..=20u64 {
                    join.arrive(id, epoch, &policy);
                }
            }));
        }
        for epoch in 1..=20u64 {
            let mut combined = 0usize;
            join.arrive_and_combine(0, epoch, &policy, |_| combined += 1);
            assert_eq!(combined, join.shape().children(0).len());
            assert!(join.has_arrived(0, epoch));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn combine_hook_sees_each_child_exactly_once() {
        // Single threaded: a 1-participant tree immediately "arrives".
        let join = TreeJoin::new(TreeShape::uniform(1, 4));
        let mut calls = 0;
        join.arrive_and_combine(0, 1, &WaitPolicy::default(), |_| calls += 1);
        assert_eq!(calls, 0);
        assert!(join.has_arrived(0, 1));
    }

    #[test]
    fn release_poll_and_forward() {
        let rel = TreeRelease::new(TreeShape::uniform(3, 2));
        assert!(!rel.poll(1, 1));
        rel.signal_root(1);
        assert!(rel.poll(1, 1));
        rel.forward(1, 1);
        assert!(rel.poll(2, 1) || !rel.shape().children(1).contains(&2) || rel.poll(2, 1));
    }
}
