//! Analytic latency model of the barrier phases.
//!
//! The model walks a [`TreeShape`] — the flat MCS tree of the paper, socket-local
//! subtrees under one global root — or the socket-composed structure the runtime
//! builds, and computes the critical-path latency of each phase:
//!
//! * **release (wakeup) phase**: a parent writes its children's flags one after another
//!   (a store each); a child observes its flag after one cache-line transfer and then
//!   forwards to its own children.  The phase latency is the time until the *last*
//!   participant is released.
//! * **join (arrival) phase**: a leaf publishes its flag; a parent can publish its own
//!   only after it has observed (one transfer each, checked sequentially) all of its
//!   children.  The phase latency is the time until the root has observed all arrivals.
//!
//! The centralized variants replace the tree with a single broadcast word (release) and
//! a single contended counter whose updates serialise (join) — constant critical path
//! for the release, linear for the join, which is exactly why the tree wins at scale
//! and why the paper tunes the tree to the socket organisation.

use crate::machine::SimMachine;
use parlo_affinity::Topology;

/// The static structure of an MCS-style synchronization tree over participants `0..n`,
/// with participant 0 (the master) at the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    children: Vec<Vec<usize>>,
}

impl TreeShape {
    /// A topology-aware tree for `n` participants laid out compactly over `topology`:
    /// participants on the same socket form a socket-local heap-ordered subtree with
    /// the given `fan`, and the remote socket-subtree roots are children of
    /// participant 0, so only one signal per remote socket crosses the interconnect.
    pub fn topology_aware(topology: &Topology, n: usize, fan: usize) -> Self {
        assert!(n > 0, "a tree needs at least one participant");
        let fan = fan.max(1);
        let mut children = vec![Vec::new(); n];
        let mut socket_roots = Vec::new();
        for group in topology.worker_groups(n).iter().filter(|g| !g.is_empty()) {
            socket_roots.push(group[0]);
            for (local_idx, &member) in group.iter().enumerate().skip(1) {
                children[group[(local_idx - 1) / fan]].push(member);
            }
        }
        children[0].extend(socket_roots.into_iter().filter(|&root| root != 0));
        TreeShape { children }
    }

    /// The children of participant `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }
}

/// Latency (ns) of the centralized release phase for `nthreads` participants: the last
/// worker to observe the new epoch is on a remote socket once more than one socket is
/// populated, and each additional sharer adds a small serialisation term at the
/// directory.
pub fn centralized_release_ns(m: &SimMachine, nthreads: usize) -> f64 {
    if nthreads <= 1 {
        return 0.0;
    }
    let sockets = m.sockets_spanned(nthreads);
    let farthest = if sockets > 1 {
        m.cost.line_inter_ns
    } else {
        m.cost.line_intra_ns
    };
    m.cost.release_store_ns + farthest + 2.0 * (nthreads as f64 - 1.0)
}

/// Latency (ns) of the centralized join phase: `nthreads − 1` read-modify-writes on the
/// same cache line serialise; the line ping-pongs between sockets for remote workers.
pub fn centralized_join_ns(m: &SimMachine, nthreads: usize) -> f64 {
    (1..nthreads).map(|w| m.rmw_ns(w)).sum::<f64>()
        + if nthreads > 1 {
            m.cost.line_intra_ns
        } else {
            0.0
        }
}

/// Latency (ns) of the tree release phase over `shape`.
pub fn tree_release_ns(m: &SimMachine, shape: &TreeShape) -> f64 {
    fn released_at(m: &SimMachine, shape: &TreeShape, node: usize, start: f64) -> f64 {
        // `start` is the time at which `node` begins forwarding to its children.
        let mut latest = start;
        for (k, &c) in shape.children(node).iter().enumerate() {
            // The parent issues one store per child, sequentially; the child observes it
            // one transfer later and then forwards to its own children.
            let child_released =
                start + (k as f64 + 1.0) * m.cost.release_store_ns + m.transfer_ns(node, c);
            latest = latest.max(released_at(m, shape, c, child_released));
        }
        latest
    }
    released_at(m, shape, 0, 0.0)
}

/// Latency (ns) of the tree join phase over `shape`: time until the root has observed
/// every arrival (and performed any per-child combine, not included here).
pub fn tree_join_ns(m: &SimMachine, shape: &TreeShape) -> f64 {
    fn arrival_visible_at(m: &SimMachine, shape: &TreeShape, node: usize) -> f64 {
        // Time at which `node`'s own arrival flag becomes visible to its parent.
        let mut ready = 0.0f64;
        for &c in shape.children(node) {
            // The parent checks children sequentially; each check costs one transfer of
            // the child's flag line (plus a spin check).
            let child_visible = arrival_visible_at(m, shape, c) + m.transfer_ns(c, node);
            ready = ready.max(child_visible) + m.cost.spin_check_ns;
        }
        ready + m.cost.release_store_ns
    }
    arrival_visible_at(m, shape, 0)
}

/// Builds the paper's topology-aware MCS tree for `nthreads` threads.
pub fn runtime_shape(m: &SimMachine, nthreads: usize) -> TreeShape {
    TreeShape::topology_aware(
        &m.topology,
        nthreads.max(1),
        m.topology.suggested_arrival_fanin(),
    )
}

// ----- hierarchical (socket-composed) half-barrier ------------------------------------
//
// Mirrors `parlo_barrier::HierarchicalHalfBarrier`: per populated socket one local
// tree with the suggested fan for both phases, one padded rendezvous line per remote
// socket, and the master storing the remote release lines *before* fanning out locally,
// so the highest-latency signals leave earliest.

/// The non-empty worker groups (socket membership lists) of `nthreads` compactly
/// placed threads.
fn populated_groups(m: &SimMachine, nthreads: usize) -> Vec<Vec<usize>> {
    m.topology
        .worker_groups(nthreads.max(1))
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect()
}

/// Latency (ns) until the last member of a socket-local release tree of `size`
/// participants (heap-shaped, fan-out `fanout`, all intra-socket) has been released,
/// measured from the moment the local root starts forwarding.
fn local_release_ns(m: &SimMachine, size: usize, fanout: usize) -> f64 {
    fn released_at(m: &SimMachine, size: usize, fanout: usize, node: usize, start: f64) -> f64 {
        let mut latest = start;
        for k in 0..fanout {
            let child = fanout * node + 1 + k;
            if child >= size {
                break;
            }
            // One store per child, issued sequentially; the child observes it one
            // intra-socket transfer later.
            let child_start =
                start + (k as f64 + 1.0) * m.cost.release_store_ns + m.cost.line_intra_ns;
            latest = latest.max(released_at(m, size, fanout, child, child_start));
        }
        latest
    }
    released_at(m, size, fanout, 0, 0.0)
}

/// Latency (ns) until a socket-local arrival tree of `size` participants (heap-shaped,
/// fan-in `fanin`, all intra-socket) has folded every arrival into its local root and
/// the root has published its own flag.
fn local_join_ns(m: &SimMachine, size: usize, fanin: usize) -> f64 {
    fn visible_at(m: &SimMachine, size: usize, fanin: usize, node: usize) -> f64 {
        let mut ready = 0.0f64;
        for k in 0..fanin {
            let child = fanin * node + 1 + k;
            if child >= size {
                break;
            }
            let child_visible = visible_at(m, size, fanin, child) + m.cost.line_intra_ns;
            ready = ready.max(child_visible) + m.cost.spin_check_ns;
        }
        ready + m.cost.release_store_ns
    }
    visible_at(m, size, fanin, 0)
}

/// Latency (ns) of the hierarchical release phase: the master stores one padded
/// per-socket line per remote socket first, then every socket (the master's own
/// included) fans the release out locally with the suggested fan.
pub fn hierarchical_release_ns(m: &SimMachine, nthreads: usize) -> f64 {
    let groups = populated_groups(m, nthreads);
    let fanout = m.topology.suggested_arrival_fanin();
    let remote = groups.len().saturating_sub(1) as f64;
    let mut latest = 0.0f64;
    for (g, group) in groups.iter().enumerate() {
        let root_released = if g == 0 {
            // The master fans out locally only after its remote stores have been issued.
            remote * m.cost.release_store_ns
        } else {
            g as f64 * m.cost.release_store_ns + m.cost.line_inter_ns
        };
        latest = latest.max(root_released + local_release_ns(m, group.len(), fanout));
    }
    latest
}

/// Latency (ns) of the hierarchical join phase: socket-local arrival trees drain in
/// parallel, each remote root publishes its socket's single rendezvous line, and the
/// master performs one collection pass (local children first, then the per-socket
/// lines).
pub fn hierarchical_join_ns(m: &SimMachine, nthreads: usize) -> f64 {
    let groups = populated_groups(m, nthreads);
    let fanin = m.topology.suggested_arrival_fanin();
    // Time until the master has folded its own socket's arrivals.
    let mut ready = local_join_ns(m, groups[0].len(), fanin);
    // The single cross-socket rendezvous: one padded line per remote socket, checked
    // sequentially.
    for group in groups.iter().skip(1) {
        let socket_visible = local_join_ns(m, group.len(), fanin) + m.cost.line_inter_ns;
        ready = ready.max(socket_visible) + m.cost.spin_check_ns;
    }
    ready
}

/// Latency of one half-barrier loop (release + join) with the hierarchical structure.
pub fn hierarchical_half_barrier_ns(m: &SimMachine, nthreads: usize) -> f64 {
    hierarchical_release_ns(m, nthreads) + hierarchical_join_ns(m, nthreads)
}

/// Latency of one work-stealing loop's completion synchronization: the stealing pool
/// reuses the **hierarchical half-barrier unchanged** for its release and join phases
/// (per-worker deques replace the work distribution, not the synchronization), so its
/// barrier term is identical to the fine-grain pool's hierarchical cost.  The extra
/// burden of stealing — deque seeding, owner pops, the idle-tail steal traffic — is
/// modelled on top of this in `scheduler_model`.
pub fn steal_half_barrier_ns(m: &SimMachine, nthreads: usize) -> f64 {
    hierarchical_half_barrier_ns(m, nthreads)
}

/// Latency of one half-barrier loop (release + join) with the tree structure.
pub fn tree_half_barrier_ns(m: &SimMachine, nthreads: usize) -> f64 {
    let shape = runtime_shape(m, nthreads);
    tree_release_ns(m, &shape) + tree_join_ns(m, &shape)
}

/// Latency of one half-barrier loop with the centralized structure.
pub fn centralized_half_barrier_ns(m: &SimMachine, nthreads: usize) -> f64 {
    centralized_release_ns(m, nthreads) + centralized_join_ns(m, nthreads)
}

/// Latency of a conventional two-full-barrier loop with the tree structure.
pub fn tree_full_barrier_loop_ns(m: &SimMachine, nthreads: usize) -> f64 {
    let shape = runtime_shape(m, nthreads);
    2.0 * (tree_join_ns(m, &shape) + tree_release_ns(m, &shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_barriers_are_free() {
        let m = SimMachine::paper_machine();
        assert_eq!(centralized_release_ns(&m, 1), 0.0);
        assert_eq!(centralized_join_ns(&m, 1), 0.0);
        let shape = runtime_shape(&m, 1);
        assert!(tree_release_ns(&m, &shape) < 1e-9);
        // A single node still "publishes" once in the join model.
        assert!(tree_join_ns(&m, &shape) <= m.cost.release_store_ns + 1e-9);
    }

    #[test]
    fn costs_grow_with_thread_count() {
        let m = SimMachine::paper_machine();
        let mut prev_half = 0.0;
        for p in [2usize, 4, 8, 16, 32, 48] {
            let half = tree_half_barrier_ns(&m, p);
            assert!(
                half > prev_half * 0.8,
                "tree half barrier should roughly grow"
            );
            prev_half = half;
            assert!(centralized_join_ns(&m, p) > centralized_join_ns(&m, p - 1));
        }
    }

    #[test]
    fn half_barrier_is_cheaper_than_full_barrier() {
        let m = SimMachine::paper_machine();
        for p in [2usize, 8, 24, 48] {
            assert!(
                tree_half_barrier_ns(&m, p) < tree_full_barrier_loop_ns(&m, p),
                "half must beat full at P={p}"
            );
            // A full-barrier loop is exactly twice the half-barrier loop in this model.
            let ratio = tree_full_barrier_loop_ns(&m, p) / tree_half_barrier_ns(&m, p);
            assert!((ratio - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hierarchical_half_barrier_is_no_worse_than_the_flat_tree() {
        let m = SimMachine::paper_machine();
        for p in [1usize, 2, 8, 12, 13, 24, 48] {
            let hier = hierarchical_half_barrier_ns(&m, p);
            let flat = tree_half_barrier_ns(&m, p);
            assert!(
                hier <= flat + 1e-9,
                "hierarchical must not regress the flat tree at P={p}: {hier} vs {flat}"
            );
        }
        // Once several sockets are populated the remote-first release ordering is a
        // strict win.
        assert!(
            hierarchical_half_barrier_ns(&m, 48) < tree_half_barrier_ns(&m, 48),
            "at 48 threads the hierarchy must be strictly cheaper"
        );
    }

    #[test]
    fn hierarchical_costs_grow_with_thread_count() {
        let m = SimMachine::paper_machine();
        let mut prev = 0.0;
        for p in [2usize, 4, 8, 16, 32, 48] {
            let half = hierarchical_half_barrier_ns(&m, p);
            assert!(half > prev * 0.8, "hierarchical half barrier roughly grows");
            prev = half;
        }
        // Single thread: a release phase with nothing to signal and a join with
        // nothing to collect.
        assert!(hierarchical_half_barrier_ns(&m, 1) <= 2.0 * m.cost.release_store_ns + 1e-9);
    }

    #[test]
    fn steal_completion_matches_the_hierarchical_half_barrier() {
        let m = SimMachine::paper_machine();
        for p in [1usize, 2, 8, 48] {
            assert_eq!(
                steal_half_barrier_ns(&m, p),
                hierarchical_half_barrier_ns(&m, p),
                "the stealing pool reuses the hierarchical half-barrier at P={p}"
            );
        }
    }

    #[test]
    fn tree_beats_centralized_at_scale() {
        let m = SimMachine::paper_machine();
        assert!(
            tree_half_barrier_ns(&m, 48) < centralized_half_barrier_ns(&m, 48),
            "at 48 threads the linear join of the centralized barrier must dominate"
        );
    }

    #[test]
    fn centralized_release_is_cheap_and_join_is_linear() {
        let m = SimMachine::paper_machine();
        let j12 = centralized_join_ns(&m, 12);
        let j48 = centralized_join_ns(&m, 48);
        assert!(j48 > 3.0 * j12, "join cost must grow roughly linearly");
        let r12 = centralized_release_ns(&m, 12);
        let r48 = centralized_release_ns(&m, 48);
        assert!(r48 < 4.0 * r12.max(1.0), "release cost grows only mildly");
        assert!(
            r48 < j48,
            "the broadcast release is far cheaper than the counter join"
        );
    }
}
