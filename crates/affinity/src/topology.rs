//! Machine topology model: sockets × cores.
//!
//! The tree barrier of the fine-grain scheduler is "tuned to the organisation of the
//! evaluation machine" (paper §2): threads on the same socket are grouped under the same
//! subtree so that most arrival/release traffic stays inside a socket.  To make that
//! tuning testable without the paper's 4-socket machine, a [`Topology`] can either be
//! detected from the running system or constructed synthetically.

use crate::CpuSet;
use serde::{Deserialize, Serialize};

/// Identifier of a socket (package) in the machine.
pub type SocketId = usize;
/// Identifier of a logical core in the machine.
pub type CoreId = usize;

/// Error produced while constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A synthetic topology was requested with zero sockets or zero cores per socket.
    Empty,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Empty => {
                write!(f, "topology must have at least one socket and one core")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// How worker threads are laid out over the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinPolicy {
    /// Do not pin threads at all.
    None,
    /// Fill sockets one at a time (thread *i* goes to core *i* in socket-major order).
    /// This is the layout the paper uses (`KMP_AFFINITY=compact`-style, no hyper-threads).
    Compact,
    /// Round-robin threads over sockets (thread *i* goes to socket *i mod S*).
    Scatter,
}

/// A description of the machine as a list of sockets, each holding a contiguous group of
/// logical cores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// `sockets[s]` is the list of core ids belonging to socket `s`.
    sockets: Vec<Vec<CoreId>>,
}

impl Topology {
    /// Builds a synthetic topology of `sockets × cores_per_socket` cores, numbered
    /// socket-major (socket 0 holds cores `0..cores_per_socket`, and so on).
    pub fn synthetic(sockets: usize, cores_per_socket: usize) -> Result<Self, TopologyError> {
        if sockets == 0 || cores_per_socket == 0 {
            return Err(TopologyError::Empty);
        }
        let sockets = (0..sockets)
            .map(|s| (s * cores_per_socket..(s + 1) * cores_per_socket).collect())
            .collect();
        Ok(Topology { sockets })
    }

    /// The paper's evaluation machine: a 4-socket Intel Xeon E7-4860 v2 with 12 physical
    /// cores per socket (48 cores, hyper-threads unused).
    pub fn paper_machine() -> Self {
        Self::synthetic(4, 12).expect("paper machine shape is non-empty")
    }

    /// Builds a single-socket topology with `cores` cores.
    pub fn flat(cores: usize) -> Result<Self, TopologyError> {
        Self::synthetic(1, cores)
    }

    /// Detects the topology of the running machine.
    ///
    /// On Linux this reads `/sys/devices/system/cpu/cpu*/topology/physical_package_id`.
    /// Offline CPUs (whose `topology` group the kernel removes) are skipped.  If the
    /// information is absent (other platforms, stripped-down CI containers) or
    /// **malformed** — an online CPU's `topology` directory lacks a parseable package
    /// id — it falls back to a single flat socket containing
    /// [`host_cpus`](crate::host_cpus) cores rather than misreporting a partial
    /// machine.  This function never panics.
    pub fn detect() -> Self {
        Self::detect_from_sysfs(std::path::Path::new("/sys/devices/system/cpu"))
            .unwrap_or_else(Self::fallback_flat)
    }

    /// The flat single-socket fallback shape used when `/sys` detection is unusable.
    fn fallback_flat() -> Self {
        Self::flat(crate::host_cpus()).expect("host_cpus() >= 1")
    }

    /// Reads the socket layout from a sysfs-style directory tree.  Returns `None` —
    /// signalling the flat fallback — when no CPU describes its socket, or when any
    /// online CPU's description is malformed (a `topology` directory without a
    /// parseable `physical_package_id`): a partial answer would silently misreport the
    /// machine, which is worse than no answer.  `cpuN` directories with no `topology`
    /// group at all are *offline* CPUs (the kernel removes the group on offline) and
    /// are skipped, so an offlined SMT sibling does not disable detection.
    fn detect_from_sysfs(root: &std::path::Path) -> Option<Self> {
        let mut by_socket: std::collections::BTreeMap<usize, Vec<CoreId>> =
            std::collections::BTreeMap::new();
        let entries = std::fs::read_dir(root).ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            // Only `cpuN` directories describe cores (`cpufreq`, `cpuidle`, ... do not).
            let Some(rest) = name.strip_prefix("cpu") else {
                continue;
            };
            let Ok(cpu_id) = rest.parse::<usize>() else {
                continue;
            };
            let topo_dir = entry.path().join("topology");
            if !topo_dir.is_dir() {
                continue; // offline CPU: no topology group
            }
            let pkg = std::fs::read_to_string(topo_dir.join("physical_package_id")).ok()?;
            let pkg = pkg.trim().parse::<usize>().ok()?;
            by_socket.entry(pkg).or_default().push(cpu_id);
        }
        if by_socket.is_empty() {
            return None;
        }
        let mut sockets: Vec<Vec<CoreId>> = by_socket.into_values().collect();
        for s in &mut sockets {
            s.sort_unstable();
        }
        Some(Topology { sockets })
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Total number of logical cores.
    pub fn num_cores(&self) -> usize {
        self.sockets.iter().map(|s| s.len()).sum()
    }

    /// Number of cores in the first socket (all sockets are assumed homogeneous for
    /// tuning purposes; detection keeps the true per-socket lists).
    pub fn cores_per_socket(&self) -> usize {
        self.sockets.first().map(|s| s.len()).unwrap_or(0)
    }

    /// The core ids belonging to socket `s`.
    pub fn socket_cores(&self, s: SocketId) -> &[CoreId] {
        &self.sockets[s]
    }

    /// The socket a given core belongs to, if it exists in the topology.
    pub fn socket_of(&self, core: CoreId) -> Option<SocketId> {
        self.sockets.iter().position(|cores| cores.contains(&core))
    }

    /// Returns `true` if the two cores share a socket.
    pub fn same_socket(&self, a: CoreId, b: CoreId) -> bool {
        match (self.socket_of(a), self.socket_of(b)) {
            (Some(sa), Some(sb)) => sa == sb,
            _ => false,
        }
    }

    /// Maps the logical worker index `worker` (0-based, `0..nthreads`) to the core it
    /// should be pinned to under the given policy, or `None` for [`PinPolicy::None`].
    pub fn core_for_worker(&self, worker: usize, policy: PinPolicy) -> Option<CoreId> {
        let ncores = self.num_cores();
        if ncores == 0 {
            return None;
        }
        match policy {
            PinPolicy::None => None,
            PinPolicy::Compact => {
                // Socket-major enumeration of cores, wrapping around when oversubscribed.
                let flat: Vec<CoreId> = self.sockets.iter().flatten().copied().collect();
                Some(flat[worker % flat.len()])
            }
            PinPolicy::Scatter => {
                let s = worker % self.num_sockets();
                let idx = (worker / self.num_sockets()) % self.sockets[s].len();
                Some(self.sockets[s][idx])
            }
        }
    }

    /// The CPU set covering a whole socket.
    pub fn socket_cpuset(&self, s: SocketId) -> CpuSet {
        self.sockets[s].iter().copied().collect()
    }

    /// Suggested fan of the scheduler's barrier tree, for both phases: the MCS
    /// recommendation of fan-in 4, never exceeding the number of cores per socket so
    /// that each subtree stays socket-local.  MCS recommend a binary wakeup tree, but a
    /// release store is far cheaper than the cache-line transfer it triggers, so a
    /// wakeup tree with the arrival side's fan releases the last worker sooner.
    pub fn suggested_arrival_fanin(&self) -> usize {
        4usize.clamp(2, self.cores_per_socket().max(2))
    }

    /// Worker-index groups per socket for a team of `nthreads` threads laid out with
    /// [`PinPolicy::Compact`]: `groups[s]` lists the worker indices whose core lives on
    /// socket `s`.  Used to build socket-aware barrier trees.
    pub fn worker_groups(&self, nthreads: usize) -> Vec<Vec<usize>> {
        let cps = self.cores_per_socket().max(1);
        let nsockets = self.num_sockets().max(1);
        let mut groups = vec![Vec::new(); nsockets];
        for w in 0..nthreads {
            let s = (w / cps) % nsockets;
            groups[s].push(w);
        }
        groups
    }

    /// The socket that worker index `worker` occupies under the compact layout —
    /// the same `(worker / cores_per_socket) % sockets` rule [`Topology::worker_groups`]
    /// and the hierarchical barrier use, so every layer classifies a worker pair as
    /// local or remote identically.
    pub fn socket_of_worker(&self, worker: usize) -> SocketId {
        let cps = self.cores_per_socket().max(1);
        (worker / cps) % self.num_sockets().max(1)
    }

    /// NUMA tier distance between two compactly placed workers: `0` when they share a
    /// socket, `1` when a cache line between them crosses the interconnect.  (The
    /// machines modelled here have a flat socket interconnect, so every remote pair is
    /// one tier apart; a deeper hierarchy would extend this.)
    pub fn worker_tier_distance(&self, a: usize, b: usize) -> usize {
        usize::from(self.socket_of_worker(a) != self.socket_of_worker(b))
    }

    /// The steal-victim tiers of `worker` in a compactly placed team of `nthreads`:
    /// `tiers[0]` lists the same-socket peers (the cheap victims), and each following
    /// tier lists one remote socket's workers, remote sockets in ring order starting
    /// from the worker's own.  `worker` itself is never listed, and empty tiers are
    /// dropped, so a sweep can walk the tiers outward and fall back to the next one
    /// only when the current tier is dry.
    pub fn victim_tiers(&self, worker: usize, nthreads: usize) -> Vec<Vec<usize>> {
        let groups = self.worker_groups(nthreads);
        let nsockets = groups.len();
        let home = self.socket_of_worker(worker);
        let mut tiers = Vec::with_capacity(nsockets);
        for step in 0..nsockets {
            let s = (home + step) % nsockets;
            let tier: Vec<usize> = groups[s].iter().copied().filter(|&w| w != worker).collect();
            if !tier.is_empty() {
                tiers.push(tier);
            }
        }
        tiers
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_rejects_empty() {
        assert_eq!(Topology::synthetic(0, 4), Err(TopologyError::Empty));
        assert_eq!(Topology::synthetic(4, 0), Err(TopologyError::Empty));
    }

    #[test]
    fn synthetic_core_numbering_is_socket_major() {
        let t = Topology::synthetic(2, 3).unwrap();
        assert_eq!(t.socket_cores(0), &[0, 1, 2]);
        assert_eq!(t.socket_cores(1), &[3, 4, 5]);
        assert_eq!(t.socket_of(4), Some(1));
        assert_eq!(t.socket_of(99), None);
        assert!(t.same_socket(0, 2));
        assert!(!t.same_socket(2, 3));
    }

    #[test]
    fn compact_policy_fills_socket_first() {
        let t = Topology::synthetic(2, 2).unwrap();
        let cores: Vec<_> = (0..4)
            .map(|w| t.core_for_worker(w, PinPolicy::Compact).unwrap())
            .collect();
        assert_eq!(cores, vec![0, 1, 2, 3]);
        // Oversubscription wraps around.
        assert_eq!(t.core_for_worker(4, PinPolicy::Compact), Some(0));
    }

    #[test]
    fn scatter_policy_round_robins_sockets() {
        let t = Topology::synthetic(2, 2).unwrap();
        let cores: Vec<_> = (0..4)
            .map(|w| t.core_for_worker(w, PinPolicy::Scatter).unwrap())
            .collect();
        assert_eq!(cores, vec![0, 2, 1, 3]);
    }

    #[test]
    fn none_policy_returns_none() {
        let t = Topology::synthetic(1, 4).unwrap();
        assert_eq!(t.core_for_worker(0, PinPolicy::None), None);
    }

    #[test]
    fn worker_groups_cover_all_workers() {
        let t = Topology::paper_machine();
        let groups = t.worker_groups(48);
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.len() == 12));
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn socket_of_worker_matches_worker_groups() {
        for (sockets, cores) in [(1usize, 4usize), (2, 4), (4, 8), (4, 12)] {
            let t = Topology::synthetic(sockets, cores).unwrap();
            let nthreads = sockets * cores;
            for (s, group) in t.worker_groups(nthreads).iter().enumerate() {
                for &w in group {
                    assert_eq!(t.socket_of_worker(w), s, "{sockets}x{cores} worker {w}");
                }
            }
        }
    }

    #[test]
    fn tier_distance_is_zero_within_a_socket_and_one_across() {
        let t = Topology::synthetic(2, 4).unwrap();
        assert_eq!(t.worker_tier_distance(0, 3), 0);
        assert_eq!(t.worker_tier_distance(0, 4), 1);
        assert_eq!(t.worker_tier_distance(5, 7), 0);
        assert_eq!(t.worker_tier_distance(5, 2), 1);
    }

    #[test]
    fn victim_tiers_are_local_first_cover_everyone_and_skip_self() {
        let t = Topology::synthetic(4, 8).unwrap();
        for worker in 0..32 {
            let tiers = t.victim_tiers(worker, 32);
            // Local tier: the 7 same-socket peers.
            assert_eq!(tiers[0].len(), 7);
            assert!(tiers[0]
                .iter()
                .all(|&v| t.worker_tier_distance(worker, v) == 0));
            // Remote tiers: one per other socket, all cross-socket.
            for tier in &tiers[1..] {
                assert_eq!(tier.len(), 8);
                assert!(tier.iter().all(|&v| t.worker_tier_distance(worker, v) == 1));
            }
            let mut all: Vec<usize> = tiers.into_iter().flatten().collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..32).filter(|&w| w != worker).collect();
            assert_eq!(all, expected, "worker {worker}");
        }
    }

    #[test]
    fn victim_tiers_drop_empty_tiers_on_small_teams() {
        // 3 workers on a 2x4 machine all land on socket 0: one local tier, no remote.
        let t = Topology::synthetic(2, 4).unwrap();
        let tiers = t.victim_tiers(0, 3);
        assert_eq!(tiers, vec![vec![1, 2]]);
        // A lone worker has no victims at all.
        assert!(t.victim_tiers(0, 1).is_empty());
        // 5 workers spill one onto socket 1: that worker's local tier is empty and
        // dropped, so its first (and only) tier is the remote socket.
        let tiers = t.victim_tiers(4, 5);
        assert_eq!(tiers, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn suggested_fanin_is_bounded() {
        let t = Topology::paper_machine();
        assert_eq!(t.suggested_arrival_fanin(), 4);
        let small = Topology::flat(2).unwrap();
        assert!(small.suggested_arrival_fanin() >= 2);
    }

    #[test]
    fn socket_cpuset_contains_socket_cores() {
        let t = Topology::synthetic(2, 3).unwrap();
        let s1 = t.socket_cpuset(1);
        assert_eq!(s1.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn detect_does_not_panic() {
        let t = Topology::detect();
        assert!(t.num_cores() >= 1);
        assert!(t.cores_per_socket() >= 1);
    }

    /// One CPU entry of a fake sysfs tree.
    enum FakeCpu {
        /// Online CPU with a `topology/physical_package_id` file.
        Online(usize, usize),
        /// Offline CPU: the directory exists but has no `topology` group.
        Offline(usize),
        /// Malformed entry: a `topology` directory without a package-id file.
        Malformed(usize),
    }

    /// Builds a sysfs-style tree under a fresh temp directory.
    fn fake_sysfs(name: &str, cpus: &[FakeCpu]) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("parlo_affinity_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for cpu in cpus {
            match *cpu {
                FakeCpu::Online(id, pkg) => {
                    let topo_dir = root.join(format!("cpu{id}/topology"));
                    std::fs::create_dir_all(&topo_dir).unwrap();
                    std::fs::write(topo_dir.join("physical_package_id"), format!("{pkg}\n"))
                        .unwrap();
                }
                FakeCpu::Offline(id) => {
                    std::fs::create_dir_all(root.join(format!("cpu{id}"))).unwrap();
                }
                FakeCpu::Malformed(id) => {
                    std::fs::create_dir_all(root.join(format!("cpu{id}/topology"))).unwrap();
                }
            }
        }
        // Non-core entries a real /sys also contains must be ignored.
        std::fs::create_dir_all(root.join("cpufreq")).unwrap();
        root
    }

    #[test]
    fn sysfs_detection_reads_complete_topologies() {
        let root = fake_sysfs(
            "complete",
            &[
                FakeCpu::Online(0, 0),
                FakeCpu::Online(1, 0),
                FakeCpu::Online(2, 1),
                FakeCpu::Online(3, 1),
            ],
        );
        let t = Topology::detect_from_sysfs(&root).expect("complete topology detected");
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.socket_cores(0), &[0, 1]);
        assert_eq!(t.socket_cores(1), &[2, 3]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sysfs_detection_falls_back_when_files_are_absent() {
        // Missing root directory (no /sys at all): fall back.
        let missing = std::env::temp_dir().join("parlo_affinity_does_not_exist");
        assert_eq!(Topology::detect_from_sysfs(&missing), None);
        // CPU directories exist but none carries a topology group (the stripped-down
        // CI-container case).
        let root = fake_sysfs("no_ids", &[FakeCpu::Offline(0), FakeCpu::Offline(1)]);
        assert_eq!(Topology::detect_from_sysfs(&root), None);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sysfs_detection_rejects_malformed_topologies() {
        // An online CPU with a topology group but no parseable package id: a partial
        // answer would misreport the machine, so detection must fall back instead.
        let root = fake_sysfs(
            "malformed",
            &[
                FakeCpu::Online(0, 0),
                FakeCpu::Malformed(1),
                FakeCpu::Online(2, 1),
            ],
        );
        assert_eq!(Topology::detect_from_sysfs(&root), None);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sysfs_detection_skips_offline_cpus() {
        // An offline CPU (no topology group) must not disable detection: the online
        // CPUs still describe a correct two-socket machine.
        let root = fake_sysfs(
            "offline",
            &[
                FakeCpu::Online(0, 0),
                FakeCpu::Offline(1),
                FakeCpu::Online(2, 1),
            ],
        );
        let t = Topology::detect_from_sysfs(&root).expect("online CPUs detected");
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.socket_cores(0), &[0]);
        assert_eq!(t.socket_cores(1), &[2]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fallback_flat_is_single_socket() {
        let t = Topology::fallback_flat();
        assert_eq!(t.num_sockets(), 1);
        assert!(t.num_cores() >= 1);
    }
}
