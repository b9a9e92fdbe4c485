//! Scheduler configuration.

use parlo_affinity::{PinPolicy, PlacementConfig, Topology};
use parlo_barrier::WaitPolicy;

/// Which synchronization structure the pool uses per parallel loop: the three
/// fine-grain rows of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Half-barrier (release-only fork + join-only completion) over the socket-composed
    /// MCS-style tree ([`parlo_barrier::HierarchicalHalfBarrier`]) tuned to the
    /// machine topology.  The paper's "fine-grain tree" configuration — the default
    /// and the fastest.
    TreeHalf,
    /// Half-barrier over a single release word and a single arrival counter.  The
    /// paper's "fine-grain centralized" configuration.
    CentralizedHalf,
    /// Two *full* tree barriers per loop (fork and join), i.e. the same pool without
    /// the half-barrier optimisation.  The paper's "fine-grain tree with full-barrier"
    /// configuration, used to isolate the benefit of dropping the redundant phases.
    TreeFull,
}

impl BarrierKind {
    /// All configurations, in the order Table 1 lists the fine-grain variants.
    pub const ALL: [BarrierKind; 3] = [
        BarrierKind::TreeHalf,
        BarrierKind::CentralizedHalf,
        BarrierKind::TreeFull,
    ];

    /// Short human-readable label used by the benchmark harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            BarrierKind::TreeHalf => "fine-grain tree",
            BarrierKind::CentralizedHalf => "fine-grain centralized",
            BarrierKind::TreeFull => "fine-grain tree with full-barrier",
        }
    }

    /// Whether this configuration uses the half-barrier optimisation.
    pub fn is_half(&self) -> bool {
        matches!(self, BarrierKind::TreeHalf | BarrierKind::CentralizedHalf)
    }

    /// Whether this configuration uses a tree structure.
    pub fn is_tree(&self) -> bool {
        matches!(self, BarrierKind::TreeHalf | BarrierKind::TreeFull)
    }
}

/// Configuration of a [`crate::FineGrainPool`], built with [`Config::builder`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Total number of threads (master included). At least 1.
    pub num_threads: usize,
    /// Synchronization structure.
    pub barrier: BarrierKind,
    /// Machine topology used for tree layout and pinning.
    pub topology: Topology,
    /// Thread pinning policy.
    pub pin: PinPolicy,
    /// Waiting policy for all synchronization.  Defaults to
    /// [`WaitPolicy::auto_for`]: aggressive spin-then-yield when the thread count fits
    /// the hardware, [`WaitMode::Park`](parlo_barrier::WaitMode::Park) (bounded spin →
    /// yield → condvar park with wake-on-release) when oversubscribed; the `PARLO_WAIT`
    /// environment variable overrides the automatic choice.
    pub wait: WaitPolicy,
}

impl Default for Config {
    fn default() -> Self {
        let topology = Topology::detect();
        let num_threads = topology.num_cores().max(1);
        Config {
            num_threads,
            barrier: BarrierKind::TreeHalf,
            pin: PinPolicy::Compact,
            wait: WaitPolicy::auto_for(num_threads),
            topology,
        }
    }
}

impl Config {
    /// Starts building a configuration with `num_threads` threads and defaults for
    /// everything else.
    pub fn builder(num_threads: usize) -> ConfigBuilder {
        ConfigBuilder {
            config: Config {
                num_threads: num_threads.max(1),
                wait: WaitPolicy::auto_for(num_threads.max(1)),
                ..Config::default()
            },
        }
    }
}

/// Builder for [`Config`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Sets the synchronization structure.
    pub fn barrier(mut self, kind: BarrierKind) -> Self {
        self.config.barrier = kind;
        self
    }

    /// Sets the machine topology (and re-derives the wait policy suggestion).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Sets the pinning policy.
    pub fn pin(mut self, pin: PinPolicy) -> Self {
        self.config.pin = pin;
        self
    }

    /// Sets the waiting policy.
    pub fn wait(mut self, wait: WaitPolicy) -> Self {
        self.config.wait = wait;
        self
    }

    /// Does nothing: the socket-composed tree is the only tree, so there is no flat
    /// one to switch to.  The benchmark harness (`benchmark/src/layers.rs`) still
    /// calls it; the setter goes when that call does.
    #[doc(hidden)]
    pub fn hierarchical(self, _hierarchical: bool) -> Self {
        self
    }

    /// Applies a shared [`PlacementConfig`]: resolves its topology source and takes
    /// its pin policy.
    pub fn placement(mut self, placement: &PlacementConfig) -> Self {
        self.config.topology = placement.topology();
        self.config.pin = placement.pin;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Config {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = Config::default();
        assert!(c.num_threads >= 1);
        assert_eq!(c.barrier, BarrierKind::TreeHalf);
    }

    #[test]
    fn placement_sets_topology_and_pin() {
        let placement = PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::Scatter);
        let c = Config::builder(8).placement(&placement).build();
        assert_eq!(c.topology.num_sockets(), 2);
        assert_eq!(c.topology.cores_per_socket(), 4);
        assert_eq!(c.pin, PinPolicy::Scatter);
        let c = Config::builder(8)
            .placement(&PlacementConfig::paper_machine())
            .build();
        assert_eq!(c.topology.num_sockets(), 4);
    }

    #[test]
    fn builder_overrides() {
        let topo = Topology::synthetic(4, 12).unwrap();
        let c = Config::builder(8)
            .barrier(BarrierKind::CentralizedHalf)
            .topology(topo)
            .pin(PinPolicy::None)
            .build();
        assert_eq!(c.num_threads, 8);
        assert_eq!(c.barrier, BarrierKind::CentralizedHalf);
        assert_eq!(c.pin, PinPolicy::None);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let c = Config::builder(0).build();
        assert_eq!(c.num_threads, 1);
    }

    #[test]
    fn barrier_kind_properties() {
        assert!(BarrierKind::TreeHalf.is_half());
        assert!(BarrierKind::TreeHalf.is_tree());
        assert!(BarrierKind::CentralizedHalf.is_half());
        assert!(!BarrierKind::CentralizedHalf.is_tree());
        assert!(!BarrierKind::TreeFull.is_half());
        assert!(BarrierKind::TreeFull.is_tree());
        assert_eq!(BarrierKind::ALL.len(), 3);
        for k in BarrierKind::ALL {
            assert!(!k.label().is_empty());
        }
    }
}
