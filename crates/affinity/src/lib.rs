//! Machine topology description and thread pinning for the parlo runtime.
//!
//! The paper's evaluation methodology prescribes thread pinning and tunes its tree
//! barrier "to the organisation of our evaluation machine" (a 4-socket, 48-core Intel
//! Xeon E7-4860 v2).  This crate provides
//!
//! * [`Topology`] — a description of the machine as sockets × cores, either detected
//!   from the running system (`/sys` on Linux, falling back to [`host_cpus`]) or constructed synthetically (e.g. the
//!   paper's 4×12 machine) so schedulers and the cost-model simulator can be tuned to a
//!   machine that is not physically present;
//! * [`CpuSet`] — a small fixed-size CPU-mask abstraction;
//! * [`pin_to_core`] / [`pin_to_set`] — best-effort thread pinning via
//!   `sched_setaffinity` on Linux, a no-op elsewhere;
//! * [`PinPolicy`] — how worker threads of a pool are laid out over the machine
//!   (compact, scatter, or none);
//! * [`PlacementConfig`] / [`TopologySource`] — the shared placement configuration
//!   every scheduler in the workspace accepts: topology source (detect / paper machine
//!   / synthetic), pin policy, and whether synchronization is composed per socket.

#![warn(missing_docs)]

mod cpuset;
mod pin;
mod placement;
mod topology;

pub use cpuset::{CpuSet, MAX_CPUS};
pub use pin::{current_cpu, host_cpus, pin_to_core, pin_to_set, unpin, PinError};
pub use placement::{parse_pin_policy, PlacementConfig, TopologySource};
pub use topology::{CoreId, PinPolicy, SocketId, Topology, TopologyError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_topology_has_at_least_one_core() {
        let topo = Topology::detect();
        assert!(topo.num_cores() >= 1);
        assert!(topo.num_sockets() >= 1);
    }

    #[test]
    fn paper_machine_shape() {
        let topo = Topology::paper_machine();
        assert_eq!(topo.num_sockets(), 4);
        assert_eq!(topo.cores_per_socket(), 12);
        assert_eq!(topo.num_cores(), 48);
    }
}
