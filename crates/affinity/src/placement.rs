//! The shared worker-placement configuration.
//!
//! Every pool in the workspace (the fine-grain half-barrier pool, the OpenMP-like team,
//! the Cilk-like pool and the stealing pool) answers the same two questions at
//! construction time: *which machine shape am I tuned to* — the shape its barrier
//! tree is composed over, one subtree per socket — and *where do my workers run*.
//! [`PlacementConfig`] bundles those answers so the benchmark binaries, the
//! cross-runtime roster and the tests can thread one value through every scheduler
//! instead of configuring each pool ad hoc.
//!
//! The topology source is explicit ([`TopologySource`]) so CI can run the whole stack
//! on a **synthetic** machine shape: the hierarchy is then fully deterministic and its
//! structural invariants are unit-testable without multi-socket hardware.

use crate::{PinPolicy, Topology};

/// Where the machine shape comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySource {
    /// Detect the running machine (`/sys` on Linux, falling back to a single socket of
    /// [`host_cpus`](crate::host_cpus) cores).
    Detect,
    /// The paper's evaluation machine: 4 sockets × 12 cores.
    PaperMachine,
    /// A synthetic `sockets × cores_per_socket` machine.
    Synthetic {
        /// Number of sockets (≥ 1).
        sockets: usize,
        /// Cores per socket (≥ 1).
        cores_per_socket: usize,
    },
}

impl TopologySource {
    /// Builds the topology this source describes.
    pub fn resolve(&self) -> Topology {
        match *self {
            TopologySource::Detect => Topology::detect(),
            TopologySource::PaperMachine => Topology::paper_machine(),
            TopologySource::Synthetic {
                sockets,
                cores_per_socket,
            } => Topology::synthetic(sockets.max(1), cores_per_socket.max(1))
                .expect("clamped synthetic shape is non-empty"),
        }
    }

    /// Parses a `--topology` specification: `detect`, `paper`, or `SxC` (e.g. `2x4`
    /// for a synthetic 2-socket, 4-cores-per-socket machine).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "detect" => Ok(TopologySource::Detect),
            "paper" | "paper-machine" | "paper_machine" => Ok(TopologySource::PaperMachine),
            _ => {
                let (s, c) = spec
                    .split_once(['x', 'X'])
                    .ok_or_else(|| bad_topology(spec))?;
                let sockets: usize = s.trim().parse().map_err(|_| bad_topology(spec))?;
                let cores_per_socket: usize = c.trim().parse().map_err(|_| bad_topology(spec))?;
                if sockets == 0 || cores_per_socket == 0 {
                    return Err(bad_topology(spec));
                }
                Ok(TopologySource::Synthetic {
                    sockets,
                    cores_per_socket,
                })
            }
        }
    }
}

fn bad_topology(spec: &str) -> String {
    format!("invalid topology `{spec}`; expected `detect`, `paper`, or `SxC` (e.g. `2x4`)")
}

/// Parses a `--pin` specification: `compact`, `scatter`, or `none`.
pub fn parse_pin_policy(spec: &str) -> Result<PinPolicy, String> {
    match spec {
        "compact" => Ok(PinPolicy::Compact),
        "scatter" => Ok(PinPolicy::Scatter),
        "none" => Ok(PinPolicy::None),
        _ => Err(format!(
            "invalid pin policy `{spec}`; expected `compact`, `scatter`, or `none`"
        )),
    }
}

/// How a pool's workers are placed on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Where the machine shape comes from.
    pub source: TopologySource,
    /// How workers are pinned over that shape at spawn time.
    pub pin: PinPolicy,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            source: TopologySource::Detect,
            pin: PinPolicy::Compact,
        }
    }
}

impl PlacementConfig {
    /// Placement on the detected machine (compact pinning).
    pub fn detect() -> Self {
        Self::default()
    }

    /// Placement on the paper's 4×12 machine shape.
    pub fn paper_machine() -> Self {
        PlacementConfig {
            source: TopologySource::PaperMachine,
            ..Self::default()
        }
    }

    /// Placement on a synthetic `sockets × cores_per_socket` machine shape.
    pub fn synthetic(sockets: usize, cores_per_socket: usize) -> Self {
        PlacementConfig {
            source: TopologySource::Synthetic {
                sockets,
                cores_per_socket,
            },
            ..Self::default()
        }
    }

    /// Replaces the pin policy.
    pub fn with_pin(mut self, pin: PinPolicy) -> Self {
        self.pin = pin;
        self
    }

    /// Builds the topology the placement describes.
    pub fn topology(&self) -> Topology {
        self.source.resolve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_topology_specs() {
        assert_eq!(TopologySource::parse("detect"), Ok(TopologySource::Detect));
        assert_eq!(
            TopologySource::parse("paper"),
            Ok(TopologySource::PaperMachine)
        );
        assert_eq!(
            TopologySource::parse("paper-machine"),
            Ok(TopologySource::PaperMachine)
        );
        assert_eq!(
            TopologySource::parse("2x4"),
            Ok(TopologySource::Synthetic {
                sockets: 2,
                cores_per_socket: 4
            })
        );
        assert_eq!(
            TopologySource::parse("4X8"),
            Ok(TopologySource::Synthetic {
                sockets: 4,
                cores_per_socket: 8
            })
        );
        assert!(TopologySource::parse("").is_err());
        assert!(TopologySource::parse("2x").is_err());
        assert!(TopologySource::parse("x4").is_err());
        assert!(TopologySource::parse("0x4").is_err());
        assert!(TopologySource::parse("2x0").is_err());
        assert!(TopologySource::parse("banana").is_err());
    }

    #[test]
    fn parse_pin_specs() {
        assert_eq!(parse_pin_policy("compact"), Ok(PinPolicy::Compact));
        assert_eq!(parse_pin_policy("scatter"), Ok(PinPolicy::Scatter));
        assert_eq!(parse_pin_policy("none"), Ok(PinPolicy::None));
        assert!(parse_pin_policy("tight").is_err());
    }

    #[test]
    fn sources_resolve_to_expected_shapes() {
        let t = TopologySource::PaperMachine.resolve();
        assert_eq!((t.num_sockets(), t.cores_per_socket()), (4, 12));
        let t = TopologySource::Synthetic {
            sockets: 2,
            cores_per_socket: 3,
        }
        .resolve();
        assert_eq!((t.num_sockets(), t.cores_per_socket()), (2, 3));
        assert!(TopologySource::Detect.resolve().num_cores() >= 1);
    }

    #[test]
    fn builder_style_updates() {
        let p = PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None);
        assert_eq!(p.pin, PinPolicy::None);
        assert_eq!(p.topology().num_cores(), 8);
        let d = PlacementConfig::default();
        assert_eq!(d.source, TopologySource::Detect);
        assert_eq!(d.pin, PinPolicy::Compact);
        assert_eq!(PlacementConfig::detect(), d);
        assert_eq!(
            PlacementConfig::paper_machine().source,
            TopologySource::PaperMachine
        );
    }
}
