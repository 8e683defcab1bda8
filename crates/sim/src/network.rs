//! Network model: link latency distributions, loss, shared-hub contention and
//! partitions.
//!
//! The paper's testbed is a set of head/compute nodes on a single Fast
//! Ethernet (100 Mbit/s, half duplex) hub. We model:
//!
//! * **local** delivery (between two processes on the same node) with a small
//!   constant-ish latency (loopback + IPC cost);
//! * **LAN** delivery (cross-node) with a configurable latency distribution
//!   and drop probability;
//! * optional **shared hub** contention: a single half-duplex medium that
//!   serializes all cross-node transmissions, adding queueing delay under
//!   load (`size / bandwidth` occupancy per frame);
//! * **partitions**: every node carries a partition-group tag; messages
//!   between different groups are silently dropped (as a pulled cable would).

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// Sample a per-mille probability: true with probability `pm / 1000`.
#[inline]
fn sample_per_mille(rng: &mut StdRng, pm: u32) -> bool {
    rng.random_range(0..1000u32) < pm
}

/// A latency distribution for a link.
#[derive(Clone, Debug)]
pub enum Latency {
    /// Always exactly this value.
    Constant(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Inclusive lower bound.
        min: SimDuration,
        /// Inclusive upper bound.
        max: SimDuration,
    },
    /// Normal distribution (sampled via Irwin–Hall approximation to stay
    /// dependency-light), clamped below at `floor`.
    Normal {
        /// Mean of the distribution.
        mean: SimDuration,
        /// Standard deviation.
        stddev: SimDuration,
        /// Hard lower clamp (a latency cannot be negative or sub-wire).
        floor: SimDuration,
    },
}

impl Latency {
    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        match *self {
            Latency::Constant(d) => d,
            Latency::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    SimDuration::from_nanos(rng.random_range(min.as_nanos()..=max.as_nanos()))
                }
            }
            Latency::Normal {
                mean,
                stddev,
                floor,
            } => {
                // Irwin–Hall: sum of 12 U(0,1) minus 6 approximates N(0,1).
                let mut z = -6.0f64;
                for _ in 0..12 {
                    z += rng.random::<f64>();
                }
                let ns = mean.as_nanos() as f64 + z * stddev.as_nanos() as f64;
                let ns = ns.max(floor.as_nanos() as f64);
                SimDuration::from_nanos(ns as u64)
            }
        }
    }
}

/// Configuration of one class of link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Propagation + stack latency distribution.
    pub latency: Latency,
    /// Probability that a message is silently lost, in integer per-mille
    /// (0..=1000), so that no trace depends on float formatting.
    /// Transmission time is folded into `latency`; only the shared hub
    /// ([`HubConfig`]) charges for bytes.
    pub drop_prob: u32,
}

impl LinkConfig {
    /// A perfectly reliable constant-latency link.
    pub(crate) fn constant(latency: SimDuration) -> Self {
        LinkConfig {
            latency: Latency::Constant(latency),
            drop_prob: 0,
        }
    }
}

/// Shared-medium (hub) contention model.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Raw medium bandwidth (100 Mbit/s Fast Ethernet ≈ 12_500_000 B/s).
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-frame overhead occupying the medium (preamble, IFG, CSMA/CD
    /// back-off budget), independent of payload size.
    pub per_frame_overhead: SimDuration,
}

impl HubConfig {
    /// 100 Mbit/s half-duplex Fast Ethernet hub, as in the paper's testbed.
    pub(crate) fn fast_ethernet() -> Self {
        HubConfig {
            bandwidth_bytes_per_sec: 12_500_000,
            per_frame_overhead: SimDuration::from_micros(10),
        }
    }
}

/// Full network configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Same-node process-to-process delivery.
    pub local: LinkConfig,
    /// Cross-node delivery.
    pub lan: LinkConfig,
    /// Optional shared-hub contention for cross-node messages.
    pub hub: Option<HubConfig>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // Loosely calibrated to a 2006-era Fast-Ethernet Beowulf LAN:
        // ~60us loopback, ~220us +/- jitter cross-node UDP round.
        NetworkConfig {
            local: LinkConfig {
                latency: Latency::Uniform {
                    min: SimDuration::from_micros(40),
                    max: SimDuration::from_micros(80),
                },
                drop_prob: 0,
            },
            lan: LinkConfig {
                latency: Latency::Normal {
                    mean: SimDuration::from_micros(220),
                    stddev: SimDuration::from_micros(40),
                    floor: SimDuration::from_micros(90),
                },
                drop_prob: 0,
            },
            hub: Some(HubConfig::fast_ethernet()),
        }
    }
}

impl NetworkConfig {
    /// An ideal network: zero loss, tiny constant latencies, no contention.
    /// Useful for protocol unit tests where timing is irrelevant.
    pub fn ideal() -> Self {
        NetworkConfig {
            local: LinkConfig::constant(SimDuration::from_micros(1)),
            lan: LinkConfig::constant(SimDuration::from_micros(10)),
            hub: None,
        }
    }
}

/// The verdict the network model gives for one message send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Deliver after this total delay (queueing + transmission + latency).
    Deliver(SimDuration),
    /// Silently dropped (loss or partition).
    Drop(DropReason),
}

/// Why a message was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// Sender and receiver are in different partition groups.
    Partition,
}

/// Mutable network state owned by the world.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    /// Partition group per node; nodes talk only within their group.
    groups: HashMap<NodeId, u32>,
    /// When the shared hub becomes free again.
    hub_free_at: SimTime,
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages dropped by random loss.
    pub dropped_loss: u64,
    /// Messages dropped at partition boundaries.
    pub dropped_partition: u64,
    /// Total payload bytes transmitted cross-node.
    pub bytes_sent: u64,
}

impl Network {
    /// Create network state from a configuration.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            groups: HashMap::new(),
            hub_free_at: SimTime::ZERO,
            sent: 0,
            dropped_loss: 0,
            dropped_partition: 0,
            bytes_sent: 0,
        }
    }

    /// Put `node` into partition group `group`. Nodes in different groups
    /// cannot exchange messages. All nodes start in group 0.
    pub(crate) fn set_partition_group(&mut self, node: NodeId, group: u32) {
        self.groups.insert(node, group);
    }

    /// Heal all partitions (everyone back to group 0).
    pub fn heal_partitions(&mut self) {
        self.groups.clear();
    }

    /// Partition group of a node.
    pub(crate) fn group_of(&self, node: NodeId) -> u32 {
        self.groups.get(&node).copied().unwrap_or(0)
    }

    /// Decide the fate of one message of `bytes` payload sent at `now` from
    /// `from_node` to `to_node`.
    pub fn route(
        &mut self,
        rng: &mut StdRng,
        now: SimTime,
        from_node: NodeId,
        to_node: NodeId,
        bytes: u32,
    ) -> Outcome {
        self.sent += 1;
        if from_node == to_node {
            return Self::through_link(
                &self.config.local,
                &mut self.dropped_loss,
                rng,
                SimDuration::ZERO,
            );
        }
        if self.group_of(from_node) != self.group_of(to_node) {
            self.dropped_partition += 1;
            return Outcome::Drop(DropReason::Partition);
        }
        // Shared-hub queueing: the frame occupies the medium for
        // overhead + bytes/bandwidth starting when the hub is next free.
        let queueing = if let Some(hub) = &self.config.hub {
            let start = self.hub_free_at.max(now);
            let tx = SimDuration::from_nanos(
                (bytes as u64).saturating_mul(1_000_000_000) / hub.bandwidth_bytes_per_sec,
            ) + hub.per_frame_overhead;
            self.hub_free_at = start + tx;
            (start + tx) - now
        } else {
            SimDuration::ZERO
        };
        self.bytes_sent += bytes as u64;
        Self::through_link(&self.config.lan, &mut self.dropped_loss, rng, queueing)
    }

    /// Loss draw first, latency draw second: the order is part of the seed
    /// stream.
    fn through_link(
        link: &LinkConfig,
        dropped_loss: &mut u64,
        rng: &mut StdRng,
        queueing: SimDuration,
    ) -> Outcome {
        if link.drop_prob > 0 && sample_per_mille(rng, link.drop_prob) {
            *dropped_loss += 1;
            return Outcome::Drop(DropReason::Loss);
        }
        Outcome::Deliver(link.latency.sample(rng) + queueing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn constant_latency_is_constant() {
        let l = Latency::Constant(SimDuration::from_millis(3));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(l.sample(&mut r), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn uniform_latency_in_range() {
        let min = SimDuration::from_micros(100);
        let max = SimDuration::from_micros(200);
        let l = Latency::Uniform { min, max };
        let mut r = rng();
        for _ in 0..1000 {
            let s = l.sample(&mut r);
            assert!(s >= min && s <= max);
        }
    }

    #[test]
    fn normal_latency_respects_floor() {
        let l = Latency::Normal {
            mean: SimDuration::from_micros(100),
            stddev: SimDuration::from_micros(100),
            floor: SimDuration::from_micros(50),
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(l.sample(&mut r) >= SimDuration::from_micros(50));
        }
    }

    #[test]
    fn normal_latency_mean_close() {
        let l = Latency::Normal {
            mean: SimDuration::from_micros(500),
            stddev: SimDuration::from_micros(50),
            floor: SimDuration::ZERO,
        };
        let mut r = rng();
        let n = 5000u64;
        let total: u64 = (0..n).map(|_| l.sample(&mut r).as_nanos()).sum();
        let mean = total / n;
        assert!(
            (mean as i64 - 500_000).unsigned_abs() < 10_000,
            "mean={mean}"
        );
    }

    #[test]
    fn partition_drops_cross_group() {
        let mut net = Network::new(NetworkConfig::ideal());
        let mut r = rng();
        net.set_partition_group(NodeId(1), 1);
        let out = net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(out, Outcome::Drop(DropReason::Partition));
        // Same group is fine.
        let out = net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(2), 100);
        assert!(matches!(out, Outcome::Deliver(_)));
        net.heal_partitions();
        let out = net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(1), 100);
        assert!(matches!(out, Outcome::Deliver(_)));
    }

    #[test]
    fn local_messages_ignore_partitions() {
        // Two processes on the same node keep talking even when the node is
        // partitioned away from the rest of the LAN.
        let mut net = Network::new(NetworkConfig::ideal());
        let mut r = rng();
        net.set_partition_group(NodeId(3), 9);
        let out = net.route(&mut r, SimTime::ZERO, NodeId(3), NodeId(3), 64);
        assert!(matches!(out, Outcome::Deliver(_)));
    }

    #[test]
    fn hub_serializes_back_to_back_frames() {
        let mut cfg = NetworkConfig::ideal();
        cfg.hub = Some(HubConfig {
            bandwidth_bytes_per_sec: 1_000_000, // 1 MB/s: 1000 bytes = 1ms
            per_frame_overhead: SimDuration::ZERO,
        });
        let mut net = Network::new(cfg);
        let mut r = rng();
        let d1 = match net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(1), 1000) {
            Outcome::Deliver(d) => d,
            other => panic!("{other:?}"),
        };
        let d2 = match net.route(&mut r, SimTime::ZERO, NodeId(2), NodeId(3), 1000) {
            Outcome::Deliver(d) => d,
            other => panic!("{other:?}"),
        };
        // Second frame had to wait for the first one's transmission slot.
        assert!(d2 > d1);
        assert!(d2 - d1 >= SimDuration::from_micros(900));
    }

    #[test]
    fn hub_idle_time_does_not_accumulate() {
        let mut cfg = NetworkConfig::ideal();
        cfg.hub = Some(HubConfig {
            bandwidth_bytes_per_sec: 1_000_000,
            per_frame_overhead: SimDuration::ZERO,
        });
        let mut net = Network::new(cfg);
        let mut r = rng();
        let _ = net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        // Much later the hub is long idle: no queueing delay.
        let later = SimTime::ZERO + SimDuration::from_secs(1);
        let d = match net.route(&mut r, later, NodeId(0), NodeId(1), 1000) {
            Outcome::Deliver(d) => d,
            other => panic!("{other:?}"),
        };
        assert!(d < SimDuration::from_millis(2));
    }

    #[test]
    fn counters_track_traffic() {
        let mut cfg = NetworkConfig::ideal();
        cfg.lan.drop_prob = 1000;
        let mut net = Network::new(cfg);
        let mut r = rng();
        let _ = net.route(&mut r, SimTime::ZERO, NodeId(0), NodeId(1), 10);
        assert_eq!(net.sent, 1);
        assert_eq!(net.dropped_loss, 1);
    }
}
