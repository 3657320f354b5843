//! RPC channel timing.
//!
//! The frontend↔backend channel is shared memory when the GPU is local and
//! the network for remote GPUs. The paper's supernode uses dedicated
//! Gigabit Ethernet links; it deliberately treats remote GPUs "much like
//! NUMA memory", ignoring network contention — so we model a channel as a
//! fixed latency plus a bandwidth term, with no queueing across apps.
//!
//! Which channel joins which pair of nodes is decided by a
//! [`crate::network::NetworkSpec`]; the canned media live there as
//! constants ([`crate::network::SHARED_MEMORY`],
//! [`crate::network::GIGABIT_ETHERNET`], [`crate::network::CALIBRATED_GBE`]).

use serde::{Deserialize, Serialize};

/// The two channel media of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Same-node frontend↔backend: shared-memory ring buffer.
    SharedMemory,
    /// Cross-node: dedicated Gigabit Ethernet link.
    Network,
}

/// Latency/bandwidth description of one channel medium.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// One-way latency per message, nanoseconds.
    pub latency_ns: u64,
    /// Sustained bandwidth, megabytes per second.
    pub bandwidth_mbps: f64,
}

impl ChannelSpec {
    /// One-way transfer time for a message of `bytes` payload.
    ///
    /// Saturates at `u64::MAX` ns instead of overflowing: multi-exabyte
    /// payloads (or adversarial byte counts from fuzzing) clamp to "longer
    /// than any simulation", never wrap to a small number. The float→int
    /// cast is itself saturating in Rust, so the only overflow site is the
    /// final latency addition.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        let bw_bytes_per_ns = self.bandwidth_mbps * 1e6 / 1e9;
        let wire_ns = (bytes as f64 / bw_bytes_per_ns).ceil() as u64;
        self.latency_ns.saturating_add(wire_ns)
    }

    /// Round-trip time for a request of `req_bytes` and reply of
    /// `reply_bytes`. Saturating, like [`ChannelSpec::transfer_ns`].
    pub fn round_trip_ns(&self, req_bytes: u64, reply_bytes: u64) -> u64 {
        self.transfer_ns(req_bytes)
            .saturating_add(self.transfer_ns(reply_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{CALIBRATED_GBE, GIGABIT_ETHERNET, SHARED_MEMORY};

    #[test]
    fn shared_memory_is_much_faster_than_network() {
        let shm = SHARED_MEMORY;
        let net = GIGABIT_ETHERNET;
        // Small control message.
        assert!(shm.transfer_ns(64) < net.transfer_ns(64) / 10);
        // Bulk payload: 1 MB.
        let mb = 1_000_000;
        assert!(shm.transfer_ns(mb) < net.transfer_ns(mb) / 10);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let net = GIGABIT_ETHERNET;
        // 125 MB/s → 1 MB takes 8 ms + latency.
        let t = net.transfer_ns(1_000_000);
        assert_eq!(t, 60_000 + 8_000_000);
    }

    #[test]
    fn calibrated_network_bulk_rate() {
        // 2.5 GB/s → 1 MB takes 400 µs + latency.
        assert_eq!(CALIBRATED_GBE.transfer_ns(1_000_000), 60_000 + 400_000);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let shm = SHARED_MEMORY;
        assert_eq!(shm.transfer_ns(0), shm.latency_ns);
    }

    #[test]
    fn round_trip_is_sum_of_directions() {
        let c = crate::network::for_kind(ChannelKind::Network);
        assert_eq!(
            c.round_trip_ns(100, 50),
            c.transfer_ns(100) + c.transfer_ns(50)
        );
    }

    #[test]
    fn huge_transfers_saturate_instead_of_overflowing() {
        let c = ChannelSpec {
            latency_ns: u64::MAX - 10,
            bandwidth_mbps: 0.001,
        };
        assert_eq!(c.transfer_ns(u64::MAX), u64::MAX);
        assert_eq!(c.round_trip_ns(u64::MAX, u64::MAX), u64::MAX);
        // A fast channel with huge payload still saturates the cast.
        let g = GIGABIT_ETHERNET;
        assert!(g.transfer_ns(u64::MAX) >= g.transfer_ns(u64::MAX / 2));
    }
}
