//! The interposition cost model.
//!
//! The interposer turns every intercepted CUDA call into an RPC —
//! `call id | param 0 | … | param N` in the paper's Figure 3 — which the
//! backend unmarshals and dispatches. The executive charges each RPC a
//! [`CONTROL_BYTES`] control message plus its bulk payload on the
//! channel; [`RpcCostModel`] charges the interposition, marshalling and
//! unmarshalling time the paper's asynchrony optimizations hide.

use cuda_sim::call::CudaCall;
use serde::{Deserialize, Serialize};

/// Wire size of one RPC's control portion: sequence number, call id and
/// parameters (bulk copy payloads ride separately).
pub const CONTROL_BYTES: u64 = 48;

/// Time costs of interposition: what the runtime layer adds to every call
/// (and what the asynchronous-operation optimizations of §III.B.2 overlap
/// with useful work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpcCostModel {
    /// Interception + marshalling CPU time per call, nanoseconds.
    pub marshal_ns: u64,
    /// Backend unmarshalling + dispatch CPU time per call, nanoseconds.
    pub unmarshal_ns: u64,
    /// Extra marshalling cost per KiB of bulk payload.
    pub marshal_ns_per_kib: u64,
}

impl Default for RpcCostModel {
    fn default() -> Self {
        RpcCostModel {
            marshal_ns: 2_000,
            unmarshal_ns: 2_000,
            marshal_ns_per_kib: 50,
        }
    }
}

impl RpcCostModel {
    /// Frontend-side cost to issue `call`.
    pub fn send_overhead_ns(&self, call: &CudaCall) -> u64 {
        self.marshal_ns + self.marshal_ns_per_kib * call.rpc_payload_bytes().div_ceil(1024)
    }

    /// Backend-side cost to receive and dispatch a call.
    pub fn recv_overhead_ns(&self, _call: &CudaCall) -> u64 {
        self.unmarshal_ns
    }

    /// Frontend-side cost to consume the reply of `call`.
    pub fn reply_overhead_ns(&self, call: &CudaCall) -> u64 {
        self.marshal_ns_per_kib * call.rpc_return_bytes().div_ceil(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::job::CopyDirection;

    #[test]
    fn control_bytes_are_small() {
        // `seq | call id | params`: a u64, a byte and at most three
        // 8-byte parameters, inside one 64-byte cache line.
        const { assert!(CONTROL_BYTES >= 8 + 1 + 3 * 8 && CONTROL_BYTES <= 64) };
    }

    #[test]
    fn cost_model_charges_bulk_payloads() {
        let m = RpcCostModel::default();
        let small = CudaCall::SetDevice { device: 0 };
        let h2d = CudaCall::Memcpy {
            dir: CopyDirection::HostToDevice,
            bytes: 1 << 20, // 1 MiB = 1024 KiB
        };
        let d2h = CudaCall::Memcpy {
            dir: CopyDirection::DeviceToHost,
            bytes: 1 << 20,
        };
        assert_eq!(m.send_overhead_ns(&small), m.marshal_ns);
        assert_eq!(
            m.send_overhead_ns(&h2d),
            m.marshal_ns + 1024 * m.marshal_ns_per_kib
        );
        assert_eq!(
            m.send_overhead_ns(&d2h),
            m.marshal_ns,
            "D2H payload returns, not sends"
        );
        assert_eq!(m.reply_overhead_ns(&d2h), 1024 * m.marshal_ns_per_kib);
        assert_eq!(m.recv_overhead_ns(&small), m.unmarshal_ns);
    }
}
