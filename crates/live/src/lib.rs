//! # ff-live — the legacy request codec
//!
//! The live tier — real sockets, real time, the same `DeviceRuntime`
//! control loop as the simulator — is `ff_reactor`: its epoll fleet
//! client and `ReactorServer`. This crate holds only the request
//! direction of the legacy length-prefixed wire codec ([`WireRequest`],
//! [`encode_request_into`], [`read_request`]), which the benchmark's
//! `live.json_*` rows measure beside `FFLP`.

#![warn(missing_docs)]

mod proto;

pub use proto::{encode_request_into, read_request, WireRequest};
