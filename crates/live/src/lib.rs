//! # ff-live — live-mode helpers outside the reactor
//!
//! The live tier — real sockets, real time, the same `DeviceRuntime`
//! control loop as the simulator — is `ff_reactor`: its epoll fleet
//! client and `ReactorServer`. This crate holds the two pieces that sit
//! beside it:
//!
//! * [`TcpExportSink`], the line-delimited JSON telemetry endpoint the
//!   `ff-bench dashboard` connects to;
//! * the request direction of the legacy length-prefixed wire codec
//!   ([`WireRequest`], [`encode_request_into`], [`read_request`]), which
//!   the benchmark's `live.json_*` rows measure beside `FFLP`.

#![warn(missing_docs)]

mod export;
mod proto;

pub use export::TcpExportSink;
pub use proto::{encode_request_into, read_request, WireRequest};
