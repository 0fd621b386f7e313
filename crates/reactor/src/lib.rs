//! `ff-reactor` — the live tier: real sockets in real time.
//!
//! The paper's testbed (§IV-A) is devices offloading over a shaped
//! wireless link to a batching GPU server. This crate reproduces it over
//! real TCP with *readiness* instead of threads: one epoll instance (via
//! the vendored `mio` shim), one timer wheel (the same hierarchical
//! layout `ff-sim` schedules millions of events on), and one thread
//! multiplexing every socket and every
//! [`DeviceRuntime`](ff_device::DeviceRuntime) on its side — a fleet
//! client ([`run_reactor_fleet`]) and a batching server
//! ([`ReactorServer`]). The server batches with `ff-server`'s batcher
//! and each device's uplink is `ff-net`'s link, the same code the
//! simulator runs; only the clock and the transport are the host's.
//!
//! Three design rules carry over from the rest of the repo:
//!
//! * **The control loop is the sim's control loop.** Devices run the
//!   shared [`DeviceRuntime`](ff_device::DeviceRuntime); the reactor
//!   only supplies wall-clock capture pacing, socket transport, and
//!   timer-driven local inference.
//! * **Backpressure is a verdict, not a stall.** Writes coalesce into a
//!   bounded per-connection buffer; when the buffer is full the transport
//!   reports [`SubmitOutcome::FailedInstantly`](ff_device::SubmitOutcome)
//!   and the controller parks at the §III-A.1 probe floor — the same
//!   contract a lost connection has had since PR 1. No unbounded queues,
//!   no blocking `write_all`.
//! * **Frames are length-prefixed binary.** Client and server share the
//!   `FFLP` codec (magic + varint length + opcode); decoding arbitrary
//!   bytes never panics.

mod conn;
mod fleet;
mod frame;
mod server;
mod timer;

pub use conn::{
    ConnStatus, EnqueueOutcome, FramedConn, InboundFrame, DEFAULT_WRITE_BUF_CAP, READ_WINDOW,
};
pub use ff_device::deps::ff_net::NetworkConditions;
pub use fleet::{
    run_reactor_device, run_reactor_fleet, FleetClientConfig, FleetSummary, ReactorDeviceConfig,
    ReactorDeviceSummary, ReconnectPolicy,
};
pub use frame::{
    decode_frame, encode_request_into, encode_response_into, Frame, FrameError, MAX_HEAD_BYTES,
};
pub use server::{ReactorChaos, ReactorServer, ReactorServerConfig, ReactorServerStats};
