//! # ff-server — the multi-tenant edge inference server
//!
//! The GPU-equipped server the devices offload to (paper Fig. 1, top
//! right). Implements the paper's adaptive batching scheme — next batch =
//! everything that arrived during the previous batch, capped at 15 with
//! the overflow rejected — on top of the affine GPU latency model from
//! `ff-models`, plus Table VI's injected multi-tenant background load
//! (a Poisson process whose rate steps).
//!
//! Since the multi-server refactor the canonical entry point is the
//! [`ServerTier`]: N heterogeneous [`EdgeServer`]s behind a routing
//! policy (static shard / join-shortest-queue on stale gossip /
//! power-of-two choices) and an admission policy (admit-all or a
//! per-tenant token bucket). A single-server tier is bit-identical to
//! driving the bare server, so the paper's topology is the N=1 case.

#![warn(missing_docs)]

mod background;
mod batcher;
mod policy;
mod server;
mod tenants;
mod tier;

pub use background::{Background, BackgroundConfig, PoissonArrivals, BACKGROUND_TAG_BASE};
pub use batcher::Batcher;
pub use policy::{jain_fairness_index, OverflowPolicy};
pub use server::{BatchOutput, EdgeServer, Request, ServerStats, Submit, TenantId};
pub use tenants::TenantTable;
pub use tier::{AdmissionPolicy, RoutingPolicy, ServerSpec, ServerTier, TierConfig, TierSubmit};
