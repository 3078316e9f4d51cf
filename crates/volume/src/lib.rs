//! Multi-tenant volume layer over an [`OiRaidStore`](oi_raid::OiRaidStore).
//!
//! OI-RAID's store exposes one flat chunk/byte space. Real deployments
//! carve that space into many *volumes* owned by *tenants*, and the
//! foreground path lives or dies by how well concurrent small requests
//! batch against the array. This crate adds that layer:
//!
//! * [`VolumeManager`] — maps volumes onto the store and runs the
//!   submission path: reads answered on the submitting thread (from an
//!   earlier write in the same submission where there is one), writes
//!   through one arrival-order queue per shard and a combining drain (one
//!   submitter serves everyone's pending writes), coalesced down to one
//!   read-modify-write per touched chunk (see [`manager`] docs).
//! * [`TenantClass`] — per-tenant QoS: an optional token-bucket rate cap
//!   that makes a tenant pace itself, plus an optional latency SLO.
//! * [`Zipf`] — the skewed key sampler the closed-loop benchmark (E19)
//!   and the equivalence property tests drive the layer with.
//!
//! Batched execution is bit-identical to one-at-a-time submission — the
//! store-level batch primitives preserve RAID invariants by XOR/GF
//! linearity, and the manager preserves per-record program order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod slo;
pub mod tenant;
pub mod workload;

pub use manager::{Op, OpResult, VolumeError, VolumeId, VolumeManager};
pub use slo::{SloPolicy, SloSnapshot, SLO_WINDOW_SECS};
pub use tenant::{TenantClass, TenantId};
pub use workload::Zipf;
