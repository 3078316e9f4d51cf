//! OI-RAID: a two-layer RAID architecture for fast recovery and high
//! reliability.
//!
//! Reproduction of *Wang, Xu, Li, Wu — "OI-RAID: A Two-Layer RAID
//! Architecture towards Fast Recovery and High Reliability", DSN 2016*
//! (see the repository's `DESIGN.md` for the source-text caveat and the
//! reconstructed architecture).
//!
//! # Architecture
//!
//! An OI-RAID array has `n = v·g` disks: `v` *groups* of `g` disks. Two
//! code layers protect the data (RAID5/XOR in both, as in the paper):
//!
//! * **Outer layer** — a `(v, k, 1)`-BIBD over the groups: each design block
//!   names `k` groups, and *outer stripes* of `k − 1` data chunks plus one
//!   rotating outer-parity chunk run across one disk of each of those
//!   groups. The **skewed layout** places consecutive stripes on rotating
//!   disks with per-position multipliers, so that rebuilding any disk draws
//!   reads evenly from *every* other group (`λ = 1` guarantees every other
//!   group shares exactly one block with the failed disk's group).
//! * **Inner layer** — within each group, every chunk row of the `g` disks
//!   is an inner RAID5 stripe with rotating parity. Outer-parity chunks are
//!   covered by the inner code; inner-parity chunks are not outer-coded,
//!   which keeps the update cost at the optimum of 3 parity writes
//!   (+ 1 data write) for a 3-failure-tolerant code.
//!
//! Together the layers tolerate **any three disk failures** (and many larger
//! patterns, e.g. the loss of an entire group) — checked by code in this
//! crate, not assumed.
//!
//! # Crate layout
//!
//! * [`OiRaidConfig`] / [`OiRaid`] — construction and the
//!   [`layout::Layout`] implementation (geometry, roles, survivability,
//!   recovery planning).
//! * [`RecoveryStrategy`] — how single-disk rebuilds source their reads
//!   (local inner rows, outer stripes, fully-declustered, or a load-balanced
//!   hybrid).
//! * [`analysis`] — closed-form load/overhead/update-cost model used by the
//!   experiment harness (and cross-checked against the planners in tests).
//! * [`OiRaidStore`] — a byte-level array over pluggable [`blockdev`]
//!   backends that actually encodes, loses, and reconstructs real data
//!   through both layers — and keeps serving (degraded) reads *and writes*
//!   while disks are down or a rebuild is in flight; [`RebuildMode`] /
//!   [`RebuildReport`] — the plan-driven instrumented rebuild engine (a
//!   serial oracle and one concurrent DAG executor); [`QosConfig`] — the
//!   foreground/rebuild bandwidth throttle ([`OiRaidStore::set_qos`]).
//!
//! # Example
//!
//! ```
//! use layout::{Layout, SparePolicy};
//! use oi_raid::{OiRaid, OiRaidConfig};
//!
//! // The paper's running example: Fano-plane outer layer, groups of 3.
//! let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
//! assert_eq!(array.disks(), 21);
//! assert_eq!(array.fault_tolerance(), 3);
//!
//! // Any triple failure is survivable:
//! assert!(array.survives(&[0, 7, 14]));
//! assert!(array.survives(&[0, 1, 2])); // even a whole group
//!
//! // Single-disk rebuild reads spread over all other groups:
//! let plan = array.recovery_plan(&[4], SparePolicy::Distributed).unwrap();
//! assert!(plan.total_reads() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod array;
mod bufpool;
mod checkpoint;
mod config;
mod degraded_read;
mod geometry;
mod multifail;
pub mod observe;
mod online;
mod qos;
mod rebuild;
mod recovery;
mod store;

pub use array::{ChunkInfo, OiRaid};
pub use checkpoint::RebuildCheckpoint;
pub use config::{OiRaidConfig, SkewMode};
pub use degraded_read::{reference_scenario, DegradedRun, DegradedScenario, ReadPlan};
pub use observe::{HealCounters, RebuildObserver, StageSummary, StageTimings};
pub use qos::{QosConfig, QosCounters};
pub use rebuild::{RebuildMode, RebuildOutcome, RebuildReport};
pub use recovery::RecoveryStrategy;
pub use store::{
    BatchStats, CheckpointPolicy, FlusherHandle, OiRaidStore, ScrubReport, StoreError,
    StoreTelemetry,
};
