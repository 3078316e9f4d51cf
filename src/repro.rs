//! Workspace-level convenience crate for the OI-RAID reproduction.
//!
//! The real functionality lives in the member crates (`oi-raid`, `bibd`,
//! `ecc`, `disksim`, `layout`, `reliability`); this crate hosts the runnable
//! `examples/` and the cross-crate integration tests in `tests/`, and
//! re-exports the pieces those programs use as a single [`prelude`].
//!
//! ```
//! use oi_raid_repro::prelude::*;
//!
//! let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
//! assert_eq!(array.disks(), 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One-stop imports for the examples and integration tests.
pub mod prelude {
    pub use bibd::{fano, find_design, Bibd};
    pub use blockdev::{
        BlockDevice, CounterSnapshot, DeviceError, FaultConfig, FaultInjectingDevice, FileDevice,
        FlushPolicy, Journal, MemDevice, RetryPolicy, WriteBackDevice,
    };
    pub use disksim::{ArrivalProcess, DiskSpec, SimTime, Simulation, Workload, WorkloadKind};
    pub use ecc::{ErasureCode, EvenOdd, Lrc, Raid6, Rdp, ReedSolomon, Replication, XorParity};
    pub use layout::{
        ChunkAddr, FlatRaid5, FlatRaid6, Layout, ParityDeclustered, Raid50, RecoveryPlan, Role,
        SparePolicy,
    };
    pub use oi_raid::{
        analysis::Model, CheckpointPolicy, DegradedScenario, FlusherHandle, HealCounters, OiRaid,
        OiRaidConfig, OiRaidStore, QosConfig, QosCounters, ReadPlan, RebuildCheckpoint,
        RebuildMode, RebuildObserver, RebuildOutcome, RebuildReport, RecoveryStrategy, ScrubReport,
        SkewMode, StageSummary, StageTimings, StoreError, StoreTelemetry,
    };
    pub use reliability::markov::array_mttdl;
    pub use reliability::montecarlo::{simulate_lifetime, Lifetime, LifetimeConfig};
    pub use reliability::patterns::{survivable_fraction, survival_profile};
    pub use telemetry::{
        exact_percentile_sorted, lint_prometheus, Event, EventKind, Histogram, HistogramSnapshot,
        Progress, ProgressSnapshot, Registry, ScrapeServer,
    };
    pub use volume::{
        Op, OpResult, SloPolicy, TenantClass, TenantId, VolumeError, VolumeId, VolumeManager, Zipf,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_reaches_every_crate() {
        let d = fano();
        assert_eq!(d.v(), 7);
        let a = OiRaid::new(OiRaidConfig::reference()).unwrap();
        assert_eq!(a.fault_tolerance(), 3);
        assert!(XorParity::new(3).is_ok());
        assert!(FlatRaid5::new(5, 4).is_ok());
        assert_eq!(survivable_fraction(&a, 0, 10, 0), 1.0);
    }
}
