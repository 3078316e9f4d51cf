//! In-tree telemetry for the OI-RAID reproduction: latency histograms,
//! trace events, live progress, and Prometheus/JSON export — with zero
//! external dependencies, cheap enough to leave always-on.
//!
//! Declustered-RAID evaluation lives and dies on *tail* behaviour: the
//! paper's balanced-rebuild-load claim is about the slowest disk, not the
//! average one, and a production rebuild needs to be watchable in flight.
//! This crate provides the substrate every performance experiment reports
//! against:
//!
//! * [`Histogram`] — a lock-free, log-bucketed latency histogram
//!   (HdrHistogram-style: power-of-two major buckets × 16 linear
//!   sub-buckets, ≤ 6.25 % relative quantile error, atomic counts,
//!   mergeable). Recording is a handful of relaxed atomic adds on the
//!   calling thread's own shard.
//! * [`Sharded`] — a `u64` sum or stamp split over per-thread cache lines:
//!   the per-op counters of every layer, so a second client thread does
//!   not pay for the first's increments.
//! * [`Registry`] — labeled counters, gauges, and histograms, exported as
//!   Prometheus text exposition ([`Registry::prometheus`]) or JSON
//!   ([`Registry::json`]); [`lint_prometheus`] validates the exposition
//!   format in-tree (used by CI).
//! * [`Progress`] — an atomic chunks-done / bytes-done handle pollable
//!   from another thread while a rebuild runs (fraction, MiB/s, ETA).
//! * Trace context ([`sample_trace`], [`enter_trace`]) and the global
//!   event rings ([`traces`], [`flight`]) — cross-layer request tracing
//!   and an always-on flight recorder; see the `context` and `events`
//!   module docs. The event ring is the one trace mechanism: requests,
//!   rebuilds, rounds, scheduled ops and device I/O all link through it.
//! * [`ScrapeServer`] — a `std::net` HTTP endpoint serving `/metrics`,
//!   `/traces`, `/events`, `/progress`, and `/health` for `curl` and
//!   Prometheus.
//!
//! The whole layer can be switched off process-wide ([`set_enabled`]) to
//! measure its own overhead — experiment E15 records the cost either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod events;
mod export;
mod histogram;
mod progress;
mod registry;
mod serve;
mod shard;

pub use context::{
    alloc_trace_id, current_trace, enter_trace, sample_trace, set_trace_sample, trace_always,
    tracing_active, TraceGuard,
};
pub use events::{
    export_trace_metrics, flight, flight_dump_on_panic, flight_event, trace_event, trace_scope,
    traces, Event, EventKind, EventRing,
};
pub use export::{json_escape, lint_prometheus};
pub use histogram::{exact_percentile_sorted, Histogram, HistogramSnapshot, BUCKETS};
pub use progress::{Progress, ProgressSnapshot};
pub use registry::{Counter, Gauge, Registry, RegistryError};
pub use serve::ScrapeServer;
pub use shard::Sharded;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry recording is enabled.
///
/// Starts **on**; [`set_enabled`] switches it at any time. Disabled
/// telemetry skips histogram recording; counters and progress stay live
/// (they are functional state, not instrumentation).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Forces telemetry recording on or off process-wide (overhead
/// experiments toggle this around identical workloads).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Serialises the unit tests that write or depend on the process-wide
/// switches ([`set_enabled`], [`set_trace_sample`]): the harness runs tests
/// on several threads, and one that turns recording off would make another
/// lose samples. Switches recording on and holds the lock until the guard
/// drops.
#[cfg(test)]
pub(crate) fn hold_switches() -> std::sync::MutexGuard<'static, ()> {
    static SWITCHES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = SWITCHES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(true);
    guard
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_by_default() {
        // Tests in this crate rely on recording being live; pin it rather
        // than depend on the environment.
        let _switches = super::hold_switches();
        assert!(super::enabled());
    }
}
