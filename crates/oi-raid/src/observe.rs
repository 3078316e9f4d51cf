//! Rebuild observability: stage timings, heal counters, and live progress.
//!
//! A [`RebuildObserver`] bundles the telemetry a rebuild feeds: latency
//! histograms ([`StageTimings`]) for its three sequential phases
//! (`plan`/`heal`/`execute`, one sample per occurrence — their sums cover
//! the rebuild's wall time), for the pipeline stages inside `execute` (per
//! batch op `read` and `coalesce`, per chunk `combine` and `writeback`) and
//! for the per-round sub-phase that is serial work (`lower`), the
//! self-healing counters, and a [`Progress`] handle another thread can poll while
//! [`OiRaidStore::rebuild_observed`](crate::OiRaidStore::rebuild_observed)
//! runs. The rebuild's causal structure (rounds, scheduled ops, device
//! I/O) is in the global trace-event ring — see [`telemetry::traces`].
//!
//! Everything here is cheap enough to leave on: `rebuild()` itself
//! allocates a fresh default observer per run, so every rebuild is timed
//! whether or not the caller asked.

use std::fmt;
use std::sync::Arc;

use telemetry::{Counter, Histogram, HistogramSnapshot, Progress, Registry};

/// Per-stage service-time histograms for one (or more) rebuild runs, in
/// nanoseconds. Shared `Arc`s: clone the struct to keep handles across a
/// rebuild.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Planning time: the initial recovery plan and each re-plan, lock sets
    /// included.
    pub plan: Arc<Histogram>,
    /// Time to open the rebuild window and heal the target devices.
    pub heal: Arc<Histogram>,
    /// Wall time of one round's execution (reads, decodes and writebacks).
    pub execute: Arc<Histogram>,
    /// Read service time per batch op: all its source runs, served back to
    /// back after one QoS charge (device time included).
    pub read: Arc<Histogram>,
    /// Time to gather one batch's source reads by disk into device runs.
    pub coalesce: Arc<Histogram>,
    /// Reconstruction compute time per plan item.
    pub combine: Arc<Histogram>,
    /// Write-back time per rebuilt chunk: its share of the batch it landed
    /// in (device writes and validity marks, under the batch's locks).
    pub writeback: Arc<Histogram>,
    /// One round's lowering — batches, the op graph (one op per batch) and
    /// the state the ops share — the part of `execute` before the first op
    /// runs.
    pub lower: Arc<Histogram>,
    /// The DAG scheduler's peak ready-queue depth, one sample per round
    /// (empty for serial mode).
    pub queue_depth: Arc<Histogram>,
}

impl StageTimings {
    /// Every stage histogram by name, in [`StageTimings::summaries`] order.
    fn named(&self) -> [(&'static str, &Arc<Histogram>); 8] {
        [
            ("plan", &self.plan),
            ("heal", &self.heal),
            ("execute", &self.execute),
            ("read", &self.read),
            ("coalesce", &self.coalesce),
            ("combine", &self.combine),
            ("writeback", &self.writeback),
            ("lower", &self.lower),
        ]
    }

    /// Snapshot of every stage: the three phases, the pipeline stages in
    /// pipeline order, then the per-round sub-phase.
    pub fn summaries(&self) -> Vec<StageSummary> {
        self.named()
            .into_iter()
            .map(|(stage, h)| StageSummary {
                stage,
                latency: h.snapshot(),
            })
            .collect()
    }
}

/// Self-healing counters for one (or more) rebuild runs: how often
/// the engine retried transient faults, re-routed around unreadable
/// chunks, escalated after a mid-rebuild disk failure, and repaired latent
/// sectors by rewrite. Live [`Counter`] handles — clone the struct to keep
/// watching across runs, attach to a [`Registry`] via
/// [`RebuildObserver::export_metrics`].
#[derive(Debug, Clone, Default)]
pub struct HealCounters {
    /// Individual read/write attempts retried after a transient fault.
    pub retries: Counter,
    /// Operations that exhausted their retry budget (and were then
    /// re-routed or escalated).
    pub retries_exhausted: Counter,
    /// Chunks re-derived through an alternate read set after their
    /// scheduled source became unreadable.
    pub reroutes: Counter,
    /// Mid-rebuild surviving-disk failures absorbed by re-planning.
    pub escalations: Counter,
    /// Latent sector errors repaired by rewrite during a rebuild.
    pub latent_repairs: Counter,
    /// Total deterministic backoff slept before retries, in nanoseconds.
    pub backoff_ns: Counter,
}

/// One stage's latency distribution from a rebuild run.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage name (`plan`, `heal`, `execute`, `read`, `coalesce`,
    /// `combine`, `writeback`, `lower`).
    pub stage: &'static str,
    /// The stage's service-time distribution, in nanoseconds.
    pub latency: HistogramSnapshot,
}

impl fmt::Display for StageSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<9} {}", self.stage, self.latency.summary_ns())
    }
}

/// Telemetry sinks for one rebuild run (or several, if reused — the
/// histograms and counters accumulate).
#[derive(Debug, Default)]
pub struct RebuildObserver {
    /// Live progress, pollable from other threads mid-rebuild.
    pub progress: Arc<Progress>,
    /// Per-stage latency histograms.
    pub stages: StageTimings,
    /// Self-healing counters (retries, reroutes, escalations, repairs).
    pub heal: HealCounters,
    /// Live DAG-scheduler gauges (ready-queue depth, in-flight ops,
    /// steals), ticking while a [`RebuildMode::Dag`] round is executing.
    ///
    /// [`RebuildMode::Dag`]: crate::RebuildMode::Dag
    pub sched: sched::SchedMetrics,
}

impl RebuildObserver {
    /// Registers the observer's stage and queue-depth histograms with a
    /// metric registry (live handles — exports track later rebuilds too).
    pub fn export_metrics(&self, reg: &Registry) {
        const HELP: &str = "Rebuild stage service time in nanoseconds";
        for (stage, h) in self.stages.named() {
            reg.register_histogram(
                "oi_rebuild_stage_latency_ns",
                HELP,
                &[("stage", stage)],
                Arc::clone(h),
            );
        }
        reg.register_histogram(
            "oi_rebuild_queue_depth",
            "Peak ready-op depth of the rebuild scheduler, one sample per round",
            &[],
            Arc::clone(&self.stages.queue_depth),
        );
        for (name, help, c) in [
            (
                "oi_rebuild_retries_total",
                "Read/write attempts retried after a transient device fault",
                &self.heal.retries,
            ),
            (
                "oi_rebuild_retry_exhausted_total",
                "Operations that exhausted their retry budget",
                &self.heal.retries_exhausted,
            ),
            (
                "oi_rebuild_reroutes_total",
                "Chunks re-derived via an alternate read set",
                &self.heal.reroutes,
            ),
            (
                "oi_rebuild_escalations_total",
                "Mid-rebuild disk failures absorbed by re-planning",
                &self.heal.escalations,
            ),
            (
                "oi_rebuild_latent_repairs_total",
                "Latent sector errors repaired by rewrite",
                &self.heal.latent_repairs,
            ),
            (
                "oi_rebuild_retry_backoff_ns_total",
                "Total deterministic retry backoff slept, in nanoseconds",
                &self.heal.backoff_ns,
            ),
        ] {
            reg.register_counter(name, help, &[], c.clone());
        }
        // Lossy-ring accounting: events silently dropped from the global
        // trace/flight rings, so dashboards can tell "quiet" from
        // "overflowed".
        telemetry::export_trace_metrics(reg);
        self.sched.export(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_cover_all_stages_in_order() {
        telemetry::set_enabled(true);
        let t = StageTimings::default();
        t.read.record(100);
        t.writeback.record(200);
        let s = t.summaries();
        let names: Vec<&str> = s.iter().map(|x| x.stage).collect();
        assert_eq!(
            names,
            [
                "plan",
                "heal",
                "execute",
                "read",
                "coalesce",
                "combine",
                "writeback",
                "lower"
            ]
        );
        assert_eq!(s[3].latency.count, 1);
        assert_eq!(s[4].latency.count, 0);
        assert!(s[3].to_string().contains("read"));
    }

    #[test]
    fn export_registers_live_histograms() {
        telemetry::set_enabled(true);
        let obs = RebuildObserver::default();
        let reg = Registry::new();
        obs.export_metrics(&reg);
        assert_eq!(
            reg.len(),
            20,
            "8 stages + queue depth + 6 heal counters + 2 ring-drop \
             counters + 3 scheduler series"
        );
        // Live: recording after registration shows up in the export.
        obs.stages.combine.record(1234);
        obs.heal.reroutes.inc_by(3);
        let text = reg.prometheus();
        assert!(text.contains("oi_rebuild_stage_latency_ns_count{stage=\"combine\"} 1"));
        assert!(text.contains("oi_rebuild_reroutes_total 3"));
        telemetry::lint_prometheus(&text).expect("clean exposition");
    }
}
