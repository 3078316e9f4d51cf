//! Structured event rings: the trace ring and the flight recorder.
//!
//! Both are the same data structure — a fixed-size, lock-free ring of
//! [`Event`]s — used for two different jobs:
//!
//! * **Trace ring** ([`traces`]): edges of request causal trees. Each
//!   event names a node (`trace`), the node it hangs under (`parent`),
//!   and a [`EventKind`] saying which layer emitted it. Fan-out (one op
//!   → many device I/Os) is many events sharing a parent; fan-in (one
//!   combining wave serving many volume ops) is one `Wave` edge per
//!   (op, wave) pair. A whole request is reconstructed by chasing
//!   parent links through a snapshot.
//! * **Flight recorder** ([`flight`]): a black box of rare-but-telling
//!   incidents (retries, reroutes, escalations, throttle waits,
//!   stalls, …), kept regardless of sampling so the last
//!   few thousand incidents before an abort or panic are always
//!   available. [`EventRing::dump`] renders them; an abort handler and
//!   [`flight_dump_on_panic`] call it automatically.
//!
//! The ring is writable from any thread without locks or unsafe code:
//! every slot is a group of atomics guarded by a per-slot sequence word
//! (a seqlock). A writer claims a global cursor position, CASes the
//! slot's sequence from "lap complete" to "write in progress" (odd),
//! stores the fields, and release-stores "next lap complete" (even).
//! Readers snapshot a slot only if the sequence is even and unchanged
//! across the field reads. A writer that loses the CAS (a slot still
//! held by a stalled writer from a previous lap) drops its event; both
//! that and plain overwrites increment a live drop counter exported as
//! `oi_trace_dropped_total`, so silent loss is visible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::{Counter, Registry};

/// Which layer emitted an event, and what the `a`/`b` payload words mean.
///
/// Trace kinds (causal-tree edges):
///
/// | kind | emitted at | `a` | `b` |
/// |---|---|---|---|
/// | `VolumeRead`/`VolumeWrite` | volume op admitted | volume id | record |
/// | `Wave` | combining wave serves an op | wave id low bits | ops in wave |
/// | `BatchRead`/`BatchWrite` | store batch entry | chunks | 0 |
/// | `DiskRun` | coalesced per-disk run | disk | run length |
/// | `DegradedRead` | a group of reads takes the decode rungs | first data idx | chunks in group |
/// | `WriteGroup` | store write group | group size | 0 |
/// | `SchedOp` | DAG scheduler runs a node | op id | device |
/// | `Rebuild`/`RebuildRound` | rebuild root / one round | round | disks down |
/// | `DeviceRead`/`DeviceWrite` | block device completes I/O, outside a [`crate::without_leaves`] scope | first chunk | bytes |
///
/// Flight kinds (incident log): `a`/`b` carry the disk/chunk or
/// wait-nanoseconds involved; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A sampled volume read op was admitted (trace root).
    VolumeRead = 1,
    /// A sampled volume write op was admitted (trace root).
    VolumeWrite = 2,
    /// A combining wave executed on behalf of a traced op (fan-in edge).
    Wave = 3,
    /// A store batched read on behalf of a wave.
    BatchRead = 4,
    /// A store batched write on behalf of a wave.
    BatchWrite = 5,
    /// One coalesced per-disk run inside a batch (fan-out edge).
    DiskRun = 6,
    /// A group of reads (one or more chunks) fell back to erasure-coded
    /// reconstruction.
    DegradedRead = 7,
    /// One store write group inside a batched write.
    WriteGroup = 8,
    /// A scheduler DAG node executed for a traced request.
    SchedOp = 9,
    /// Root of an observed rebuild.
    Rebuild = 10,
    /// One self-healing round of an observed rebuild.
    RebuildRound = 11,
    /// A block device completed a read (`a` = chunk, `b` = bytes).
    DeviceRead = 12,
    /// A block device completed a write (`a` = chunk, `b` = bytes).
    DeviceWrite = 13,

    /// A device I/O was retried (`a` = chunk, `b` = attempt).
    Retry = 32,
    /// A device I/O stayed transient through its whole retry budget
    /// (`a` = chunk, `b` = attempts used).
    RetryExhausted = 33,
    /// A rebuild task was rerouted to surviving redundancy (`a` = disk).
    Reroute = 34,
    /// A disk was escalated to failed mid-rebuild (`a` = disk).
    Escalation = 35,
    // 36 is retired (a rebuild writeback skipped for a concurrent write):
    // codes are stable, so it is not reused.
    /// Rebuild QoS throttling slept (`a` = chunks, `b` = wait ns).
    ThrottleWait = 37,
    /// A tenant hit its rate cap and slept (`a` = tenant, `b` = wait ns).
    TenantCapWait = 38,
    /// A disk changed degraded state (`a` = disk, `b` = 1 failed/0 healed).
    DegradedTransition = 39,
    /// Rebuild fell behind its QoS debt ceiling (`a` = debt chunks).
    QosDebt = 40,
    /// A rebuild aborted (`a` = disks still failed).
    Abort = 41,
    /// A rebuild round made no progress (`a` = round).
    Stall = 42,
    /// A latent sector error was repaired in passing (`a` = disk, `b` = chunk).
    LatentRepair = 43,
    /// Journal recovery replayed intents on open (`a` = redone, `b` = rolled back).
    JournalReplay = 44,
    /// A rebuild resumed from a checkpoint (`a` = chunks already valid, `b` = total).
    CheckpointResume = 45,
    /// Journal recovery skipped corrupt mid-log records by resynchronizing
    /// to the next valid record boundary (`a` = corrupt gaps, `b` = bytes
    /// skipped).
    JournalCorruption = 46,
}

impl EventKind {
    /// Stable lowercase name used in JSON and dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::VolumeRead => "volume_read",
            Self::VolumeWrite => "volume_write",
            Self::Wave => "wave",
            Self::BatchRead => "batch_read",
            Self::BatchWrite => "batch_write",
            Self::DiskRun => "disk_run",
            Self::DegradedRead => "degraded_read",
            Self::WriteGroup => "write_group",
            Self::SchedOp => "sched_op",
            Self::Rebuild => "rebuild",
            Self::RebuildRound => "rebuild_round",
            Self::DeviceRead => "device_read",
            Self::DeviceWrite => "device_write",
            Self::Retry => "retry",
            Self::RetryExhausted => "retry_exhausted",
            Self::Reroute => "reroute",
            Self::Escalation => "escalation",
            Self::ThrottleWait => "throttle_wait",
            Self::TenantCapWait => "tenant_cap_wait",
            Self::DegradedTransition => "degraded_transition",
            Self::QosDebt => "qos_debt",
            Self::Abort => "abort",
            Self::Stall => "stall",
            Self::LatentRepair => "latent_repair",
            Self::JournalReplay => "journal_replay",
            Self::CheckpointResume => "checkpoint_resume",
            Self::JournalCorruption => "journal_corruption",
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::VolumeRead,
            2 => Self::VolumeWrite,
            3 => Self::Wave,
            4 => Self::BatchRead,
            5 => Self::BatchWrite,
            6 => Self::DiskRun,
            7 => Self::DegradedRead,
            8 => Self::WriteGroup,
            9 => Self::SchedOp,
            10 => Self::Rebuild,
            11 => Self::RebuildRound,
            12 => Self::DeviceRead,
            13 => Self::DeviceWrite,
            32 => Self::Retry,
            33 => Self::RetryExhausted,
            34 => Self::Reroute,
            35 => Self::Escalation,
            37 => Self::ThrottleWait,
            38 => Self::TenantCapWait,
            39 => Self::DegradedTransition,
            40 => Self::QosDebt,
            41 => Self::Abort,
            42 => Self::Stall,
            43 => Self::LatentRepair,
            44 => Self::JournalReplay,
            45 => Self::CheckpointResume,
            46 => Self::JournalCorruption,
            _ => return None,
        })
    }
}

/// One structured event, as read out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global publication order within the ring (0-based, monotone).
    pub seq: u64,
    /// Nanoseconds since the process-wide event epoch.
    pub ns: u64,
    /// What happened and which layer said so.
    pub kind: EventKind,
    /// This event's node id in the causal tree (0 = not part of a trace).
    pub trace: u64,
    /// The node this event hangs under (0 = root).
    pub parent: u64,
    /// Kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload word (see [`EventKind`]).
    pub b: u64,
}

impl Event {
    /// Renders as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"ns\":{},\"kind\":\"{}\",\"trace\":{},\"parent\":{},\"a\":{},\"b\":{}}}",
            self.seq,
            self.ns,
            self.kind.as_str(),
            self.trace,
            self.parent,
            self.a,
            self.b
        )
    }
}

/// One ring slot: a seqlock word plus the event fields. `seq_word` cycles
/// `2·lap` (lap complete, readable) → `2·lap+1` (write in progress) →
/// `2·(lap+1)`; readers accept only even-and-unchanged.
#[derive(Debug)]
struct Slot {
    seq_word: AtomicU64,
    seq_no: AtomicU64,
    ns: AtomicU64,
    kind: AtomicU64,
    trace: AtomicU64,
    parent: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq_word: AtomicU64::new(0),
            seq_no: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, lock-free ring of [`Event`]s (see module docs for
/// the seqlock protocol). Push never blocks; the ring keeps the most
/// recent `capacity` events and counts everything lost to overwrite or
/// writer collision in a live [`Counter`].
#[derive(Debug)]
pub struct EventRing {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    dropped: Counter,
    epoch: Instant,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events (min 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Self {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            cursor: AtomicU64::new(0),
            dropped: Counter::default(),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events lost: overwritten by newer pushes once the ring lapped, or
    /// abandoned because the slot was still held by a stalled writer.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The live drop counter, attachable to a [`Registry`] so exports
    /// track loss without polling.
    pub fn drop_counter(&self) -> Counter {
        self.dropped.clone()
    }

    /// Total events ever pushed (including dropped ones).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Publishes one event. Never blocks; may drop (counted) under
    /// extreme writer contention on a lapped slot.
    pub fn push(&self, kind: EventKind, trace: u64, parent: u64, a: u64, b: u64) {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let lap = n / cap;
        let slot = &self.slots[(n % cap) as usize];
        // Claim the slot for this lap: its last complete write must be
        // lap-1's (or the initial 0). A stalled writer from an older lap
        // still holds it — abandon rather than corrupt.
        if slot
            .seq_word
            .compare_exchange(2 * lap, 2 * lap + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.inc();
            return;
        }
        if lap > 0 {
            // We just overwrote lap-1's event.
            self.dropped.inc();
        }
        let ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        slot.seq_no.store(n, Ordering::Relaxed);
        slot.ns.store(ns, Ordering::Relaxed);
        slot.kind.store(kind as u16 as u64, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq_word.store(2 * (lap + 1), Ordering::Release);
    }

    /// A consistent copy of the current contents, oldest first. Torn
    /// slots (mid-write during the scan) are skipped, never misread.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.seq_word.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in progress
            }
            let seq = slot.seq_no.load(Ordering::Relaxed);
            let ns = slot.ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let trace = slot.trace.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq_word.load(Ordering::Acquire) != before {
                continue; // torn: a writer moved in under us
            }
            let Some(kind) = EventKind::from_u16(kind as u16) else {
                continue;
            };
            out.push(Event {
                seq,
                ns,
                kind,
                trace,
                parent,
                a,
                b,
            });
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Renders a snapshot as a JSON document:
    /// `{"dropped":N,"events":[…]}`.
    pub fn to_json(&self) -> String {
        let events = self.snapshot();
        let mut out = format!("{{\"dropped\":{},\"events\":[", self.dropped());
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Writes a human-readable dump of the current contents, newest
    /// last, with a reason header. Used by the abort path and the panic
    /// hook; safe to call from either.
    pub fn dump<W: std::io::Write>(&self, mut w: W, reason: &str) -> std::io::Result<()> {
        let events = self.snapshot();
        writeln!(
            w,
            "=== flight recorder dump: {reason} ({} events, {} dropped) ===",
            events.len(),
            self.dropped()
        )?;
        for e in &events {
            writeln!(
                w,
                "  [{:>10}ns] #{:<6} {:<20} trace={} parent={} a={} b={}",
                e.ns,
                e.seq,
                e.kind.as_str(),
                e.trace,
                e.parent,
                e.a,
                e.b
            )?;
        }
        writeln!(w, "=== end of dump ===")
    }
}

/// Events the process-wide trace ring holds before it wraps.
const TRACE_RING: usize = 65536;
/// Events the process-wide flight recorder holds before it wraps.
const FLIGHT_RING: usize = 4096;

/// The process-wide trace ring (`TRACE_RING` events).
pub fn traces() -> &'static EventRing {
    static RING: OnceLock<EventRing> = OnceLock::new();
    RING.get_or_init(|| EventRing::new(TRACE_RING))
}

/// The process-wide flight recorder (`FLIGHT_RING` events).
pub fn flight() -> &'static EventRing {
    static RING: OnceLock<EventRing> = OnceLock::new();
    RING.get_or_init(|| EventRing::new(FLIGHT_RING))
}

/// Publishes one causal-tree edge to the trace ring. Callers gate on a
/// non-zero trace id; this does not consult the sampler again.
#[inline]
pub fn trace_event(kind: EventKind, trace: u64, parent: u64, a: u64, b: u64) {
    traces().push(kind, trace, parent, a, b);
}

/// If the calling thread is inside a trace, mints a child node, records
/// the parent→child edge, and enters the child until the returned guard
/// drops. Outside a trace (`current_trace() == 0`) nothing is recorded
/// and `None` comes back — the untraced cost is one thread-local read.
///
/// This is the one-liner every interior layer uses to hang its stage
/// (a store batch, a per-disk run, a degraded reconstruct) under
/// whatever requested it.
#[inline]
pub fn trace_scope(kind: EventKind, a: u64, b: u64) -> Option<crate::TraceGuard> {
    let parent = crate::current_trace();
    if parent == 0 {
        return None;
    }
    let node = crate::alloc_trace_id();
    trace_event(kind, node, parent, a, b);
    Some(crate::enter_trace(node))
}

/// Publishes one incident to the flight recorder. Not gated by the
/// telemetry kill switch: incidents are rare and the black box must be
/// populated exactly when things go wrong. The ambient trace id (if the
/// recording thread has one) is attached automatically so incidents link
/// back into request trees.
#[inline]
pub fn flight_event(kind: EventKind, a: u64, b: u64) {
    let trace = crate::current_trace();
    flight().push(kind, trace, 0, a, b);
}

/// Installs a panic hook (once) that dumps the flight recorder to
/// stderr before delegating to the previous hook. Idempotent.
pub fn flight_dump_on_panic() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = flight().dump(std::io::stderr().lock(), "panic");
        prev(info);
    }));
}

/// Attaches the global rings' live drop counters to `reg` as
/// `oi_trace_dropped_total{ring="trace"|"flight"}`.
pub fn export_trace_metrics(reg: &Registry) {
    const HELP: &str = "Events lost to ring overwrite or writer collision";
    reg.register_counter(
        "oi_trace_dropped_total",
        HELP,
        &[("ring", "trace")],
        traces().drop_counter(),
    );
    reg.register_counter(
        "oi_trace_dropped_total",
        HELP,
        &[("ring", "flight")],
        flight().drop_counter(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot_roundtrip() {
        let ring = EventRing::new(8);
        ring.push(EventKind::VolumeRead, 10, 0, 3, 0);
        ring.push(EventKind::Wave, 11, 10, 1, 4);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::VolumeRead);
        assert_eq!(events[0].trace, 10);
        assert_eq!(events[1].parent, 10);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].ns <= events[1].ns);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.push(EventKind::Retry, 0, 0, i, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(events[0].a, 6, "oldest surviving event");
        assert_eq!(events[3].a, 9);
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        let ring = std::sync::Arc::new(EventRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // a and b carry a checksum pair: b must equal a ^ t.
                        r.push(EventKind::DeviceRead, t, 0, i, i ^ t);
                    }
                });
            }
            for _ in 0..2 {
                let r = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for _ in 0..200 {
                        for e in r.snapshot() {
                            assert_eq!(e.b, e.a ^ e.trace, "torn slot observed");
                        }
                    }
                });
            }
        });
        let total = ring.pushed();
        assert_eq!(total, 8000);
        let surviving = ring.snapshot().len() as u64;
        assert_eq!(
            surviving + ring.dropped(),
            total,
            "every event is either readable or counted as dropped"
        );
    }

    #[test]
    fn json_and_dump_render() {
        let ring = EventRing::new(8);
        ring.push(EventKind::Escalation, 5, 0, 2, 0);
        let j = ring.to_json();
        assert!(j.starts_with("{\"dropped\":0,\"events\":["));
        assert!(j.contains("\"kind\":\"escalation\""));
        assert!(j.contains("\"trace\":5"));
        let mut buf = Vec::new();
        ring.dump(&mut buf, "test").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("flight recorder dump: test"));
        assert!(text.contains("escalation"));
    }

    #[test]
    fn kind_roundtrips_through_u16() {
        for kind in [
            EventKind::VolumeRead,
            EventKind::Wave,
            EventKind::DiskRun,
            EventKind::SchedOp,
            EventKind::DeviceWrite,
            EventKind::Retry,
            EventKind::Escalation,
            EventKind::LatentRepair,
        ] {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
        }
        assert_eq!(EventKind::from_u16(999), None);
    }

    #[test]
    fn flight_event_attaches_ambient_trace() {
        let _g = crate::enter_trace(77);
        flight_event(EventKind::Stall, 1, 0);
        let found = flight()
            .snapshot()
            .iter()
            .any(|e| e.kind == EventKind::Stall && e.trace == 77);
        assert!(found, "flight event carries the ambient trace id");
    }

    #[test]
    fn export_registers_drop_counters() {
        let reg = Registry::new();
        export_trace_metrics(&reg);
        let text = reg.prometheus();
        assert!(text.contains("oi_trace_dropped_total{ring=\"flight\"}"));
        assert!(text.contains("oi_trace_dropped_total{ring=\"trace\"}"));
        crate::lint_prometheus(&text).expect("clean exposition");
    }
}
