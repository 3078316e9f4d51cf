//! Boundary spans recorded from outside the product.
//!
//! `root` wraps one call into the product (`bench.call`); [`SpanDevice`]
//! wraps a block device and records one child span per device call. A
//! child is parented to the calling thread's open root or, on the
//! product's own pool threads, to the single in-flight rebuild root.
//! Spans sit in per-thread vectors that move to a shared sink when the
//! thread ends (or on `flush_local`), and are only recorded while
//! `set_enabled(true)`: the untraced pass runs the same code with the
//! switch off.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use blockdev::{BlockDevice, CounterSnapshot, DeviceError, DeviceLatency};

/// What a span covers. Every `Call*` is a `bench.call` root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CallServe,
    CallDegradedSingle,
    CallDegradedBatch,
    CallRebuild,
    DeviceRead,
    DeviceWrite,
    DeviceFlush,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Self::CallServe
            | Self::CallDegradedSingle
            | Self::CallDegradedBatch
            | Self::CallRebuild => "bench.call",
            Self::DeviceRead => "device.read",
            Self::DeviceWrite => "device.write",
            Self::DeviceFlush => "device.flush",
        }
    }

    /// The product entry point a root span wraps.
    pub fn op(self) -> &'static str {
        match self {
            Self::CallServe => "serve",
            Self::CallDegradedSingle => "read_data",
            Self::CallDegradedBatch => "read_data_batch",
            Self::CallRebuild => "rebuild",
            _ => "",
        }
    }
}

/// One recorded interval. `parent == 0` marks a root; `root` is shared by
/// every span of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub root: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// The rebuild root that pool threads (which have no root of their own)
/// attach their device spans to; 0 when no rebuild is in flight.
static REBUILD_ROOT: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Local {
    spans: Vec<Span>,
    /// This thread's open root, 0 when none.
    root: u64,
    /// Ids are `thread << 40 | counter`: unique without a shared counter.
    thread: u64,
    next: u64,
}

impl Local {
    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.thread << 40 | self.next
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.spans);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        spans: Vec::new(),
        root: 0,
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next: 0,
    });
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` under a root span of `kind` on this thread.
pub fn root<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.next_id();
        l.root = id;
        id
    });
    if kind == Kind::CallRebuild {
        REBUILD_ROOT.store(id, Ordering::SeqCst);
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    if kind == Kind::CallRebuild {
        REBUILD_ROOT.store(0, Ordering::SeqCst);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.root = 0;
        l.spans.push(Span {
            id,
            parent: 0,
            root: id,
            kind,
            start_ns,
            end_ns,
        });
    });
    out
}

fn child<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let root = if l.root != 0 {
            l.root
        } else {
            REBUILD_ROOT.load(Ordering::SeqCst)
        };
        // A device call outside any root (set-up, verification) is not
        // part of a measured request.
        if root != 0 {
            let id = l.next_id();
            l.spans.push(Span {
                id,
                parent: root,
                root,
                kind,
                start_ns,
                end_ns,
            });
        }
    });
    out
}

/// Moves this thread's spans to the shared sink. Client threads call it
/// before they end; pool threads inside the product flush when their
/// thread-local storage is dropped.
pub fn flush_local() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        SINK.lock().expect("span sink").append(&mut l.spans);
    });
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    flush_local();
    std::mem::take(&mut *SINK.lock().expect("span sink"))
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-kind totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub roots: u64,
    /// Sum of root durations.
    pub root_ns: u64,
    /// Sum over roots of the root's duration minus the union of its
    /// children: time spent in the product itself, not in a device.
    pub self_ns: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub flush_ns: u64,
}

/// Aggregates the roots of kind `root_kind` and their children.
pub fn totals(spans: &[Span], root_kind: Kind) -> Totals {
    let mut t = Totals::default();
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.kind == root_kind).collect();
    roots.sort_unstable_by_key(|s| s.id);
    let mut children: Vec<&Span> = spans.iter().filter(|s| s.parent != 0).collect();
    children.sort_unstable_by_key(|s| s.root);
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    for r in roots {
        let lo = children.partition_point(|c| c.root < r.id);
        let hi = children.partition_point(|c| c.root <= r.id);
        scratch.clear();
        for c in &children[lo..hi] {
            let d = c.end_ns - c.start_ns;
            match c.kind {
                Kind::DeviceRead => t.read_ns += d,
                Kind::DeviceWrite => t.write_ns += d,
                Kind::DeviceFlush => t.flush_ns += d,
                _ => {}
            }
            scratch.push((c.start_ns, c.end_ns));
        }
        let dur = r.end_ns - r.start_ns;
        t.roots += 1;
        t.root_ns += dur;
        t.self_ns += dur - union_len(&mut scratch, r.start_ns, r.end_ns);
    }
    t
}

/// Writes `spans` (a selection of the `recorded` spans of a run) as JSON,
/// each request's root first and then its children in start order.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    recorded: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_unstable_by_key(|s| (s.root, s.parent != 0, s.start_ns));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{recorded},\"spans_written\":{},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.root,
            s.kind.name(),
            s.kind.op(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

/// A block device that records a child span around `read_chunk`,
/// `read_chunks`, `write_chunk` and `flush`, counts flushes (the product's
/// device counters have no flush count), and forwards everything else.
/// `read_chunks` goes to the inner device's own implementation: falling
/// back to the trait's per-chunk default would change the program being
/// measured.
#[derive(Debug)]
pub struct SpanDevice<B> {
    inner: B,
    flushes: Arc<AtomicU64>,
}

impl<B: BlockDevice> SpanDevice<B> {
    /// Wraps `inner`; `flushes` is shared by all devices of one array.
    pub fn new(inner: B, flushes: Arc<AtomicU64>) -> Self {
        Self { inner, flushes }
    }
}

impl<B: BlockDevice> BlockDevice for SpanDevice<B> {
    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn chunks(&self) -> usize {
        self.inner.chunks()
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }

    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        child(Kind::DeviceRead, || self.inner.read_chunk(chunk, buf))
    }

    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        child(Kind::DeviceRead, || {
            self.inner.read_chunks(first, count, buf)
        })
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        child(Kind::DeviceWrite, || self.inner.write_chunk(chunk, data))
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        child(Kind::DeviceFlush, || self.inner.flush())
    }

    fn fail(&self) {
        self.inner.fail();
    }

    fn heal(&self) -> Result<(), DeviceError> {
        self.inner.heal()
    }

    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
    }

    fn latency(&self) -> DeviceLatency {
        self.inner.latency()
    }
}

/// A file device whose `flush` returns without the `fdatasync`, as a file
/// on tmpfs would: `serve_durable`'s member disks in both passes. The
/// product still decides when to flush what and in which order; only the
/// system call is left out, because its cost on the checkout's disk drifts
/// by a third over minutes (README, "Decisions"). Everything else goes to
/// the inner device, `read_chunks` included. The journal's own `fdatasync`
/// is not a device call and stays real.
#[derive(Debug)]
pub struct NoSync<B>(pub B);

impl<B: BlockDevice> BlockDevice for NoSync<B> {
    fn chunk_size(&self) -> usize {
        self.0.chunk_size()
    }

    fn chunks(&self) -> usize {
        self.0.chunks()
    }

    fn is_failed(&self) -> bool {
        self.0.is_failed()
    }

    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.0.read_chunk(chunk, buf)
    }

    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.0.read_chunks(first, count, buf)
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.0.write_chunk(chunk, data)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        if self.0.is_failed() {
            Err(DeviceError::Failed)
        } else {
            Ok(())
        }
    }

    fn fail(&self) {
        self.0.fail();
    }

    fn heal(&self) -> Result<(), DeviceError> {
        self.0.heal()
    }

    fn counters(&self) -> CounterSnapshot {
        self.0.counters()
    }

    fn reset_counters(&self) {
        self.0.reset_counters();
    }

    fn latency(&self) -> DeviceLatency {
        self.0.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Serialises the tests that call device methods: one of them turns
    /// the process-wide recording switch on.
    static DEVICE_TESTS: Mutex<()> = Mutex::new(());

    /// Counts every trait call and answers with recognisable values.
    #[derive(Debug, Default)]
    struct Probe {
        read_chunk: AtomicUsize,
        read_chunks: AtomicUsize,
        write_chunk: AtomicUsize,
        flush: AtomicUsize,
        fail: AtomicUsize,
        heal: AtomicUsize,
        counters: AtomicUsize,
        reset_counters: AtomicUsize,
        latency: AtomicUsize,
    }

    impl BlockDevice for &Probe {
        fn chunk_size(&self) -> usize {
            8
        }
        fn chunks(&self) -> usize {
            5
        }
        fn is_failed(&self) -> bool {
            self.fail.load(Ordering::Relaxed) > self.heal.load(Ordering::Relaxed)
        }
        fn read_chunk(&self, _: usize, _: &mut [u8]) -> Result<(), DeviceError> {
            self.read_chunk.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn read_chunks(&self, _: usize, _: usize, _: &mut [u8]) -> Result<(), DeviceError> {
            self.read_chunks.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn write_chunk(&self, _: usize, _: &[u8]) -> Result<(), DeviceError> {
            self.write_chunk.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn flush(&self) -> Result<(), DeviceError> {
            self.flush.fetch_add(1, Ordering::Relaxed);
            Err(DeviceError::Failed)
        }
        fn fail(&self) {
            self.fail.fetch_add(1, Ordering::Relaxed);
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.heal.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn counters(&self) -> CounterSnapshot {
            self.counters.fetch_add(1, Ordering::Relaxed);
            CounterSnapshot {
                reads: 41,
                ..CounterSnapshot::default()
            }
        }
        fn reset_counters(&self) {
            self.reset_counters.fetch_add(1, Ordering::Relaxed);
        }
        fn latency(&self) -> DeviceLatency {
            self.latency.fetch_add(1, Ordering::Relaxed);
            DeviceLatency::default()
        }
    }

    #[test]
    fn span_device_forwards_every_method_to_the_inner_device() {
        let _serial = DEVICE_TESTS.lock().unwrap();
        let probe = Probe::default();
        let flushes = Arc::new(AtomicU64::new(0));
        let dev = SpanDevice::new(&probe, Arc::clone(&flushes));
        let mut buf = [0u8; 24];
        assert_eq!((dev.chunk_size(), dev.chunks()), (8, 5));
        dev.read_chunk(0, &mut buf[..8]).unwrap();
        // One run of three chunks is ONE inner read_chunks call and no
        // per-chunk reads: the trait default must not be used.
        dev.read_chunks(1, 3, &mut buf).unwrap();
        dev.write_chunk(2, &buf[..8]).unwrap();
        assert_eq!(dev.flush(), Err(DeviceError::Failed), "errors pass through");
        dev.fail();
        assert!(dev.is_failed());
        dev.heal().unwrap();
        assert!(!dev.is_failed());
        assert_eq!(dev.counters().reads, 41);
        dev.reset_counters();
        let _ = dev.latency();
        let n = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        assert_eq!(
            [
                n(&probe.read_chunk),
                n(&probe.read_chunks),
                n(&probe.write_chunk),
                n(&probe.flush),
                n(&probe.fail),
                n(&probe.heal),
                n(&probe.counters),
                n(&probe.reset_counters),
                n(&probe.latency),
            ],
            [1; 9]
        );
        assert_eq!(flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn no_sync_answers_flush_itself_and_forwards_the_rest() {
        let _serial = DEVICE_TESTS.lock().unwrap();
        let probe = Probe::default();
        let dev = NoSync(&probe);
        let mut buf = [0u8; 24];
        assert_eq!((dev.chunk_size(), dev.chunks()), (8, 5));
        dev.read_chunk(0, &mut buf[..8]).unwrap();
        dev.read_chunks(1, 3, &mut buf).unwrap();
        dev.write_chunk(2, &buf[..8]).unwrap();
        assert_eq!(dev.flush(), Ok(()), "the probe's flush would have failed");
        dev.fail();
        assert!(dev.is_failed());
        assert_eq!(dev.flush(), Err(DeviceError::Failed), "as FileDevice does");
        dev.heal().unwrap();
        assert!(!dev.is_failed());
        assert_eq!(dev.counters().reads, 41);
        dev.reset_counters();
        let _ = dev.latency();
        let n = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        assert_eq!(
            [
                n(&probe.read_chunk),
                n(&probe.read_chunks),
                n(&probe.write_chunk),
                n(&probe.flush),
                n(&probe.fail),
                n(&probe.heal),
                n(&probe.counters),
                n(&probe.reset_counters),
                n(&probe.latency),
            ],
            [1, 1, 1, 0, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_root() {
        assert_eq!(union_len(&mut [], 0, 100), 0);
        assert_eq!(union_len(&mut [(10, 20), (30, 40)], 0, 100), 20);
        assert_eq!(union_len(&mut [(30, 40), (10, 35), (12, 14)], 0, 100), 30);
        assert_eq!(union_len(&mut [(0, 50), (90, 150)], 20, 100), 40);
        assert_eq!(union_len(&mut [(5, 5), (7, 6)], 0, 10), 0);
    }

    #[test]
    fn self_time_is_root_minus_union_of_children() {
        let span = |id, parent, root, kind, start_ns, end_ns| Span {
            id,
            parent,
            root,
            kind,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 1, Kind::CallServe, 0, 100),
            // Two overlapping reads (pool threads) and one write.
            span(2, 1, 1, Kind::DeviceRead, 10, 30),
            span(3, 1, 1, Kind::DeviceRead, 20, 40),
            span(4, 1, 1, Kind::DeviceWrite, 60, 70),
            span(5, 0, 5, Kind::CallServe, 200, 250),
            span(6, 5, 5, Kind::DeviceFlush, 210, 220),
            // A root of another kind is not counted.
            span(7, 0, 7, Kind::CallRebuild, 300, 400),
            span(8, 7, 7, Kind::DeviceRead, 300, 400),
        ];
        let t = totals(&spans, Kind::CallServe);
        assert_eq!(
            t,
            Totals {
                roots: 2,
                root_ns: 150,
                self_ns: (100 - 30 - 10) + (50 - 10),
                read_ns: 40,
                write_ns: 10,
                flush_ns: 10,
            }
        );
        assert_eq!(totals(&spans, Kind::CallRebuild).self_ns, 0);
    }

    #[test]
    fn recorded_children_link_to_their_root() {
        let _serial = DEVICE_TESTS.lock().unwrap();
        let probe = Probe::default();
        let dev = SpanDevice::new(&probe, Arc::new(AtomicU64::new(0)));
        let mut buf = [0u8; 8];
        dev.read_chunk(0, &mut buf).unwrap();
        assert!(drain().is_empty(), "nothing is recorded while disabled");
        set_enabled(true);
        dev.read_chunk(0, &mut buf).unwrap();
        root(Kind::CallServe, || {
            dev.read_chunk(0, &mut buf).unwrap();
            dev.write_chunk(0, &buf).unwrap();
        });
        root(Kind::CallRebuild, || {
            std::thread::scope(|s| {
                s.spawn(|| {
                    dev.read_chunk(0, &mut [0u8; 8]).unwrap();
                    flush_local();
                });
            });
        });
        set_enabled(false);
        let spans = drain();
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 2);
        let serve = roots.iter().find(|s| s.kind == Kind::CallServe).unwrap();
        let rebuild = roots.iter().find(|s| s.kind == Kind::CallRebuild).unwrap();
        let kinds_under = |r: &Span| -> Vec<Kind> {
            spans
                .iter()
                .filter(|s| s.parent == r.id && s.root == r.id)
                .map(|s| s.kind)
                .collect()
        };
        assert_eq!(
            kinds_under(serve),
            [Kind::DeviceRead, Kind::DeviceWrite],
            "the read outside any root is dropped"
        );
        assert_eq!(kinds_under(rebuild), [Kind::DeviceRead], "pool thread");
        assert_eq!(spans.len(), 5);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }
}
