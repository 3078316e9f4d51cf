//! Labeled metric registry: counters, gauges, and histograms, keyed by
//! `(name, labels)`, exported via the functions in [`crate::export`].
//!
//! The registry is shared by reference (`&Registry` or `Arc<Registry>`);
//! registration hands back cheap atomic handles ([`Counter`], [`Gauge`],
//! `Arc<Histogram>`) that are updated without touching the registry lock.
//! Existing live histograms (e.g. a block device's latency histogram) can
//! be attached with [`Registry::register_histogram`] so exports always
//! see current values.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::Histogram;

/// A monotonically-presented counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the absolute value (exporters mirroring an external counter
    /// snapshot use this; prefer `inc*` for live counting).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `(name, sorted labels)` — the identity of one time series.
pub(crate) type Key = (String, Vec<(String, String)>);

/// Error from fallible registration ([`Registry::try_counter`] and
/// friends): the series name is already taken by a different metric type.
///
/// Same-kind duplicates are *not* errors — registration is idempotent and
/// returns the existing handle, so two subsystems exporting the same
/// series coexist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `name` is already registered with a different metric type.
    KindMismatch {
        /// The conflicting metric name.
        name: String,
        /// The kind already registered under `name`.
        existing: &'static str,
        /// The kind the caller asked for.
        requested: &'static str,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::KindMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "{name} already registered as {existing} (requested {requested})"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// Sorted by key so exports are deterministic and series of one
    /// metric name are contiguous.
    pub(crate) metrics: BTreeMap<Key, Metric>,
    /// Help text per metric name.
    pub(crate) help: BTreeMap<String, String>,
}

/// A registry of labeled metrics.
///
/// # Example
///
/// ```
/// use telemetry::Registry;
///
/// let reg = Registry::new();
/// let c = reg.counter("oi_chunks_total", "Chunks rebuilt", &[("mode", "parallel")]);
/// c.inc_by(27);
/// let text = reg.prometheus();
/// assert!(text.contains("# TYPE oi_chunks_total counter"));
/// assert!(text.contains("oi_chunks_total{mode=\"parallel\"} 27"));
/// telemetry::lint_prometheus(&text).expect("valid exposition");
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) inner: Mutex<Inner>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: Metric,
    ) -> Metric {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_name(k) && *k != "le"),
            "invalid label name in {labels:?}"
        );
        let mut inner = self.inner.lock().expect("registry lock");
        inner
            .help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
        let key = make_key(name, labels);
        let entry = inner.metrics.entry(key).or_insert(make);
        entry.clone()
    }

    /// Registers (or fetches) a counter series. Idempotent: a duplicate
    /// registration with the same kind returns the existing handle.
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] if `name` is already registered
    /// with a different metric type.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name (a caller bug, not a runtime
    /// condition).
    pub fn try_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Counter, RegistryError> {
        match self.get_or_insert(name, help, labels, Metric::Counter(Counter::default())) {
            Metric::Counter(c) => Ok(c),
            other => Err(RegistryError::KindMismatch {
                name: name.to_string(),
                existing: other.kind(),
                requested: "counter",
            }),
        }
    }

    /// Registers (or fetches) a counter series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or if `name` is already
    /// registered with a different metric type (use
    /// [`Registry::try_counter`] to handle that without panicking).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.try_counter(name, help, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers (or fetches) a gauge series. Idempotent like
    /// [`Registry::try_counter`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] on a metric-type conflict.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name.
    pub fn try_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Gauge, RegistryError> {
        match self.get_or_insert(name, help, labels, Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => Ok(g),
            other => Err(RegistryError::KindMismatch {
                name: name.to_string(),
                existing: other.kind(),
                requested: "gauge",
            }),
        }
    }

    /// Registers (or fetches) a gauge series.
    ///
    /// # Panics
    ///
    /// As for [`Registry::counter`]; see [`Registry::try_gauge`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.try_gauge(name, help, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers (or fetches) a histogram series owned by the registry.
    /// Idempotent like [`Registry::try_counter`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] on a metric-type conflict.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name.
    pub fn try_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Histogram>, RegistryError> {
        match self.get_or_insert(
            name,
            help,
            labels,
            Metric::Histogram(Arc::new(Histogram::new())),
        ) {
            Metric::Histogram(h) => Ok(h),
            other => Err(RegistryError::KindMismatch {
                name: name.to_string(),
                existing: other.kind(),
                requested: "histogram",
            }),
        }
    }

    /// Registers (or fetches) a histogram series owned by the registry.
    ///
    /// # Panics
    ///
    /// As for [`Registry::counter`]; see [`Registry::try_histogram`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.try_histogram(name, help, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn attach(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        metric: Metric,
    ) -> Result<(), RegistryError> {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_name(k) && *k != "le"),
            "invalid label name in {labels:?}"
        );
        let mut inner = self.inner.lock().expect("registry lock");
        let key = make_key(name, labels);
        if let Some(existing) = inner.metrics.get(&key) {
            if existing.kind() != metric.kind() {
                return Err(RegistryError::KindMismatch {
                    name: name.to_string(),
                    existing: existing.kind(),
                    requested: metric.kind(),
                });
            }
        }
        inner
            .help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
        inner.metrics.insert(key, metric);
        Ok(())
    }

    /// Attaches an existing live histogram (replacing any histogram
    /// already registered under the same name and labels), so exports see
    /// its current contents without copying.
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] if `name` is registered with a
    /// non-histogram type.
    ///
    /// # Panics
    ///
    /// Panics on invalid metric/label names.
    pub fn try_register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: Arc<Histogram>,
    ) -> Result<(), RegistryError> {
        self.attach(name, help, labels, Metric::Histogram(hist))
    }

    /// Attaches an existing live histogram (replacing any histogram
    /// already registered under the same name and labels), so exports see
    /// its current contents without copying.
    ///
    /// # Panics
    ///
    /// Panics on invalid names or if `name` is registered with a
    /// non-histogram type (use [`Registry::try_register_histogram`] to
    /// handle that without panicking).
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: Arc<Histogram>,
    ) {
        self.try_register_histogram(name, help, labels, hist)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches an existing live counter handle (replacing any counter
    /// already registered under the same name and labels), so exports see
    /// its current value without copying — the counter analogue of
    /// [`Registry::try_register_histogram`]. A [`Counter`] created with
    /// `Counter::default()` works standalone and can be attached later.
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] if `name` is registered with a
    /// non-counter type.
    ///
    /// # Panics
    ///
    /// Panics on invalid metric/label names.
    pub fn try_register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        c: Counter,
    ) -> Result<(), RegistryError> {
        self.attach(name, help, labels, Metric::Counter(c))
    }

    /// Attaches an existing live counter handle, panicking on conflict.
    ///
    /// # Panics
    ///
    /// Panics on invalid names or if `name` is registered with a
    /// non-counter type (use [`Registry::try_register_counter`] to handle
    /// that without panicking).
    pub fn register_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], c: Counter) {
        self.try_register_counter(name, help, labels, c)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches an existing live gauge handle (replacing any gauge already
    /// registered under the same name and labels) — the gauge analogue of
    /// [`Registry::register_counter`], used e.g. for the DAG scheduler's
    /// queue-depth and in-flight gauges.
    ///
    /// # Errors
    ///
    /// [`RegistryError::KindMismatch`] if `name` is registered with a
    /// non-gauge type.
    ///
    /// # Panics
    ///
    /// Panics on invalid metric/label names.
    pub fn try_register_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        g: Gauge,
    ) -> Result<(), RegistryError> {
        self.attach(name, help, labels, Metric::Gauge(g))
    }

    /// Attaches an existing live gauge handle, panicking on conflict.
    ///
    /// # Panics
    ///
    /// Panics on invalid names or if `name` is registered with a non-gauge
    /// type (use [`Registry::try_register_gauge`] to handle that without
    /// panicking).
    pub fn register_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], g: Gauge) {
        self.try_register_gauge(name, help, labels, g)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").metrics.len()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_identity_is_name_plus_sorted_labels() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x_total", "x", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc_by(2);
        assert_eq!(a.get(), 3, "same series regardless of label order");
        let c = reg.counter("x_total", "x", &[("a", "2")]);
        c.inc();
        assert_eq!(c.get(), 1, "different labels, different series");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn attached_histogram_is_shared() {
        let _switches = crate::hold_switches();
        let reg = Registry::new();
        let h = Arc::new(Histogram::new());
        reg.register_histogram("lat_ns", "latency", &[("disk", "0")], Arc::clone(&h));
        h.record(42);
        let again = reg.histogram("lat_ns", "latency", &[("disk", "0")]);
        assert_eq!(again.count(), 1, "registry returns the attached one");
    }

    #[test]
    fn attached_counter_is_shared() {
        let reg = Registry::new();
        let c = Counter::default();
        c.inc_by(7); // standalone before attaching
        reg.register_counter("heals_total", "repairs", &[("kind", "latent")], c.clone());
        c.inc();
        let again = reg.counter("heals_total", "repairs", &[("kind", "latent")]);
        assert_eq!(again.get(), 8, "registry returns the attached handle");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("m", "m", &[]);
        reg.gauge("m", "m", &[]);
    }

    #[test]
    fn duplicate_same_kind_is_idempotent() {
        let reg = Registry::new();
        let a = reg.try_counter("dup_total", "d", &[]).unwrap();
        a.inc_by(3);
        let b = reg.try_counter("dup_total", "d", &[]).unwrap();
        assert_eq!(b.get(), 3, "second registration returns the same handle");
        assert_eq!(reg.len(), 1);
        reg.try_gauge("g", "g", &[]).unwrap();
        reg.try_gauge("g", "g", &[]).unwrap();
        reg.try_histogram("h", "h", &[]).unwrap();
        reg.try_histogram("h", "h", &[]).unwrap();
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn kind_mismatch_is_an_error_not_a_crash() {
        let reg = Registry::new();
        reg.try_counter("m_total", "m", &[]).unwrap();
        let err = reg.try_gauge("m_total", "m", &[]).unwrap_err();
        assert_eq!(
            err,
            RegistryError::KindMismatch {
                name: "m_total".into(),
                existing: "counter",
                requested: "gauge",
            }
        );
        assert!(err.to_string().contains("already registered"), "{err}");
        let err = reg
            .try_histogram("m_total", "m", &[])
            .expect_err("histogram over counter");
        assert!(matches!(err, RegistryError::KindMismatch { .. }));
        // The original series is untouched and still usable.
        let c = reg.try_counter("m_total", "m", &[]).unwrap();
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn attach_conflicts_are_errors_and_do_not_clobber() {
        let reg = Registry::new();
        let c = reg.counter("series", "s", &[]);
        c.inc_by(5);
        let err = reg
            .try_register_histogram("series", "s", &[], Arc::new(Histogram::new()))
            .unwrap_err();
        assert!(matches!(err, RegistryError::KindMismatch { .. }));
        assert_eq!(
            reg.counter("series", "s", &[]).get(),
            5,
            "failed attach leaves the existing series intact"
        );
        let g = reg.gauge("depth", "d", &[]);
        g.set(2);
        let err = reg
            .try_register_counter("depth", "d", &[], Counter::default())
            .unwrap_err();
        assert!(err.to_string().contains("gauge"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_rejected() {
        Registry::new().counter("9bad", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn le_label_reserved() {
        Registry::new().histogram("h", "", &[("le", "5")]);
    }
}
