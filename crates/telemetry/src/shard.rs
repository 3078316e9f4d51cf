//! Per-thread shards: counts, stamps and histograms that a thread writes on
//! a cache line of its own.
//!
//! One `AtomicU64` that every thread bumps per request costs each bump a
//! cache-line transfer as soon as a second thread does the same, so a
//! second client pays for the first. [`Sharded`] keeps [`SHARDS`] cells,
//! each on its own 128-byte line; a thread always writes the cell its
//! thread-local index names (handed out round-robin on the thread's first
//! use), and a read folds every cell. The first [`SHARDS`] threads of a
//! process each get a cell to themselves; later ones share, which stays
//! exact (every write is still an atomic read-modify-write), only no
//! longer private. [`crate::Histogram`] shards the same way, by the same
//! index.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cells per [`Sharded`] value and shards per [`crate::Histogram`]. A
/// constant: a thread's cell is one thread-local load away, and a reader
/// folds a fixed, small array.
pub(crate) const SHARDS: usize = 8;

/// A thread's index before its first use.
const UNASSIGNED: usize = usize::MAX;

/// Round-robin source of thread indices.
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static INDEX: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// The calling thread's shard, `0..SHARDS`. Assigned on first use, in
/// turn, so threads that start one after the other land in different
/// shards.
#[inline]
pub(crate) fn shard_index() -> usize {
    INDEX.with(|index| match index.get() {
        UNASSIGNED => {
            let at = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            index.set(at);
            at
        }
        at => at,
    })
}

/// One cell, alone on its cache line (128 bytes covers the adjacent-line
/// prefetcher's pair as well).
#[repr(align(128))]
struct Line(AtomicU64);

/// A `u64` split over eight per-thread cells: a sum ([`Sharded::add`]
/// / [`Sharded::get`]) or a latest stamp ([`Sharded::store`] /
/// [`Sharded::max`]). Writes are relaxed atomics on the calling thread's
/// own cell; reads fold all cells, so they are exact once writers quiesce
/// and may lag in-flight writes, as a single relaxed atomic would.
///
/// # Example
///
/// ```
/// use telemetry::Sharded;
///
/// static OPS: Sharded = Sharded::new();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| (0..1000).for_each(|_| OPS.add(1)));
///     }
/// });
/// assert_eq!(OPS.get(), 4000);
/// ```
pub struct Sharded {
    cells: [Line; SHARDS],
}

impl Sharded {
    /// All cells zero.
    pub const fn new() -> Self {
        Self {
            cells: [const { Line(AtomicU64::new(0)) }; SHARDS],
        }
    }

    #[inline]
    fn mine(&self) -> &AtomicU64 {
        &self.cells[shard_index()].0
    }

    /// Adds `n` to the calling thread's cell (wrapping, like
    /// `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.mine().fetch_add(n, Ordering::Relaxed);
    }

    /// The sum over all cells, with wrapping adds: what one atomic
    /// receiving every [`Sharded::add`] would hold.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .fold(0, |sum, c| sum.wrapping_add(c.0.load(Ordering::Relaxed)))
    }

    /// Overwrites the calling thread's cell with `v` — a stamp that only
    /// ever grows per thread (a clock reading), read back by
    /// [`Sharded::max`].
    #[inline]
    pub fn store(&self, v: u64) {
        self.mine().store(v, Ordering::Relaxed);
    }

    /// The largest cell: the latest stamp any thread stored.
    pub fn max(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Sets every cell to zero.
    pub fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Sharded {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sharded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sharded({})", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_threads_land_in_different_shards() {
        // Indices go round-robin on first use, so two threads that start
        // one after the other differ unless exactly SHARDS - 1 (mod SHARDS)
        // other threads took an index in between.
        let first = std::thread::spawn(shard_index).join().expect("thread");
        let second = std::thread::spawn(shard_index).join().expect("thread");
        assert_ne!(first, second);
        assert!(first < SHARDS && second < SHARDS);
        // A thread keeps its index.
        assert_eq!(shard_index(), shard_index());
    }

    #[test]
    fn a_stamp_from_any_thread_is_seen() {
        let stamp = Sharded::new();
        std::thread::scope(|s| {
            s.spawn(|| stamp.store(7));
        });
        stamp.store(5);
        assert_eq!(stamp.max(), 7, "the largest stamp of any thread is read");
        stamp.reset();
        assert_eq!((stamp.max(), stamp.get()), (0, 0));
    }
}
