//! Online-rebuild coordination: chunk availability during a rebuild and
//! the dirty-region tracker that keeps foreground writes from being
//! clobbered by stale reconstructed data.
//!
//! While a rebuild is in flight the target disks are physically healed
//! (writable) but their contents are garbage until the rebuilder writes
//! each chunk back. The [`RebuildWindow`] records which disks are in that
//! state and which of their chunks have already been restored, so every
//! read path can treat not-yet-rebuilt chunks as missing.
//!
//! Foreground writes that land while the window is open mark the parity
//! *relations* they touch — an outer stripe or an inner row — dirty. A
//! rebuild round reads source chunks without region locks, so a
//! concurrent write can hand it a torn view (new data, old parity, or any
//! mix); reconstructions derived from a dirtied relation are discarded at
//! writeback instead of overwriting the foreground data, and the next
//! round recomputes them from the updated parity.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use layout::ChunkAddr;

/// Number of lock stripes parity relations hash onto (a power of two; 32 KiB
/// of `Mutex<()>` per store). One chunk write holds the stripes of its 3
/// relations (its inner row, its outer stripe, the outer parity's row), so
/// two writes that share no relation still share a stripe in about
/// 3 · 3 / 4096 ≈ 0.2 % of pairs (measured 0.2 % over the 21-disk serving
/// array; at the former 64 stripes it was about 13 %). A full write group of
/// `MAX_WRITE_GROUP` = 32 chunks holds up to 96 stripes, so two full groups
/// still collide nine times in ten (1 − e^(−96·96/4096)): a group is
/// region-scoped as a whole, not per member.
const LOCK_STRIPES: usize = 4096;

/// One parity relation of the two-layer code, used as the granularity of
/// dirty tracking: a foreground write invalidates reconstructions that
/// read any chunk of a relation it modified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Region {
    /// An outer stripe: `(block, stripe)`.
    Stripe(usize, usize),
    /// An inner row: `(group, row)`.
    Row(usize, usize),
}

/// Availability + dirty state for one in-flight rebuild.
#[derive(Debug, Default)]
pub(crate) struct RebuildWindow {
    /// Disks whose devices are healed but whose contents are only valid
    /// where `valid` says so.
    pub disks: BTreeSet<usize>,
    /// Chunks on `disks` that have been written back and are trustworthy.
    pub valid: HashSet<ChunkAddr>,
    /// Relations modified by foreground writes since the last round
    /// started.
    pub dirty: HashSet<Region>,
}

/// Guards held for the duration of one region-scoped read-modify-write:
/// the stripe mutexes covering every relation the operation touches.
/// Dropping the struct releases them.
pub(crate) struct RegionGuards<'a> {
    _stripes: Vec<MutexGuard<'a, ()>>,
}

/// Per-store online-I/O state. Cloning a store starts with fresh state
/// (no rebuild in flight), mirroring how telemetry clones.
#[derive(Debug)]
pub(crate) struct OnlineState {
    /// The update locks, one tier: every operation that reads or changes
    /// chunks under a relation (a foreground read or RMW, a rebuild
    /// writeback, a scrub repair) holds the stripe mutexes its relations
    /// hash to. Two operations whose relation sets intersect always share
    /// at least one stripe mutex, so each relation is updated atomically
    /// without serializing writers that touch disjoint relations.
    stripes: Vec<Mutex<()>>,
    window: Mutex<Option<RebuildWindow>>,
    /// Counts the window's edges — `begin`, `escalate`, `end` — so it is odd
    /// exactly while `window` holds `Some`, and is readable without the
    /// mutex. Written only under the `window` mutex. It serves two purposes.
    ///
    /// *Flag.* The per-chunk queries load it first and return when it is
    /// even: no rebuild in flight, no mutex. The one ordering rule:
    /// [`OnlineState::begin`] and [`OnlineState::escalate`] bump it
    /// (`SeqCst`) *before* any device of the window is healed, and a
    /// device's heal is a `Release` store that `is_failed` loads with
    /// `Acquire` (see `BlockDevice::heal`). So a thread that finds a window
    /// disk healthy again and then loads this counter reads an odd value,
    /// takes the mutex and sees the window — a healed-but-unrebuilt chunk
    /// never reads as valid. A stale odd value only costs one trip through
    /// the mutex.
    ///
    /// *Ticket.* Availability is checked before the device read, without a
    /// lock held across the two, and a whole fail → `begin` → heal fits in
    /// between: the read would return the blank disk's zeroes for a chunk
    /// that was valid when asked. Readers therefore take [`Self::epoch`]
    /// before they ask and accept the bytes only if it is unchanged after
    /// the read; otherwise they ask again.
    epoch: AtomicU64,
    /// Test builds only: acquisitions of the `window` mutex.
    #[cfg(test)]
    window_locks: std::sync::atomic::AtomicUsize,
    /// Test builds only: calls of `lock_regions`.
    #[cfg(test)]
    update_locks: std::sync::atomic::AtomicUsize,
}

impl Default for OnlineState {
    fn default() -> Self {
        Self {
            stripes: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            window: Mutex::new(None),
            epoch: AtomicU64::new(0),
            #[cfg(test)]
            window_locks: Default::default(),
            #[cfg(test)]
            update_locks: Default::default(),
        }
    }
}

impl std::fmt::Debug for RegionGuards<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionGuards")
            .field("stripes", &self._stripes.len())
            .finish()
    }
}

impl Clone for OnlineState {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The lock stripe of a relation: a multiplicative mix of its tag and two
/// integers, keeping the product's top bits (the well-mixed ones). The keys
/// are small dense integers the layout generates, not outside input, so no
/// keyed hash is needed — this runs 4 to 128 times per write group.
pub(crate) fn stripe_of(region: &Region) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15; // 2^64 / golden ratio, odd
    let (tag, a, b) = match *region {
        Region::Stripe(block, stripe) => (0, block, stripe),
        Region::Row(group, row) => (1, group, row),
    };
    let key = (a as u64).wrapping_mul(K) ^ ((b as u64) << 1 | tag);
    (key.wrapping_mul(K) >> (u64::BITS - LOCK_STRIPES.trailing_zeros())) as usize
}

/// The stripes [`OnlineState::lock_regions`] takes for `regions`, in the
/// order it takes them: deduplicated and strictly ascending.
pub(crate) fn stripe_order(regions: &[Region]) -> Vec<usize> {
    let mut idx: Vec<usize> = regions.iter().map(stripe_of).collect();
    idx.sort_unstable();
    idx.dedup();
    idx
}

impl OnlineState {
    /// Takes the update lock for one bounded operation: the stripe mutex
    /// of every relation in `regions`. Stripe indices are deduplicated and
    /// acquired in ascending order, so concurrent callers cannot deadlock;
    /// callers whose relation sets intersect always contend on a common
    /// stripe.
    pub fn lock_regions(&self, regions: &[Region]) -> RegionGuards<'_> {
        #[cfg(test)]
        self.update_locks.fetch_add(1, Ordering::Relaxed);
        let stripes = stripe_order(regions)
            .into_iter()
            // A panic while holding a stripe (e.g. an assert in a test
            // thread) must not wedge every subsequent I/O.
            .map(|i| {
                self.stripes[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
            })
            .collect();
        RegionGuards { _stripes: stripes }
    }

    fn window(&self) -> MutexGuard<'_, Option<RebuildWindow>> {
        #[cfg(test)]
        self.window_locks.fetch_add(1, Ordering::Relaxed);
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a rebuild window over `disks`: their chunks read as missing
    /// until marked valid. Call *before* healing the devices — the odd
    /// `epoch` is published here, and the heal that follows is what makes
    /// it visible to everyone who sees the device answer again.
    pub fn begin(&self, disks: impl IntoIterator<Item = usize>) {
        let mut w = self.window();
        *w = Some(RebuildWindow {
            disks: disks.into_iter().collect(),
            ..RebuildWindow::default()
        });
        self.advance_epoch(true);
    }

    /// Closes the window (rebuild finished or aborted).
    pub fn end(&self) {
        let mut w = self.window();
        *w = None;
        self.advance_epoch(false);
    }

    /// Moves `epoch` to its next value of the wanted parity (odd = open).
    /// Callers hold the `window` mutex, which serialises the writers.
    fn advance_epoch(&self, open: bool) {
        let next = self.epoch() + 1;
        let next = next + u64::from(next % 2 != u64::from(open));
        self.epoch.store(next, Ordering::SeqCst);
    }

    /// The window-edge count (see the `epoch` field): take it before asking
    /// whether a chunk is available, compare after reading the device.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether a window may be open: from [`Self::begin`] to [`Self::end`].
    /// `false` means the mutex need not be taken (see the `epoch` field for
    /// why that is safe).
    pub fn maybe_open(&self) -> bool {
        self.epoch() % 2 == 1
    }

    /// How often the `window` mutex has been taken.
    #[cfg(test)]
    pub fn window_locks(&self) -> usize {
        self.window_locks.load(Ordering::Relaxed)
    }

    /// How often `lock_regions` has been called.
    #[cfg(test)]
    pub fn update_locks(&self) -> usize {
        self.update_locks.load(Ordering::Relaxed)
    }

    /// Whether a rebuild window is currently open.
    #[cfg(test)]
    pub fn active(&self) -> bool {
        self.window().is_some()
    }

    /// Whether `addr` must be treated as missing even though its device
    /// answers reads: it sits on a mid-rebuild disk and has not been
    /// written back yet.
    pub fn chunk_invalid(&self, addr: ChunkAddr) -> bool {
        if !self.maybe_open() {
            return false;
        }
        match self.window().as_ref() {
            Some(w) => w.disks.contains(&addr.disk) && !w.valid.contains(&addr),
            None => false,
        }
    }

    /// Records that `addr` now holds trustworthy data.
    pub fn mark_valid(&self, addr: ChunkAddr) {
        self.mark_valid_all([addr]);
    }

    /// A point-in-time copy of the window's state: `(target disks,
    /// chunks already valid)`. `None` without an open window. This is what
    /// a rebuild checkpoint serializes — it captures both rebuilder
    /// writebacks *and* foreground writes that validated target chunks.
    pub fn valid_snapshot(&self) -> Option<(BTreeSet<usize>, Vec<ChunkAddr>)> {
        self.window().as_ref().map(|w| {
            let mut valid: Vec<ChunkAddr> = w.valid.iter().copied().collect();
            valid.sort_unstable();
            (w.disks.clone(), valid)
        })
    }

    /// Records that `valid` now hold trustworthy data, under one trip
    /// through the window mutex: a batch of rebuild writebacks, or the
    /// chunks a checkpoint vouches for on resume. Chunks outside the
    /// window's disks are ignored.
    pub fn mark_valid_all(&self, valid: impl IntoIterator<Item = ChunkAddr>) {
        if !self.maybe_open() {
            return;
        }
        if let Some(w) = self.window().as_mut() {
            for addr in valid {
                if w.disks.contains(&addr.disk) {
                    w.valid.insert(addr);
                }
            }
        }
    }

    /// Adds a freshly failed disk to the window (mid-rebuild escalation):
    /// everything on it is garbage again. Call *before* healing it.
    pub fn escalate(&self, disk: usize) {
        if let Some(w) = self.window().as_mut() {
            w.disks.insert(disk);
            w.valid.retain(|a| a.disk != disk);
            self.advance_epoch(true);
        }
    }

    /// Marks relations a write or a repair changed. Call after the last
    /// member write and before the region locks drop. A no-op without an
    /// open window.
    pub fn mark_dirty(&self, regions: impl IntoIterator<Item = Region>) {
        if !self.maybe_open() {
            return;
        }
        if let Some(w) = self.window().as_mut() {
            w.dirty.extend(regions);
        }
    }

    /// Clears the dirty set at the start of a rebuild round. No lock is
    /// needed: a write marks its relations after its last member write, so
    /// one whose mark precedes the clear is wholly visible to the round's
    /// reads, and one whose mark follows it is caught at writeback.
    pub fn clear_dirty(&self) {
        if let Some(w) = self.window().as_mut() {
            w.dirty.clear();
        }
    }

    /// Per footprint, whether any of its relations was dirtied since the
    /// round began — every answer from one trip through the window mutex,
    /// so a batch of writebacks asks once.
    pub fn dirty_among<'a>(&self, footprints: impl Iterator<Item = &'a [Region]>) -> Vec<bool> {
        let window = self.maybe_open().then(|| self.window());
        let dirty = window.as_ref().and_then(|w| w.as_ref()).map(|w| &w.dirty);
        let dirty = dirty.filter(|d| !d.is_empty());
        footprints
            .map(|regions| dirty.is_some_and(|d| regions.iter().any(|r| d.contains(r))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_dirty(s: &OnlineState, regions: &[Region]) -> bool {
        s.dirty_among(std::iter::once(regions))[0]
    }

    #[test]
    fn window_lifecycle_gates_availability() {
        let s = OnlineState::default();
        let a = ChunkAddr::new(4, 2);
        assert!(!s.chunk_invalid(a));
        s.begin([4]);
        assert!(s.active());
        assert!(s.chunk_invalid(a));
        assert!(!s.chunk_invalid(ChunkAddr::new(5, 2)));
        s.mark_valid(a);
        assert!(!s.chunk_invalid(a));
        s.end();
        assert!(!s.active());
        assert!(!s.chunk_invalid(ChunkAddr::new(4, 7)));
    }

    #[test]
    fn per_chunk_queries_take_the_window_mutex_only_while_a_window_is_open() {
        let s = OnlineState::default();
        let (a, r) = (ChunkAddr::new(4, 2), [Region::Row(1, 2)]);
        let per_chunk = |s: &OnlineState| {
            s.mark_valid(a);
            s.mark_dirty(r);
            (s.chunk_invalid(a), any_dirty(s, &r))
        };
        assert_eq!(per_chunk(&s), (false, false));
        assert_eq!(s.window_locks(), 0, "closed: the flag answers");
        s.begin([4]);
        // The epoch is odd by the time `begin` returns, i.e. before any
        // caller can heal a device of the window.
        assert_eq!(s.epoch(), 1);
        let opened = s.window_locks();
        assert!(s.chunk_invalid(a));
        assert_eq!(per_chunk(&s), (false, true));
        assert_eq!(s.window_locks(), opened + 5, "open: every query asks");
        // Every edge moves the epoch, so a reader that straddles one knows.
        s.escalate(5);
        assert_eq!(s.epoch(), 3);
        s.end();
        assert_eq!(s.epoch(), 4);
        let closed = s.window_locks();
        assert_eq!(per_chunk(&s), (false, false));
        assert_eq!(s.window_locks(), closed);
    }

    #[test]
    fn escalation_invalidates_the_new_disk() {
        let s = OnlineState::default();
        s.begin([1]);
        s.mark_valid(ChunkAddr::new(1, 0));
        s.escalate(2);
        assert!(s.chunk_invalid(ChunkAddr::new(2, 0)));
        assert!(
            !s.chunk_invalid(ChunkAddr::new(1, 0)),
            "disk 1 progress kept"
        );
        // Re-escalating the same disk wipes its progress.
        s.escalate(1);
        assert!(s.chunk_invalid(ChunkAddr::new(1, 0)));
    }

    #[test]
    fn dirty_marks_only_inside_a_window() {
        let s = OnlineState::default();
        s.mark_dirty([Region::Row(0, 3)]);
        s.begin([0]);
        assert!(
            !any_dirty(&s, &[Region::Row(0, 3)]),
            "pre-window marks dropped"
        );
        s.mark_dirty([Region::Row(0, 3), Region::Stripe(2, 5)]);
        assert!(any_dirty(&s, &[Region::Stripe(2, 5)]));
        assert!(!any_dirty(&s, &[Region::Stripe(2, 4)]));
        s.clear_dirty();
        assert!(!any_dirty(&s, &[Region::Row(0, 3)]));
    }

    /// A second region whose stripe differs from `a`'s (the hash may
    /// collide for any fixed pair, so search instead of hard-coding).
    fn disjoint_from(a: Region) -> Region {
        (0..)
            .map(|i| Region::Stripe(7, i))
            .find(|b| stripe_of(b) != stripe_of(&a))
            .expect("some stripe hashes differently")
    }

    #[test]
    fn disjoint_regions_lock_independently() {
        let s = OnlineState::default();
        let a = Region::Row(0, 0);
        let b = disjoint_from(a);
        let _ga = s.lock_regions(&[a]);
        // Would deadlock here if disjoint relations shared a lock.
        let _gb = s.lock_regions(&[b]);
    }

    #[test]
    fn duplicate_and_colliding_regions_lock_once() {
        let s = OnlineState::default();
        // The same relation listed twice (data region + parity region of
        // one row can coincide) must not self-deadlock.
        let g = s.lock_regions(&[Region::Row(1, 2), Region::Row(1, 2)]);
        assert_eq!(format!("{g:?}"), "RegionGuards { stripes: 1 }");
    }

    #[test]
    fn intersecting_regions_serialize() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = OnlineState::default();
        let shared = Region::Stripe(3, 4);
        let entered = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let g = s.lock_regions(&[Region::Row(0, 1), shared]);
            scope.spawn(|| {
                let _g = s.lock_regions(&[shared, disjoint_from(shared)]);
                entered.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !entered.load(Ordering::SeqCst),
                "overlapping region sets must contend"
            );
            drop(g);
        });
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn marks_for_non_window_disks_are_ignored() {
        let s = OnlineState::default();
        s.begin([7]);
        s.mark_valid(ChunkAddr::new(3, 0));
        assert!(!s.chunk_invalid(ChunkAddr::new(3, 0)));
        s.escalate(3);
        assert!(s.chunk_invalid(ChunkAddr::new(3, 0)), "stale mark not kept");
    }
}
