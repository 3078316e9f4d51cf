//! A shared pool of chunk-sized scratch buffers.
//!
//! Both the rebuild engine and the foreground RMW path churn through
//! chunk-sized `Vec<u8>` temporaries (read targets, XOR deltas, weighted
//! parity scratch). The pool recycles them so the steady state performs no
//! per-chunk allocation: takers pop a buffer, users hand it back with
//! [`BufPool::put`] when the bytes are dead. Dropping a buffer instead of
//! returning it is always safe — it just costs one allocation on a later
//! take — so error paths can bail with `?` without bookkeeping.
//!
//! In front of the shared free list sits a small per-thread cache, so the
//! handful of buffers one chunk write cycles through never touch a lock two
//! client threads share. It is bounded (see [`LOCAL_BYTES`]): whatever a
//! thread returns beyond that goes to the shared list, where any thread can
//! take it — a rebuild round's workers and the serialised halves of a
//! set-up still hand each other the same hot buffers.

use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

/// Most bytes one thread keeps to itself: 32 buffers at 4 KiB chunks, 2 at
/// 64 KiB, none above 128 KiB. The count is capped as well, so tiny test
/// chunks do not hoard thousands of buffers.
const LOCAL_BYTES: usize = 128 << 10;
const LOCAL_BUFS: usize = 32;
/// Most bytes the shared list parks. Users need not balance their books —
/// a decode may hand the pool a buffer it never lent (the row code
/// allocates what it reconstructs) on every degraded write for as long as
/// a disk is down — so the list is bounded and the surplus freed.
const SHARED_BYTES: usize = 8 << 20;

thread_local! {
    /// This thread's cached buffers, all of one length (a thread that moves
    /// to a pool of another chunk size drops them). Shared by every pool of
    /// that chunk size: buffers are interchangeable, and a thread that
    /// exits merely frees what it cached.
    static LOCAL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A shared pool of chunk-sized byte buffers: readers take buffers, the
/// consumer recycles them back, so steady-state I/O performs no per-chunk
/// allocation.
#[derive(Debug)]
pub(crate) struct BufPool {
    chunk: usize,
    /// Buffers of this chunk size one thread may cache (see [`LOCAL_BYTES`]).
    local_room: usize,
    /// Buffers the shared list holds at most (see [`SHARED_BYTES`]).
    shared_room: usize,
    free: Mutex<Vec<Vec<u8>>>,
    /// Test builds only: buffers out of the pool now, and the most there
    /// ever were. A buffer dropped instead of returned stays counted; one
    /// allocated elsewhere and donated does not count below zero.
    #[cfg(test)]
    out: Mutex<(usize, usize)>,
    /// Test builds only: acquisitions of the shared `free` lock.
    #[cfg(test)]
    shared_locks: std::sync::atomic::AtomicUsize,
}

impl BufPool {
    pub(crate) fn new(chunk: usize) -> Self {
        Self {
            chunk,
            local_room: (LOCAL_BYTES / chunk.max(1)).min(LOCAL_BUFS),
            shared_room: SHARED_BYTES / chunk.max(1),
            free: Mutex::new(Vec::new()),
            #[cfg(test)]
            out: Mutex::default(),
            #[cfg(test)]
            shared_locks: Default::default(),
        }
    }

    /// Runs `f` on this thread's cache, emptied first if what it holds was
    /// cached for another chunk size.
    fn local<R>(&self, f: impl FnOnce(&mut Vec<Vec<u8>>) -> R) -> R {
        LOCAL.with_borrow_mut(|local| {
            if local.last().is_some_and(|b| b.len() != self.chunk) {
                local.clear();
            }
            f(local)
        })
    }

    fn shared(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        #[cfg(test)]
        self.shared_locks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.free.lock().expect("pool lock")
    }

    /// A zeroed chunk-sized buffer, recycled when one is available.
    pub(crate) fn take(&self) -> Vec<u8> {
        let mut b = self.take_dirty();
        b.fill(0);
        b
    }

    /// A chunk-sized buffer with *arbitrary* contents — for callers that
    /// overwrite every byte (device read targets, full-slice products).
    /// This thread's cache first, then the shared list, then the allocator.
    pub(crate) fn take_dirty(&self) -> Vec<u8> {
        #[cfg(test)]
        self.note_out(true);
        self.local(Vec::pop)
            .or_else(|| self.shared().pop())
            .unwrap_or_else(|| vec![0u8; self.chunk])
    }

    pub(crate) fn put(&self, b: Vec<u8>) {
        if b.len() != self.chunk {
            return;
        }
        #[cfg(test)]
        self.note_out(false);
        let spill = self.local(|local| {
            if local.len() < self.local_room {
                local.push(b);
                None
            } else {
                Some(b)
            }
        });
        if let Some(b) = spill {
            let mut shared = self.shared();
            if shared.len() < self.shared_room {
                shared.push(b);
            }
        }
    }

    #[cfg(test)]
    fn note_out(&self, taken: bool) {
        let mut out = self.out.lock().expect("pool lock");
        out.0 = if taken {
            out.0 + 1
        } else {
            out.0.saturating_sub(1)
        };
        out.1 = out.1.max(out.0);
    }

    /// The most buffers that were out of the pool at once.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> usize {
        self.out.lock().expect("pool lock").1
    }

    /// How many buffers a thread keeps before it spills to the shared list.
    #[cfg(test)]
    pub(crate) fn local_room(&self) -> usize {
        self.local_room
    }

    /// How often the shared free list's lock has been taken.
    #[cfg(test)]
    pub(crate) fn shared_locks(&self) -> usize {
        self.shared_locks.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_and_zeroes() {
        let pool = BufPool::new(8);
        let mut b = pool.take();
        assert_eq!(b, vec![0u8; 8]);
        b.fill(0xAB);
        pool.put(b);
        assert_eq!(pool.take(), vec![0u8; 8]);
    }

    #[test]
    fn take_dirty_skips_the_zeroing() {
        let pool = BufPool::new(4);
        let mut b = pool.take();
        b.fill(7);
        pool.put(b);
        assert_eq!(pool.take_dirty(), vec![7u8; 4]);
    }

    #[test]
    fn peak_is_the_high_water_mark_of_buffers_out() {
        let pool = BufPool::new(4);
        let (a, b) = (pool.take(), pool.take_dirty());
        pool.put(a);
        let c = pool.take();
        assert_eq!(pool.peak(), 2);
        pool.put(b);
        pool.put(c);
        pool.put(vec![0u8; 4]); // donated: not counted below zero
        let held: Vec<_> = (0..3).map(|_| pool.take_dirty()).collect();
        assert_eq!(pool.peak(), 3);
        drop(held);
    }

    #[test]
    fn wrong_size_buffers_are_dropped() {
        let pool = BufPool::new(4);
        pool.put(vec![1u8; 9]);
        assert_eq!(pool.take_dirty().len(), 4);
    }
    /// Runs `f` on a thread whose cache is certainly empty.
    fn on_a_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| s.spawn(f).join().expect("test body"));
    }

    #[test]
    fn what_overflows_one_threads_cache_is_takeable_by_another() {
        let pool = BufPool::new(4096);
        let room = pool.local_room();
        assert_eq!(room, 32);
        on_a_fresh_thread(|| {
            on_a_fresh_thread(|| {
                let held: Vec<_> = (0..room + 3).map(|_| pool.take_dirty()).collect();
                for (i, mut b) in held.into_iter().enumerate() {
                    b.fill(i as u8 + 1);
                    pool.put(b);
                }
            });
            // The putter is gone, and with it the `room` buffers it cached;
            // the 3 that did not fit are on the shared list.
            let before = pool.shared_locks();
            let marks: Vec<u8> = (0..3).map(|_| pool.take_dirty()[0]).collect();
            assert_eq!(marks, [room as u8 + 3, room as u8 + 2, room as u8 + 1]);
            assert_eq!(pool.shared_locks() - before, 3);
            // Nothing else is stranded that the pool needs: it allocates.
            assert_eq!(pool.take_dirty(), vec![0u8; 4096]);
        });
        assert_eq!(pool.peak(), room + 3);
    }

    #[test]
    fn a_pool_that_is_only_ever_given_buffers_stays_bounded() {
        on_a_fresh_thread(|| {
            let pool = BufPool::new(1 << 20);
            for _ in 0..3 * (SHARED_BYTES >> 20) {
                pool.put(vec![0u8; 1 << 20]);
            }
            assert_eq!(pool.free.lock().unwrap().len(), SHARED_BYTES >> 20);
        });
    }

    #[test]
    fn the_thread_cache_is_bounded_in_bytes_and_follows_the_chunk_size() {
        on_a_fresh_thread(bounded_cache_body);
    }

    fn bounded_cache_body() {
        // 64 KiB chunks: two buffers stay with the thread, the third is shared.
        let big = BufPool::new(64 << 10);
        for b in [big.take(), big.take(), big.take()] {
            big.put(b);
        }
        assert_eq!(big.shared_locks(), 3 + 1, "3 empty-handed takes, 1 spill");
        // Above 128 KiB nothing is cached per thread at all.
        let huge = BufPool::new((128 << 10) + 1);
        let b = huge.take();
        huge.put(b);
        huge.take();
        assert_eq!(huge.shared_locks(), 3);
        // A pool of another size never sees the first pool's buffers.
        let small = BufPool::new(16);
        assert_eq!(small.take_dirty().len(), 16);
        small.put(vec![1u8; 17]);
        assert_eq!(small.take_dirty().len(), 16);
    }
}
