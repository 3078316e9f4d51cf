//! A shared pool of chunk-sized scratch buffers.
//!
//! Both the rebuild engine and the foreground RMW path churn through
//! chunk-sized `Vec<u8>` temporaries (read targets, XOR deltas, weighted
//! parity scratch). The pool recycles them so the steady state performs no
//! per-chunk allocation: takers pop a buffer, users hand it back with
//! [`BufPool::put`] when the bytes are dead. Dropping a buffer instead of
//! returning it is always safe — it just costs one allocation on a later
//! take — so error paths can bail with `?` without bookkeeping.

use std::sync::Mutex;

/// A shared pool of chunk-sized byte buffers: readers take buffers, the
/// consumer recycles them back, so steady-state I/O performs no per-chunk
/// allocation.
#[derive(Debug)]
pub(crate) struct BufPool {
    chunk: usize,
    free: Mutex<Vec<Vec<u8>>>,
    /// Test builds only: buffers out of the pool now, and the most there
    /// ever were. A buffer dropped instead of returned stays counted; one
    /// allocated elsewhere and donated does not count below zero.
    #[cfg(test)]
    out: Mutex<(usize, usize)>,
}

impl BufPool {
    pub(crate) fn new(chunk: usize) -> Self {
        Self {
            chunk,
            free: Mutex::new(Vec::new()),
            #[cfg(test)]
            out: Mutex::default(),
        }
    }

    /// A zeroed chunk-sized buffer, recycled when one is available.
    pub(crate) fn take(&self) -> Vec<u8> {
        #[cfg(test)]
        self.note_out(true);
        match self.free.lock().expect("pool lock").pop() {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => vec![0u8; self.chunk],
        }
    }

    /// A chunk-sized buffer with *arbitrary* contents — for callers that
    /// overwrite every byte (device read targets, full-slice products).
    pub(crate) fn take_dirty(&self) -> Vec<u8> {
        #[cfg(test)]
        self.note_out(true);
        match self.free.lock().expect("pool lock").pop() {
            Some(b) => b,
            None => vec![0u8; self.chunk],
        }
    }

    pub(crate) fn put(&self, b: Vec<u8>) {
        if b.len() == self.chunk {
            #[cfg(test)]
            self.note_out(false);
            self.free.lock().expect("pool lock").push(b);
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
}
