//! The store's retry policy, readable without a lock.
//!
//! Every foreground chunk read and write copies the policy out, so the read
//! side must not be a mutex two client threads bounce between them. The
//! policy is three words of plain data that change a few times in a
//! process's life: a sequence lock fits. Every access is `SeqCst`, so all of
//! them fall in one total order (on x86-64 the loads are plain loads):
//!
//! * a writer makes `seq` odd (one compare-exchange, which also excludes
//!   other writers), stores the words, then makes `seq` even again;
//! * a reader loads `seq`, the words, then `seq` again, and retries unless
//!   both loads returned the same even number. A word belonging to a later
//!   `set` is stored after that `set` made `seq` odd, so a reader that saw
//!   it cannot read the old even number the second time: what a reader
//!   returns is always one whole policy, never half of two.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Duration;

use blockdev::RetryPolicy;

#[derive(Debug)]
pub(crate) struct RetryCell {
    seq: AtomicU64,
    /// `max_attempts`; `base_backoff` seconds; both sub-second nanoseconds
    /// (base low half, max high half); `max_backoff` seconds.
    words: [AtomicU64; 4],
    /// Test builds only: `set` calls plus reads that had to go round again
    /// — every time one thread excluded or delayed another here.
    #[cfg(test)]
    exclusions: AtomicU64,
}

impl RetryCell {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        let cell = Self {
            seq: AtomicU64::new(0),
            words: Default::default(),
            #[cfg(test)]
            exclusions: AtomicU64::new(0),
        };
        cell.set(policy);
        cell
    }

    pub(crate) fn get(&self) -> RetryPolicy {
        loop {
            let before = self.seq.load(SeqCst);
            let [attempts, base_s, nanos, max_s] = [0, 1, 2, 3].map(|i| self.words[i].load(SeqCst));
            if before.is_multiple_of(2) && self.seq.load(SeqCst) == before {
                return RetryPolicy {
                    max_attempts: attempts as u32,
                    base_backoff: Duration::new(base_s, nanos as u32),
                    max_backoff: Duration::new(max_s, (nanos >> 32) as u32),
                };
            }
            #[cfg(test)]
            self.exclusions.fetch_add(1, SeqCst);
            std::hint::spin_loop();
        }
    }

    pub(crate) fn set(&self, policy: RetryPolicy) {
        #[cfg(test)]
        self.exclusions.fetch_add(1, SeqCst);
        let mut seq = self.seq.load(SeqCst);
        // Odd = another `set` is between its two `seq` stores: wait it out.
        while !seq.is_multiple_of(2)
            || self
                .seq
                .compare_exchange_weak(seq, seq + 1, SeqCst, SeqCst)
                .is_err()
        {
            std::hint::spin_loop();
            seq = self.seq.load(SeqCst);
        }
        let (base, max) = (policy.base_backoff, policy.max_backoff);
        let words = [
            u64::from(policy.max_attempts),
            base.as_secs(),
            u64::from(base.subsec_nanos()) | u64::from(max.subsec_nanos()) << 32,
            max.as_secs(),
        ];
        for (slot, word) in self.words.iter().zip(words) {
            slot.store(word, SeqCst);
        }
        self.seq.store(seq + 2, SeqCst);
    }

    /// `set` calls so far plus reads that went round again.
    #[cfg(test)]
    pub(crate) fn exclusions(&self) -> u64 {
        self.exclusions.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_exactly() {
        for policy in [
            RetryPolicy::default(),
            RetryPolicy::none(),
            RetryPolicy::immediate(7),
            RetryPolicy {
                max_attempts: u32::MAX,
                base_backoff: Duration::new(u64::MAX, 999_999_999),
                max_backoff: Duration::MAX,
            },
        ] {
            let cell = RetryCell::new(RetryPolicy::none());
            cell.set(policy);
            assert_eq!(cell.get(), policy);
        }
    }

    /// Two policies that differ in every word: a torn read would mix them.
    #[test]
    fn a_read_never_sees_half_of_a_concurrent_set() {
        let a = RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::new(1, 1),
            max_backoff: Duration::new(1, 1),
        };
        let b = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::new(2, 2),
            max_backoff: Duration::new(2, 2),
        };
        let cell = RetryCell::new(a);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(SeqCst) {
                        cell.set(a);
                        cell.set(b);
                    }
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..200_000 {
                            let got = cell.get();
                            assert!(got == a || got == b, "torn policy {got:?}");
                        }
                    })
                })
                .collect();
            let torn = readers.into_iter().any(|r| r.join().is_err());
            stop.store(true, SeqCst);
            assert!(!torn, "a reader saw a torn policy");
        });
    }
}
