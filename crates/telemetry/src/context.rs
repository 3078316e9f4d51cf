//! Cross-layer trace-context propagation.
//!
//! A *trace id* is a cheap process-unique `u64` (0 = "not traced") minted
//! at the edge of the system — one per sampled volume operation, one per
//! observed rebuild — and carried down through every layer the request
//! touches. Layers do not pass the id explicitly: the executing thread
//! keeps the id of the node it is currently working *under* in a
//! thread-local ([`current_trace`]), and each layer that fans work out
//! (a combining wave, a store batch, a scheduler op) mints a child id,
//! records the parent→child edge in the trace ring
//! ([`crate::trace_event`]), and [`enter_trace`]s the child for the
//! duration. Work that crosses threads (scheduler workers) re-enters the
//! context explicitly inside the worker callback.
//!
//! Sampling is head-based: [`sample_trace`] admits one in `N` requests
//! (`OI_RAID_TRACE_SAMPLE`, default one in 64; `1` traces everything,
//! `0`/`off` disables). The not-sampled and disabled paths are one
//! relaxed atomic load plus (when sampling is live) one relaxed
//! `fetch_add` — a nanosecond or two, cheap enough to leave in every
//! hot path. The global kill switch ([`crate::enabled`]) short-circuits
//! everything first.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sampling latch: 0 = uninitialised (consult the environment),
/// `u32::MAX` = off, anything else = admit one in that many.
static SAMPLE: AtomicU32 = AtomicU32::new(0);

/// Requests seen by [`sample_trace`] (drives the 1/N admission).
static SEEN: AtomicU64 = AtomicU64::new(0);

/// Next trace id. Starts at 1 so 0 stays "not traced" forever.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

const OFF: u32 = u32::MAX;
const DEFAULT_EVERY: u32 = 64;

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn sample_every() -> u32 {
    match SAMPLE.load(Ordering::Relaxed) {
        0 => {
            let every = match std::env::var("OI_RAID_TRACE_SAMPLE").as_deref() {
                Ok(v) if v.trim().eq_ignore_ascii_case("off") => OFF,
                Ok(v) => match v.trim().parse::<u32>() {
                    Ok(0) => OFF,
                    Ok(n) => n,
                    Err(_) => DEFAULT_EVERY,
                },
                Err(_) => DEFAULT_EVERY,
            };
            SAMPLE.store(every, Ordering::Relaxed);
            every
        }
        n => n,
    }
}

/// Overrides the sampling rate process-wide: `Some(n)` admits one in `n`
/// requests (`Some(1)` traces everything), `None` disables tracing.
/// Normally set once via `OI_RAID_TRACE_SAMPLE`; tests and overhead
/// experiments toggle it directly.
pub fn set_trace_sample(every: Option<u32>) {
    SAMPLE.store(every.map_or(OFF, |n| n.max(1)), Ordering::Relaxed);
}

/// Whether any request can currently be sampled (telemetry on and a
/// finite sampling rate configured).
pub fn tracing_active() -> bool {
    crate::enabled() && sample_every() != OFF
}

/// Mints a fresh trace id unconditionally. Use for *interior* nodes of a
/// tree whose root was already admitted (waves, batches, scheduler ops);
/// edges of the tree are recorded separately via [`crate::trace_event`].
#[inline]
pub fn alloc_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Head sampling: returns a fresh trace id for one in `N` calls, 0
/// otherwise. The 0 path is the cost every untraced request pays.
#[inline]
pub fn sample_trace() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    let every = sample_every();
    if every == OFF {
        return 0;
    }
    if every == 1
        || SEEN
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every as u64)
    {
        alloc_trace_id()
    } else {
        0
    }
}

/// Like [`sample_trace`] but ignores the 1/N dice: admits whenever
/// tracing is active at all. Rare, long-lived roots (a rebuild) use this
/// so they are always reconstructible while sampling is on.
pub fn trace_always() -> u64 {
    if tracing_active() {
        alloc_trace_id()
    } else {
        0
    }
}

/// The trace id the current thread is working under (0 = untraced).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Sets the thread's ambient trace id until the guard drops (restoring
/// the previous value, so nested scopes compose).
pub fn enter_trace(id: u64) -> TraceGuard {
    let prev = CURRENT.with(|c| c.replace(id));
    TraceGuard { prev }
}

/// Restores the previous ambient trace id on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = alloc_trace_id();
        let b = alloc_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn context_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        {
            let _a = enter_trace(7);
            assert_eq!(current_trace(), 7);
            {
                let _b = enter_trace(9);
                assert_eq!(current_trace(), 9);
            }
            assert_eq!(current_trace(), 7);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn context_is_per_thread() {
        let _g = enter_trace(42);
        std::thread::spawn(|| assert_eq!(current_trace(), 0))
            .join()
            .expect("spawned thread");
        assert_eq!(current_trace(), 42);
    }

    #[test]
    fn sampling_admits_one_in_n() {
        let _switches = crate::hold_switches();
        set_trace_sample(Some(4));
        let admitted = (0..64).filter(|_| sample_trace() != 0).count();
        assert_eq!(admitted, 16, "1/4 of 64 calls admitted");
        set_trace_sample(Some(1));
        assert_ne!(sample_trace(), 0, "rate 1 admits everything");
        set_trace_sample(None);
        assert_eq!(sample_trace(), 0, "off admits nothing");
        assert!(!tracing_active());
        assert_eq!(trace_always(), 0, "trace_always respects the kill");
        set_trace_sample(Some(1));
        assert!(tracing_active());
        assert_ne!(trace_always(), 0);
    }

    #[test]
    fn kill_switch_short_circuits() {
        let _switches = crate::hold_switches();
        crate::set_enabled(false);
        set_trace_sample(Some(1));
        assert_eq!(sample_trace(), 0);
        crate::set_enabled(true);
        assert_ne!(sample_trace(), 0);
    }
}
