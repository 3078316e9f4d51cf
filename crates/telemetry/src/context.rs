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
//! Device I/O is the one layer that records a node per call without
//! fanning anything out: a leaf ([`leaf_trace`]). A caller whose own node
//! already says what its device calls did — a rebuild batch, which makes
//! dozens of them per op — drops the leaves with [`without_leaves`] and
//! keeps everything else: its node, and the link from the incidents raised
//! inside it ([`crate::flight_event`]) back to that node.
//!
//! Sampling is head-based: [`sample_trace`] admits one in `N` calls per
//! thread (`OI_RAID_TRACE_SAMPLE`, default one in 64; `1` traces
//! everything, `0`/`off` disables). The not-sampled and disabled paths are
//! one relaxed atomic load plus (when sampling is live) one thread-local
//! increment — a nanosecond or two and no shared cache line, cheap enough
//! to leave in every hot path. The global kill switch ([`crate::enabled`])
//! short-circuits everything first.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sampling latch: 0 = uninitialised (consult the environment),
/// `u32::MAX` = off, anything else = admit one in that many.
static SAMPLE: AtomicU32 = AtomicU32::new(0);

/// Next trace id. Starts at 1 so 0 stays "not traced" forever.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

const OFF: u32 = u32::MAX;
const DEFAULT_EVERY: u32 = 64;

/// Set on the ambient id inside a [`without_leaves`] scope. Ids count up
/// from 1 and never reach it.
const NO_LEAVES: u64 = 1 << 63;

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Calls of [`sample_trace`] on this thread (drives the 1/N admission).
    static CALLS: Cell<u64> = const { Cell::new(0) };
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

/// Head sampling: returns a fresh trace id for one in `N` calls on the
/// calling thread, 0 otherwise. The 0 path is the cost every untraced
/// request pays.
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
        || CALLS.with(|calls| {
            let n = calls.get();
            calls.set(n.wrapping_add(1));
            n.is_multiple_of(every as u64)
        })
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
    CURRENT.with(|c| c.get()) & !NO_LEAVES
}

/// The node a device I/O leaf hangs under: [`current_trace`], or 0 inside
/// a [`without_leaves`] scope.
#[inline]
pub fn leaf_trace() -> u64 {
    let id = CURRENT.with(|c| c.get());
    if id & NO_LEAVES == 0 {
        id
    } else {
        0
    }
}

/// Keeps the thread's ambient trace but records no device leaves under it
/// until the guard drops: [`current_trace`] still answers the id (so
/// incidents link to it), [`leaf_trace`] answers 0. A scope entered inside
/// it ([`enter_trace`], [`crate::trace_scope`]) records leaves again.
pub fn without_leaves() -> TraceGuard {
    let prev = CURRENT.with(|c| c.replace(c.get() | NO_LEAVES));
    TraceGuard { prev }
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
    fn a_leafless_scope_keeps_its_trace_and_drops_its_leaves() {
        assert_eq!(leaf_trace(), 0);
        let _a = enter_trace(7);
        assert_eq!(leaf_trace(), 7);
        {
            let _quiet = without_leaves();
            assert_eq!(current_trace(), 7, "incidents still link to the node");
            assert_eq!(leaf_trace(), 0, "device calls record nothing");
            {
                let _b = enter_trace(9);
                assert_eq!((current_trace(), leaf_trace()), (9, 9));
            }
            assert_eq!(leaf_trace(), 0);
        }
        assert_eq!((current_trace(), leaf_trace()), (7, 7));
        let _quiet = without_leaves();
        assert_eq!((current_trace(), leaf_trace()), (7, 0));
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
    fn sampling_admits_one_in_n_per_thread() {
        let _switches = crate::hold_switches();
        set_trace_sample(Some(4));
        let admitted = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..16 * 4).filter(|_| sample_trace() != 0).count()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("sampling thread"))
                .sum::<usize>()
        });
        assert_eq!(admitted, 32, "each thread admits 1/4 of its 64 calls");
        set_trace_sample(Some(1));
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
