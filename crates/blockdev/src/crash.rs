//! Crash-injection hooks: named points where the process can be made to
//! die, so crash-consistency tests can kill a subprocess *anywhere* inside
//! a multi-member update and assert that recovery converges.
//!
//! Instrumented code calls [`crash_point`] with a stable name at every
//! spot where a crash would be interesting (mid-RMW between member writes,
//! after a journal flush, inside rebuild writeback, during a checkpoint
//! write). In normal operation the hook is a single relaxed atomic load of
//! a `false` flag — effectively free. A harness arms it via environment
//! variables *in a child process it spawned for that purpose*:
//!
//! * `OI_CRASH_COUNT=n` — kill-anywhere mode: abort at the `n`-th hit of
//!   *any* crash point (1-based). Randomizing `n` across runs sweeps the
//!   kill site across every instrumented path.
//! * `OI_CRASH_POINT=name` + `OI_CRASH_HITS=n` — targeted mode: abort at
//!   the `n`-th hit of the named point only (`OI_CRASH_HITS` defaults
//!   to 1).
//! * `OI_CRASH_POWER=1` — power-loss mode, orthogonal to the two kill
//!   modes above: the child must route member I/O through
//!   [`crate::WriteBackDevice`] wrappers (see [`power_loss_armed`]), so
//!   the abort also drops every buffered-but-unflushed member write, the
//!   way a power loss drops a drive's volatile write cache. Without it,
//!   the abort models a *process* crash: the page cache — and thus every
//!   completed file write — survives.
//!
//! The abort is [`std::process::abort`]: no destructors, no unwinding, no
//! flushes — a process-crash stand-in on its own, a power-loss stand-in
//! when combined with `OI_CRASH_POWER=1` write-back buffering. The point
//! name is printed to stderr first so a harness can record *where* it
//! died.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

#[derive(Debug)]
struct CrashConfig {
    /// Kill-anywhere: abort at this hit count across all points (0 = off).
    count: u64,
    /// Targeted: abort at `hits` of this named point.
    point: Option<String>,
    hits: u64,
}

static CONFIG: OnceLock<Option<CrashConfig>> = OnceLock::new();
/// Fast-path gate: true only when some crash mode is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Hits across all points (kill-anywhere counter).
static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);
/// Hits of the targeted point.
static POINT_HITS: AtomicU64 = AtomicU64::new(0);

fn config() -> &'static Option<CrashConfig> {
    CONFIG.get_or_init(|| {
        let count: u64 = std::env::var("OI_CRASH_COUNT")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let point = std::env::var("OI_CRASH_POINT")
            .ok()
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().to_string());
        let hits: u64 = std::env::var("OI_CRASH_HITS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1);
        if count == 0 && point.is_none() {
            return None;
        }
        ARMED.store(true, Ordering::Relaxed);
        Some(CrashConfig { count, point, hits })
    })
}

/// Declares a crash point. In an unarmed process this is one relaxed load.
/// In an armed process (see module docs) the matching hit aborts without
/// running destructors, simulating a crash at exactly this spot.
#[inline]
pub fn crash_point(name: &str) {
    // First call parses the environment (and may arm the gate); after that
    // the unarmed fast path is the single atomic load below.
    let cfg = match config() {
        Some(cfg) => cfg,
        None => return,
    };
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let total = TOTAL_HITS.fetch_add(1, Ordering::Relaxed) + 1;
    if cfg.count > 0 && total == cfg.count {
        die(name);
    }
    if let Some(target) = &cfg.point {
        if target == name && POINT_HITS.fetch_add(1, Ordering::Relaxed) + 1 == cfg.hits {
            die(name);
        }
    }
}

/// Whether `OI_CRASH_POWER=1` is set: the harness wants this process to
/// model *power loss*, so device stacks should be built with
/// [`crate::WriteBackDevice`] wrappers whose unflushed buffers die with
/// the abort. Parsed once and cached.
pub fn power_loss_armed() -> bool {
    static POWER: OnceLock<bool> = OnceLock::new();
    *POWER.get_or_init(|| {
        std::env::var("OI_CRASH_POWER").is_ok_and(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
    })
}

fn die(name: &str) -> ! {
    eprintln!("crash_point: aborting at `{name}`");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_is_a_noop() {
        // The test binary runs without OI_CRASH_* set, so every point is
        // inert; hammer one to prove it neither aborts nor counts toward a
        // targeted config.
        for _ in 0..1000 {
            crash_point("test_point");
        }
    }
}
