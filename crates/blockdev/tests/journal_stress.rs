//! Spawn-hammer concurrency tests for the write-ahead journal: many
//! threads drive `append_intent`/`commit`/`mark_applied` (with payloads
//! big enough that auto-truncation fires mid-run) while a sampler proves
//! the invariants the group-commit protocol promises:
//!
//! * `flushed_seq` never regresses — a committer racing a truncation must
//!   not store a stale target over a newer high-water mark;
//! * the group-commit batch histogram never records a negative-wrapped
//!   value (`target - prev` underflowing to ~u64::MAX);
//! * truncation never races an in-flight commit into losing records — the
//!   log always reopens clean with nothing left to redo.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use blockdev::{Journal, MemberWrite, RedoMember};

#[test]
fn hammer_append_commit_apply_with_truncation_races() {
    let path = std::env::temp_dir().join(format!(
        "journal-stress-{}-{:x}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let j = Journal::create(&path).unwrap();

    const THREADS: usize = 4;
    const OPS: usize = 48;
    // 16 KiB payloads: 4 * 48 * 16 KiB = 3 MiB of log, three times the
    // 1 MiB reset threshold, so mark_applied's auto-truncate fires while
    // other threads are mid-append/commit.
    const PAYLOAD: usize = 16 << 10;

    let stop = AtomicBool::new(false);
    let max_seq_seen = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let j = &j;
            let max_seq_seen = &max_seq_seen;
            s.spawn(move || {
                for i in 0..OPS {
                    let w = MemberWrite {
                        disk: t as u32,
                        chunk: i as u32,
                        data: vec![(t * OPS + i) as u8; PAYLOAD],
                    };
                    let seq = j.append_intent(std::slice::from_ref(&w)).unwrap();
                    j.commit(seq).unwrap();
                    assert!(
                        j.flushed_seq() >= seq,
                        "commit returned before covering seq {seq}"
                    );
                    j.mark_applied(seq).unwrap();
                    max_seq_seen.fetch_max(seq, Ordering::Relaxed);
                    // Extra truncation pressure racing other threads'
                    // in-flight commits.
                    if i % 8 == 0 {
                        j.try_truncate().unwrap();
                    }
                }
            });
        }
        // Sampler: flushed_seq must be monotone under all of the above.
        let j = &j;
        let stop = &stop;
        let sampler = s.spawn(move || {
            let mut prev = 0u64;
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = j.flushed_seq();
                assert!(
                    now >= prev,
                    "flushed_seq regressed: {now} after {prev} (commit raced truncation)"
                );
                prev = now;
                samples += 1;
                std::thread::yield_now();
            }
            samples
        });
        // The sampler must be told to stop once the workers drain, or the
        // scope would wait on it forever; poll for quiescence here.
        while j.outstanding() != 0 || j.flushed_seq() < (THREADS * OPS) as u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().unwrap();
        assert!(samples > 0, "sampler observed at least one state");
    });

    // Every intent was applied; nothing outstanding, nothing to redo.
    assert_eq!(j.outstanding(), 0);
    let total = (THREADS * OPS) as u64;
    assert_eq!(j.flushed_seq(), total, "all intents flushed");
    assert_eq!(j.last_appended(), total);
    assert!(
        j.stats().resets.load(Ordering::Relaxed) > 0,
        "the run actually exercised truncation"
    );
    // The batch histogram only ever saw sane group sizes: a wrapped
    // (negative) recording would show up as an astronomical max.
    let batch_max = j.stats().batch.max();
    assert!(
        batch_max <= total,
        "batch histogram recorded a wrapped value: {batch_max}"
    );
    drop(j);

    // Truncation racing in-flight commits never corrupted the log: it
    // reopens clean, fully applied, with no skipped garbage.
    let (_j2, summary) = Journal::open(&path).unwrap();
    assert!(
        summary.redo.is_empty(),
        "no lost intents: {:?}",
        summary.redo
    );
    assert_eq!(summary.skipped, 0, "no corrupt regions");
    assert_eq!(summary.rolled_back, 0, "no torn tail");
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_group_commits_share_syncs() {
    let path =
        std::env::temp_dir().join(format!("journal-stress-group-{}.log", std::process::id()));
    let j = Journal::create(&path).unwrap();
    const THREADS: usize = 8;
    const OPS: usize = 64;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let j = &j;
            s.spawn(move || {
                for i in 0..OPS {
                    let w = MemberWrite {
                        disk: t as u32,
                        chunk: i as u32,
                        data: vec![0xAB; 64],
                    };
                    let seq = j.append_intent(std::slice::from_ref(&w)).unwrap();
                    j.commit(seq).unwrap();
                    j.mark_applied(seq).unwrap();
                }
            });
        }
    });
    let appends = j.stats().appends.load(Ordering::Relaxed);
    let flushes = j.stats().flushes.load(Ordering::Relaxed);
    assert_eq!(appends, (THREADS * OPS) as u64);
    assert!(
        flushes <= appends,
        "group commit cannot sync more often than it appends"
    );
    assert!(j.stats().batch.max() <= appends, "sane batch sizes only");
    std::fs::remove_file(&path).ok();
}

/// The encoder builds every record in one buffer it reuses across appends:
/// hammer it with intents from 16 B to 1 MiB (so the buffer grows, and a
/// small record follows a large one) interleaved with applied markers, and
/// prove that every intent left unapplied replays verbatim.
#[test]
fn mixed_size_intents_replay_verbatim_through_the_reused_buffer() {
    let path =
        std::env::temp_dir().join(format!("journal-stress-mixed-{}.log", std::process::id()));
    let j = Journal::create(&path).unwrap();
    const THREADS: usize = 4;
    const SIZES: [usize; 8] = [16, 1 << 20, 300, 64 << 10, 4097, 17, 256 << 10, 4096];
    let member = |t: usize, i: usize| MemberWrite {
        disk: t as u32,
        chunk: i as u32,
        data: (0..SIZES[(t + i) % SIZES.len()])
            .map(|b| (b * 7 + t * 31 + i) as u8)
            .collect(),
    };
    // (seq, thread, op) of every intent deliberately left unapplied.
    let kept = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (j, kept) = (&j, &kept);
            s.spawn(move || {
                for i in 0..SIZES.len() {
                    let seq = j.append_intent(&[member(t, i), member(t, i + 1)]).unwrap();
                    j.commit(seq).unwrap();
                    if i % 2 == 0 {
                        j.mark_applied_no_truncate(seq).unwrap();
                    } else {
                        kept.lock().unwrap().push((seq, t, i));
                    }
                }
            });
        }
    });
    drop(j);

    let mut kept = kept.into_inner().unwrap();
    kept.sort_unstable();
    let (_j2, summary) = Journal::open(&path).unwrap();
    assert_eq!(summary.skipped, 0, "no corrupt regions");
    assert_eq!(summary.rolled_back, 0, "no torn tail");
    assert_eq!(summary.applied, (THREADS * SIZES.len() / 2) as u64);
    assert_eq!(summary.redo.len(), kept.len());
    for ((seq, writes), (want_seq, t, i)) in summary.redo.iter().zip(&kept) {
        assert_eq!(seq, want_seq);
        let want = [member(*t, *i), member(*t, *i + 1)].map(RedoMember::from);
        assert!(
            writes[..] == want,
            "intent {seq} (thread {t}, op {i}) came back altered"
        );
    }
    std::fs::remove_file(&path).ok();
}
