//! Property tests: the batched submission path is bit-identical to
//! submitting the same operations one at a time — healthy, with one or two
//! failed disks, and while a rebuild is live.
//!
//! The oracle is per-record program order: a read's expected value is the
//! last write to the *same record* earlier in the stream (or the pre-stream
//! contents). Operations on different records are concurrent, so that is
//! the only ordering either path promises — and both paths must agree on
//! it, and on the final store state, bit for bit.

use std::sync::Arc;

use oi_raid::{OiRaidConfig, OiRaidStore, RebuildMode, RecoveryStrategy};
use proptest::prelude::*;
use volume::{Op, TenantClass, VolumeId, VolumeManager};

const RECORD: usize = 24; // straddles the 16-byte chunks on purpose
const RECORDS: u64 = 32;

/// A generated op: `(record, write_tag)`; tag 0 = read, else a write whose
/// payload is derived from the tag.
type GenOp = (u64, u8);

fn payload(record: u64, tag: u8) -> Vec<u8> {
    (0..RECORD as u8)
        .map(|i| tag ^ (record as u8) ^ i)
        .collect()
}

fn fresh(shards: usize) -> (VolumeManager, VolumeId) {
    let store = Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 16).expect("store"));
    let m = VolumeManager::new(store, shards);
    let t = m.add_tenant("prop", TenantClass::default());
    let v = m.create_volume(t, "v", RECORD, RECORDS).expect("volume");
    (m, v)
}

/// Drives `stream` through the batched path on one manager and the direct
/// one-at-a-time path on another, checking every read against the oracle
/// and the final states against each other.
fn check_equivalence(stream: &[GenOp], shards: usize, fail: &[usize], chunk_per_submit: usize) {
    let (batched, vol) = fresh(shards);
    let (direct, _) = fresh(shards);
    for &d in fail {
        batched.store().fail_disk(d).expect("fail batched");
        direct.store().fail_disk(d).expect("fail direct");
    }
    // The oracle: last-written payload per record.
    let mut model: Vec<Vec<u8>> = (0..RECORDS).map(|_| vec![0u8; RECORD]).collect();
    for group in stream.chunks(chunk_per_submit.max(1)) {
        let mut ops = Vec::with_capacity(group.len());
        let mut expect: Vec<Option<Vec<u8>>> = Vec::with_capacity(group.len());
        for &(record, tag) in group {
            let record = record % RECORDS;
            if tag == 0 {
                ops.push(Op::Read {
                    volume: vol,
                    record,
                });
                expect.push(Some(model[record as usize].clone()));
            } else {
                let data = payload(record, tag);
                model[record as usize] = data.clone();
                ops.push(Op::Write {
                    volume: vol,
                    record,
                    data,
                });
                expect.push(None);
            }
        }
        // Direct path: one call per op, in stream order. Reads check
        // against the oracle value captured at their stream position.
        for (op, want) in ops.iter().zip(&expect) {
            match op {
                Op::Read { record, .. } => {
                    let got = direct.read_record(vol, *record).expect("direct read");
                    assert_eq!(Some(got), *want, "direct read r{record}");
                }
                Op::Write { record, data, .. } => {
                    direct
                        .write_record(vol, *record, data)
                        .expect("direct write");
                }
            }
        }
        // Batched path: one submit per group.
        let results = batched.submit(ops);
        for (i, (res, want)) in results.into_iter().zip(expect).enumerate() {
            let got = res.expect("batched op");
            assert_eq!(got, want, "batched slot {i}");
        }
    }
    // Bit-identical final state, record by record, via both read paths.
    for r in 0..RECORDS {
        let b = batched.read_record(vol, r).expect("final batched read");
        let d = direct.read_record(vol, r).expect("final direct read");
        assert_eq!(b, model[r as usize], "batched final r{r}");
        assert_eq!(d, model[r as usize], "direct final r{r}");
    }
    // Healthy stores must also have clean parity (degraded ones hold
    // implied values for lost chunks, checked after rebuild below).
    if fail.is_empty() {
        assert!(batched.store().check_parity().is_empty());
        assert!(direct.store().check_parity().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_equals_sequential_healthy(
        stream in proptest::collection::vec((0u64..RECORDS, 0u8..8), 1..60),
        shards in 1usize..6,
        group in 1usize..24,
    ) {
        check_equivalence(&stream, shards, &[], group);
    }

    #[test]
    fn batched_equals_sequential_degraded(
        stream in proptest::collection::vec((0u64..RECORDS, 0u8..8), 1..48),
        shards in 1usize..5,
        group in 1usize..16,
        fail_a in 0usize..21,
        fail_b in 0usize..21,
        two in any::<bool>(),
    ) {
        let mut fail = vec![fail_a];
        if two && fail_b != fail_a {
            fail.push(fail_b);
        }
        check_equivalence(&stream, shards, &fail, group);
    }

    #[test]
    fn degraded_writes_rebuild_to_clean_parity(
        stream in proptest::collection::vec((0u64..RECORDS, 1u8..8), 1..32),
        fail_a in 0usize..21,
        fail_b in 0usize..21,
    ) {
        let (m, vol) = fresh(4);
        m.store().fail_disk(fail_a).expect("fail a");
        if fail_b != fail_a {
            m.store().fail_disk(fail_b).expect("fail b");
        }
        let ops: Vec<Op> = stream
            .iter()
            .map(|&(record, tag)| Op::Write {
                volume: vol,
                record,
                data: payload(record, tag),
            })
            .collect();
        for res in m.submit(ops) {
            res.expect("degraded batched write");
        }
        let report = m
            .store()
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .expect("rebuild");
        prop_assert_eq!(report.outcome, oi_raid::RebuildOutcome::Complete);
        prop_assert!(m.store().check_parity().is_empty());
        let mut model: Vec<Vec<u8>> = (0..RECORDS).map(|_| vec![0u8; RECORD]).collect();
        for &(record, tag) in &stream {
            model[(record % RECORDS) as usize] = payload(record % RECORDS, tag);
        }
        for r in 0..RECORDS {
            prop_assert_eq!(m.read_record(vol, r).expect("post-rebuild read"), model[r as usize].clone());
        }
    }
}

/// Batches submitted *while a rebuild runs* land correctly: the final state
/// matches the model, and parity is clean once the rebuild (plus one more
/// pass for anything the first one raced past) completes.
#[test]
fn batches_during_live_rebuild_window() {
    for seed in 0u8..3 {
        let (m, vol) = fresh(4);
        let m = Arc::new(m);
        // Seed every record, then fail two disks.
        let seed_ops: Vec<Op> = (0..RECORDS)
            .map(|r| Op::Write {
                volume: vol,
                record: r,
                data: payload(r, 0x40 | seed),
            })
            .collect();
        for res in m.submit(seed_ops) {
            res.expect("seed write");
        }
        m.store().fail_disk(3 + seed as usize).expect("fail a");
        m.store().fail_disk(12 + seed as usize).expect("fail b");
        // Rebuild on one thread, batched writes on another.
        let rebuilder = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.store()
                    .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                    .expect("rebuild")
            })
        };
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for round in 0..8u8 {
                    let ops: Vec<Op> = (0..RECORDS)
                        .step_by(3)
                        .map(|r| Op::Write {
                            volume: vol,
                            record: r,
                            data: payload(r, 0x80 | (seed << 3) | round),
                        })
                        .collect();
                    for res in m.submit(ops) {
                        res.expect("mid-rebuild write");
                    }
                }
            })
        };
        writer.join().expect("writer");
        let report = rebuilder.join().expect("rebuilder");
        assert_eq!(report.outcome, oi_raid::RebuildOutcome::Complete);
        // Every record holds its last write.
        for r in 0..RECORDS {
            let want = if r % 3 == 0 {
                payload(r, 0x80 | (seed << 3) | 7)
            } else {
                payload(r, 0x40 | seed)
            };
            assert_eq!(
                m.read_record(vol, r).expect("final read"),
                want,
                "record {r}"
            );
        }
        assert!(
            m.store().check_parity().is_empty(),
            "parity dirty after rebuild (seed {seed})"
        );
    }
}
