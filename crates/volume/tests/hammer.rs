//! Liveness and ordering of `submit` under many overlapping submitters.
//!
//! `submit` drains the shards it touched in two passes (`try_lock`, then a
//! blocking visit to the ones it found busy) and leaves a shard early once
//! its own batch is done. What that must never do is strand an op: eight
//! submitters whose 16-op batches overlap on every shard and on each
//! other's records run behind a watchdog, and afterwards every op has
//! completed, each record holds the last write of one of its writers, a
//! read that followed a write in its batch saw that write, and the counters
//! and both parity layers add up.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use oi_raid::{OiRaidConfig, OiRaidStore};
use volume::{Op, TenantClass, VolumeManager};

const SUBMITTERS: usize = 8;
const SUBMITS: usize = 2_000;
const OPS: usize = 16;
const RECORD: usize = 16;
const RECORDS: u64 = 48;
const WATCHDOG: Duration = Duration::from_secs(30);

/// A payload that names its writer and sequence number four times over, so
/// a torn record cannot pass for a whole one.
fn payload(thread: usize, seq: u32) -> Vec<u8> {
    let word = ((thread as u32) << 24 | seq).to_le_bytes();
    word.iter().copied().cycle().take(RECORD).collect()
}

/// `(thread, seq)` of a record's contents, `None` for the untouched zeroes.
fn decode(bytes: &[u8]) -> Option<(usize, u32)> {
    let word = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    assert!(
        bytes.chunks(4).all(|c| c == &bytes[..4]),
        "torn record {bytes:?}"
    );
    (word != 0).then_some(((word >> 24) as usize, word & 0x00FF_FFFF))
}

/// One submitter: returns the last sequence number it wrote per record.
fn submitter(m: &VolumeManager, volume: volume::VolumeId, thread: usize) -> HashMap<u64, u32> {
    let mut last: HashMap<u64, u32> = HashMap::new();
    let mut x = 0x9E37_79B9u32.wrapping_mul(thread as u32 + 1) | 1;
    let mut seq = 0u32;
    for _ in 0..SUBMITS {
        let mut ops = Vec::with_capacity(OPS);
        // What each read of this batch must return, where the batch itself
        // decides it: the latest earlier write to the same record.
        let mut expect: Vec<Option<u32>> = Vec::with_capacity(OPS);
        let mut pending: HashMap<u64, u32> = HashMap::new();
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let record = u64::from(x >> 8) % RECORDS;
            if x.is_multiple_of(3) {
                ops.push(Op::Read { volume, record });
                expect.push(pending.get(&record).copied());
            } else {
                seq += 1;
                ops.push(Op::Write {
                    volume,
                    record,
                    data: payload(thread + 1, seq),
                });
                expect.push(None);
                pending.insert(record, seq);
            }
        }
        let results = m.submit(ops);
        assert_eq!(results.len(), OPS, "every op completes");
        for (result, expect) in results.into_iter().zip(expect) {
            let bytes = result.expect("op succeeds");
            if let (Some(bytes), Some(seq)) = (&bytes, expect) {
                // Another submitter may have overwritten the record since,
                // but never with an older write of ours.
                match decode(bytes) {
                    Some((t, s)) if t == thread + 1 => assert!(s >= seq, "read went back"),
                    Some(_) => {}
                    None => panic!("read after a write saw the untouched record"),
                }
            }
        }
        last.extend(pending);
    }
    last
}

fn hammer(shards: usize) {
    let store = Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 16).expect("store"));
    let m = Arc::new(VolumeManager::new(store, shards));
    let tenant = m.add_tenant("hammer", TenantClass::default());
    let volume = m
        .create_volume(tenant, "v", RECORD, RECORDS)
        .expect("volume");
    let (done, finished) = mpsc::channel();
    let start = Arc::new(Barrier::new(SUBMITTERS));
    for thread in 0..SUBMITTERS {
        let (m, done, start) = (Arc::clone(&m), done.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                submitter(&m, volume, thread)
            }));
            let _ = done.send((thread, outcome));
        });
    }
    drop(done);
    // The watchdog: a stranded op parks its submitter forever, and the
    // test must say so instead of hanging with it.
    let mut last_by_thread: Vec<HashMap<u64, u32>> = vec![HashMap::new(); SUBMITTERS];
    for _ in 0..SUBMITTERS {
        let (thread, outcome) = finished
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("{shards} shards: a submitter hung (stranded op?)"));
        last_by_thread[thread] = outcome.unwrap_or_else(|_| panic!("submitter {thread} failed"));
    }
    assert_eq!(m.batches(), (SUBMITTERS * SUBMITS) as u64);
    assert_eq!(m.batch_ops(), (SUBMITTERS * SUBMITS * OPS) as u64);
    // Last writer wins, per record: whoever it was, it is that writer's
    // *last* write to the record, whole.
    for record in 0..RECORDS {
        let bytes = m.read_record(volume, record).expect("read back");
        match decode(&bytes) {
            Some((t, seq)) => assert_eq!(
                last_by_thread[t - 1].get(&record),
                Some(&seq),
                "record {record} holds a write that was not its writer's last"
            ),
            None => assert!(
                last_by_thread.iter().all(|l| !l.contains_key(&record)),
                "record {record} lost every write"
            ),
        }
    }
    assert!(m.store().check_parity().is_empty());
}

#[test]
fn eight_overlapping_submitters_on_two_shards() {
    hammer(2);
}

#[test]
fn eight_overlapping_submitters_on_four_shards() {
    hammer(4);
}
