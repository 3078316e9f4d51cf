//! The journal in steady state: a fixed extent written in place, so a wave's
//! `fdatasync` has no size or block-map change to commit, and a byte count
//! taken where the bytes are written (the file's length no longer moves).

#![cfg(unix)]

use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

use oi_raid_repro::prelude::*;

const CHUNK: usize = 4096;

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oi-journal-steady-{tag}-{}", std::process::id()))
}

/// Journal bytes per user byte for 16 single-chunk writes of `size` bytes,
/// from `JournalStats::bytes`.
fn bytes_per_user_byte(size: usize) -> f64 {
    const WRITES: u64 = 16;
    let dir = unique_dir(&format!("amp-{size}"));
    let store = OiRaidStore::create_durable_with(
        OiRaidConfig::reference(),
        CHUNK,
        &dir,
        FlushPolicy::PerWave,
    )
    .expect("create durable");
    let stats = store.journal().expect("durable store").stats();
    let before = stats.bytes.load(Ordering::Relaxed);
    let data = vec![0x3c_u8; size];
    for i in 0..WRITES {
        store
            .write_bytes_batch(&[(i * CHUNK as u64, &data)])
            .expect("write");
    }
    let logged = stats.bytes.load(Ordering::Relaxed) - before;
    assert_eq!(stats.appends.load(Ordering::Relaxed), WRITES);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    logged as f64 / (WRITES * size as u64) as f64
}

/// The logging cost, pinned from the counter: a single-chunk write logs
/// what it changed of its four members — the same range of each, 16 bytes
/// of address per member, 25 of header, count and CRC per intent, and a
/// 21-byte applied marker. 512 B: 4 · (16 + 512) + 25 + 21 = 2 158 bytes
/// (a whole-member log took 16 478); 4 KiB: 4 · (16 + 4096) + 46 = 16 494.
#[test]
fn a_single_chunk_write_logs_what_changed() {
    assert_eq!(bytes_per_user_byte(512), 4.21484375);
    assert_eq!(bytes_per_user_byte(4096), 4.02685546875);
}

#[test]
fn a_thousand_waves_leave_the_file_the_size_and_blocks_it_had() {
    let dir = unique_dir("waves");
    let cfg = OiRaidConfig::reference();
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::PerWave)
        .expect("create durable");
    let journal = store.journal().expect("durable store");
    let shape = || {
        let m = std::fs::metadata(journal.path()).expect("journal metadata");
        (m.len(), m.blocks())
    };
    let before = shape();

    let chunks = store.data_chunks() as u64;
    let payload = |wave: u64, j: u64| vec![(wave * 31 + j) as u8 | 1; CHUNK];
    for wave in 0..1000u64 {
        let datas: Vec<(u64, Vec<u8>)> = (0..4)
            .map(|j| ((wave * 7 + j * 11) % chunks, payload(wave, j)))
            .collect();
        let writes: Vec<(u64, &[u8])> = datas
            .iter()
            .map(|(chunk, data)| (chunk * CHUNK as u64, data.as_slice()))
            .collect();
        store.write_bytes_batch(&writes).expect("wave");
    }
    assert_eq!(shape(), before, "(len, blocks) of the journal file");
    let stats = journal.stats();
    assert_eq!(stats.appends.load(Ordering::Relaxed), 1000);
    assert!(stats.resets.load(Ordering::Relaxed) > 10, "the log lapped");
    assert_eq!(journal.outstanding(), 0);
    drop(store);

    // A clean reopen finds nothing to redo — not in this lap, and not in
    // the many earlier ones whose records still fill the extent.
    let store =
        OiRaidStore::open_durable_with(cfg, CHUNK, &dir, FlushPolicy::PerWave).expect("reopen");
    let reg = Registry::new();
    store.export_metrics(&reg);
    let text = reg.prometheus();
    assert!(text.contains("oi_journal_replayed_total 0"), "{text}");
    assert!(store.check_parity().is_empty());
    let mut buf = vec![0u8; CHUNK];
    for j in 0..4 {
        store
            .read_bytes(((999 * 7 + j * 11) % chunks) * CHUNK as u64, &mut buf)
            .expect("read");
        assert_eq!(buf, payload(999, j));
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
