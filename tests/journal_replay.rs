//! Replay of intents of ranges at its edges: a range whose chunk no longer
//! reads comes back decoded through the array; a write made while a disk
//! was failed logged its members whole, so replay never decodes them from
//! the dead disk's stale bytes; and a member that does not fit its chunk
//! fails the open before anything is written.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use blockdev::{MemberWrite, RedoMember};
use oi_raid_repro::prelude::*;

const CHUNK: usize = 4096;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oi-journal-replay-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn pattern(seed: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (seed * 37 + j * 11 + 5) as u8).collect()
}

fn chunk_of(dev: &impl BlockDevice, chunk: usize) -> Vec<u8> {
    let mut buf = vec![0u8; dev.chunk_size()];
    dev.read_chunk(chunk, &mut buf).expect("read chunk");
    buf
}

/// Commits `intents` — each one record of ranges — to a fresh journal in
/// `dir`, and applies none of them.
fn commit_ranges(dir: &Path, intents: &[Vec<RedoMember>]) {
    let journal = Journal::create(dir.join("journal.log")).expect("create journal");
    for members in intents {
        let members = members.iter().map(|m| {
            let within = m.within.expect("a range");
            (m.disk, m.chunk, within, m.data.as_slice())
        });
        let seq = journal.append_ranges(members).expect("append");
        journal.commit(seq).expect("commit");
    }
}

/// A 512-byte write into data chunk 5, logged as the four ranges it
/// changed and committed; then the crash: one parity member was written,
/// the others were not, and the data chunk's sector stopped reading. Redo
/// patches what reads, decodes the latent chunk from the relations the
/// other members now satisfy, patches it, and writes it back in place.
#[test]
fn a_range_redone_onto_a_latent_member_comes_back_decoded_and_parity_clean() {
    let cfg = OiRaidConfig::reference();
    let (idx, within, len) = (5, 1000, 512);
    // The update, on a scratch copy of the array: the devices before and
    // after it.
    let scratch = OiRaidStore::new(cfg.clone(), CHUNK).expect("scratch store");
    for i in 0..scratch.data_chunks() {
        scratch.write_data(i, &pattern(i, CHUNK)).expect("fill");
    }
    let before: Vec<MemDevice> = scratch.devices().to_vec();
    let data = pattern(99, len);
    scratch
        .write_bytes((idx * CHUNK + within) as u64, &data)
        .expect("write");
    let after: Vec<MemDevice> = scratch.devices().to_vec();
    let mut members = Vec::new();
    for (disk, (old, new)) in before.iter().zip(&after).enumerate() {
        for chunk in 0..old.chunks() {
            let new = chunk_of(new, chunk);
            if chunk_of(old, chunk) != new {
                members.push(RedoMember {
                    disk: disk as u32,
                    chunk: chunk as u32,
                    within: Some(within as u32),
                    data: new[within..within + len].to_vec(),
                });
            }
        }
    }
    assert_eq!(members.len(), 4, "data + three parities");
    let dir = unique_dir("latent");
    commit_ranges(&dir, &[members.clone()]);

    let target = scratch.locate(idx);
    let written = members
        .iter()
        .find(|m| m.disk as usize != target.disk)
        .expect("a parity member");
    before[written.disk as usize]
        .write_chunk(
            written.chunk as usize,
            &chunk_of(&after[written.disk as usize], written.chunk as usize),
        )
        .expect("member written before the crash");
    let devices: Vec<FaultInjectingDevice<MemDevice>> = before
        .into_iter()
        .map(|dev| FaultInjectingDevice::new(dev, FaultConfig::default()))
        .collect();
    let dev = &devices[target.disk];
    let latent_here = |cfg: &FaultConfig| {
        dev.set_config(*cfg);
        (0..dev.chunks()).all(|c| dev.is_latent_bad(c) == (c == target.offset))
    };
    (0..)
        .map(|seed| FaultConfig {
            seed,
            latent_per_mille: 200,
            ..FaultConfig::default()
        })
        .find(latent_here)
        .expect("a seed with only the target latent");

    let store = OiRaidStore::open_durable_on(cfg, CHUNK, devices, &dir, FlushPolicy::Never)
        .expect("replay");
    let dev = &store.devices()[target.disk];
    assert!(
        dev.counters().faults > 0,
        "redo found the sector unreadable"
    );
    assert!(!dev.is_latent_bad(target.offset), "and rewrote it in place");
    for (disk, want) in after.iter().enumerate() {
        for chunk in 0..want.chunks() {
            let got = chunk_of(&store.devices()[disk], chunk);
            assert!(got == chunk_of(want, chunk), "disk {disk} chunk {chunk}");
        }
    }
    assert!(store.check_parity().is_empty());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Disk images `disk-NNN.img` in `dir`.
fn image(dir: &Path, disk: usize) -> PathBuf {
    dir.join(format!("disk-{disk:03}.img"))
}

/// A 512-byte write into data chunk 5 while its disk is failed, after an
/// earlier one into the same chunk that was applied; the later one's
/// applied marker was never written (a deferred flush that did not come).
/// Then the crash: the array comes back with every disk answering, the dead
/// one too — no failure state survives a restart — and one parity member
/// of the write latent. The dead disk's file still holds the data chunk as
/// it was before either write, so a parity decoded through its row would
/// lose the earlier write outside the later one's range. The write logged
/// its parities whole instead, and redo writes the latent one as logged;
/// with the disk failed again, both writes read back.
#[test]
fn a_write_with_a_failed_disk_replays_onto_a_latent_parity_without_decoding() {
    let cfg = OiRaidConfig::reference();
    let (idx, len) = (5, 512);
    let dir = unique_dir("degraded");
    let policy = FlushPolicy::Timed(Duration::from_secs(3600));
    let disk_file = |d| FileDevice::create(image(&dir, d), CHUNK, cfg.chunks_per_disk());
    let devices = (0..cfg.disks())
        .map(|d| FaultInjectingDevice::new(disk_file(d).expect("disk"), FaultConfig::default()))
        .collect();
    let store =
        OiRaidStore::create_durable_on(cfg.clone(), CHUNK, devices, &dir, policy).expect("create");
    let mut expect: Vec<Vec<u8>> = (0..store.data_chunks())
        .map(|i| pattern(i, CHUNK))
        .collect();
    for (i, chunk) in expect.iter().enumerate() {
        store.write_data(i, chunk).expect("fill");
    }
    store.flush_pending().expect("fill applied");
    let target = store.locate(idx);
    store.fail_disk(target.disk).expect("fail");
    let mut write = |within: usize, seed: usize| {
        let data = pattern(seed, len);
        store
            .write_bytes((idx * CHUNK + within) as u64, &data)
            .expect("degraded write");
        expect[idx][within..within + len].copy_from_slice(&data);
    };
    write(0, 98);
    store.flush_pending().expect("earlier write applied");
    let images = || -> Vec<Vec<u8>> {
        (0..cfg.disks())
            .map(|d| std::fs::read(image(&dir, d)).expect("disk image"))
            .collect()
    };
    let before = images();
    let stats = store.journal().expect("durable").stats();
    let logged = stats.bytes.load(Ordering::Relaxed);
    write(1000, 99);
    // 25 bytes of frame, 16 of address per member; the marker is parked.
    let whole = 16 + CHUNK as u64;
    assert_eq!(stats.bytes.load(Ordering::Relaxed) - logged, 25 + 3 * whole);
    let after = images();
    drop(store);

    let (journal, summary) = Journal::open(dir.join("journal.log")).expect("scan");
    drop(journal);
    assert_eq!(summary.redo.len(), 1, "the later write, unapplied");
    let members = &summary.redo[0].1;
    assert_eq!(members.len(), 3, "three parities, the data disk failed");
    assert!(members.iter().all(|m| m.data.len() == CHUNK));
    let parity = ChunkAddr::new(members[0].disk as usize, members[0].chunk as usize);
    let bytes = parity.offset * CHUNK..(parity.offset + 1) * CHUNK;
    let (old, new) = (&before[parity.disk], &after[parity.disk]);
    assert!(
        old[bytes.clone()] != new[bytes.clone()],
        "the write changed it"
    );

    let devices: Vec<_> = (0..cfg.disks())
        .map(|d| {
            let file = FileDevice::open(image(&dir, d), CHUNK, cfg.chunks_per_disk());
            FaultInjectingDevice::new(file.expect("disk"), FaultConfig::default())
        })
        .collect();
    let dev = &devices[parity.disk];
    let latent_here = |cfg: &FaultConfig| {
        dev.set_config(*cfg);
        (0..dev.chunks()).all(|c| dev.is_latent_bad(c) == (c == parity.offset))
    };
    (0..)
        .map(|seed| FaultConfig {
            seed,
            latent_per_mille: 200,
            ..FaultConfig::default()
        })
        .find(latent_here)
        .expect("a seed with only the parity latent");
    let store = OiRaidStore::open_durable_on(cfg, CHUNK, devices, &dir, policy).expect("replay");
    let dev = &store.devices()[parity.disk];
    assert!(!dev.is_latent_bad(parity.offset), "rewritten in place");
    assert!(chunk_of(dev, parity.offset) == after[parity.disk][bytes]);
    store
        .fail_disk(target.disk)
        .expect("the dead disk, failed again");
    for (i, want) in expect.iter().enumerate() {
        assert!(store.read_data(i).expect("read") == *want, "data chunk {i}");
    }
    assert!(store.check_parity().is_empty());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The log is outside input: `commit` writes a CRC-valid log into a fresh
/// `dir` whose open must fail with the devices as they were, no intent
/// replayed — not even a sound one logged before the bad one.
fn assert_open_fails_untouched(tag: &str, commit: impl FnOnce(&Path)) {
    let cfg = OiRaidConfig::reference();
    let dir = unique_dir(tag);
    commit(&dir);
    let devices: Vec<FileDevice> = (0..cfg.disks())
        .map(|d| FileDevice::create(image(&dir, d), CHUNK, cfg.chunks_per_disk()).expect("disk"))
        .collect();
    match OiRaidStore::open_durable_on(cfg.clone(), CHUNK, devices, &dir, FlushPolicy::Never) {
        Err(StoreError::Journal { kind, .. }) => {
            assert_eq!(kind, std::io::ErrorKind::InvalidData)
        }
        other => panic!("expected a journal error, got {other:?}"),
    }
    for disk in 0..cfg.disks() {
        let bytes = std::fs::read(image(&dir, disk)).expect("read disk file back");
        assert!(bytes.iter().all(|&b| b == 0), "disk {disk} was written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid range that runs one byte past its chunk.
#[test]
fn a_range_past_its_chunk_fails_the_open_before_any_device_write() {
    let range = |disk, chunk, within: usize, len| RedoMember {
        disk,
        chunk,
        within: Some(within as u32),
        data: vec![0xEE; len],
    };
    assert_open_fails_untouched("overrun", |dir| {
        let intents = [vec![range(0, 0, 0, 16)], vec![range(1, 1, CHUNK - 16, 17)]];
        commit_ranges(dir, &intents)
    });
}

/// A CRC-valid intent of whole chunks whose member is shorter than the
/// store's chunks — a log written at another chunk size — is not replayed
/// as a write of the chunk's first bytes.
#[test]
fn a_short_whole_chunk_member_fails_the_open_before_any_device_write() {
    let whole = |disk, chunk, len| MemberWrite {
        disk,
        chunk,
        data: vec![0xEE; len],
    };
    assert_open_fails_untouched("short", |dir| {
        let journal = Journal::create(dir.join("journal.log")).expect("create journal");
        for members in [vec![whole(0, 0, CHUNK)], vec![whole(1, 1, CHUNK - 16)]] {
            let seq = journal.append_intent(&members).expect("append");
            journal.commit(seq).expect("commit");
        }
    });
}
