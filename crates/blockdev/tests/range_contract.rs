//! The byte-range pair's contract, on every backend and on a wrapper that
//! keeps the trait's whole-chunk defaults: a range read into any buffer,
//! patched inside the range and written back from the same buffer, leaves
//! every byte outside the range as it was; a range past the chunk fails
//! before any I/O; a failed device answers `Failed`.
//!
//! ```text
//! cargo test --release -p blockdev --test range_contract
//! ```

use std::ops::Range;
use std::path::PathBuf;

use blockdev::{
    BlockDevice, DeviceError, FaultConfig, FaultInjectingDevice, FileDevice, MemDevice,
    WriteBackDevice,
};

const CS: usize = 64;
const CHUNKS: usize = 6;

/// The bytes chunk `c` holds before the ranges are patched.
fn pattern(c: usize) -> Vec<u8> {
    (0..CS).map(|j| (c * 31 + j * 7 + 3) as u8).collect()
}

/// Ranges at both ends, in the middle, empty and whole.
fn ranges() -> Vec<Range<usize>> {
    vec![0..1, 5..17, CS - 9..CS, 20..20, 0..CS, 31..33]
}

fn check_contract<B: BlockDevice>(name: &str, dev: &B) {
    for c in 0..CHUNKS {
        dev.write_chunk(c, &pattern(c)).unwrap();
    }
    let mut expect: Vec<Vec<u8>> = (0..CHUNKS).map(pattern).collect();
    for (i, range) in ranges().into_iter().enumerate() {
        let c = i % CHUNKS;
        let mut buf = vec![0xA7u8; CS];
        dev.read_range(c, range.clone(), &mut buf).unwrap();
        assert_eq!(
            buf[range.clone()],
            expect[c][range.clone()],
            "{name}: read {range:?}"
        );
        for (j, b) in buf[range.clone()].iter_mut().enumerate() {
            *b = !(*b ^ j as u8);
        }
        dev.write_range(c, range.clone(), &buf).unwrap();
        expect[c][range.clone()].copy_from_slice(&buf[range.clone()]);
        for (c, want) in expect.iter().enumerate() {
            let mut got = vec![0u8; CS];
            dev.read_chunk(c, &mut got).unwrap();
            assert_eq!(&got, want, "{name}: chunk {c} after writing {range:?}");
        }
    }

    // A range past the end of the chunk, or backwards, fails before any I/O.
    let before = dev.counters();
    let mut buf = vec![0u8; CS];
    #[allow(clippy::reversed_empty_ranges)]
    for bad in [0..CS + 1, CS..CS + 1, 9..8] {
        let outside = |r: Result<(), DeviceError>| {
            matches!(
                r,
                Err(DeviceError::RangeOutsideChunk { chunk_size: CS, .. })
            )
        };
        assert!(
            outside(dev.read_range(0, bad.clone(), &mut buf)),
            "{name}: read {bad:?}"
        );
        assert!(
            outside(dev.write_range(0, bad.clone(), &buf)),
            "{name}: write {bad:?}"
        );
    }
    let after = dev.counters();
    assert_eq!(
        (after.reads, after.writes),
        (before.reads, before.writes),
        "{name}"
    );
    for (c, want) in expect.iter().enumerate() {
        let mut got = vec![0u8; CS];
        dev.read_chunk(c, &mut got).unwrap();
        assert_eq!(&got, want, "{name}: chunk {c} after the rejected ranges");
    }

    dev.fail();
    assert_eq!(
        dev.read_range(1, 2..9, &mut buf),
        Err(DeviceError::Failed),
        "{name}"
    );
    assert_eq!(
        dev.write_range(1, 2..9, &buf),
        Err(DeviceError::Failed),
        "{name}"
    );
    dev.heal().unwrap();
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("range-contract-{}-{tag}.img", std::process::id()))
}

#[test]
fn the_range_pair_keeps_every_byte_outside_its_range_on_every_backend() {
    check_contract("mem", &MemDevice::new(CS, CHUNKS));
    let path = temp_path("file");
    check_contract("file", &FileDevice::create(&path, CS, CHUNKS).unwrap());
    std::fs::remove_file(&path).ok();
    let faulty = FaultInjectingDevice::new(MemDevice::new(CS, CHUNKS), FaultConfig::default());
    check_contract("fault(mem)", &faulty);
    // Keeps the trait's defaults: whole-chunk I/O both ways.
    check_contract(
        "writeback(mem)",
        &WriteBackDevice::new(MemDevice::new(CS, CHUNKS)),
    );
}

#[test]
fn memory_and_file_move_only_the_range_and_the_defaults_the_chunk() {
    let path = temp_path("counts");
    let file = FileDevice::create(&path, CS, CHUNKS).unwrap();
    let wb = WriteBackDevice::new(MemDevice::new(CS, CHUNKS));
    let counts = |dev: &dyn BlockDevice| {
        dev.reset_counters();
        let mut buf = vec![0u8; CS];
        dev.read_range(2, 8..24, &mut buf).unwrap();
        dev.write_range(2, 8..24, &buf).unwrap();
        dev.flush().unwrap();
        let c = dev.counters();
        (c.reads, c.bytes_read, c.writes, c.bytes_written)
    };
    assert_eq!(counts(&MemDevice::new(CS, CHUNKS)), (1, 16, 1, 16));
    assert_eq!(counts(&file), (1, 16, 1, 16));
    assert_eq!(counts(&wb), (1, CS as u64, 1, CS as u64));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_range_write_remaps_a_latent_sector_only_when_it_covers_the_chunk() {
    let cfg = FaultConfig {
        seed: 42,
        latent_per_mille: 300,
        ..FaultConfig::default()
    };
    let dev = FaultInjectingDevice::new(MemDevice::new(CS, 64), cfg);
    let bad = (0..64)
        .find(|&c| dev.is_latent_bad(c))
        .expect("a latent chunk");
    let mut buf = vec![5u8; CS];
    let latent = Err(DeviceError::InjectedFault {
        chunk: bad,
        transient: false,
    });
    assert_eq!(dev.read_range(bad, 0..8, &mut buf), latent);
    dev.write_range(bad, 0..8, &buf).unwrap();
    assert!(
        dev.is_latent_bad(bad),
        "a partial range leaves the sector bad"
    );
    assert_eq!(dev.read_range(bad, 0..8, &mut buf), latent);
    dev.write_range(bad, 0..CS, &buf).unwrap();
    assert!(!dev.is_latent_bad(bad), "the whole chunk remaps it");
    let mut got = vec![0u8; CS];
    dev.read_range(bad, 0..CS, &mut got).unwrap();
    assert_eq!(got, buf);
}

/// A chunk left blank by `fail` + `heal` reads as zeroes, so a range
/// written into it leaves zeroes around the range — never the bytes the
/// chunk held before the failure, which `heal` leaves in place.
#[test]
fn a_range_written_into_a_blank_chunk_leaves_zeroes_around_it() {
    let dev = MemDevice::new(CS, 70);
    for c in 0..70 {
        dev.write_chunk(c, &pattern(c)).unwrap();
    }
    dev.fail();
    dev.heal().unwrap();
    let written = [(0, 3..9), (63, 0..1), (64, CS - 4..CS), (69, 10..40)];
    for (c, range) in &written {
        let mut buf = vec![0xC6u8; CS];
        dev.write_range(*c, range.clone(), &buf).unwrap();
        buf[..range.start].fill(0);
        buf[range.end..].fill(0);
        let mut got = vec![0xFFu8; CS];
        dev.read_chunk(*c, &mut got).unwrap();
        assert_eq!(got, buf, "chunk {c}");
        dev.read_range(*c, 0..CS, &mut got).unwrap();
        assert_eq!(got, buf, "chunk {c} by range");
    }
    // Every other chunk is still blank, whole or by range.
    let mut all = vec![0xFFu8; CS * 70];
    dev.read_chunks(0, 70, &mut all).unwrap();
    for (c, got) in all.chunks_exact(CS).enumerate() {
        if written.iter().all(|(w, _)| *w != c) {
            assert!(got.iter().all(|&b| b == 0), "chunk {c}");
            let mut part = vec![0xFFu8; CS];
            dev.read_range(c, 7..30, &mut part).unwrap();
            assert!(part[7..30].iter().all(|&b| b == 0), "chunk {c} by range");
        }
    }
}
