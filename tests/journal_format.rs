//! Format freeze for the write-ahead journal and its checksum: the
//! table-driven `crc32` and the one-pass intent encoder must produce exactly
//! the bytes the original bitwise/copying implementation produced, because
//! journals and rebuild checkpoints already on disk must keep opening.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use blockdev::journal::crc32;
use blockdev::{Journal, MemberWrite};

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "journal-format-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

/// The reference: CRC-32 (IEEE, reflected 0xEDB88320) one bit at a time.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn crc32_check_values() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn crc32_matches_bitwise_reference_at_every_length_and_alignment() {
    let buf = random_bytes(16 + 300, 0x5EED);
    for start in 0..16 {
        for len in 0..=300 {
            let slice = &buf[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "start {start} len {len}"
            );
        }
    }
    let big = random_bytes(1 << 20, 0xB16);
    assert_eq!(crc32(&big), crc32_bitwise(&big));
}

/// A log written by the pre-table, pre-one-pass encoder (commit 9c6239f):
/// intent seq 1 with two members, its applied marker, intent seq 2.
const GOLDEN_LOG_HEX: &str = "\
4f494a4c010100000000000000240000000200000003000000070000000500000068656c6c6f\
140000000403020103000000a55affc6befb6f\
4f494a4c02010000000000000000000000a6bf8df4\
4f494a4c0102000000000000002400000001000000000000000100000014000000\
000102030405060708090a0b0c0d0e0f10111213ff1830f2";

fn golden_log() -> Vec<u8> {
    (0..GOLDEN_LOG_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_LOG_HEX[i..i + 2], 16).unwrap())
        .collect()
}

fn golden_members() -> (Vec<MemberWrite>, Vec<MemberWrite>) {
    let first = vec![
        MemberWrite {
            disk: 3,
            chunk: 7,
            data: b"hello".to_vec(),
        },
        MemberWrite {
            disk: 20,
            chunk: 0x0102_0304,
            data: vec![0xA5, 0x5A, 0xFF],
        },
    ];
    let second = vec![MemberWrite {
        disk: 0,
        chunk: 1,
        data: (0u8..20).collect(),
    }];
    (first, second)
}

#[test]
fn encoder_reproduces_the_golden_log_byte_for_byte() {
    let (first, second) = golden_members();
    let path = temp_path("golden-write");
    let j = Journal::create(&path).unwrap();
    // The owned adapter and the borrowed encoder are the same encoder.
    let s1 = j.append_intent(&first).unwrap();
    j.commit(s1).unwrap();
    j.mark_applied(s1).unwrap();
    let s2 = j
        .append_members(second.iter().map(|w| (w.disk, w.chunk, w.data.as_slice())))
        .unwrap();
    j.commit(s2).unwrap();
    assert_eq!((s1, s2), (1, 2));
    assert_eq!(std::fs::read(&path).unwrap(), golden_log());
    std::fs::remove_file(&path).ok();
}

#[test]
fn golden_log_replays_to_the_expected_redo() {
    let (_, second) = golden_members();
    let path = temp_path("golden-read");
    std::fs::write(&path, golden_log()).unwrap();
    let (j, summary) = Journal::open(&path).unwrap();
    assert_eq!(summary.applied, 1);
    assert_eq!(summary.rolled_back, 0);
    assert_eq!(summary.skipped, 0);
    assert_eq!(summary.redo, vec![(2, second)]);
    assert_eq!(j.outstanding(), 1);
    // Appends after the reopen land at the end of the old log.
    let s3 = j.append_intent(&golden_members().0).unwrap();
    assert_eq!(s3, 3);
    drop(j);
    let (_, summary) = Journal::open(&path).unwrap();
    let seqs: Vec<u64> = summary.redo.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![2, 3]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tearing_a_large_intent_at_any_4k_boundary_rolls_back_only_that_record() {
    let small = vec![MemberWrite {
        disk: 1,
        chunk: 1,
        data: vec![0x11; 64],
    }];
    let large = vec![MemberWrite {
        disk: 2,
        chunk: 2,
        data: random_bytes(1 << 20, 0x7EA2),
    }];
    let path = temp_path("tear");
    let j = Journal::create(&path).unwrap();
    let s1 = j.append_intent(&small).unwrap();
    let s2 = j.append_intent(&large).unwrap();
    j.commit(s2).unwrap();
    drop(j);
    let full = std::fs::read(&path).unwrap();
    let (_, summary) = Journal::open(&path).unwrap();
    assert_eq!(summary.redo, vec![(s1, small.clone()), (s2, large)]);

    let large_start = full.len() - ((1 << 20) + 37);
    let cuts = (0..full.len())
        .step_by(4096)
        .filter(|&cut| cut > large_start)
        .chain([full.len() - 1]);
    for cut in cuts {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.rolled_back, 1, "cut at {cut}");
        assert_eq!(summary.skipped, 0, "cut at {cut}");
        assert_eq!(summary.redo, vec![(s1, small.clone())], "cut at {cut}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            large_start as u64,
            "cut at {cut}: the torn record is truncated away"
        );
    }
    std::fs::remove_file(&path).ok();
}
