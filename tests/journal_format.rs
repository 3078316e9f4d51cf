//! Format freeze for the write-ahead journal and its checksum: the
//! table-driven `crc32` must produce exactly the values the original
//! bitwise implementation produced, a v1 log (records from offset 0,
//! unseeded CRC) must keep opening, and the fixed-extent v2 file — two
//! header slots, the same records at 8192 with their lap's floor folded
//! into the CRC — is pinned byte for byte, because journals and rebuild
//! checkpoints already on disk must keep opening. So is the intent of
//! ranges (kind 3), which the store logs.

use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use blockdev::journal::crc32;
use blockdev::{Journal, MemberWrite, RedoMember};

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

/// The same three records as the fixed-extent encoder writes them in a
/// fresh journal's first lap (floor 1): every byte as in
/// [`GOLDEN_LOG_HEX`] except each record's trailing CRC, which is seeded.
const GOLDEN_V2_RECORDS_HEX: &str = "\
4f494a4c010100000000000000240000000200000003000000070000000500000068656c6c6f\
140000000403020103000000a55affd591a3e0\
4f494a4c0201000000000000000000000023661b29\
4f494a4c0102000000000000002400000001000000000000000100000014000000\
000102030405060708090a0b0c0d0e0f10111213ec37687d";
/// Slot A of a fresh journal: magic, floor 1, CRC of those twelve bytes.
const GOLDEN_V2_SLOT_HEX: &str = "4f494a32010000000000000027b6d2d1";

/// Intents of ranges (kind 3) in a fresh journal's first lap: seq 1 with
/// two members, its applied marker (the same bytes as the v2 log's), seq 2
/// with one member that ends on the last byte of a 4 KiB chunk. A member
/// is `disk | chunk | within | len | bytes`, every field u32 LE.
const GOLDEN_RANGES_HEX: &str = "\
4f494a4c0301000000000000002c000000020000000300000007000000640000000500000068656c6c6f\
14000000040302010000000003000000a55aff3579fcb3\
4f494a4c0201000000000000000000000023661b29\
4f494a4c03020000000000000028000000010000000000000001000000ec0f000014000000\
000102030405060708090a0b0c0d0e0f1011121316c10d1e";
const SLOT_B: usize = 4096;
const DATA_START: usize = 8192;
const EXTENT: usize = 4 << 20;

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn golden_log() -> Vec<u8> {
    unhex(GOLDEN_LOG_HEX)
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

fn golden_ranges() -> (Vec<RedoMember>, Vec<RedoMember>) {
    let member = |disk, chunk, within, data: &[u8]| RedoMember {
        disk,
        chunk,
        within: Some(within),
        data: data.to_vec(),
    };
    let first = vec![
        member(3, 7, 100, b"hello"),
        member(20, 0x0102_0304, 0, &[0xA5, 0x5A, 0xFF]),
    ];
    let second = vec![member(0, 1, 4076, &(0u8..20).collect::<Vec<_>>())];
    (first, second)
}

/// The members of `writes` as [`Journal::open`] returns them.
fn redo(writes: Vec<MemberWrite>) -> Vec<RedoMember> {
    writes.into_iter().map(RedoMember::from).collect()
}

#[test]
fn encoder_reproduces_the_golden_log_byte_for_byte() {
    let (first, second) = golden_members();
    let path = temp_path("golden-write");
    let j = Journal::create(&path).unwrap();
    let s1 = j.append_intent(&first).unwrap();
    j.commit(s1).unwrap();
    j.mark_applied(s1).unwrap();
    let s2 = j.append_intent(&second).unwrap();
    j.commit(s2).unwrap();
    assert_eq!((s1, s2), (1, 2));
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file.len(), EXTENT);
    let (slot, records) = (unhex(GOLDEN_V2_SLOT_HEX), unhex(GOLDEN_V2_RECORDS_HEX));
    let end = DATA_START + records.len();
    assert_eq!(file[..slot.len()], slot[..]);
    assert_eq!(file[DATA_START..end], records[..]);
    // Everything else is as `create` wrote it: zeros, slot B included.
    assert!(file[slot.len()..DATA_START].iter().all(|&b| b == 0));
    assert!(file[end..].iter().all(|&b| b == 0));
    // Record for record the v1 bytes, but for the four CRC bytes.
    let v1 = golden_log();
    assert_eq!(v1.len(), records.len());
    let crc_bytes = [53..57, 74..78, 131..135];
    for (i, (a, b)) in v1.iter().zip(&records).enumerate() {
        assert_eq!(
            a == b,
            !crc_bytes.iter().any(|r| r.contains(&i)),
            "byte {i}"
        );
    }

    // The first rewind publishes the next lap's floor in slot B and leaves
    // the rest of the file as it is.
    j.mark_applied(s2).unwrap();
    j.reset().unwrap();
    let rewound = std::fs::read(&path).unwrap();
    assert_eq!(rewound.len(), EXTENT);
    assert_eq!(&rewound[SLOT_B..SLOT_B + 4], b"OIJ2");
    assert_eq!(rewound[SLOT_B + 4..SLOT_B + 12], 3u64.to_le_bytes());
    assert_eq!(rewound[..SLOT_B], file[..SLOT_B]);
    assert_eq!(rewound[SLOT_B + 16..end], file[SLOT_B + 16..end]);
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
    assert_eq!(summary.redo, vec![(2, redo(second))]);
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

fn append_ranges(j: &Journal, members: &[RedoMember]) -> u64 {
    j.append_ranges(
        members
            .iter()
            .map(|m| (m.disk, m.chunk, m.within.unwrap_or(0), m.data.as_slice())),
    )
    .unwrap()
}

#[test]
fn range_encoder_reproduces_its_golden_log_byte_for_byte() {
    let (first, second) = golden_ranges();
    let path = temp_path("ranges-write");
    let j = Journal::create(&path).unwrap();
    let s1 = append_ranges(&j, &first);
    j.commit(s1).unwrap();
    j.mark_applied(s1).unwrap();
    let s2 = append_ranges(&j, &second);
    j.commit(s2).unwrap();
    assert_eq!((s1, s2), (1, 2));
    let file = std::fs::read(&path).unwrap();
    let (slot, records) = (unhex(GOLDEN_V2_SLOT_HEX), unhex(GOLDEN_RANGES_HEX));
    let end = DATA_START + records.len();
    assert_eq!(file[..slot.len()], slot[..]);
    assert_eq!(file[DATA_START..end], records[..]);
    assert!(file[end..].iter().all(|&b| b == 0));
    // The applied marker does not depend on what its intent logged.
    assert_eq!(records[65..86], unhex(GOLDEN_V2_RECORDS_HEX)[57..78]);
    // 4 bytes of `within` per member are all a whole-chunk range costs
    // over kind 1.
    let whole = |len: usize| MemberWrite {
        disk: 0,
        chunk: 0,
        data: vec![7; len],
    };
    let before = j.stats().bytes.load(Ordering::Relaxed);
    j.append_intent(&[whole(4096), whole(4096)]).unwrap();
    let kind1 = j.stats().bytes.load(Ordering::Relaxed) - before;
    append_ranges(&j, &redo(vec![whole(4096), whole(4096)]));
    let kind3 = j.stats().bytes.load(Ordering::Relaxed) - before - kind1;
    assert_eq!((kind1, kind3), (25 + 2 * (12 + 4096), 25 + 2 * (16 + 4096)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn golden_ranges_replay_beside_whole_intents() {
    let (_, second) = golden_ranges();
    let path = temp_path("ranges-read");
    let mut image = unhex(GOLDEN_V2_SLOT_HEX);
    image.resize(DATA_START, 0);
    image.extend(unhex(GOLDEN_RANGES_HEX));
    std::fs::write(&path, &image).unwrap();
    let (j, summary) = Journal::open(&path).unwrap();
    assert_eq!(
        (summary.applied, summary.rolled_back, summary.skipped),
        (1, 0, 0)
    );
    assert_eq!(summary.redo, vec![(2, second.clone())]);
    let mut chunk = vec![0xEE; 4096];
    summary.redo[0].1[0].patch(&mut chunk);
    assert_eq!(chunk[4076..], (0u8..20).collect::<Vec<_>>()[..]);
    assert!(chunk[..4076].iter().all(|&b| b == 0xEE));
    // An intent of whole chunks after it: one lap, both kinds, in order.
    let s3 = j.append_intent(&golden_members().0).unwrap();
    j.commit(s3).unwrap();
    drop(j);
    let (_, summary) = Journal::open(&path).unwrap();
    assert_eq!(
        summary.redo,
        vec![(2, second), (3, redo(golden_members().0))]
    );
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
    // The lap before: records at other boundaries, all applied, left behind
    // by the rewind — what a write that never reached the disk leaves in
    // its place.
    for seed in 0..3u64 {
        let s = j
            .append_intent(&[MemberWrite {
                disk: 0,
                chunk: seed as u32,
                data: random_bytes(400_000, seed),
            }])
            .unwrap();
        j.commit(s).unwrap();
        j.mark_applied(s).unwrap();
    }
    j.reset().unwrap();
    let before = std::fs::read(&path).unwrap();

    let s1 = j.append_intent(&small).unwrap();
    let s2 = j.append_intent(&large).unwrap();
    j.commit(s2).unwrap();
    let end = j.stats().tail.load(Ordering::Relaxed) as usize;
    drop(j);
    let full = std::fs::read(&path).unwrap();
    assert_eq!(full.len(), before.len());
    let (_, summary) = Journal::open(&path).unwrap();
    assert_eq!(
        summary.redo,
        vec![(s1, redo(small.clone())), (s2, redo(large))]
    );

    let large_start = end - ((1 << 20) + 37);
    let cuts = (0..end)
        .step_by(4096)
        .filter(|&cut| cut > large_start)
        .chain([end - 1]);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    for cut in cuts {
        // The record's bytes up to `cut` landed; past it the previous lap.
        file.write_all_at(&full[large_start..cut], large_start as u64)
            .unwrap();
        file.write_all_at(&before[cut..end], cut as u64).unwrap();
        let (j, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.rolled_back, 1, "cut at {cut}");
        assert_eq!(summary.skipped, 0, "cut at {cut}");
        assert_eq!(
            summary.redo,
            vec![(s1, redo(small.clone()))],
            "cut at {cut}"
        );
        assert_eq!(
            j.stats().tail.load(Ordering::Relaxed),
            large_start as u64,
            "cut at {cut}: the next append overwrites the torn record"
        );
    }
    std::fs::remove_file(&path).ok();
}
