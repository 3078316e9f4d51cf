//! Write-ahead parity journal: crash consistency for multi-member updates.
//!
//! A RAID small write touches several members (data chunk + one or more
//! parities); a process crash between those writes tears the relation —
//! the classic write hole. The journal closes it with physical redo
//! logging: before any member is touched, the *absolute new bytes* of
//! every member in the update are logged as one checksummed, sequence-
//! numbered **intent** record and made durable. The intent's durability is
//! the commit point:
//!
//! 1. `append_ranges(members)` — serialize, per member, the byte range of
//!    its chunk the update changed and that range's absolute new bytes
//!    into one checksummed record, and write it at the log's tail with one
//!    positioned `write_all_at` (page cache only, but not free: a
//!    coalesced wave's record is 10 KiB–1 MiB, so the encoder makes one
//!    pass over borrowed member bytes into a reused buffer and the CRC is
//!    table-driven). `append_intent(writes)` logs whole chunks instead.
//! 2. `commit(seq)` — group-commit flush: one `fdatasync` covers every
//!    intent written before it started, so coalesced volume waves amortize
//!    a single sync per wave and concurrent committers piggyback. The sync
//!    holds the flush lock only, *not* the log lock: another client's
//!    append and applied marker proceed while it runs and ride the next
//!    one. Because the log is a fixed extent written in place (below), the
//!    sync flushes data pages only — the file's size and block map do not
//!    change, so there is no metadata for it to commit.
//! 3. caller writes the members (any order, crash-anywhere safe).
//! 4. `mark_applied(seq)` — write an **applied** marker at the tail so
//!    recovery can skip redo; when no intents are outstanding and the tail
//!    has passed a threshold the log **rewinds** to its first record
//!    offset.
//!
//! # File layout
//!
//! ```text
//! 0      slot A: "OIJ2" | floor u64 LE | crc32     (16 bytes)
//! 4096   slot B: same
//! 8192   records of the current lap, back to back, then whatever earlier
//!        laps left behind (or the zeros `create` wrote)
//! 4 MiB  end of the extent
//! ```
//!
//! `create` *writes* the whole extent as zeros once (it does not
//! `fallocate` it: unwritten blocks would turn every first touch into a
//! metadata change) and syncs it. A record is
//! `"OIJL" | kind | seq | payload_len | payload | crc32`. Kind 1 is an
//! intent of whole chunks, its payload `count u32` and per member
//! `disk u32 | chunk u32 | len u32 | bytes`; kind 3 is an intent of ranges,
//! the same with `within u32` (the range's first byte in the chunk) after
//! `chunk`; kind 2 is an applied marker, no payload. The CRC is
//! seeded with the **floor** of the lap it was written in: the sequence
//! number the lap started at, published in whichever slot is current. A
//! rewind writes the next lap's floor into the *other* slot, `fdatasync`s
//! it, and only then moves the tail back to 8192; nothing is truncated and
//! nothing is zeroed. The scan accepts a record only if it checks out
//! under the current floor's seed *and* its `seq >= floor`, which is what
//! keeps an earlier lap's bytes — or a member payload that merely looks
//! like a record — from replaying. A record larger than what is left of
//! the extent simply extends the file; the next rewind gives the growth
//! back.
//!
//! Logs written before the fixed extent existed (v1: records from offset
//! 0, unseeded CRC — recognisable because the file starts with the record
//! magic) open through the same scan with start 0, floor 0, seed 0; the
//! first rewind ([`Journal::reset`] after recovery) reformats them.
//!
//! # Recovery
//!
//! [`Journal::open`] picks the valid slot with the higher floor (a torn
//! rewrite of one slot leaves the other, older one: that lap's records
//! are still intact because the new lap's first record is only written
//! after its floor is durable) and scans records from 8192 one at a time
//! through a reused buffer: intents without applied markers are returned
//! for **redo** (absolute values, so replay is idempotent — unlike XOR
//! deltas, applying twice is harmless). A range member is only the part of
//! its chunk the update changed: the caller patches it onto the chunk as
//! the device holds it, which outside the range is the value the update
//! started from or a later one, and the two agree there; where the chunk
//! no longer reads, the caller decodes it from the other devices. So a
//! member is logged whole wherever the rest of its chunk may not be on its
//! device, or the other devices may not hold current bytes. A member of an
//! intent of whole chunks has no `within` ([`RedoMember::within`] is
//! `None`) and covers its chunk.
//! Where a record fails to verify
//! the scan looks for a later one that does: if there is none, the lap
//! ends here — a record of this lap that was being written when the crash
//! hit is **rolled back** (it never reported commit, and no member was
//! written, so dropping it is correct; the next append overwrites it),
//! and stale bytes of earlier laps are simply not part of the log. If
//! there is one, the damage was in the *middle* of the lap and the records
//! after it may be committed intents, so the scan resynchronizes at the
//! next valid record boundary. Skipped garbage is counted in
//! [`ReplaySummary`] and reported to the flight recorder.
//!
//! Whether an applied marker is *trustworthy* depends on the caller's
//! [`FlushPolicy`]. Under `Never` the model covers *process* crashes only
//! (abort anywhere, page cache survives): member writes and applied
//! markers need no sync of their own, but a power loss can drop member
//! writes whose applied markers survive — recovery then skips their redo
//! and the update is lost. `PerWave` pushes every touched member through
//! [`BlockDevice::flush`] *before* its applied marker is written, and
//! `Timed` batches that barrier behind a deadline with an applied-marker
//! high-water mark, so markers never claim more durability than the
//! devices have. The same rule governs the rewind: a lap may only be
//! abandoned (inside an append or [`Journal::try_truncate`] once every
//! intent has its marker, or by [`Journal::reset`]) once the member writes
//! it covers have been flushed, because the next lap overwrites the redo
//! records that would otherwise re-create them.
//!
//! [`BlockDevice::flush`]: crate::BlockDevice::flush

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use telemetry::Histogram;

use crate::crash::crash_point;

/// When member writes are pushed through `BlockDevice::flush` relative to
/// the journal's applied markers — the knob that decides whether
/// acknowledged writes survive *power loss* or only *process crashes*.
///
/// | policy | applied marker means | survives |
/// |---|---|---|
/// | `PerWave` | members of this update are on stable storage | power loss |
/// | `Timed` | members flushed within the interval; older acks recoverable via redo | power loss |
/// | `Never` | members were *written* (page cache) | process crash only |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Flush every member device touched by an update before appending its
    /// applied marker. Strongest: an applied marker always covers durable
    /// member bytes, at the cost of one device-flush barrier per wave.
    PerWave,
    /// Background/deadline flushing: applied markers are deferred and
    /// appended in batches once the covering member flush completes, at
    /// most this long after the update. Acknowledged writes inside the
    /// window stay recoverable through journal redo (their intents are
    /// already durable at commit).
    Timed(Duration),
    /// Never flush member devices (the pre-flush-policy semantics):
    /// correct for process crashes, demonstrably lossy under power loss.
    #[default]
    Never,
}

impl FlushPolicy {
    /// Parses a policy string: `never`, `perwave` (or `per-wave`,
    /// `per_wave`), `timed:<ms>` — what a command line or a crash-harness
    /// child hands over; the library itself reads no environment.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "never" => Some(Self::Never),
            "perwave" | "per-wave" | "per_wave" => Some(Self::PerWave),
            _ => {
                let ms: u64 = s.strip_prefix("timed:")?.trim().parse().ok()?;
                Some(Self::Timed(Duration::from_millis(ms)))
            }
        }
    }
}

/// Per-record magic, so a scan can tell records from garbage.
const MAGIC: [u8; 4] = *b"OIJL";
const KIND_INTENT: u8 = 1;
const KIND_APPLIED: u8 = 2;
const KIND_RANGES: u8 = 3;
/// Fixed header: magic(4) + kind(1) + seq(8) + payload_len(4).
const HEADER: usize = 17;
/// Rewind the log once its tail is past this with no outstanding intents.
const RESET_BYTES: u64 = 1 << 20;
/// Magic of a header slot; also what tells a v2 file from a v1 log, whose
/// first bytes are a record's [`MAGIC`].
const SLOT_MAGIC: [u8; 4] = *b"OIJ2";
/// A slot: magic(4) + floor(8) + crc32 of those twelve bytes(4).
const SLOT_LEN: usize = 16;
/// The two slots sit in different 4 KiB blocks so one torn write cannot
/// damage both.
const SLOT_OFFSETS: [u64; 2] = [0, 4096];
/// Where a lap's first record goes.
const DATA_START: u64 = 8192;
/// Size the file is created at and returned to by every rewind.
const EXTENT: u64 = 4 << 20;
/// `create` zero-fills the extent, and the recovery scan looks for record
/// magics, in pieces of this size.
const PIECE: usize = 64 << 10;

/// Slice-by-16 lookup tables for the reflected IEEE polynomial:
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let (mut crc, mut bit) = (i as u32, 0);
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Table k extends table k-1 by one more trailing zero byte.
    while i < 16 * 256 {
        let prev = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3: reflected 0xEDB88320, init and xorout `!0`),
/// slice-by-16 — a coalesced wave's intent record is 100 KiB–1 MiB and is
/// checksummed on the commit path, so 16 bytes per step matter. Public
/// because the rebuild checkpoint format reuses it.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// A record's checksum: [`crc32`] started from a state that folds in the
/// floor of the lap the record belongs to. Seed 0 is plain `crc32` — the
/// v1 format.
fn crc32_seeded(seed: u64, bytes: &[u8]) -> u32 {
    !crc32_update(!((seed as u32) ^ ((seed >> 32) as u32)), bytes)
}

/// Runs the raw (un-inverted) CRC state `crc` over `bytes`.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("chunks_exact(16)");
        let head = crc.to_le_bytes();
        crc = 0;
        for i in 0..16 {
            let byte = if i < 4 { block[i] ^ head[i] } else { block[i] };
            crc ^= t[15 - i][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One member's new contents inside an intent record: the absolute bytes
/// that `chunk` of `disk` must hold after the update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberWrite {
    /// Device index within the array.
    pub disk: u32,
    /// Chunk index on that device.
    pub chunk: u32,
    /// The chunk's new contents (absolute, not a delta).
    pub data: Vec<u8>,
}

/// One member of an intent found by [`Journal::open`]: bytes
/// `within..within + data.len()` of `chunk` on `disk` hold `data` after
/// the update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoMember {
    /// Device index within the array.
    pub disk: u32,
    /// Chunk index on that device.
    pub chunk: u32,
    /// Offset of the first logged byte within the chunk; `None` for a
    /// member of an intent of whole chunks, whose `data` is the whole chunk.
    pub within: Option<u32>,
    /// The range's new contents (absolute, not a delta).
    pub data: Vec<u8>,
}

impl RedoMember {
    /// Overwrites the logged range of `chunk` with the logged bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of `chunk`.
    pub fn patch(&self, chunk: &mut [u8]) {
        let within = self.within.unwrap_or(0) as usize;
        chunk[within..within + self.data.len()].copy_from_slice(&self.data);
    }
}

impl From<MemberWrite> for RedoMember {
    fn from(w: MemberWrite) -> Self {
        Self {
            disk: w.disk,
            chunk: w.chunk,
            within: None,
            data: w.data,
        }
    }
}

/// What [`Journal::open`] found in an existing log.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Committed-but-unapplied intents to redo, in sequence order.
    pub redo: Vec<(u64, Vec<RedoMember>)>,
    /// Intents confirmed applied (skipped).
    pub applied: u64,
    /// 1 if the lap ended in a torn/corrupt record of its own (the next
    /// append overwrites it), else 0.
    pub rolled_back: u64,
    /// Corrupt mid-log regions skipped by resynchronizing to the next
    /// valid record boundary (each region is one or more unreadable
    /// records whose exact count is unknowable).
    pub skipped: u64,
    /// Total bytes inside those skipped regions.
    pub skipped_bytes: u64,
}

/// Counters a store exports as `oi_journal_*` metrics.
#[derive(Debug)]
pub struct JournalStats {
    /// Intent records appended.
    pub appends: AtomicU64,
    /// `fdatasync` calls on the journal file.
    pub flushes: AtomicU64,
    /// Times the log rewound to its first record offset.
    pub resets: AtomicU64,
    /// Bytes handed to `write_all_at`: intent records and applied markers
    /// (not the slot a rewind rewrites).
    pub bytes: AtomicU64,
    /// Offset the next record will be written at.
    pub tail: AtomicU64,
    /// Intents covered per flush (the group-commit batch size).
    pub batch: Arc<Histogram>,
}

impl Default for JournalStats {
    fn default() -> Self {
        Self {
            appends: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            batch: Arc::new(Histogram::new()),
        }
    }
}

/// Where the next record goes and which lap it belongs to: everything that
/// changes with an append or a rewind, under one lock. The file itself is
/// not in here — positioned I/O needs no cursor, so [`Journal::commit`] can
/// sync it without this lock.
#[derive(Debug)]
struct Log {
    /// Offset the next record is written at.
    tail: u64,
    /// Sequence number the current lap started at, and the seed of its
    /// records' CRCs. 0 for a v1 log that has not been reformatted yet
    /// (its records start at offset 0, not [`DATA_START`]).
    floor: u64,
    /// The slot `floor` was read from or last written to.
    slot: usize,
    /// File length, so a rewind knows whether it has to put it back to the
    /// extent (an oversize record grew the file).
    len: u64,
    /// Record under construction, reused across appends (so it keeps the
    /// capacity of the largest record written, at most one wave).
    rec: Vec<u8>,
}

/// One member as the encoder takes it: `(disk, chunk, within, bytes)`.
type Member<'a> = (u32, u32, u32, &'a [u8]);

impl Log {
    /// Encodes one record — header, then for an intent every member
    /// straight from the caller's borrowed bytes (an applied marker has no
    /// payload and passes none; an intent of whole chunks, whose members
    /// all start at byte 0, does not write `within`), then the CRC — into
    /// the reused buffer and writes it at the tail with a single
    /// `write_all_at`. Returns the record's size. A failed write leaves the
    /// tail where it was: whatever part of the record landed is overwritten
    /// by the next append, and does not verify until then.
    fn append<'a>(
        &mut self,
        file: &File,
        kind: u8,
        seq: u64,
        members: impl IntoIterator<Item = Member<'a>>,
    ) -> std::io::Result<u64> {
        let rec = &mut self.rec;
        rec.clear();
        rec.extend_from_slice(&MAGIC);
        rec.push(kind);
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.extend_from_slice(&[0; 4]); // payload length, patched below
        if kind != KIND_APPLIED {
            rec.extend_from_slice(&[0; 4]); // member count, patched below
            let mut count = 0u32;
            for (disk, chunk, within, data) in members {
                rec.extend_from_slice(&disk.to_le_bytes());
                rec.extend_from_slice(&chunk.to_le_bytes());
                if kind == KIND_RANGES {
                    rec.extend_from_slice(&within.to_le_bytes());
                }
                debug_assert!(kind == KIND_RANGES || within == 0);
                rec.extend_from_slice(&(data.len() as u32).to_le_bytes());
                rec.extend_from_slice(data);
                count += 1;
            }
            rec[HEADER..HEADER + 4].copy_from_slice(&count.to_le_bytes());
        }
        let payload_len = (rec.len() - HEADER) as u32;
        rec[HEADER - 4..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32_seeded(self.floor, &rec[4..]);
        rec.extend_from_slice(&crc.to_le_bytes());
        file.write_all_at(rec, self.tail)?;
        self.tail += rec.len() as u64;
        self.len = self.len.max(self.tail);
        Ok(rec.len() as u64)
    }
}

fn encode_slot(floor: u64) -> [u8; SLOT_LEN] {
    let mut slot = [0u8; SLOT_LEN];
    slot[..4].copy_from_slice(&SLOT_MAGIC);
    slot[4..12].copy_from_slice(&floor.to_le_bytes());
    let crc = crc32(&slot[..12]);
    slot[12..].copy_from_slice(&crc.to_le_bytes());
    slot
}

/// The floor a slot publishes, if the slot is whole.
fn decode_slot(slot: &[u8; SLOT_LEN]) -> Option<u64> {
    let stored = u32::from_le_bytes(slot[12..].try_into().expect("4 bytes"));
    (slot[..4] == SLOT_MAGIC && crc32(&slot[..12]) == stored)
        .then(|| u64::from_le_bytes(slot[4..12].try_into().expect("8 bytes")))
}

/// Writes `floor` into slot `slot` and makes it durable. Once this returns,
/// every record written under an earlier floor is dead — which is why the
/// caller may only then start writing over them.
fn publish_floor(file: &File, slot: usize, floor: u64) -> std::io::Result<()> {
    file.write_all_at(&encode_slot(floor), SLOT_OFFSETS[slot])?;
    crash_point("journal_rewind");
    file.sync_data()?;
    crash_point("journal_rewind_synced");
    Ok(())
}

/// Lays the v2 image over `file`, whatever it held (nothing, or a v1 log
/// whose intents are all applied): slot A first — its sync is the moment
/// the old contents stop being a log — then zeros *written* over the rest
/// of the extent, so that no later record write allocates or converts a
/// block, then the length.
fn format(file: &File, floor: u64) -> std::io::Result<()> {
    publish_floor(file, 0, floor)?;
    let zeros = vec![0u8; PIECE];
    let mut offset = SLOT_LEN as u64;
    while offset < EXTENT {
        let n = (EXTENT - offset).min(PIECE as u64) as usize;
        file.write_all_at(&zeros[..n], offset)?;
        offset += n as u64;
    }
    file.set_len(EXTENT)?;
    file.sync_all()
}

/// Fills `buf` from `offset`, stopping early at end of file; returns how
/// many bytes it got.
fn read_up_to(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match file.read_at(&mut buf[got..], offset + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// The write-ahead intent log. All methods take `&self`; appends serialize
/// on an internal log lock, flushes group-commit behind a flush lock.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Every access is positioned (`write_all_at`, `read_exact_at`) or a
    /// sync, so appenders (under `log`) and the committer (under
    /// `flush_lock`) share the handle without a lock of its own.
    file: File,
    log: Mutex<Log>,
    /// Next sequence number to hand out (monotonic across rewinds).
    next_seq: AtomicU64,
    /// Highest seq fully written to the file (record write completed).
    last_appended: AtomicU64,
    /// Highest seq known durable (covered by a completed flush).
    flushed_seq: AtomicU64,
    /// Intents appended but not yet marked applied.
    outstanding: AtomicU64,
    /// Serializes `fdatasync`; waiters piggyback on the in-flight sync.
    flush_lock: Mutex<()>,
    stats: JournalStats,
    /// Test builds only: acquisitions of the `log` lock.
    #[cfg(test)]
    log_locks: std::sync::atomic::AtomicUsize,
}

impl Journal {
    /// Creates (or truncates) a fresh journal at `path`: the whole extent
    /// written as zeros and synced, floor 1 in slot A.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        format(&file, 1)?;
        let log = Log {
            tail: DATA_START,
            floor: 1,
            slot: 0,
            len: EXTENT,
            rec: Vec::new(),
        };
        Ok(Self::from_file(path, file, log, 1))
    }

    /// Opens an existing journal (creating a fresh one if absent), scans
    /// the current lap, and returns the recovery work: intents to redo and
    /// whether a torn record was rolled back. The tail is set to the last
    /// valid record boundary, so the next append overwrites any torn
    /// record. The caller must apply every redo write to the devices and
    /// then call [`Journal::reset`] — if it crashes in between, the next
    /// open simply replays again (redo is idempotent).
    ///
    /// # Errors
    ///
    /// `InvalidData` if the file is neither a v1 log nor has a readable
    /// slot: its floor, and with it which records are live, is unknown.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Self, ReplaySummary)> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut slots = [[0u8; SLOT_LEN]; 2];
        for (slot, offset) in slots.iter_mut().zip(SLOT_OFFSETS) {
            read_up_to(&file, slot, offset)?;
        }
        let (start, floor, slot) = if slots[0][..4] == MAGIC {
            (0, 0, 0) // v1: records from offset 0, unseeded
        } else {
            let floors = [decode_slot(&slots[0]), decode_slot(&slots[1])];
            match floors {
                [Some(a), Some(b)] if b > a => (DATA_START, b, 1),
                [Some(a), _] => (DATA_START, a, 0),
                [None, Some(b)] => (DATA_START, b, 1),
                // Never written (absent, a create that died before its
                // first slot, or a v1 log truncated to empty): a fresh log.
                [None, None] if file.metadata()?.len() == 0 => {
                    format(&file, 1)?;
                    (DATA_START, 1, 0)
                }
                [None, None] => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal {}: neither header slot is readable",
                            path.display()
                        ),
                    ))
                }
            }
        };
        let len = file.metadata()?.len();

        let mut scan = Scan {
            file: &file,
            end: len,
            floor,
            buf: Vec::new(),
        };
        let mut intents: BTreeMap<u64, Vec<RedoMember>> = BTreeMap::new();
        let mut applied = 0u64;
        let mut max_seq = 0u64;
        let mut skipped = 0u64;
        let mut skipped_bytes = 0u64;
        let mut offset = start;
        loop {
            match scan.record_at(offset)? {
                Some((consumed, seq, record)) => {
                    max_seq = max_seq.max(seq);
                    match record {
                        Record::Intent(writes) => {
                            intents.insert(seq, writes);
                        }
                        Record::Applied => {
                            if intents.remove(&seq).is_some() {
                                applied += 1;
                            }
                        }
                    }
                    offset += consumed;
                }
                // No record here: either the lap ends (nothing valid
                // follows) or this is mid-log corruption (committed records
                // follow — resynchronize past the garbage rather than
                // silently dropping them as if they were torn).
                None => match scan.next_valid(offset + 1)? {
                    Some(next) => {
                        skipped += 1;
                        skipped_bytes += next - offset;
                        offset = next;
                    }
                    None => break,
                },
            }
        }
        // What follows the lap is zeros or an earlier lap's bytes — unless
        // it starts like a record of *this* lap, which is then one that was
        // being written when the crash hit. (Mid-log garbage before
        // `offset` is kept as-is: reopening simply re-skips it, and
        // recovery normally rewinds right after redo anyway.)
        let rolled_back = u64::from(scan.record_begun_at(offset)?.is_some());
        // Surviving records may include written-but-never-synced tails
        // (the crash hit between append and group commit); sync now so the
        // recovered journal's flushed_seq == max_seq claim below is true.
        file.sync_data()?;

        if skipped > 0 {
            telemetry::flight_event(
                telemetry::EventKind::JournalCorruption,
                skipped,
                skipped_bytes,
            );
        }
        let summary = ReplaySummary {
            redo: intents.into_iter().collect(),
            applied,
            rolled_back,
            skipped,
            skipped_bytes,
        };
        let log = Log {
            tail: offset,
            floor,
            slot,
            len: len.max(offset),
            rec: Vec::new(),
        };
        // An empty lap has no record to take the next seq from, but its
        // floor says where the numbering had got to.
        let mut journal = Self::from_file(path, file, log, (max_seq + 1).max(floor));
        *journal.outstanding.get_mut() = summary.redo.len() as u64;
        Ok((journal, summary))
    }

    fn from_file(path: PathBuf, file: File, log: Log, next_seq: u64) -> Self {
        let stats = JournalStats::default();
        stats.tail.store(log.tail, Ordering::Relaxed);
        Self {
            path,
            file,
            log: Mutex::new(log),
            next_seq: AtomicU64::new(next_seq),
            last_appended: AtomicU64::new(next_seq - 1),
            flushed_seq: AtomicU64::new(next_seq - 1),
            outstanding: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
            stats,
            #[cfg(test)]
            log_locks: Default::default(),
        }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        #[cfg(test)]
        self.log_locks.fetch_add(1, Ordering::Relaxed);
        self.log.lock().expect("journal log lock")
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifetime counters for metrics export.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// Appends one intent record of whole chunks (all member new-values of
    /// one update) and returns its sequence number. Page-cache only — call
    /// [`Journal::commit`] before touching any member.
    pub fn append_intent(&self, writes: &[MemberWrite]) -> std::io::Result<u64> {
        let members = writes
            .iter()
            .map(|w| (w.disk, w.chunk, 0, w.data.as_slice()));
        self.append(KIND_INTENT, members)
    }

    /// Appends one intent record of ranges and returns its sequence number:
    /// per member `(disk, chunk, within, bytes)`, the new bytes of the
    /// range of the chunk starting at byte `within` — the part the update
    /// changed. The record is encoded straight from the caller's buffers,
    /// so the commit path never clones a member to log it. Page-cache only,
    /// as [`Journal::append_intent`].
    pub fn append_ranges<'a>(
        &self,
        members: impl IntoIterator<Item = (u32, u32, u32, &'a [u8])>,
    ) -> std::io::Result<u64> {
        self.append(KIND_RANGES, members)
    }

    /// Appends one intent of `kind`. Rewinds first when the log has drained
    /// and its tail is past the threshold: with appends overlapping syncs,
    /// "nothing outstanding" is rarely true at the moment an applied marker
    /// looks, but it is true here whenever this is the only update in
    /// flight. Safe for the same reason a drained [`Journal::try_truncate`]
    /// is — every intent has its marker, and under a flush policy a marker
    /// is only written once its members are flushed.
    fn append<'a>(
        &self,
        kind: u8,
        members: impl IntoIterator<Item = Member<'a>>,
    ) -> std::io::Result<u64> {
        let mut log = self.log();
        self.rewind_if_due(&mut log)?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let written = log.append(&self.file, kind, seq, members)?;
        self.note_written(&log, written);
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.last_appended.store(seq, Ordering::Release);
        drop(log);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        crash_point("journal_append");
        Ok(seq)
    }

    fn note_written(&self, log: &Log, bytes: u64) {
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.tail.store(log.tail, Ordering::Relaxed);
    }

    /// Makes every intent up to and including `seq` durable. This is the
    /// commit point: returning `Ok` means the update will survive a crash.
    ///
    /// Group commit: one `fdatasync` covers all records written before it
    /// started, so concurrent committers (a coalesced volume wave) share a
    /// single sync — callers whose seq is already covered return without
    /// touching the file. The log lock is not taken: appends and applied
    /// markers of other updates land while the sync runs, and are claimed
    /// by the next one.
    pub fn commit(&self, seq: u64) -> std::io::Result<()> {
        if self.flushed_seq.load(Ordering::Acquire) >= seq {
            return Ok(());
        }
        let _flush = self.flush_lock.lock().expect("journal flush lock");
        // Re-check: the sync we queued behind may have covered us.
        let prev = self.flushed_seq.load(Ordering::Acquire);
        if prev >= seq {
            return Ok(());
        }
        // Every record with seq <= last_appended is fully written (the
        // counter is only advanced after write_all_at completes), so one
        // sync commits the whole batch. Loaded *before* the sync: a record
        // that lands while it runs may or may not be covered, so it must
        // not be claimed.
        let target = self.last_appended.load(Ordering::Acquire);
        self.file.sync_data()?;
        // fetch_max, not store: a concurrent rewind (which holds only the
        // log lock, not this flush lock) may already have advanced
        // flushed_seq past our target; writing an older value back would
        // let a later committer skip a sync it still needs.
        self.flushed_seq.fetch_max(target, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.batch.record(target.saturating_sub(prev));
        crash_point("journal_flush");
        Ok(())
    }

    /// Records that the members of intent `seq` have been written. Once no
    /// intents are outstanding and the tail is past a threshold, the log
    /// rewinds (sequence numbers stay monotonic).
    ///
    /// The rewind does not flush member devices, so call it only once the
    /// intent's members are where the flush policy needs them: written
    /// under [`FlushPolicy::Never`], flushed under a power-safe policy.
    /// Every earlier marker obeyed the same rule, so by the time the log
    /// drains the whole lap's members are there too. A caller that must
    /// flush between the marker and the rewind uses
    /// [`Journal::mark_applied_no_truncate`] and [`Journal::try_truncate`].
    pub fn mark_applied(&self, seq: u64) -> std::io::Result<()> {
        if self.mark_applied_no_truncate(seq)? {
            self.try_truncate()?;
        }
        Ok(())
    }

    /// Writes the applied marker for `seq` and decrements the outstanding
    /// count, but never rewinds. Returns `true` when the log has drained
    /// (no intents outstanding) and its tail is past the threshold — i.e.
    /// a [`Journal::try_truncate`] is due once the caller has flushed the
    /// member devices the log covers.
    pub fn mark_applied_no_truncate(&self, seq: u64) -> std::io::Result<bool> {
        let prev;
        let due;
        {
            let mut log = self.log();
            let written = log.append(&self.file, KIND_APPLIED, seq, [])?;
            self.note_written(&log, written);
            // Saturating: a double apply (or an apply racing reset) must
            // not wrap outstanding to u64::MAX and wedge the rewind
            // forever. The closure always returns Some, so fetch_update
            // cannot fail.
            prev = self
                .outstanding
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(1))
                })
                .unwrap_or_else(|n| n);
            due = prev == 1 && log.tail > RESET_BYTES;
        }
        // Outside the log lock, so a debug-build panic cannot poison it.
        debug_assert!(
            prev > 0,
            "mark_applied(seq={seq}) with no outstanding intents (double apply or apply after reset)"
        );
        Ok(due)
    }

    /// Rewinds the log if nothing is outstanding and its tail is past the
    /// threshold. Callers operating under a flush policy must flush the
    /// member devices covered by the log *before* calling — the next lap
    /// overwrites the redo records.
    pub fn try_truncate(&self) -> std::io::Result<()> {
        let mut log = self.log();
        self.rewind_if_due(&mut log)
    }

    /// Abandons the current lap unconditionally. Call after every redo
    /// write from [`Journal::open`] has been applied to the devices; a v1
    /// log is reformatted here.
    pub fn reset(&self) -> std::io::Result<()> {
        let mut log = self.log();
        self.outstanding.store(0, Ordering::Relaxed);
        self.rewind_locked(&mut log)
    }

    fn rewind_if_due(&self, log: &mut Log) -> std::io::Result<()> {
        if self.outstanding.load(Ordering::Relaxed) == 0 && log.tail > RESET_BYTES {
            self.rewind_locked(log)?;
        }
        Ok(())
    }

    /// Starts a new lap: its floor — the next sequence number, which only
    /// moves under the log lock held here — goes into the slot that is not
    /// current and is synced *before* the tail moves, because the first
    /// record written at the old lap's start is only readable under the
    /// new floor. An oversize record's growth is given back afterwards:
    /// cutting the file while the old floor could still come back would cut
    /// applied markers off intents that stay.
    fn rewind_locked(&self, log: &mut Log) -> std::io::Result<()> {
        let floor = self.next_seq.load(Ordering::Relaxed);
        if log.floor == 0 {
            format(&self.file, floor)?; // a v1 log
            log.slot = 0;
        } else {
            let other = 1 - log.slot;
            publish_floor(&self.file, other, floor)?;
            log.slot = other;
            if log.len != EXTENT {
                self.file.set_len(EXTENT)?;
            }
        }
        (log.floor, log.tail, log.len) = (floor, DATA_START, EXTENT);
        self.stats.tail.store(DATA_START, Ordering::Relaxed);
        // An empty lap trivially covers every appended record; fetch_max
        // (not store) so we never move flushed_seq backwards under a
        // racing group commit.
        self.flushed_seq
            .fetch_max(self.last_appended.load(Ordering::Acquire), Ordering::AcqRel);
        self.stats.resets.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Intents appended but not yet marked applied.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Highest sequence number known durable (covered by a completed
    /// flush). Monotonic: never regresses, even across rewinds.
    pub fn flushed_seq(&self) -> u64 {
        self.flushed_seq.load(Ordering::Acquire)
    }

    /// Highest sequence number fully written to the file.
    pub fn last_appended(&self) -> u64 {
        self.last_appended.load(Ordering::Acquire)
    }
}

/// The recovery scan's view of the file: one record at a time through a
/// reused buffer, so opening costs the largest record in memory, not the
/// file.
struct Scan<'a> {
    file: &'a File,
    /// File length: no record extends past it.
    end: u64,
    /// Records must carry this seed and a `seq` at or above it.
    floor: u64,
    buf: Vec<u8>,
}

impl Scan<'_> {
    /// The size of the record whose header is at `offset`, if the bytes
    /// there start like a record of this lap (magic, `seq >= floor`) — as
    /// opposed to zeros or an earlier lap's leftovers, which are not part
    /// of the log at all.
    fn record_begun_at(&self, offset: u64) -> std::io::Result<Option<u64>> {
        let mut header = [0u8; HEADER];
        let got = read_up_to(self.file, &mut header, offset)?;
        let seq = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[13..].try_into().expect("4 bytes"));
        let begun = got == HEADER && header[..4] == MAGIC && seq >= self.floor;
        Ok(begun.then_some(HEADER as u64 + len as u64 + 4))
    }

    /// Reads and verifies the record at `offset`: `(size, seq, record)`,
    /// or `None` for anything that is not a whole record of this lap.
    fn record_at(&mut self, offset: u64) -> std::io::Result<Option<(u64, u64, Record)>> {
        let total = match self.record_begun_at(offset)? {
            // Bounded by the file's length before anything is allocated.
            Some(total) if offset + total <= self.end => total as usize,
            _ => return Ok(None),
        };
        self.buf.resize(total, 0);
        self.file.read_exact_at(&mut self.buf, offset)?;
        Ok(parse_record(&self.buf, self.floor)
            .map(|(consumed, seq, record)| (consumed as u64, seq, record)))
    }

    /// Scans forward from `from` for the next offset where a complete
    /// record verifies (magic, header, payload, CRC all good) — the resync
    /// point after mid-log corruption. `None` means the lap ends before
    /// `from`.
    fn next_valid(&mut self, from: u64) -> std::io::Result<Option<u64>> {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const O: u64 = MAGIC[0] as u64;
        let mut piece = vec![0u8; PIECE];
        let mut base = from;
        while base + (HEADER + 4) as u64 <= self.end {
            let n = (self.end - base).min(PIECE as u64) as usize;
            self.file.read_exact_at(&mut piece[..n], base)?;
            // Eight bytes at a step: a word none of whose bytes is the
            // magic's first (x has no zero byte) starts no record. Bytes of
            // the buffer past `n` are an earlier piece's; they can only add
            // words to look into, and the look stops at `n - 3`.
            for (w, word) in piece[..n.next_multiple_of(8)].chunks_exact(8).enumerate() {
                let x = u64::from_ne_bytes(word.try_into().expect("8 bytes")) ^ (ONES * O);
                if x.wrapping_sub(ONES) & !x & (ONES << 7) == 0 {
                    continue;
                }
                for i in w * 8..(w * 8 + 8).min(n - 3) {
                    if piece[i..i + 4] == MAGIC && self.record_at(base + i as u64)?.is_some() {
                        return Ok(Some(base + i as u64));
                    }
                }
            }
            // Overlap by three bytes: a magic may straddle two pieces.
            base += (n - 3) as u64;
        }
        Ok(None)
    }
}

enum Record {
    Intent(Vec<RedoMember>),
    Applied,
}

/// Parses one record of the lap with floor `floor` from the front of
/// `bytes`. Returns `None` on a torn, corrupt, stale or absent record — the
/// scan's stop condition.
fn parse_record(bytes: &[u8], floor: u64) -> Option<(usize, u64, Record)> {
    if bytes.len() < HEADER + 4 || bytes[..4] != MAGIC {
        return None;
    }
    let kind = bytes[4];
    let seq = u64::from_le_bytes(bytes[5..13].try_into().ok()?);
    let len = u32::from_le_bytes(bytes[13..17].try_into().ok()?) as usize;
    let total = HEADER + len + 4;
    if bytes.len() < total || seq < floor {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[HEADER + len..total].try_into().ok()?);
    if crc32_seeded(floor, &bytes[4..HEADER + len]) != stored {
        return None;
    }
    let payload = &bytes[HEADER..HEADER + len];
    let record = match kind {
        KIND_APPLIED => Record::Applied,
        KIND_INTENT | KIND_RANGES => Record::Intent(parse_intent(payload, kind == KIND_RANGES)?),
        _ => return None,
    };
    Some((total, seq, record))
}

/// The members of an intent's payload; `ranged` for kind 3, whose members
/// carry `within` after `chunk`.
fn parse_intent(payload: &[u8], ranged: bool) -> Option<Vec<RedoMember>> {
    let mut rest = payload;
    let mut take = |len: usize| -> Option<&[u8]> {
        let (field, tail) = rest.split_at_checked(len)?;
        rest = tail;
        Some(field)
    };
    let le = |field: &[u8]| u32::from_le_bytes(field.try_into().expect("4 bytes"));
    let n = le(take(4)?);
    let mut members = Vec::new();
    for _ in 0..n {
        let (disk, chunk) = (le(take(4)?), le(take(4)?));
        let within = if ranged { Some(le(take(4)?)) } else { None };
        let len = le(take(4)?) as usize;
        let data = take(len)?.to_vec();
        members.push(RedoMember {
            disk,
            chunk,
            within,
            data,
        });
    }
    rest.is_empty().then_some(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as TestCounter, Ordering as TestOrdering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: TestCounter = TestCounter::new(0);
        let n = UNIQUE.fetch_add(1, TestOrdering::Relaxed);
        std::env::temp_dir().join(format!("journal-test-{}-{tag}-{n}.log", std::process::id()))
    }

    fn write(disk: u32, chunk: u32, byte: u8) -> MemberWrite {
        MemberWrite {
            disk,
            chunk,
            data: vec![byte; 16],
        }
    }

    /// [`write`] as [`Journal::open`] returns it.
    fn redo(disk: u32, chunk: u32, byte: u8) -> RedoMember {
        write(disk, chunk, byte).into()
    }

    fn tail_of(j: &Journal) -> u64 {
        j.stats().tail.load(Ordering::Relaxed)
    }

    /// Tears a write: `len` bytes at `offset` hold what was there before
    /// it (zeros, on a fresh journal's first lap) instead.
    fn tear(path: &Path, offset: u64, len: usize) {
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.write_all_at(&vec![0; len], offset).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_commit_apply_reset() {
        let path = temp_path("roundtrip");
        let j = Journal::create(&path).unwrap();
        let seq = j
            .append_intent(&[write(0, 3, 0xAA), write(5, 3, 0xBB)])
            .unwrap();
        j.commit(seq).unwrap();
        assert_eq!(j.outstanding(), 1);

        // Reopen before mark_applied: the intent must come back verbatim.
        let (_j2, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.rolled_back, 0);
        assert_eq!(summary.redo.len(), 1);
        let (got_seq, writes) = &summary.redo[0];
        assert_eq!(*got_seq, seq);
        assert_eq!(writes, &[redo(0, 3, 0xAA), redo(5, 3, 0xBB)]);

        // Applied intents are skipped on the next open.
        j.mark_applied(seq).unwrap();
        assert_eq!(j.outstanding(), 0);
        let (_, summary) = Journal::open(&path).unwrap();
        assert!(summary.redo.is_empty());
        assert_eq!(summary.applied, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_rolls_back_only_the_tail() {
        let path = temp_path("torn");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        j.commit(s1).unwrap();
        let s2 = j.append_intent(&[write(2, 2, 0x22)]).unwrap();
        j.commit(s2).unwrap();
        let tail = tail_of(&j);
        drop(j);

        // Tear the second record: its last 7 bytes never landed.
        tear(&path, tail - 7, 7);

        let (j2, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.rolled_back, 1);
        assert_eq!(summary.redo.len(), 1, "first record survives");
        assert_eq!(summary.redo[0].0, s1);
        // The torn tail is gone: appends after recovery parse cleanly.
        let s3 = j2.append_intent(&[write(3, 3, 0x33)]).unwrap();
        j2.commit(s3).unwrap();
        drop(j2);
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.rolled_back, 0);
        assert_eq!(summary.redo.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let path = temp_path("crc");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        j.commit(s1).unwrap();
        drop(j);
        // Flip one payload byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = DATA_START as usize + HEADER + 5;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, summary) = Journal::open(&path).unwrap();
        assert!(summary.redo.is_empty());
        assert_eq!(summary.rolled_back, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let path = temp_path("group");
        let j = Journal::create(&path).unwrap();
        let seqs: Vec<u64> = (0..8)
            .map(|i| j.append_intent(&[write(i, 0, i as u8)]).unwrap())
            .collect();
        // One commit of the highest seq covers the whole batch...
        j.commit(*seqs.last().unwrap()).unwrap();
        // ...so earlier commits are free.
        for &s in &seqs {
            j.commit(s).unwrap();
        }
        let flushes = j.stats().flushes.load(Ordering::Relaxed);
        assert_eq!(flushes, 1, "one sync covered all 8 intents");
        assert_eq!(j.stats().batch.max(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates_and_later_records_still_parse() {
        let path = temp_path("reset");
        let j = Journal::create(&path).unwrap();
        let s = j.append_intent(&[write(0, 0, 1)]).unwrap();
        j.commit(s).unwrap();
        j.mark_applied(s).unwrap();
        j.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), EXTENT);
        assert_eq!(
            tail_of(&j),
            DATA_START,
            "the next record overwrites the old lap"
        );
        let s2 = j.append_intent(&[write(0, 1, 2)]).unwrap();
        assert!(s2 > s, "sequence numbers stay monotonic across resets");
        j.commit(s2).unwrap();
        drop(j);
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.redo.len(), 1);
        assert_eq!(summary.redo[0].0, s2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_journals_open_clean() {
        let path = temp_path("fresh");
        let (j, summary) = Journal::open(&path).unwrap();
        assert!(summary.redo.is_empty());
        assert_eq!(summary.rolled_back, 0);
        let s = j.append_intent(&[write(0, 0, 9)]).unwrap();
        j.commit(s).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// Calls `f` expecting the saturating-decrement debug assertion: in
    /// debug builds the call must panic (the bug is loud), in release it
    /// must return `Ok` (the counter saturates instead of wrapping).
    fn assert_saturates(j: &Journal, seq: u64) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| j.mark_applied(seq)));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug build asserts on over-apply");
        } else {
            result.expect("no panic in release").unwrap();
        }
        assert_eq!(
            j.outstanding(),
            0,
            "outstanding saturates at zero instead of wrapping to u64::MAX"
        );
    }

    #[test]
    fn double_apply_saturates_instead_of_wrapping() {
        let path = temp_path("double-apply");
        let j = Journal::create(&path).unwrap();
        let s = j.append_intent(&[write(0, 0, 1)]).unwrap();
        j.commit(s).unwrap();
        j.mark_applied(s).unwrap();
        assert_eq!(j.outstanding(), 0);
        // Second apply of the same seq: before the fix this wrapped
        // outstanding to u64::MAX, permanently disabling truncation.
        assert_saturates(&j, s);
        // The journal still works afterwards (file lock not poisoned).
        let s2 = j.append_intent(&[write(0, 1, 2)]).unwrap();
        j.commit(s2).unwrap();
        j.mark_applied(s2).unwrap();
        assert_eq!(j.outstanding(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_after_reset_saturates_instead_of_wrapping() {
        let path = temp_path("apply-after-reset");
        let j = Journal::create(&path).unwrap();
        let s = j.append_intent(&[write(0, 0, 1)]).unwrap();
        j.commit(s).unwrap();
        // Reset zeroes the outstanding count while `s` is still unapplied;
        // a late mark_applied(s) must not wrap it negative.
        j.reset().unwrap();
        assert_eq!(j.outstanding(), 0);
        assert_saturates(&j, s);
        std::fs::remove_file(&path).ok();
    }

    /// Flips one payload byte of the `n`-th record (0-based) of a fresh
    /// journal's first lap.
    fn corrupt_record(path: &Path, n: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let mut offset = DATA_START as usize;
        for _ in 0..n {
            let (consumed, _, _) = parse_record(&bytes[offset..], 1).unwrap();
            offset += consumed;
        }
        bytes[offset + HEADER + 2] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn mid_log_corruption_resyncs_and_keeps_later_intents() {
        let path = temp_path("midlog");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        let _s2 = j.append_intent(&[write(2, 2, 0x22)]).unwrap();
        let s3 = j.append_intent(&[write(3, 3, 0x33)]).unwrap();
        j.commit(s3).unwrap();
        drop(j);
        // Corrupt the middle record: before the fix, the scan treated it
        // as a torn tail and silently dropped the committed s3 as well.
        corrupt_record(&path, 1);

        let (j2, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.skipped, 1, "one corrupt region skipped");
        assert!(summary.skipped_bytes > 0);
        assert_eq!(summary.rolled_back, 0, "the tail itself is intact");
        let seqs: Vec<u64> = summary.redo.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![s1, s3], "s2 is lost, s1 and s3 survive");
        assert_eq!(summary.redo[1].1, vec![redo(3, 3, 0x33)]);
        // New appends after resync land past the garbage and parse fine.
        let s4 = j2.append_intent(&[write(4, 4, 0x44)]).unwrap();
        j2.commit(s4).unwrap();
        drop(j2);
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.skipped, 1, "garbage region is re-skipped");
        let seqs: Vec<u64> = summary.redo.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![s1, s3, s4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_plus_torn_tail_handles_both() {
        let path = temp_path("midlog-torn");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        let _s2 = j.append_intent(&[write(2, 2, 0x22)]).unwrap();
        let s3 = j.append_intent(&[write(3, 3, 0x33)]).unwrap();
        j.commit(s3).unwrap();
        let tail = tail_of(&j);
        drop(j);
        corrupt_record(&path, 1);
        // Tear the last record as well.
        tear(&path, tail - 5, 5);

        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.skipped, 0, "nothing valid after the corruption");
        assert_eq!(
            summary.rolled_back, 1,
            "corrupt region + torn s3 rolled back"
        );
        let seqs: Vec<u64> = summary.redo.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![s1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_replay_crash_open_converges_and_seqs_stay_monotonic() {
        let path = temp_path("reopen-crash");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(0, 0, 0xAA)]).unwrap();
        let s2 = j.append_intent(&[write(1, 0, 0xBB)]).unwrap();
        j.commit(s2).unwrap();
        drop(j);

        // First recovery: sees both intents outstanding. Simulate a crash
        // after the redo writes but before reset() — the journal object is
        // simply dropped with the log untouched.
        let (j1, sum1) = Journal::open(&path).unwrap();
        assert_eq!(sum1.redo.len(), 2);
        assert_eq!(j1.outstanding(), 2);
        let first_flushed = j1.flushed_seq();
        assert_eq!(
            first_flushed, s2,
            "open syncs, so survivors count as flushed"
        );
        drop(j1);

        // Second recovery converges to the same answer (redo is
        // idempotent, so replaying again is harmless).
        let (j2, sum2) = Journal::open(&path).unwrap();
        let seqs1: Vec<u64> = sum1.redo.iter().map(|(s, _)| *s).collect();
        let seqs2: Vec<u64> = sum2.redo.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs1, seqs2);
        assert_eq!(seqs2, vec![s1, s2]);

        // Sequence numbers handed out after any number of recoveries stay
        // strictly above everything in the log.
        let s3 = j2.append_intent(&[write(2, 0, 0xCC)]).unwrap();
        assert!(s3 > s2);
        j2.commit(s3).unwrap();
        assert!(j2.flushed_seq() >= s3);
        j2.mark_applied(s3).unwrap();
        j2.reset().unwrap();
        let s4 = j2.append_intent(&[write(3, 0, 0xDD)]).unwrap();
        assert!(s4 > s3, "monotonic across reset after recovery");
        drop(j2);
        let (j3, sum3) = Journal::open(&path).unwrap();
        assert_eq!(sum3.redo.len(), 1, "post-reset log holds only s4");
        assert_eq!(sum3.redo[0].0, s4);
        let s5 = j3.append_intent(&[write(4, 0, 0xEE)]).unwrap();
        assert!(s5 > s4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_and_tail_count_what_is_written() {
        let path = temp_path("bytes");
        let j = Journal::create(&path).unwrap();
        assert_eq!(tail_of(&j), DATA_START);
        let s = j.append_intent(&[write(0, 0, 1)]).unwrap();
        // header 17 + member count 4 + (disk, chunk, len) 12 + data 16 + crc 4
        assert_eq!(j.stats().bytes.load(Ordering::Relaxed), 53);
        j.commit(s).unwrap();
        j.mark_applied(s).unwrap();
        assert_eq!(j.stats().bytes.load(Ordering::Relaxed), 53 + 21);
        assert_eq!(tail_of(&j), DATA_START + 53 + 21);
        j.reset().unwrap();
        assert_eq!(j.stats().bytes.load(Ordering::Relaxed), 53 + 21);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_never_takes_the_log_lock() {
        let path = temp_path("commit-lock");
        let j = Journal::create(&path).unwrap();
        let s = j.append_intent(&[write(0, 0, 1)]).unwrap();
        let before = j.log_locks.load(Ordering::Relaxed);
        j.commit(s).unwrap(); // syncs
        j.commit(s).unwrap(); // already covered
        assert_eq!(j.stats().flushes.load(Ordering::Relaxed), 1);
        assert_eq!(j.log_locks.load(Ordering::Relaxed), before);
        j.mark_applied(s).unwrap();
        assert!(
            j.log_locks.load(Ordering::Relaxed) > before,
            "the counter counts"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The encoder alone, writing from offset 0 of whatever file it is
    /// given under `floor`'s seed.
    fn raw_log(floor: u64) -> Log {
        Log {
            tail: 0,
            floor,
            slot: 0,
            len: 0,
            rec: Vec::new(),
        }
    }

    fn redo_seqs(path: &Path) -> Vec<u64> {
        let (_, summary) = Journal::open(path).unwrap();
        summary.redo.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn torn_rewrite_of_either_slot_opens_on_the_other() {
        let path = temp_path("slots");
        let j = Journal::create(&path).unwrap();
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        j.commit(s1).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        // The first rewind would write slot B. Half of it landed: slot A
        // still names the lap s1 is in.
        f.write_all_at(&encode_slot(s1 + 1)[..9], SLOT_OFFSETS[1])
            .unwrap();
        assert_eq!(redo_seqs(&path), vec![s1]);

        // A real rewind makes slot B current; the one after it would
        // rewrite slot A.
        j.mark_applied(s1).unwrap();
        j.reset().unwrap();
        let s2 = j.append_intent(&[write(2, 2, 0x22)]).unwrap();
        j.commit(s2).unwrap();
        assert_eq!(redo_seqs(&path), vec![s2]);
        f.write_all_at(&encode_slot(s2 + 1)[..9], SLOT_OFFSETS[0])
            .unwrap();
        assert_eq!(redo_seqs(&path), vec![s2]);
        // And a whole slot A with a higher floor ends s2's lap.
        f.write_all_at(&encode_slot(s2 + 1), SLOT_OFFSETS[0])
            .unwrap();
        assert_eq!(redo_seqs(&path), Vec::<u64>::new());

        // With neither slot readable there is no telling which records are
        // live: the open fails instead of guessing.
        f.write_all_at(&[0xFF; SLOT_LEN], SLOT_OFFSETS[0]).unwrap();
        f.write_all_at(&[0xFF; SLOT_LEN], SLOT_OFFSETS[1]).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_lapped_log_never_replays_an_earlier_lap() {
        let path = temp_path("lapped");
        let j = Journal::create(&path).unwrap();
        // Lap 1: three committed intents, the last two never marked applied
        // — then abandoned by reset(), as after a recovery that redid them.
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        j.mark_applied(s1).unwrap();
        let big = MemberWrite {
            disk: 2,
            chunk: 2,
            data: vec![0x22; 5000],
        };
        j.append_intent(std::slice::from_ref(&big)).unwrap();
        let s3 = j.append_intent(&[write(3, 3, 0x33)]).unwrap();
        j.commit(s3).unwrap();
        let lap1 = std::fs::read(&path).unwrap();
        j.reset().unwrap();
        assert_eq!(redo_seqs(&path), Vec::<u64>::new(), "an empty lap 2");

        // Lap 2 overwrites the start of lap 1; the rest of it is still there.
        let s4 = j.append_intent(&[write(4, 4, 0x44)]).unwrap();
        j.commit(s4).unwrap();
        let tail = tail_of(&j);
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.redo, vec![(s4, vec![redo(4, 4, 0x44)])]);
        assert_eq!((summary.rolled_back, summary.skipped), (0, 0));

        // Lap 2's first record torn: its end still holds lap 1's bytes.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let torn = (tail - 9) as usize..tail as usize;
        f.write_all_at(&lap1[torn.clone()], torn.start as u64)
            .unwrap();
        let (j2, summary) = Journal::open(&path).unwrap();
        assert!(summary.redo.is_empty(), "{:?}", summary.redo);
        assert_eq!((summary.rolled_back, summary.skipped), (1, 0));
        // The next append takes the torn record's place and its number.
        let s5 = j2.append_intent(&[write(5, 5, 0x55)]).unwrap();
        assert_eq!((s5, tail_of(&j2)), (s4, tail));
        assert_eq!(redo_seqs(&path), vec![s5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_payload_that_is_itself_a_record_is_not_redone_from_the_stale_region() {
        let path = temp_path("nested");
        // A well-formed intent record as another fresh journal (floor 1,
        // like this one's first lap) would write it, with a sequence number
        // no floor will ever pass.
        let mut other = raw_log(1);
        let scratch = temp_path("nested-scratch");
        let f = File::create(&scratch).unwrap();
        other
            .append(
                &f,
                KIND_INTENT,
                u64::MAX / 2,
                [(9, 9, 0, &[0x99u8; 64][..])],
            )
            .unwrap();
        let nested = std::fs::read(&scratch).unwrap();
        assert!(
            parse_record(&nested, 1).is_some(),
            "well-formed under its own floor"
        );
        std::fs::remove_file(&scratch).ok();

        let j = Journal::create(&path).unwrap();
        let carrier = MemberWrite {
            disk: 0,
            chunk: 0,
            data: nested,
        };
        let s1 = j.append_intent(&[write(1, 1, 0x11)]).unwrap();
        let s2 = j.append_intent(std::slice::from_ref(&carrier)).unwrap();
        j.commit(s2).unwrap();
        j.mark_applied(s1).unwrap();
        j.mark_applied(s2).unwrap();
        j.reset().unwrap();
        // Lap 2 ends inside what was s1: the carrier, nested record and
        // all, lies in the stale region the resync scan walks through.
        let s3 = j.append_intent(&[]).unwrap();
        j.commit(s3).unwrap();
        assert!(tail_of(&j) < DATA_START + 53);
        let (_, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.redo, vec![(s3, vec![])]);
        assert_eq!((summary.rolled_back, summary.skipped), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_v1_log_opens_redoes_and_is_v2_after_reset() {
        let path = temp_path("v1");
        // v1: records from offset 0, CRC unseeded, no slots.
        let mut v1 = raw_log(0);
        let f = File::create(&path).unwrap();
        v1.append(&f, KIND_INTENT, 1, [(1, 1, 0, &[0x11u8; 16][..])])
            .unwrap();
        v1.append(&f, KIND_APPLIED, 1, []).unwrap();
        v1.append(&f, KIND_INTENT, 2, [(2, 2, 0, &[0x22u8; 16][..])])
            .unwrap();
        drop(f);

        let (j, summary) = Journal::open(&path).unwrap();
        assert_eq!(summary.redo, vec![(2, vec![redo(2, 2, 0x22)])]);
        assert_eq!((summary.applied, summary.rolled_back), (1, 0));
        assert_eq!(tail_of(&j), v1.tail, "still a v1 log until it is reset");
        j.reset().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, EXTENT);
        assert_eq!(decode_slot(bytes[..SLOT_LEN].try_into().unwrap()), Some(3));
        assert!(bytes[SLOT_LEN..].iter().all(|&b| b == 0));
        let s3 = j.append_intent(&[write(3, 3, 0x33)]).unwrap();
        assert_eq!((s3, tail_of(&j)), (3, DATA_START + 53));
        j.commit(s3).unwrap();
        assert_eq!(redo_seqs(&path), vec![3]);
        std::fs::remove_file(&path).ok();
    }

    /// The log stays bounded under overlapping clients: an intent far
    /// larger than what is left of the extent grows the file, and the next
    /// rewind — from `mark_applied`, or from an append that finds the log
    /// drained — gives the growth back.
    #[test]
    fn ten_thousand_mixed_rounds_leave_the_file_at_its_extent() {
        let path = temp_path("bounded");
        let j = Journal::create(&path).unwrap();
        const THREADS: usize = 4;
        const ROUNDS: usize = 2500;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let j = &j;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        let len = match i % 64 {
                            0 => 1 << 20,
                            n if n % 8 == 0 => 64 << 10,
                            n => 16 << (n % 8),
                        };
                        let w = MemberWrite {
                            disk: t as u32,
                            chunk: i as u32,
                            data: vec![(t + i) as u8; len],
                        };
                        let seq = j.append_intent(std::slice::from_ref(&w)).unwrap();
                        j.commit(seq).unwrap();
                        j.mark_applied(seq).unwrap();
                    }
                });
            }
        });
        assert_eq!(j.outstanding(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), EXTENT);
        assert!(j.stats().resets.load(Ordering::Relaxed) > 0);
        assert_eq!(redo_seqs(&path), Vec::<u64>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_policy_parses_and_defaults() {
        assert_eq!(FlushPolicy::parse("never"), Some(FlushPolicy::Never));
        assert_eq!(FlushPolicy::parse("PerWave"), Some(FlushPolicy::PerWave));
        assert_eq!(FlushPolicy::parse("per-wave"), Some(FlushPolicy::PerWave));
        assert_eq!(FlushPolicy::parse(" per_wave "), Some(FlushPolicy::PerWave));
        assert_eq!(
            FlushPolicy::parse("timed:25"),
            Some(FlushPolicy::Timed(Duration::from_millis(25)))
        );
        assert_eq!(FlushPolicy::parse("timed:"), None);
        assert_eq!(FlushPolicy::parse("sometimes"), None);
        assert_eq!(FlushPolicy::default(), FlushPolicy::Never);
    }
}
