//! Write-ahead parity journal: crash consistency for multi-member updates.
//!
//! A RAID small write touches several members (data chunk + one or more
//! parities); a process crash between those writes tears the relation —
//! the classic write hole. The journal closes it with physical redo
//! logging: before any member is touched, the *absolute new bytes* of
//! every member in the update are appended as one checksummed, sequence-
//! numbered **intent** record and made durable. The intent's durability is
//! the commit point:
//!
//! 1. `append_intent(writes)` — serialize all member new-values into one
//!    checksummed record and `write` it (page cache only, but not free: a
//!    coalesced wave's record is 100 KiB–1 MiB, so the encoder makes one
//!    pass over borrowed member bytes into a reused buffer and the CRC is
//!    table-driven).
//! 2. `commit(seq)` — group-commit flush: one `fdatasync` covers every
//!    intent appended since the last flush, so coalesced volume waves
//!    amortize a single sync per wave. Concurrent committers piggyback.
//! 3. caller writes the members (any order, crash-anywhere safe).
//! 4. `mark_applied(seq)` — append an **applied** marker so recovery can
//!    skip redo; when no intents are outstanding the journal truncates
//!    itself back to empty.
//!
//! Recovery ([`Journal::open`]) scans the log: intents without applied
//! markers are returned for **redo** (absolute values, so replay is
//! idempotent — unlike XOR deltas, applying twice is harmless); a torn or
//! checksum-failed *tail* is **rolled back** by truncation at the last
//! valid record boundary — those updates never reported commit, and no
//! member was written, so dropping them is correct. A checksum failure in
//! the *middle* of the log is different: records after it may be committed
//! intents, so the scan resynchronizes at the next valid record boundary
//! instead of treating everything after the bad record as a torn tail.
//! Skipped garbage is counted in [`ReplaySummary`] and reported to the
//! flight recorder.
//!
//! Whether an applied marker is *trustworthy* depends on the caller's
//! [`FlushPolicy`]. Under `Never` the model covers *process* crashes only
//! (abort anywhere, page cache survives): member writes and applied
//! markers need no sync of their own, but a power loss can drop member
//! writes whose applied markers survive — recovery then skips their redo
//! and the update is lost. `PerWave` pushes every touched member through
//! [`BlockDevice::flush`] *before* its applied marker is appended, and
//! `Timed` batches that barrier behind a deadline with an applied-marker
//! high-water mark, so markers never claim more durability than the
//! devices have. The same rule governs truncation: the log may only be
//! discarded ([`Journal::try_truncate`], [`Journal::reset`]) once the
//! member writes it covers have been flushed, because truncation destroys
//! the redo records that would otherwise re-create them.
//!
//! [`BlockDevice::flush`]: crate::BlockDevice::flush

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Reads `OI_RAID_FLUSH_POLICY` (`never`, `perwave`, or `timed:<ms>`),
    /// defaulting to [`FlushPolicy::Never`] when unset or unparsable —
    /// crash-harness children select their policy this way.
    pub fn from_env() -> Self {
        std::env::var("OI_RAID_FLUSH_POLICY")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Parses a policy string: `never`, `perwave` (or `per-wave`,
    /// `per_wave`), `timed:<ms>`.
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
/// Fixed header: magic(4) + kind(1) + seq(8) + payload_len(4).
const HEADER: usize = 17;
/// Truncate the log back to empty once it grows past this with no
/// outstanding intents.
const RESET_BYTES: u64 = 1 << 20;

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
    let t = &CRC_TABLES;
    let mut crc = !0u32;
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
    !crc
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

/// What [`Journal::open`] found in an existing log.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Committed-but-unapplied intents to redo, in sequence order.
    pub redo: Vec<(u64, Vec<MemberWrite>)>,
    /// Intents confirmed applied (skipped).
    pub applied: u64,
    /// 1 if a torn/corrupt tail was truncated away, else 0.
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
    /// Times the log was truncated back to empty.
    pub resets: AtomicU64,
    /// Intents covered per flush (the group-commit batch size).
    pub batch: Arc<Histogram>,
}

impl Default for JournalStats {
    fn default() -> Self {
        Self {
            appends: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            batch: Arc::new(Histogram::new()),
        }
    }
}

/// The log file and the state that changes only with it, under one lock.
#[derive(Debug)]
struct Log {
    /// Opened in append mode: every write lands at the end, no seek.
    file: File,
    /// Bytes in the file, so the reset threshold needs no `fstat`. A lower
    /// bound after a failed write (it gates only the truncation heuristic).
    len: u64,
    /// Record under construction, reused across appends (so it keeps the
    /// capacity of the largest record written, at most one wave).
    rec: Vec<u8>,
}

impl Log {
    /// Encodes one record — header, then for an intent every member
    /// straight from the caller's borrowed bytes (an applied marker has no
    /// payload and passes none), then the CRC — into the reused buffer and
    /// appends it with a single `write_all`.
    fn append<'a>(
        &mut self,
        kind: u8,
        seq: u64,
        members: impl IntoIterator<Item = (u32, u32, &'a [u8])>,
    ) -> std::io::Result<()> {
        let rec = &mut self.rec;
        rec.clear();
        rec.extend_from_slice(&MAGIC);
        rec.push(kind);
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.extend_from_slice(&[0; 4]); // payload length, patched below
        if kind == KIND_INTENT {
            rec.extend_from_slice(&[0; 4]); // member count, patched below
            let mut count = 0u32;
            for (disk, chunk, data) in members {
                rec.extend_from_slice(&disk.to_le_bytes());
                rec.extend_from_slice(&chunk.to_le_bytes());
                rec.extend_from_slice(&(data.len() as u32).to_le_bytes());
                rec.extend_from_slice(data);
                count += 1;
            }
            rec[HEADER..HEADER + 4].copy_from_slice(&count.to_le_bytes());
        }
        let payload_len = (rec.len() - HEADER) as u32;
        rec[HEADER - 4..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&rec[4..]);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(rec)?;
        self.len += rec.len() as u64;
        Ok(())
    }
}

/// The write-ahead intent log. All methods take `&self`; appends serialize
/// on an internal file lock, flushes group-commit behind a flush lock.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log: Mutex<Log>,
    /// Next sequence number to hand out (monotonic across resets).
    next_seq: AtomicU64,
    /// Highest seq fully appended to the file (record write completed).
    last_appended: AtomicU64,
    /// Highest seq known durable (covered by a completed flush).
    flushed_seq: AtomicU64,
    /// Intents appended but not yet marked applied.
    outstanding: AtomicU64,
    /// Serializes `fdatasync`; waiters piggyback on the in-flight sync.
    flush_lock: Mutex<()>,
    stats: JournalStats,
}

impl Journal {
    /// Creates (or truncates) a fresh journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        file.set_len(0)?;
        Ok(Self::from_file(path, file, 0, 1))
    }

    /// Opens an existing journal (creating an empty one if absent), scans
    /// it, and returns the recovery work: intents to redo and how much was
    /// rolled back. The log is truncated at the last valid record
    /// boundary, discarding any torn tail. The caller must apply every
    /// redo write to the devices and then call [`Journal::reset`] — if it
    /// crashes in between, the next open simply replays again (redo is
    /// idempotent).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Self, ReplaySummary)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut intents: BTreeMap<u64, Vec<MemberWrite>> = BTreeMap::new();
        let mut applied = 0u64;
        let mut max_seq = 0u64;
        let mut skipped = 0u64;
        let mut skipped_bytes = 0u64;
        let mut offset = 0usize;
        let mut valid_end = 0usize;
        while offset < bytes.len() {
            match parse_record(&bytes[offset..]) {
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
                    valid_end = offset;
                }
                // A bad record here is either a torn tail (nothing valid
                // follows — roll it back) or mid-log corruption (committed
                // records follow — resynchronize past the garbage rather
                // than silently dropping them as if they were torn).
                None => match find_next_valid(&bytes, offset + 1) {
                    Some(next) => {
                        skipped += 1;
                        skipped_bytes += (next - offset) as u64;
                        offset = next;
                    }
                    None => break,
                },
            }
        }
        let rolled_back = u64::from(valid_end < bytes.len());
        if rolled_back == 1 {
            // Drop the torn tail so later appends start at a clean record
            // boundary. (Mid-log garbage before `valid_end` is kept as-is:
            // reopening simply re-skips it, and recovery normally resets
            // the whole log right after redo anyway.)
            file.set_len(valid_end as u64)?;
        }
        // Surviving records may include appended-but-never-synced tails
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
        let mut journal = Self::from_file(path, file, valid_end as u64, max_seq + 1);
        *journal.outstanding.get_mut() = summary.redo.len() as u64;
        Ok((journal, summary))
    }

    fn from_file(path: PathBuf, file: File, len: u64, next_seq: u64) -> Self {
        Self {
            path,
            log: Mutex::new(Log {
                file,
                len,
                rec: Vec::new(),
            }),
            next_seq: AtomicU64::new(next_seq),
            last_appended: AtomicU64::new(next_seq - 1),
            flushed_seq: AtomicU64::new(next_seq - 1),
            outstanding: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
            stats: JournalStats::default(),
        }
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifetime counters for metrics export.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// Appends one intent record (all member new-values of one update) and
    /// returns its sequence number. Page-cache only — call
    /// [`Journal::commit`] before touching any member.
    pub fn append_intent(&self, writes: &[MemberWrite]) -> std::io::Result<u64> {
        self.append_members(writes.iter().map(|w| (w.disk, w.chunk, w.data.as_slice())))
    }

    /// [`Journal::append_intent`] over borrowed `(disk, chunk, new bytes)`
    /// members: the record is encoded straight from the caller's buffers,
    /// so the commit path never clones a member to log it.
    pub fn append_members<'a>(
        &self,
        members: impl IntoIterator<Item = (u32, u32, &'a [u8])>,
    ) -> std::io::Result<u64> {
        let mut log = self.log.lock().expect("journal file lock");
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        log.append(KIND_INTENT, seq, members)?;
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.last_appended.store(seq, Ordering::Release);
        drop(log);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        crash_point("journal_append");
        Ok(seq)
    }

    /// Makes every intent up to and including `seq` durable. This is the
    /// commit point: returning `Ok` means the update will survive a crash.
    ///
    /// Group commit: one `fdatasync` covers all records appended before
    /// it, so concurrent committers (a coalesced volume wave) share a
    /// single sync — callers whose seq is already covered return without
    /// touching the file.
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
        // counter is only advanced after write_all completes), so one sync
        // commits the whole batch.
        let target = self.last_appended.load(Ordering::Acquire);
        {
            let log = self.log.lock().expect("journal file lock");
            log.file.sync_data()?;
        }
        // fetch_max, not store: a concurrent truncation (which holds only
        // the file lock, not this flush lock) may already have advanced
        // flushed_seq past our target; writing an older value back would
        // let a later committer skip a sync it still needs.
        self.flushed_seq.fetch_max(target, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.batch.record(target.saturating_sub(prev));
        crash_point("journal_flush");
        Ok(())
    }

    /// Records that the members of intent `seq` have been written. Once no
    /// intents are outstanding and the log has grown past a threshold, it
    /// truncates back to empty (sequence numbers stay monotonic).
    ///
    /// Only valid under [`FlushPolicy::Never`]-style callers: the embedded
    /// truncation does not flush member devices first. Flush-policy
    /// callers use [`Journal::mark_applied_no_truncate`] and decide when
    /// [`Journal::try_truncate`] is safe.
    pub fn mark_applied(&self, seq: u64) -> std::io::Result<()> {
        if self.mark_applied_no_truncate(seq)? {
            self.try_truncate()?;
        }
        Ok(())
    }

    /// Appends the applied marker for `seq` and decrements the outstanding
    /// count, but never truncates. Returns `true` when the log has drained
    /// (no intents outstanding) and grown past the reset threshold — i.e.
    /// a [`Journal::try_truncate`] is due once the caller has flushed the
    /// member devices the log covers.
    pub fn mark_applied_no_truncate(&self, seq: u64) -> std::io::Result<bool> {
        let prev;
        let due;
        {
            let mut log = self.log.lock().expect("journal file lock");
            log.append(KIND_APPLIED, seq, [])?;
            // Saturating: a double apply (or an apply racing reset) must
            // not wrap outstanding to u64::MAX and wedge truncation
            // forever. The closure always returns Some, so fetch_update
            // cannot fail.
            prev = self
                .outstanding
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(1))
                })
                .unwrap_or_else(|n| n);
            due = prev == 1 && log.len > RESET_BYTES;
        }
        // Outside the file lock, so a debug-build panic cannot poison it.
        debug_assert!(
            prev > 0,
            "mark_applied(seq={seq}) with no outstanding intents (double apply or apply after reset)"
        );
        Ok(due)
    }

    /// Truncates the log back to empty if nothing is outstanding and it
    /// has grown past the reset threshold. Callers operating under a flush
    /// policy must flush the member devices covered by the log *before*
    /// calling — truncation destroys the redo records.
    pub fn try_truncate(&self) -> std::io::Result<()> {
        let mut log = self.log.lock().expect("journal file lock");
        if self.outstanding.load(Ordering::Relaxed) == 0 && log.len > RESET_BYTES {
            self.truncate_locked(&mut log)?;
        }
        Ok(())
    }

    /// Truncates the log to empty. Call after every redo write from
    /// [`Journal::open`] has been applied to the devices.
    pub fn reset(&self) -> std::io::Result<()> {
        let mut log = self.log.lock().expect("journal file lock");
        self.outstanding.store(0, Ordering::Relaxed);
        self.truncate_locked(&mut log)
    }

    fn truncate_locked(&self, log: &mut Log) -> std::io::Result<()> {
        log.file.set_len(0)?;
        log.len = 0;
        log.file.sync_data()?;
        // An empty log trivially covers every appended record; fetch_max
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
    /// flush). Monotonic: never regresses, even across truncations.
    pub fn flushed_seq(&self) -> u64 {
        self.flushed_seq.load(Ordering::Acquire)
    }

    /// Highest sequence number fully appended to the file.
    pub fn last_appended(&self) -> u64 {
        self.last_appended.load(Ordering::Acquire)
    }
}

/// Scans forward from `from` for the next offset where a complete record
/// parses (magic, header, payload, CRC all good) — the resync point after
/// mid-log corruption. `None` means the rest of the file is a torn tail.
fn find_next_valid(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + HEADER + 4 <= bytes.len() {
        if bytes[i..i + 4] == MAGIC && parse_record(&bytes[i..]).is_some() {
            return Some(i);
        }
        i += 1;
    }
    None
}

enum Record {
    Intent(Vec<MemberWrite>),
    Applied,
}

/// Parses one record from the front of `bytes`. Returns `None` on a torn,
/// corrupt, or absent record — the scan's stop condition.
fn parse_record(bytes: &[u8]) -> Option<(usize, u64, Record)> {
    if bytes.len() < HEADER + 4 || bytes[..4] != MAGIC {
        return None;
    }
    let kind = bytes[4];
    let seq = u64::from_le_bytes(bytes[5..13].try_into().ok()?);
    let len = u32::from_le_bytes(bytes[13..17].try_into().ok()?) as usize;
    let total = HEADER + len + 4;
    if bytes.len() < total {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[HEADER + len..total].try_into().ok()?);
    if crc32(&bytes[4..HEADER + len]) != stored {
        return None;
    }
    let payload = &bytes[HEADER..HEADER + len];
    let record = match kind {
        KIND_APPLIED => Record::Applied,
        KIND_INTENT => Record::Intent(parse_intent(payload)?),
        _ => return None,
    };
    Some((total, seq, record))
}

fn parse_intent(payload: &[u8]) -> Option<Vec<MemberWrite>> {
    let n = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let mut offset = 4;
    let mut writes = Vec::with_capacity(n);
    for _ in 0..n {
        let disk = u32::from_le_bytes(payload.get(offset..offset + 4)?.try_into().ok()?);
        let chunk = u32::from_le_bytes(payload.get(offset + 4..offset + 8)?.try_into().ok()?);
        let len =
            u32::from_le_bytes(payload.get(offset + 8..offset + 12)?.try_into().ok()?) as usize;
        let data = payload.get(offset + 12..offset + 12 + len)?.to_vec();
        offset += 12 + len;
        writes.push(MemberWrite { disk, chunk, data });
    }
    (offset == payload.len()).then_some(writes)
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
        assert_eq!(writes, &[write(0, 3, 0xAA), write(5, 3, 0xBB)]);

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
        drop(j);

        // Tear the second record mid-payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

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
        let mid = HEADER + 5;
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
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
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

    /// Flips one payload byte of the `n`-th record in the file (0-based).
    fn corrupt_record(path: &Path, n: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let mut offset = 0usize;
        for _ in 0..n {
            let (consumed, _, _) = parse_record(&bytes[offset..]).unwrap();
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
        assert_eq!(summary.redo[1].1, vec![write(3, 3, 0x33)]);
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
        drop(j);
        corrupt_record(&path, 1);
        // Tear the last record mid-payload as well.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

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
