//! Kill-anywhere crash-consistency harness: spawns *subprocess* copies of
//! this test binary with the `blockdev::crash_point` hooks armed, lets them
//! die by `abort()` at randomized points inside journaled writes, degraded
//! RMWs, rebuild writebacks, and checkpoint writes — then reopens the
//! directory, replays the journal, and asserts convergence:
//!
//! * **Zero data loss** — every write acknowledged before the crash reads
//!   back exactly; the at-most-partially-applied unacknowledged tail reads
//!   as *either* its old or its new value per chunk (atomicity), never a
//!   torn mix.
//! * **Parity-clean** — `check_parity()` is empty after replay (plus a
//!   rebuild when the cycle ran degraded with a failed disk).
//!
//! The model is a write-ahead log of the harness's own: each operation
//! appends a synced `begin` line before issuing and a synced `ack` line
//! after the store acknowledges, so the verifier knows exactly which
//! patterns a chunk is allowed to hold no matter where the child died.
//!
//! With `OI_CRASH_POWER=1` the children additionally model *power loss*:
//! member I/O runs through [`WriteBackDevice`] wrappers whose unflushed
//! buffers — a drive's volatile write cache — die with the abort. Under
//! [`FlushPolicy::PerWave`] / [`FlushPolicy::Timed`] the acknowledged
//! writes must still converge (the journal's fdatasync'd intents redo
//! them); under [`FlushPolicy::Never`] they demonstrably do not — the
//! negative control below asserts the data loss.
//!
//! The sub-chunk leg (`piece_child` and the `*piece*` / `*over_pieces*`
//! tests) writes quarter chunks instead of whole ones, so every member is
//! logged as a range and replay patches it onto what its device holds; its
//! model is per piece, and its degraded cycles write while a rebuild runs.
//!
//! Knobs: `OI_CRASH_CYCLES` (default 100) sizes the kill-anywhere sweep;
//! `OI_CRASH_POWER_CYCLES` (default 50) sizes each power-loss sweep;
//! `OI_CRASH_MATRIX=1` additionally runs the targeted point × hit grid.

#![cfg(unix)]

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use oi_raid_repro::prelude::*;

const CHUNK: usize = 256;
/// Distinct payload chunks the workload cycles over (overlap pressure).
const SPAN: usize = 24;
/// Linux SIGABRT — how `std::process::abort()` exits.
const SIGABRT: i32 = 6;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic chunk pattern for a model seed; seed 0 is the initial
/// all-zeros state.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    if seed == 0 {
        return vec![0; len];
    }
    (0..len)
        .map(|i| (splitmix(seed ^ i as u64) & 0xFF) as u8)
        .collect()
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("oi-crash-{tag}-{}-{n}", std::process::id()))
}

fn failed_path(dir: &Path) -> PathBuf {
    dir.join("failed-disks")
}

fn read_failed(dir: &Path) -> Vec<usize> {
    std::fs::read_to_string(failed_path(dir))
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// Appends synced lines to the harness's model log. Syncing before the
/// store op is what makes the log a valid oracle: the `begin` record is
/// durable before any member write it describes can land.
fn log_lines(dir: &Path, lines: &[String]) {
    log_lines_to(dir, "model.log", lines);
}

/// [`log_lines`] into the model log named `file`.
fn log_lines_to(dir: &Path, file: &str, lines: &[String]) {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(file))
        .expect("open model log");
    for l in lines {
        writeln!(f, "{l}").expect("append model log");
    }
    f.sync_data().expect("sync model log");
}

/// The per-chunk allowed-pattern model replayed from the log: `ack`
/// collapses a chunk to one pattern, a `begin` that never acked stays in
/// the set forever (its write may or may not have applied — and once it is
/// a candidate, a later crash can still leave either value).
fn allowed_patterns(dir: &Path) -> HashMap<usize, Vec<u64>> {
    allowed_in(dir, "model.log")
}

/// [`allowed_patterns`] from the model log named `file`.
fn allowed_in(dir: &Path, file: &str) -> HashMap<usize, Vec<u64>> {
    let mut allowed: HashMap<usize, Vec<u64>> = HashMap::new();
    let text = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let (Some(kind), Some(p), Some(seed)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let (p, seed): (usize, u64) = match (p.parse(), seed.parse()) {
            (Ok(p), Ok(s)) => (p, s),
            _ => continue,
        };
        let entry = allowed.entry(p).or_insert_with(|| vec![0]);
        match kind {
            "begin" if !entry.contains(&seed) => entry.push(seed),
            "ack" => *entry = vec![seed],
            _ => {}
        }
    }
    allowed
}

fn spawn_child(test: &str, dir: &Path, envs: &[(&str, String)]) -> std::process::ExitStatus {
    let exe = std::env::current_exe().expect("test exe");
    let mut cmd = Command::new(exe);
    cmd.arg(test)
        .arg("--exact")
        .arg("--ignored")
        .env_remove("OI_CRASH_COUNT")
        .env_remove("OI_CRASH_POINT")
        .env_remove("OI_CRASH_HITS")
        .env_remove("OI_CRASH_POWER")
        .env_remove("OI_RAID_FLUSH_POLICY")
        .env("OI_CRASH_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.status().expect("spawn crash child")
}

/// A child either finishes its workload (the armed count exceeded the run's
/// crash-point hits) or dies by SIGABRT at the armed point. Anything else —
/// a panic, a store error — is a real bug, not a simulated crash.
fn assert_clean_or_aborted(status: std::process::ExitStatus, what: &str) {
    assert!(
        status.success() || status.signal() == Some(SIGABRT),
        "{what}: child ended with {status:?} (expected success or SIGABRT)"
    );
}

/// Reopens the directory (journal replay), repairs any persisted disk
/// failure by rebuilding, and asserts the converged state: parity clean,
/// every chunk holding an allowed pattern. Returns the journal replay
/// count this open performed.
fn verify_converged(dir: &Path, cfg: &OiRaidConfig, what: &str) -> u64 {
    let store = OiRaidStore::open_durable_with(cfg.clone(), CHUNK, dir, FlushPolicy::Never)
        .expect("reopen after crash");
    let reg = Registry::new();
    store.export_metrics(&reg);
    let replayed = metric_value(&reg.prometheus(), "oi_journal_replayed_total");

    let failed = read_failed(dir);
    if !failed.is_empty() {
        for &d in &failed {
            store.fail_disk(d).expect("re-fail persisted failure");
        }
        let report = store
            .resume_rebuild(
                RebuildMode::Dag,
                RecoveryStrategy::Hybrid,
                &RebuildObserver::default(),
            )
            .expect("rebuild persisted failure");
        assert!(report.outcome.is_recovered(), "{what}: {report}");
        std::fs::write(failed_path(dir), "").expect("clear failed set");
    }

    let bad = store.check_parity();
    assert!(bad.is_empty(), "{what}: parity inconsistent at {bad:?}");

    let mut buf = vec![0u8; CHUNK];
    for (&p, seeds) in &allowed_patterns(dir) {
        store
            .read_bytes((p * CHUNK) as u64, &mut buf)
            .expect("read converged chunk");
        let ok = seeds.iter().any(|&s| buf == fill(s, CHUNK));
        assert!(
            ok,
            "{what}: payload chunk {p} matches none of its {} allowed patterns \
             (torn or lost write)",
            seeds.len()
        );
    }
    replayed
}

/// Pulls an unlabelled counter's value out of a Prometheus exposition.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The flush policy the parent named for this child in
/// `OI_RAID_FLUSH_POLICY` (default `Never`). The library reads no
/// environment, so the child does.
fn child_flush_policy() -> FlushPolicy {
    std::env::var("OI_RAID_FLUSH_POLICY")
        .ok()
        .and_then(|v| FlushPolicy::parse(&v))
        .unwrap_or_default()
}

/// Plain reopen for a harness child, under the parent's flush policy.
fn open_plain(cfg: &OiRaidConfig, dir: &Path) -> OiRaidStore<FileDevice> {
    OiRaidStore::open_durable_with(cfg.clone(), CHUNK, dir, child_flush_policy())
        .expect("child open")
}

/// Power-loss reopen for a harness child: every member device is a
/// [`WriteBackDevice`] over the persisted file, so writes sit in a
/// simulated volatile cache until [`BlockDevice::flush`] pushes them down
/// — and die with the abort if nothing ever flushed them. The flush policy
/// is the parent's exactly as in the plain open.
fn open_power(cfg: &OiRaidConfig, dir: &Path) -> OiRaidStore<WriteBackDevice<FileDevice>> {
    let array = OiRaid::new(cfg.clone()).expect("reference config");
    let devices: Vec<_> = (0..array.disks())
        .map(|d| {
            WriteBackDevice::new(
                FileDevice::open(
                    dir.join(format!("disk-{d:03}.img")),
                    CHUNK,
                    array.chunks_per_disk(),
                )
                .expect("child disk file"),
            )
        })
        .collect();
    OiRaidStore::open_durable_on(cfg.clone(), CHUNK, devices, dir, child_flush_policy())
        .expect("child power open")
}

/// The shared crash-child workload, generic over the device stack so the
/// same body runs on plain file devices (process-crash model) and on
/// write-back-wrapped ones (power-loss model).
fn child_workload<B: BlockDevice>(store: &OiRaidStore<B>, dir: &Path, cycle: u64) {
    let span = SPAN.min((store.capacity_bytes() as usize / CHUNK).max(1));

    // Twelve single-chunk writes: each is one journaled multi-member RMW
    // (data + inner + outer parities).
    for i in 0..12u64 {
        let h = splitmix(cycle.wrapping_mul(131) ^ i);
        let p = (h % span as u64) as usize;
        let seed = h | 1;
        log_lines(dir, &[format!("begin {p} {seed}")]);
        store
            .write_bytes((p * CHUNK) as u64, &fill(seed, CHUNK))
            .expect("child write");
        log_lines(dir, &[format!("ack {p} {seed}")]);
    }

    // Two batched waves of four distinct chunks: journaled stores commit
    // the whole wave as ONE intent record and one flush, so the wave is
    // atomic — its records ack together.
    for b in 0..2u64 {
        let h = splitmix(cycle.wrapping_mul(137) ^ (0x1000 + b));
        let base = (h % span as u64) as usize;
        let ps: Vec<usize> = (0..4).map(|j| (base + j * 7) % span).collect();
        let seeds: Vec<u64> = (0..4).map(|j| splitmix(h ^ (j + 1)) | 1).collect();
        let begins: Vec<String> = ps
            .iter()
            .zip(&seeds)
            .map(|(p, s)| format!("begin {p} {s}"))
            .collect();
        log_lines(dir, &begins);
        let datas: Vec<Vec<u8>> = seeds.iter().map(|&s| fill(s, CHUNK)).collect();
        let writes: Vec<(u64, &[u8])> = ps
            .iter()
            .zip(&datas)
            .map(|(&p, d)| ((p * CHUNK) as u64, d.as_slice()))
            .collect();
        store.write_bytes_batch(&writes).expect("child batch");
        let acks: Vec<String> = ps
            .iter()
            .zip(&seeds)
            .map(|(p, s)| format!("ack {p} {s}"))
            .collect();
        log_lines(dir, &acks);
    }
}

/// Subprocess body: reopens the durable store (replaying whatever the last
/// crash left), re-fails persisted failures, and runs a deterministic
/// journaled workload — singles plus batched waves — logging `begin`/`ack`
/// around every acknowledged write. Armed crash points kill it anywhere;
/// with `OI_CRASH_POWER=1` the member devices are write-back wrapped so
/// the kill also drops their unflushed caches.
#[test]
#[ignore = "subprocess body for the crash harness; spawned by the tests below"]
fn crash_child() {
    let Ok(dir) = std::env::var("OI_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let cycle: u64 = std::env::var("OI_CRASH_CYCLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let cfg = OiRaidConfig::reference();
    if blockdev::crash::power_loss_armed() {
        let store = open_power(&cfg, &dir);
        for d in read_failed(&dir) {
            store.fail_disk(d).expect("child re-fail");
        }
        child_workload(&store, &dir, cycle);
    } else {
        let store = open_plain(&cfg, &dir);
        for d in read_failed(&dir) {
            store.fail_disk(d).expect("child re-fail");
        }
        child_workload(&store, &dir, cycle);
    }
}

/// The shared rebuild-child body, generic over the device stack for the
/// same reason as [`child_workload`].
fn rebuild_body<B: BlockDevice>(store: &OiRaidStore<B>, dir: &Path, mode: RebuildMode) {
    // Fail the persisted disks only when no checkpoint exists yet (the
    // first attempt: a real disk replacement). On a resume attempt the
    // device file holds the partial rebuild — re-failing would blank it.
    let has_ckpt = store
        .checkpoint_policy()
        .is_some_and(|p| RebuildCheckpoint::load(&p.path).is_some());
    if !has_ckpt {
        let failed = read_failed(dir);
        assert!(
            !failed.is_empty(),
            "rebuild child needs a persisted failure"
        );
        for d in failed {
            store.fail_disk(d).expect("rebuild child re-fail");
        }
    }
    // One DAG worker: the armed crash point's hit count then names the same
    // writeback on every run (the parents use the default pool).
    store.set_dag_workers(Some(1));
    // The parent's checkpoint cadence, if it named one.
    let interval = std::env::var("OI_RAID_CKPT_INTERVAL")
        .ok()
        .and_then(|v| v.parse().ok());
    if let (Some(interval), Some(mut policy)) = (interval, store.checkpoint_policy()) {
        policy.interval = interval;
        store.set_checkpoint_policy(Some(policy));
    }
    let report = store
        .resume_rebuild(mode, RecoveryStrategy::Hybrid, &RebuildObserver::default())
        .expect("rebuild child rebuild");
    assert!(report.outcome.is_recovered(), "{report}");
}

/// Subprocess body for rebuild crash cycles: reopens, re-fails the
/// persisted disks, and runs a checkpointing rebuild until an armed point
/// (typically `rebuild_writeback` or `checkpoint_write`) kills it.
fn rebuild_child_in(mode: RebuildMode) {
    let Ok(dir) = std::env::var("OI_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let cfg = OiRaidConfig::reference();
    if blockdev::crash::power_loss_armed() {
        rebuild_body(&open_power(&cfg, &dir), &dir, mode);
    } else {
        rebuild_body(&open_plain(&cfg, &dir), &dir, mode);
    }
}

/// The rebuild child on the executor that ships.
#[test]
#[ignore = "subprocess body for the crash harness; spawned by the tests below"]
fn rebuild_child() {
    rebuild_child_in(RebuildMode::Dag);
}

/// The rebuild child on the serial oracle.
#[test]
#[ignore = "subprocess body for the crash harness; spawned by the tests below"]
fn rebuild_child_serial() {
    rebuild_child_in(RebuildMode::Serial);
}

/// The tentpole acceptance test: ≥100 randomized kill-anywhere
/// crash/restart cycles over one durable directory. Every third cycle runs
/// degraded (a persisted failed disk, so the journaled path is the degraded
/// RMW); after every crash the verifier replays, rebuilds if needed, and
/// asserts parity-clean convergence with zero acknowledged-data loss.
#[test]
fn kill_anywhere_crash_cycles_converge() {
    let cycles: u64 = std::env::var("OI_CRASH_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let dir = unique_dir("anywhere");
    let cfg = OiRaidConfig::reference();
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let disks = store.array().disks();
    drop(store);

    let mut crashes = 0u64;
    let mut clean = 0u64;
    let mut replays = 0u64;
    for cycle in 0..cycles {
        // Every third cycle runs degraded: persist a failed disk for the
        // child to re-fail, exercising the degraded-RMW journal path.
        if cycle % 3 == 1 {
            let d = (splitmix(0xD15C ^ cycle) % disks as u64) as usize;
            std::fs::write(failed_path(&dir), format!("{d}")).expect("persist failed disk");
        }
        // 1-based kill site, swept past the cycle's total hit count so some
        // children finish cleanly (the no-crash path stays covered too).
        let count = 1 + splitmix(0xC4A5 ^ cycle) % 140;
        let status = spawn_child(
            "crash_child",
            &dir,
            &[
                ("OI_CRASH_COUNT", count.to_string()),
                ("OI_CRASH_CYCLE", cycle.to_string()),
            ],
        );
        assert_clean_or_aborted(status, &format!("cycle {cycle} (count {count})"));
        if status.success() {
            clean += 1;
        } else {
            crashes += 1;
        }
        replays += verify_converged(&dir, &cfg, &format!("cycle {cycle}"));
    }

    assert!(
        crashes > 0,
        "sweep never crashed a child ({clean} clean) — crash points unarmed?"
    );
    if cycles >= 20 {
        // With member_write dominating the hit space, many kills land
        // after the journal commit: replay must actually fire.
        assert!(
            replays > 0,
            "{crashes} crashes but no journal replay ever redone"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Shared driver for the power-loss sweeps: randomized kill-anywhere
/// cycles where the child routes member I/O through write-back caches
/// (`OI_CRASH_POWER=1`) under the given flush policy, and every abort
/// drops whatever the policy had not yet flushed. The verifier reopens on
/// plain file devices — the power loss already happened at the kill — and
/// asserts full convergence.
fn power_loss_cycles(policy: &str, tag: &str) {
    let cycles: u64 = std::env::var("OI_CRASH_POWER_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let dir = unique_dir(&format!("power-{tag}"));
    let cfg = OiRaidConfig::reference();
    drop(
        OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
            .expect("create durable"),
    );

    let mut crashes = 0u64;
    let mut replays = 0u64;
    for cycle in 0..cycles {
        // 1-based kill site swept past the run's total hit count (which is
        // larger than the process-crash sweep's: flush barriers add
        // member_flush hits), so some children still finish cleanly.
        let count = 1 + splitmix(0x90E7 ^ cycle ^ (tag.len() as u64) << 32) % 170;
        let status = spawn_child(
            "crash_child",
            &dir,
            &[
                ("OI_CRASH_COUNT", count.to_string()),
                ("OI_CRASH_CYCLE", (0x8000 + cycle).to_string()),
                ("OI_CRASH_POWER", "1".to_string()),
                ("OI_RAID_FLUSH_POLICY", policy.to_string()),
            ],
        );
        assert_clean_or_aborted(status, &format!("power {policy} cycle {cycle}"));
        if !status.success() {
            crashes += 1;
        }
        replays += verify_converged(&dir, &cfg, &format!("power {policy} cycle {cycle}"));
    }
    assert!(
        crashes > 0,
        "power sweep ({policy}) never crashed a child — crash points unarmed?"
    );
    if cycles >= 20 {
        assert!(
            replays > 0,
            "{crashes} power-loss crashes ({policy}) but no journal replay ever redone"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Power-loss acceptance: ≥50 kill/drop/replay cycles under
/// [`FlushPolicy::PerWave`] converge — every acknowledged write survives
/// the loss of all unflushed write-back caches, and parity stays clean.
#[test]
fn power_loss_cycles_converge_per_wave() {
    power_loss_cycles("perwave", "pw");
}

/// Same sweep under [`FlushPolicy::Timed`] with a 2ms interval: most
/// kills land between flush barriers, so convergence leans entirely on
/// journal replay covering the un-applied (and now dropped) tail.
#[test]
fn power_loss_cycles_converge_timed() {
    power_loss_cycles("timed:2", "timed");
}

/// The negative control: under [`FlushPolicy::Never`] the applied markers
/// land in the (surviving) journal file while the member writes they vouch
/// for die in the write-back caches — so replay skips them and
/// acknowledged data is genuinely lost. If this test ever finds *no* loss,
/// the power-loss harness has stopped simulating power loss and the
/// converging sweeps above prove nothing.
#[test]
fn power_loss_never_policy_loses_data() {
    let cfg = OiRaidConfig::reference();
    let mut lost = 0u64;
    let attempts = 4u64;
    for attempt in 0..attempts {
        let dir = unique_dir(&format!("power-never-{attempt}"));
        drop(
            OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
                .expect("create durable"),
        );
        // Kill late: a Never-policy run hits ~84+ points (appends, group
        // flushes, member writes), so count 80 lands after many acked
        // singles whose buffered members then drop with the abort.
        let status = spawn_child(
            "crash_child",
            &dir,
            &[
                ("OI_CRASH_COUNT", "80".to_string()),
                ("OI_CRASH_CYCLE", (0xA000 + attempt).to_string()),
                ("OI_CRASH_POWER", "1".to_string()),
                ("OI_RAID_FLUSH_POLICY", "never".to_string()),
            ],
        );
        assert_eq!(
            status.signal(),
            Some(SIGABRT),
            "negative-control child must be killed, got {status:?}"
        );
        // Count violations instead of asserting convergence: chunks whose
        // content matches no allowed pattern are acknowledged writes the
        // power loss destroyed.
        let store = OiRaidStore::open_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
            .expect("reopen");
        let mut buf = vec![0u8; CHUNK];
        for (&p, seeds) in &allowed_patterns(&dir) {
            store
                .read_bytes((p * CHUNK) as u64, &mut buf)
                .expect("read chunk");
            if !seeds.iter().any(|&s| buf == fill(s, CHUNK)) {
                lost += 1;
            }
        }
        lost += store.check_parity().len() as u64;
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        lost > 0,
        "FlushPolicy::Never survived {attempts} power losses unscathed — \
         the write-back harness is not dropping unflushed state"
    );
}

/// Rebuild checkpoints must stay honest under power loss: an fsynced
/// checkpoint may only vouch for writeback chunks that were flushed out of
/// the volatile caches first. A rebuild under `perwave` is killed
/// mid-writeback (dropping its caches); the resume must still produce a
/// parity-clean array with every prefilled chunk intact.
#[test]
fn power_loss_rebuild_checkpoint_stays_honest() {
    let cfg = OiRaidConfig::reference();
    let dir = unique_dir("power-rebuild");
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let payload = store.capacity_bytes() as usize / CHUNK;
    for p in 0..payload {
        store
            .write_bytes((p * CHUNK) as u64, &fill(0x9B1D ^ p as u64 | 1, CHUNK))
            .expect("prefill");
    }
    drop(store);

    let target = 3usize;
    std::fs::write(failed_path(&dir), format!("{target}")).expect("persist failure");
    let status = spawn_child(
        "rebuild_child",
        &dir,
        &[
            ("OI_CRASH_POINT", "rebuild_writeback".to_string()),
            ("OI_CRASH_HITS", "6".to_string()),
            ("OI_RAID_CKPT_INTERVAL", "1".to_string()),
            ("OI_CRASH_POWER", "1".to_string()),
            ("OI_RAID_FLUSH_POLICY", "perwave".to_string()),
        ],
    );
    assert_eq!(
        status.signal(),
        Some(SIGABRT),
        "power rebuild child must crash, got {status:?}"
    );

    // The checkpoint (if any survived) pre-credits only flushed chunks, so
    // the resume rebuilds everything the dropped caches swallowed.
    let store = OiRaidStore::open_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("reopen");
    let report = store
        .resume_rebuild(
            RebuildMode::Dag,
            RecoveryStrategy::Hybrid,
            &RebuildObserver::default(),
        )
        .expect("resume after power loss");
    assert!(report.outcome.is_recovered(), "{report}");
    let bad = store.check_parity();
    assert!(bad.is_empty(), "parity after power-loss resume: {bad:?}");
    let mut buf = vec![0u8; CHUNK];
    for p in 0..payload {
        store
            .read_bytes((p * CHUNK) as u64, &mut buf)
            .expect("read");
        assert_eq!(
            buf,
            fill(0x9B1D ^ p as u64 | 1, CHUNK),
            "chunk {p} after power-loss rebuild resume"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Targeted point × hit grid (gated on `OI_CRASH_MATRIX=1`): kills the
/// child at the 1st / 2nd / 5th hit of each named crash point — write-path
/// points through the write workload, the journal's rewind through the
/// recovery of a child killed mid-update, rebuild points through a
/// checkpointing rebuild — and verifies convergence after each.
#[test]
fn targeted_crash_matrix_converges() {
    if std::env::var("OI_CRASH_MATRIX")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        return;
    }
    let cfg = OiRaidConfig::reference();
    let write_points = ["journal_append", "journal_flush", "member_write"];
    let rebuild_points = ["rebuild_writeback", "checkpoint_write"];
    let dir = unique_dir("matrix");
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let disks = store.array().disks();
    drop(store);

    let mut cycle = 0u64;
    for hits in [1u64, 2, 5] {
        for point in write_points {
            let status = spawn_child(
                "crash_child",
                &dir,
                &[
                    ("OI_CRASH_POINT", point.to_string()),
                    ("OI_CRASH_HITS", hits.to_string()),
                    ("OI_CRASH_CYCLE", (0x4000 + cycle).to_string()),
                ],
            );
            // Every grid cell's hit count is reachable (≥14 appends/flushes
            // and ~4× that many member writes per run): the child must die.
            assert_eq!(
                status.signal(),
                Some(SIGABRT),
                "{point} hit {hits}: child must crash, got {status:?}"
            );
            verify_converged(&dir, &cfg, &format!("{point} hit {hits}"));
            cycle += 1;
        }
        // The rewind — a child's first is the reset that ends its open —
        // killed between the slot write and its sync, and right after it,
        // with committed intents in the lap being abandoned: the child
        // before it dies mid-update and nobody reopens in between.
        for point in ["journal_rewind", "journal_rewind_synced"] {
            let envs = |point: &str, hits: u64| {
                [
                    ("OI_CRASH_POINT", point.to_string()),
                    ("OI_CRASH_HITS", hits.to_string()),
                    ("OI_CRASH_CYCLE", (0x4000 + cycle).to_string()),
                ]
            };
            let status = spawn_child("crash_child", &dir, &envs("member_write", hits));
            assert_eq!(status.signal(), Some(SIGABRT), "member_write hit {hits}");
            let status = spawn_child("crash_child", &dir, &envs(point, 1));
            assert_eq!(
                status.signal(),
                Some(SIGABRT),
                "{point} after member_write hit {hits}: child must crash, got {status:?}"
            );
            verify_converged(
                &dir,
                &cfg,
                &format!("{point} after member_write hit {hits}"),
            );
            cycle += 1;
        }
        for point in rebuild_points {
            let d = (splitmix(0xFA11 ^ cycle) % disks as u64) as usize;
            std::fs::write(failed_path(&dir), format!("{d}")).expect("persist failed disk");
            let status = spawn_child(
                "rebuild_child",
                &dir,
                &[
                    ("OI_CRASH_POINT", point.to_string()),
                    ("OI_CRASH_HITS", hits.to_string()),
                    ("OI_RAID_CKPT_INTERVAL", "1".to_string()),
                ],
            );
            // 9 writebacks and 9 interval-1 checkpoint saves per rebuild:
            // hits ≤ 5 is always reached.
            assert_eq!(
                status.signal(),
                Some(SIGABRT),
                "{point} hit {hits}: child must crash, got {status:?}"
            );
            verify_converged(&dir, &cfg, &format!("{point} hit {hits}"));
            cycle += 1;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: a rebuild resumed from its checkpoint re-reads *strictly
/// fewer* source chunks than an identical from-scratch rebuild, measured
/// with per-device read counters over two byte-identical directories — and
/// its progress gauge starts pre-credited instead of from zero.
#[test]
fn resumed_rebuild_reads_strictly_fewer_source_chunks() {
    resume_reads_fewer("rebuild_child", RebuildMode::Dag);
}

/// The same acceptance on the serial oracle, so its mid-round checkpoint
/// path stays covered now that every other rebuild here runs the DAG.
#[test]
fn serial_resumed_rebuild_reads_strictly_fewer_source_chunks() {
    resume_reads_fewer("rebuild_child_serial", RebuildMode::Serial);
}

fn resume_reads_fewer(child: &str, mode: RebuildMode) {
    let cfg = OiRaidConfig::reference();
    let dir_a = unique_dir("resume-a");
    let dir_b = unique_dir("resume-b");

    // Build one store, fill every payload chunk, then clone the directory
    // byte-for-byte so both rebuilds start from identical contents.
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir_a, FlushPolicy::Never)
        .expect("create durable");
    let payload = store.capacity_bytes() as usize / CHUNK;
    for p in 0..payload {
        store
            .write_bytes((p * CHUNK) as u64, &fill(0xF1E1D ^ p as u64 | 1, CHUNK))
            .expect("prefill");
    }
    let chunks_per_disk = store.array().chunks_per_disk();
    drop(store);
    std::fs::create_dir_all(&dir_b).expect("mkdir b");
    for entry in std::fs::read_dir(&dir_a).expect("list a") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dir_b.join(entry.file_name())).expect("clone file");
    }

    // Crash a checkpointing rebuild in dir A partway through writeback:
    // with interval 1, every credited chunk persists a checkpoint, so
    // dying at the 6th writeback leaves ~5 chunks checkpointed.
    let target = 4usize;
    std::fs::write(failed_path(&dir_a), format!("{target}")).expect("persist failure a");
    let status = spawn_child(
        child,
        &dir_a,
        &[
            ("OI_CRASH_POINT", "rebuild_writeback".to_string()),
            ("OI_CRASH_HITS", "6".to_string()),
            ("OI_RAID_CKPT_INTERVAL", "1".to_string()),
        ],
    );
    assert_eq!(status.signal(), Some(SIGABRT), "rebuild child must crash");

    let measure = |dir: &Path, resumed: bool| -> (u64, u64) {
        let store = OiRaidStore::open_durable_with(cfg.clone(), CHUNK, dir, FlushPolicy::Never)
            .expect("reopen");
        if !resumed {
            // The from-scratch baseline starts as a real disk replacement;
            // the resumed side must NOT re-fail — its device file survived
            // the process crash with the partial rebuild intact.
            store.fail_disk(target).expect("fail for scratch baseline");
        }
        let before: Vec<CounterSnapshot> = store.devices().iter().map(|d| d.counters()).collect();
        let obs = RebuildObserver::default();
        let report = store
            .resume_rebuild(mode, RecoveryStrategy::Hybrid, &obs)
            .expect("rebuild");
        assert!(report.outcome.is_recovered(), "{report}");
        let snap = obs.progress.snapshot();
        if resumed {
            assert!(
                snap.resumed_chunks > 0,
                "resumed rebuild must pre-credit its progress gauge"
            );
            assert!(
                snap.resumed_chunks < chunks_per_disk as u64,
                "a mid-rebuild crash cannot have checkpointed the whole disk"
            );
        } else {
            assert_eq!(snap.resumed_chunks, 0, "fresh rebuild starts from zero");
        }
        let bad = store.check_parity();
        assert!(
            bad.is_empty(),
            "parity after rebuild (resumed={resumed}): {bad:?}"
        );
        let mut buf = vec![0u8; CHUNK];
        for p in 0..payload {
            store
                .read_bytes((p * CHUNK) as u64, &mut buf)
                .expect("read");
            assert_eq!(
                buf,
                fill(0xF1E1D ^ p as u64 | 1, CHUNK),
                "chunk {p} content"
            );
        }
        let reads: u64 = store
            .devices()
            .iter()
            .zip(&before)
            .map(|(d, b)| d.counters().since(b).reads)
            .sum();
        (reads, snap.resumed_chunks)
    };

    let (resumed_reads, resumed_chunks) = measure(&dir_a, true);
    let (scratch_reads, _) = measure(&dir_b, false);
    assert!(
        resumed_reads < scratch_reads,
        "resume must re-read strictly fewer source chunks: \
         {resumed_reads} (resumed past {resumed_chunks}) vs {scratch_reads} from scratch"
    );

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// A corrupt or truncated checkpoint must degrade to a full rebuild —
/// never abort, never resume from garbage.
#[test]
fn corrupt_checkpoint_falls_back_to_full_rebuild() {
    let cfg = OiRaidConfig::reference();
    let dir = unique_dir("badckpt");
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let payload = store.capacity_bytes() as usize / CHUNK;
    for p in 0..payload.min(SPAN) {
        store
            .write_bytes((p * CHUNK) as u64, &fill(0xBAD ^ p as u64 | 1, CHUNK))
            .expect("prefill");
    }
    let ckpt_path = store.checkpoint_policy().expect("durable has policy").path;
    std::fs::write(&ckpt_path, b"OICKgarbage-that-will-not-crc").expect("plant corrupt ckpt");

    store.fail_disk(2).expect("fail");
    let obs = RebuildObserver::default();
    let report = store
        .resume_rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .expect("resume with corrupt checkpoint");
    assert!(report.outcome.is_recovered(), "{report}");
    assert_eq!(
        obs.progress.snapshot().resumed_chunks,
        0,
        "corrupt checkpoint must not pre-credit anything"
    );
    assert!(store.check_parity().is_empty());
    assert!(
        !ckpt_path.exists(),
        "rebuild removes the (corrupt) checkpoint when it finishes"
    );
    let mut buf = vec![0u8; CHUNK];
    for p in 0..payload.min(SPAN) {
        store
            .read_bytes((p * CHUNK) as u64, &mut buf)
            .expect("read");
        assert_eq!(buf, fill(0xBAD ^ p as u64 | 1, CHUNK), "chunk {p} content");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that does not cover a currently-failed disk is stale: the
/// resume path must discard it and rebuild everything that is down.
#[test]
fn stale_checkpoint_is_discarded_when_new_disks_fail() {
    let cfg = OiRaidConfig::reference();
    let dir = unique_dir("stale");
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let ckpt_path = store.checkpoint_policy().expect("policy").path;
    // A genuine checkpoint for disk 1 only.
    RebuildCheckpoint {
        targets: [1usize].into_iter().collect(),
        valid: vec![ChunkAddr::new(1, 0)],
    }
    .save(&ckpt_path)
    .expect("save stale ckpt");

    store.fail_disk(1).expect("fail 1");
    store.fail_disk(8).expect("fail 8");
    let obs = RebuildObserver::default();
    let report = store
        .resume_rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .expect("resume with stale checkpoint");
    assert!(report.outcome.is_recovered(), "{report}");
    assert_eq!(
        obs.progress.snapshot().resumed_chunks,
        0,
        "stale ckpt discarded"
    );
    assert_eq!(report.rebuilt_disks, vec![1, 8]);
    assert!(store.check_parity().is_empty());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal is outside input: a CRC-valid intent whose member addresses
/// a disk (or chunk) the array does not have — a log from another geometry,
/// or a foreign `journal.log` — must fail the open, not index past the
/// device vector.
#[test]
fn replayed_intent_outside_the_array_geometry_fails_the_open() {
    let cfg = OiRaidConfig::reference();
    for (disk, chunk) in [(cfg.disks() as u32, 0), (0, cfg.chunks_per_disk() as u32)] {
        let dir = unique_dir("foreign-journal");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = Journal::create(dir.join("journal.log")).expect("create journal");
        let seq = journal
            .append_intent(&[blockdev::MemberWrite {
                disk,
                chunk,
                data: vec![0xEE; CHUNK],
            }])
            .expect("append");
        journal.commit(seq).expect("commit");
        drop(journal);

        let devices = MemDevice::array(CHUNK, cfg.chunks_per_disk(), cfg.disks());
        let opened =
            OiRaidStore::open_durable_on(cfg.clone(), CHUNK, devices, &dir, FlushPolicy::Never);
        match opened {
            Err(StoreError::Journal { kind, .. }) => {
                assert_eq!(
                    kind,
                    std::io::ErrorKind::InvalidData,
                    "disk {disk} chunk {chunk}"
                )
            }
            other => panic!("disk {disk} chunk {chunk}: expected a journal error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Replay validates before it writes: a log whose first intent is fine and
/// whose second is foreign fails the open with the devices exactly as they
/// were — not with the first intent already written over them.
#[test]
fn a_foreign_intent_fails_the_open_before_any_intent_is_replayed() {
    let cfg = OiRaidConfig::reference();
    let dir = unique_dir("half-replayed");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = Journal::create(dir.join("journal.log")).expect("create journal");
    let member = |disk: usize, chunk: usize| blockdev::MemberWrite {
        disk: disk as u32,
        chunk: chunk as u32,
        data: vec![0xEE; CHUNK],
    };
    journal.append_intent(&[member(0, 0)]).expect("append");
    let seq = journal
        .append_intent(&[member(1, 1), member(cfg.disks(), 0)])
        .expect("append");
    journal.commit(seq).expect("commit");
    drop(journal);

    // File devices, so what the failed open did to them can be read back
    // (the open consumes its devices).
    let image = |disk: usize| dir.join(format!("disk-{disk:03}.img"));
    let devices: Vec<FileDevice> = (0..cfg.disks())
        .map(|d| FileDevice::create(image(d), CHUNK, cfg.chunks_per_disk()).expect("disk file"))
        .collect();
    let opened =
        OiRaidStore::open_durable_on(cfg.clone(), CHUNK, devices, &dir, FlushPolicy::Never);
    match opened {
        Err(StoreError::Journal { kind, .. }) => {
            assert_eq!(kind, std::io::ErrorKind::InvalidData)
        }
        other => panic!("expected a journal error, got {other:?}"),
    }
    for disk in 0..cfg.disks() {
        let bytes = std::fs::read(image(disk)).expect("read disk file back");
        assert_eq!(bytes.len(), CHUNK * cfg.chunks_per_disk());
        assert!(bytes.iter().all(|&b| b == 0), "disk {disk} was written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes per modelled piece in the sub-chunk leg: a quarter chunk, so a
/// write's members log ranges narrower than their chunks.
const PIECE: usize = CHUNK / 4;
const PIECES_PER_CHUNK: usize = CHUNK / PIECE;
/// The sub-chunk leg's model log: the `begin`/`ack` protocol of
/// `model.log`, keyed by piece.
const PIECE_LOG: &str = "pieces.log";

/// Writes `requests` — each `(first piece, one seed per consecutive
/// piece)` — as one batch, or one `write_bytes` call each, between synced
/// `begin` and `ack` lines per piece.
fn write_pieces<B: BlockDevice>(
    store: &OiRaidStore<B>,
    dir: &Path,
    requests: &[(usize, Vec<u64>)],
    batched: bool,
) {
    let lines = |kind: &str| -> Vec<String> {
        let pieces = requests.iter().flat_map(|(q, seeds)| (*q..).zip(seeds));
        pieces.map(|(q, s)| format!("{kind} {q} {s}")).collect()
    };
    log_lines_to(dir, PIECE_LOG, &lines("begin"));
    let datas: Vec<Vec<u8>> = requests
        .iter()
        .map(|(_, seeds)| seeds.iter().flat_map(|&s| fill(s, PIECE)).collect())
        .collect();
    let writes: Vec<(u64, &[u8])> = requests
        .iter()
        .zip(&datas)
        .map(|((q, _), data)| ((q * PIECE) as u64, data.as_slice()))
        .collect();
    if batched {
        store.write_bytes_batch(&writes).expect("child piece batch");
    } else {
        for (offset, data) in writes {
            store.write_bytes(offset, data).expect("child piece write");
        }
    }
    log_lines_to(dir, PIECE_LOG, &lines("ack"));
}

/// The first half of the sub-chunk workload: twelve single requests of
/// one piece, every fourth of two pieces across a chunk boundary (two
/// intents).
fn piece_singles<B: BlockDevice>(store: &OiRaidStore<B>, dir: &Path, cycle: u64) {
    for i in 0..12u64 {
        let h = splitmix(cycle.wrapping_mul(139) ^ i);
        let seed = |k: u64| splitmix(h ^ (k + 1)) | 1;
        let request = if i % 4 == 3 {
            let last = (h as usize % (SPAN - 1)) * PIECES_PER_CHUNK + PIECES_PER_CHUNK - 1;
            (last, vec![seed(0), seed(1)])
        } else {
            (h as usize % (SPAN * PIECES_PER_CHUNK), vec![seed(0)])
        };
        write_pieces(store, dir, &[request], false);
    }
}

/// The second half: two batched waves, each one intent holding two pieces
/// of one chunk around an untouched third (a logged range wider than what
/// changed) and one request across a chunk boundary.
fn piece_waves<B: BlockDevice>(store: &OiRaidStore<B>, dir: &Path, cycle: u64) {
    for b in 0..2u64 {
        let h = splitmix(cycle.wrapping_mul(149) ^ (0x2000 + b));
        let seed = |k: u64| splitmix(h ^ (k + 1)) | 1;
        let (a, r) = (h as usize % 12, 12 + (h >> 8) as usize % (SPAN - 13));
        let requests = [
            (a * PIECES_PER_CHUNK, vec![seed(0)]),
            (a * PIECES_PER_CHUNK + 2, vec![seed(1)]),
            (
                r * PIECES_PER_CHUNK + PIECES_PER_CHUNK - 1,
                vec![seed(2), seed(3)],
            ),
        ];
        write_pieces(store, dir, &requests, true);
    }
}

/// The sub-chunk child's body. With a persisted failed disk it rebuilds
/// that disk on a second thread, paced so that the singles land inside
/// the rebuild window, then writes the waves once the rebuild is done and
/// the failure is cleared: ranges on the rebuilt disk are then patched,
/// on replay, onto what its rebuild left there.
fn piece_body<B: BlockDevice>(store: &OiRaidStore<B>, dir: &Path, cycle: u64) {
    let failed = read_failed(dir);
    if failed.is_empty() {
        piece_singles(store, dir, cycle);
        piece_waves(store, dir, cycle);
        return;
    }
    for &d in &failed {
        store.fail_disk(d).expect("child re-fail");
    }
    // One DAG worker, as in the rebuild child; reads paced while
    // foreground traffic is seen, which this read starts.
    store.set_dag_workers(Some(1));
    store.set_qos(QosConfig {
        rebuild_chunks_per_sec: Some(400.0),
        burst_chunks: 1,
        foreground_window: std::time::Duration::from_secs(5),
    });
    store.read_bytes(0, &mut [0u8; 1]).expect("child read");
    std::thread::scope(|s| {
        let rebuild = s.spawn(|| {
            let obs = RebuildObserver::default();
            store.resume_rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        });
        // The window is open once the failed disk answers again.
        while !store.failed_disks().is_empty() && !rebuild.is_finished() {
            std::thread::yield_now();
        }
        piece_singles(store, dir, cycle);
        let report = rebuild.join().expect("rebuild thread");
        assert!(report.expect("child rebuild").outcome.is_recovered());
    });
    std::fs::write(failed_path(dir), "").expect("clear failed set");
    piece_waves(store, dir, cycle);
}

/// Subprocess body of the sub-chunk leg: [`crash_child`]'s reopen, on
/// plain or write-back devices, running [`piece_body`].
#[test]
#[ignore = "subprocess body for the crash harness; spawned by the tests below"]
fn piece_child() {
    let Ok(dir) = std::env::var("OI_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let cycle: u64 = std::env::var("OI_CRASH_CYCLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let cfg = OiRaidConfig::reference();
    if blockdev::crash::power_loss_armed() {
        piece_body(&open_power(&cfg, &dir), &dir, cycle);
    } else {
        piece_body(&open_plain(&cfg, &dir), &dir, cycle);
    }
}

/// [`verify_converged`] (replay, rebuild of a persisted failure, parity),
/// then every modelled piece read back against its allowed patterns.
fn verify_pieces(dir: &Path, cfg: &OiRaidConfig, what: &str) -> u64 {
    let replayed = verify_converged(dir, cfg, what);
    let store = OiRaidStore::open_durable_with(cfg.clone(), CHUNK, dir, FlushPolicy::Never)
        .expect("reopen to read pieces");
    let mut buf = vec![0u8; PIECE];
    for (&q, seeds) in &allowed_in(dir, PIECE_LOG) {
        store
            .read_bytes((q * PIECE) as u64, &mut buf)
            .expect("read converged piece");
        assert!(
            seeds.iter().any(|&s| buf == fill(s, PIECE)),
            "{what}: piece {q} matches none of its {} allowed patterns \
             (torn or lost write)",
            seeds.len()
        );
    }
    replayed
}

/// Runs `cycles` sub-chunk child cycles over one fresh directory, each
/// child armed by `envs(cycle)`; every third cycle persists a failed disk,
/// which that child rebuilds while it writes. Verifies after every cycle
/// and asserts that children crashed and, over 20 cycles or more, that
/// replay redid intents of ranges.
fn piece_cycles(tag: &str, cycles: u64, envs: impl Fn(u64) -> Vec<(&'static str, String)>) {
    let dir = unique_dir(tag);
    let cfg = OiRaidConfig::reference();
    let store = OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
        .expect("create durable");
    let disks = store.array().disks();
    drop(store);
    let (mut crashes, mut replays) = (0u64, 0u64);
    for cycle in 0..cycles {
        if cycle % 3 == 1 {
            let d = (splitmix(0x91EC ^ cycle) % disks as u64) as usize;
            std::fs::write(failed_path(&dir), format!("{d}")).expect("persist failed disk");
        }
        let what = format!("{tag} cycle {cycle}");
        let status = spawn_child("piece_child", &dir, &envs(cycle));
        assert_clean_or_aborted(status, &what);
        crashes += u64::from(!status.success());
        replays += verify_pieces(&dir, &cfg, &what);
    }
    assert!(
        crashes > 0,
        "{tag}: no child crashed — crash points unarmed?"
    );
    if cycles >= 20 {
        assert!(replays > 0, "{tag}: {crashes} crashes but nothing redone");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The kill-anywhere sweep over sub-chunk writes, some of them inside a
/// rebuild window: every piece converges to an allowed pattern.
#[test]
fn kill_anywhere_piece_cycles_converge() {
    let cycles: u64 = std::env::var("OI_CRASH_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    piece_cycles("pieces", cycles, |cycle| {
        vec![
            (
                "OI_CRASH_COUNT",
                (1 + splitmix(0x9EC3 ^ cycle) % 160).to_string(),
            ),
            ("OI_CRASH_CYCLE", cycle.to_string()),
        ]
    });
}

/// The sub-chunk leg under power loss and `policy`.
fn power_loss_piece_cycles(policy: &str, tag: &str) {
    let cycles: u64 = std::env::var("OI_CRASH_POWER_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    piece_cycles(&format!("pieces-power-{tag}"), cycles, |cycle| {
        let count = 1 + splitmix(0x90E8 ^ cycle ^ (tag.len() as u64) << 32) % 190;
        vec![
            ("OI_CRASH_COUNT", count.to_string()),
            ("OI_CRASH_CYCLE", (0x8000 + cycle).to_string()),
            ("OI_CRASH_POWER", "1".to_string()),
            ("OI_RAID_FLUSH_POLICY", policy.to_string()),
        ]
    });
}

#[test]
fn power_loss_piece_cycles_converge_per_wave() {
    power_loss_piece_cycles("perwave", "pw");
}

#[test]
fn power_loss_piece_cycles_converge_timed() {
    power_loss_piece_cycles("timed:2", "timed");
}

/// The targeted grid over sub-chunk writes (gated on `OI_CRASH_MATRIX=1`):
/// hits 1, 2 and 5 of the write-path points and of the rebuild writeback,
/// a persisted failed disk in every cell so each child rebuilds while it
/// writes; the child must die there, and the state converge.
#[test]
fn targeted_crash_matrix_over_pieces_converges() {
    if std::env::var("OI_CRASH_MATRIX")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        return;
    }
    let cells = [1u64, 2, 5].into_iter().flat_map(|hits| {
        let points = ["journal_append", "journal_flush", "member_write"];
        points
            .into_iter()
            .chain(["rebuild_writeback"])
            .map(move |point| (point, hits))
    });
    let cells: Vec<_> = cells.collect();
    let cycles = cells.len() as u64;
    let disks = OiRaidConfig::reference().disks() as u64;
    let dir = unique_dir("pieces-matrix");
    let cfg = OiRaidConfig::reference();
    drop(
        OiRaidStore::create_durable_with(cfg.clone(), CHUNK, &dir, FlushPolicy::Never)
            .expect("create durable"),
    );
    for (cycle, (point, hits)) in (0..cycles).zip(cells) {
        let d = splitmix(0xFA12 ^ cycle) % disks;
        std::fs::write(failed_path(&dir), format!("{d}")).expect("persist failed disk");
        let envs = [
            ("OI_CRASH_POINT", point.to_string()),
            ("OI_CRASH_HITS", hits.to_string()),
            ("OI_CRASH_CYCLE", (0x4800 + cycle).to_string()),
        ];
        let status = spawn_child("piece_child", &dir, &envs);
        assert_eq!(
            status.signal(),
            Some(SIGABRT),
            "{point} hit {hits}: child must crash, got {status:?}"
        );
        verify_pieces(&dir, &cfg, &format!("{point} hit {hits}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
