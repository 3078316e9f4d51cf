//! Property tests for the plan-driven rebuild engine: for random data and
//! random single/double/triple failure patterns, the DAG-scheduled rebuild
//! must be *bit-identical* to a serial one — and both must reproduce
//! exactly what the disks held before they failed. Exercised over both the
//! in-memory and the file-backed block devices.
//!
//! Both modes share a pooled-buffer data path and coalesce adjacent
//! same-disk reads into single device operations, so the comparison also
//! pins their per-device read counters to each other exactly — the serial
//! executor is the oracle the DAG worker pool must never drift from.

use proptest::prelude::*;

use oi_raid_repro::prelude::*;

/// Fills every data chunk of `store` with bytes derived from `seed`.
fn fill<B: BlockDevice>(store: &mut OiRaidStore<B>, seed: u64) {
    let cs = store.chunk_size();
    let mut x = seed | 1;
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..cs)
            .map(|_| {
                // xorshift64 keeps the fill cheap and seed-determined.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        store.write_data(idx, &chunk).unwrap();
    }
}

/// Full contents of disk `disk`, read straight off the device.
fn disk_image<B: BlockDevice>(store: &OiRaidStore<B>, disk: usize) -> Vec<u8> {
    let dev = &store.devices()[disk];
    let mut out = Vec::new();
    let mut buf = vec![0u8; store.chunk_size()];
    for o in 0..dev.chunks() {
        dev.read_chunk(o, &mut buf).unwrap();
        out.extend_from_slice(&buf);
    }
    out
}

/// `count` pseudo-random distinct disks of an `n`-disk array.
fn pick_failures(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut s = seed | 1;
    let mut picked = Vec::new();
    while picked.len() < count {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let d = (s % n as u64) as usize;
        if !picked.contains(&d) {
            picked.push(d);
        }
    }
    picked.sort_unstable();
    picked
}

/// Rebuilds two identically-filled stores — the serial oracle and the DAG
/// executor — and checks bit-identity against the pristine image, parity,
/// and per-device read counters.
fn assert_dag_matches_serial<B: BlockDevice>(
    serial: OiRaidStore<B>,
    dag: OiRaidStore<B>,
    failures: &[usize],
    strategy: RecoveryStrategy,
) -> Result<(), TestCaseError> {
    let pristine: Vec<Vec<u8>> = failures.iter().map(|&d| disk_image(&serial, d)).collect();
    for &d in failures {
        serial.fail_disk(d).unwrap();
        dag.fail_disk(d).unwrap();
    }
    let rs = serial.rebuild(RebuildMode::Serial, strategy).unwrap();
    let rd = dag.rebuild(RebuildMode::Dag, strategy).unwrap();
    prop_assert_eq!(rs.chunks_rebuilt, rd.chunks_rebuilt, "chunk count");
    prop_assert_eq!(rs.total_reads(), rd.total_reads(), "total read schedule");
    let io = |r: &RebuildReport| -> Vec<(u64, u64)> {
        r.device_io
            .iter()
            .map(|c| (c.reads, c.bytes_read))
            .collect()
    };
    prop_assert_eq!(io(&rs), io(&rd), "coalesced runs must match per disk");
    for (mode, store) in [(rs.mode, &serial), (rd.mode, &dag)] {
        for (&d, want) in failures.iter().zip(&pristine) {
            let got = disk_image(store, d);
            prop_assert_eq!(&got, want, "{} rebuild of disk {} lost bits", mode, d);
        }
        prop_assert!(store.check_parity().is_empty(), "{} parity", mode);
    }
    Ok(())
}

fn strategy_from(pick: u32) -> RecoveryStrategy {
    RecoveryStrategy::ALL[pick as usize % RecoveryStrategy::ALL.len()]
}

/// One to three failed disks of a Fano x 3 array; the odd shapes put two
/// of them in one group, so the plan's outer-layer items feed inner-row
/// items through `depends`.
fn grouped_failures(shape: u32, seed: u64) -> Vec<usize> {
    let group = (seed % 7) as usize * 3;
    let elsewhere = (group + 3 + (seed / 7 % 18) as usize) % 21;
    match shape % 5 {
        0 => vec![elsewhere],
        1 => vec![group, group + 2],
        2 => vec![group + 1, elsewhere],
        3 => vec![group, group + 1, elsewhere],
        _ => pick_failures(21, 3, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mem_backed_concurrent_rebuilds_are_bit_identical(
        seed in any::<u64>(),
        nfail in 1usize..4,
        spick in any::<u32>(),
    ) {
        let cfg = OiRaidConfig::reference();
        let mut serial = OiRaidStore::new(cfg.clone(), 32).unwrap();
        fill(&mut serial, seed);
        let dag = serial.clone();
        let failures = pick_failures(serial.array().disks(), nfail, seed ^ 0xD1CE);
        // Strategy only applies to single failures; vary it anyway.
        let strategy = strategy_from(spick);
        assert_dag_matches_serial(serial, dag, &failures, strategy)?;
    }

    #[test]
    fn file_backed_concurrent_rebuilds_are_bit_identical(
        seed in any::<u64>(),
        nfail in 1usize..4,
        spick in any::<u32>(),
    ) {
        let cfg = OiRaidConfig::reference();
        let base = std::env::temp_dir().join(format!(
            "oi-raid-proptest-{}-{seed:x}",
            std::process::id()
        ));
        let mut serial =
            OiRaidStore::create_in_dir(cfg.clone(), 32, base.join("serial")).unwrap();
        let mut dag = OiRaidStore::create_in_dir(cfg.clone(), 32, base.join("dag")).unwrap();
        fill(&mut serial, seed);
        fill(&mut dag, seed);
        let failures = pick_failures(serial.array().disks(), nfail, seed ^ 0xF11E);
        let strategy = strategy_from(spick);
        let outcome = assert_dag_matches_serial(serial, dag, &failures, strategy);
        let _ = std::fs::remove_dir_all(&base);
        outcome?;
    }

    // Plans of 18 to 216 items that span several batches (up to sixteen
    // items each, fewer on a wide pool), with `depends` crossing batch
    // boundaries: the serial walk and the DAG pool run the
    // same batches and must agree bit for bit and read for read.
    #[test]
    fn batched_rebuilds_are_bit_identical_across_batch_boundaries(
        seed in any::<u64>(),
        shape in any::<u32>(),
        cycles in 0usize..2,
        chunk in 0usize..3,
        workers in 0usize..3,
        spick in any::<u32>(),
    ) {
        let (cycles, chunk, workers) = ([2, 8][cycles], [64, 512, 4096][chunk], [1, 2, 7][workers]);
        let cfg = OiRaidConfig::new(fano(), 3, cycles).unwrap();
        let mut serial = OiRaidStore::new(cfg, chunk).unwrap();
        fill(&mut serial, seed);
        let dag = serial.clone();
        for store in [&serial, &dag] {
            store.set_dag_workers(Some(workers));
        }
        let mut failures = grouped_failures(shape, seed);
        failures.sort_unstable();
        assert_dag_matches_serial(serial, dag, &failures, strategy_from(spick))?;
    }

    #[test]
    fn mem_and_file_backends_hold_the_same_bytes(seed in any::<u64>()) {
        let cfg = OiRaidConfig::reference();
        let mut mem = OiRaidStore::new(cfg.clone(), 16).unwrap();
        let base = std::env::temp_dir().join(format!(
            "oi-raid-proptest-xb-{}-{seed:x}",
            std::process::id()
        ));
        let mut file = OiRaidStore::create_in_dir(cfg.clone(), 16, &base).unwrap();
        fill(&mut mem, seed);
        fill(&mut file, seed);
        let mut same = true;
        for d in 0..mem.array().disks() {
            same &= disk_image(&mem, d) == disk_image(&file, d);
        }
        let _ = std::fs::remove_dir_all(&base);
        prop_assert!(same, "backends diverged");
    }
}

/// Value of a scalar field `"key":<digits>` in a flat JSON rendering.
fn json_u64(json: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = json.find(&tag).unwrap_or_else(|| panic!("missing {key}"));
    json[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer"))
}

/// Structural validity without a JSON library: every brace/bracket closes
/// in order and every string literal terminates.
fn assert_balanced_json(json: &str) {
    let mut stack = Vec::new();
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => loop {
                match chars.next() {
                    Some('\\') => {
                        chars.next();
                    }
                    Some('"') => break,
                    Some(_) => {}
                    None => panic!("unterminated string"),
                }
            },
            '{' | '[' => stack.push(c),
            '}' => assert_eq!(stack.pop(), Some('{'), "mismatched }}"),
            ']' => assert_eq!(stack.pop(), Some('['), "mismatched ]"),
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed {stack:?}");
}

/// `RebuildReport::to_json` must stay loadable by the dashboards: the
/// document is structurally valid JSON, and every counter a consumer
/// would chart round-trips bit-exactly back to the report's accessors.
#[test]
fn rebuild_report_json_round_trips() {
    let cfg = OiRaidConfig::reference();
    let mut store = OiRaidStore::new(cfg, 32).unwrap();
    fill(&mut store, 0x1A7E);
    store.fail_disk(5).unwrap();
    let obs = RebuildObserver::default();
    let report = store
        .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .unwrap();
    assert!(report.outcome.is_recovered(), "{report}");

    let json = report.to_json();
    assert_balanced_json(&json);
    assert!(json.starts_with('{') && json.ends_with('}'));

    // Scalar counters round-trip exactly.
    assert_eq!(json_u64(&json, "rounds"), report.rounds as u64);
    assert_eq!(json_u64(&json, "workers"), report.workers as u64);
    assert_eq!(json_u64(&json, "chunks_rebuilt"), report.chunks_rebuilt);
    assert_eq!(json_u64(&json, "bytes_rebuilt"), report.bytes_rebuilt);
    assert_eq!(json_u64(&json, "retries"), report.retries);
    assert_eq!(json_u64(&json, "total_reads"), report.total_reads());
    assert_eq!(
        json_u64(&json, "max_device_reads"),
        report.max_device_reads()
    );
    assert_eq!(json_u64(&json, "wall_ns"), report.wall.as_nanos() as u64);

    // Enums and arrays keep their shape.
    assert!(json.contains("\"outcome\":\"complete"), "outcome tag");
    assert!(json.contains("\"rebuilt_disks\":[5]"), "rebuilt disk list");
    assert_eq!(
        json.matches("\"disk\":").count(),
        report.device_io.len(),
        "one device_io object per disk"
    );
    for st in &report.stages {
        assert!(
            json.contains(&format!("\"stage\":\"{}\"", st.stage)),
            "stage {} present",
            st.stage
        );
    }
    // Per-device read counters survive the trip: the sum of the embedded
    // objects equals the report total.
    let mut sum = 0;
    let mut rest = &json[json.find("\"device_io\":[").unwrap()..];
    while let Some(at) = rest.find("\"reads\":") {
        rest = &rest[at + "\"reads\":".len()..];
        sum += rest
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .unwrap();
    }
    assert_eq!(sum, report.total_reads(), "device_io reads sum");
}

/// A replacement disk comes online blank — every chunk reads as zeroes
/// until written — so a recovered rebuild must write each chunk of each
/// target exactly once: one write per chunk on the target's own counters,
/// and a disk bit-identical to what it held before it failed (a chunk the
/// rebuild skipped would read back as zeroes, not as its old bytes).
#[test]
fn a_recovered_rebuild_writes_every_target_chunk_exactly_once() {
    for (chunk, cycles) in [(4 << 10, 8), (64 << 10, 2)] {
        let cfg = OiRaidConfig::new(fano(), 3, cycles).unwrap();
        let mut reference = OiRaidStore::new(cfg, chunk).unwrap();
        fill(&mut reference, chunk as u64);
        let per_disk = reference.array().chunks_per_disk();
        // One failure, then two in different groups.
        for failures in [vec![4], vec![4, 11]] {
            let pristine: Vec<Vec<u8>> = failures
                .iter()
                .map(|&d| disk_image(&reference, d))
                .collect();
            for mode in [RebuildMode::Serial, RebuildMode::Dag] {
                let store = reference.clone();
                for &d in &failures {
                    store.fail_disk(d).unwrap();
                }
                let report = store.rebuild(mode, RecoveryStrategy::Hybrid).unwrap();
                let what = format!("{mode} at {chunk} B, disks {failures:?}");
                assert_eq!(report.outcome, RebuildOutcome::Complete, "{what}: {report}");
                assert_eq!(
                    report.chunks_rebuilt as usize,
                    failures.len() * per_disk,
                    "{what}"
                );
                for (&d, want) in failures.iter().zip(&pristine) {
                    let io = &report.device_io[d];
                    assert_eq!(io.writes as usize, per_disk, "{what}: disk {d} writes");
                    assert_eq!(
                        io.bytes_written as usize,
                        per_disk * chunk,
                        "{what}: disk {d} bytes"
                    );
                    assert!(disk_image(&store, d) == *want, "{what}: disk {d} image");
                }
                assert!(store.check_parity().is_empty(), "{what}");
            }
        }
    }
}

/// An aborted rebuild has half-written its targets (blank chunks beside
/// rebuilt ones): the abort must re-fail them, so neither kind is ever
/// readable, and a later rebuild converges to the pre-failure bytes.
#[test]
fn an_aborted_rebuild_leaves_its_targets_failed_and_a_later_one_converges() {
    const CHUNK: usize = 64;
    for mode in [RebuildMode::Serial, RebuildMode::Dag] {
        let cfg = OiRaidConfig::reference();
        let devices: Vec<_> = (0..cfg.disks())
            .map(|_| {
                FaultInjectingDevice::new(
                    MemDevice::new(CHUNK, cfg.chunks_per_disk()),
                    FaultConfig::default(),
                )
            })
            .collect();
        let mut store = OiRaidStore::with_devices(cfg, CHUNK, devices).unwrap();
        fill(&mut store, 0xAB07);
        let pristine = disk_image(&store, 0);
        // Disk 0's Inner plan reads its row siblings on disks 1 and 2. Half
        // of disk 1 and all of the other groups are unreadable: the rows
        // disk 1 can serve land, the rest need the outer layer, which has
        // nothing to give — the loop runs out of plans and aborts.
        for d in (1..store.array().disks()).filter(|&d| d != 2) {
            store.devices()[d].set_config(FaultConfig {
                seed: 11,
                latent_per_mille: if d == 1 { 500 } else { 1000 },
                ..FaultConfig::default()
            });
        }
        store.fail_disk(0).unwrap();
        let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
        assert_eq!(
            report.outcome,
            RebuildOutcome::Aborted { failed: vec![0] },
            "{mode}: {report}"
        );
        let landed = report.device_io[0].writes as usize;
        assert!(
            (1..store.array().chunks_per_disk()).contains(&landed),
            "{mode}: the abort came after some writes and before the last: {landed}"
        );
        let mut buf = [0u8; CHUNK];
        for o in 0..store.array().chunks_per_disk() {
            assert_eq!(
                store.devices()[0].read_chunk(o, &mut buf),
                Err(DeviceError::Failed),
                "{mode}: chunk {o}"
            );
        }
        assert_eq!(store.failed_disks(), vec![0], "{mode}");
        for dev in store.devices() {
            dev.set_config(FaultConfig::default());
        }
        let again = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
        assert_eq!(again.outcome, RebuildOutcome::Complete, "{mode}: {again}");
        assert_eq!(
            again.device_io[0].writes as usize,
            store.array().chunks_per_disk(),
            "{mode}: the second rebuild writes the whole disk again"
        );
        assert!(disk_image(&store, 0) == pristine, "{mode}");
        assert!(store.check_parity().is_empty(), "{mode}");
    }
}
