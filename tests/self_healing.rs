//! End-to-end self-healing tests: rebuilds and scrubs must absorb injected
//! device faults — transient read/write errors, latent sector errors, and
//! mid-rebuild disk deaths — and still deliver bit-identical recovery, in
//! both execution modes, on both the memory and the file backend.
//!
//! The deterministic fault injector makes every case reproducible: the
//! transient dice and latent chunk set are pure functions of the per-disk
//! seed. Set `OI_FAULT_MATRIX=1` to additionally sweep the full fault grid
//! (the CI fault-matrix job does).

use proptest::prelude::*;

use oi_raid_repro::prelude::*;

type FaultyMemStore = OiRaidStore<FaultInjectingDevice<MemDevice>>;

/// A reference-config store on fault-injecting memory devices, no faults
/// armed yet.
fn faulty_mem_store(chunk_size: usize) -> FaultyMemStore {
    let cfg = OiRaidConfig::reference();
    let devices: Vec<_> = (0..cfg.disks())
        .map(|_| {
            FaultInjectingDevice::new(
                MemDevice::new(chunk_size, cfg.chunks_per_disk()),
                FaultConfig::default(),
            )
        })
        .collect();
    OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap()
}

/// Fills every data chunk of `store` with bytes derived from `seed`.
fn fill<B: BlockDevice>(store: &mut OiRaidStore<B>, seed: u64) {
    let cs = store.chunk_size();
    let mut x = seed | 1;
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..cs)
            .map(|_| {
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

/// Arms every disk except `skip` with the given fault rates (per-disk seed
/// derived from `seed` so disks fault independently).
fn arm_faults(
    store: &FaultyMemStore,
    seed: u64,
    transient_per_mille: u16,
    latent_per_mille: u16,
    skip: usize,
) {
    for (d, dev) in store.devices().iter().enumerate() {
        if d == skip {
            continue;
        }
        dev.set_config(FaultConfig {
            seed: seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            transient_read_per_mille: transient_per_mille,
            transient_write_per_mille: transient_per_mille,
            latent_per_mille,
            ..FaultConfig::default()
        });
    }
}

fn disarm_faults(store: &FaultyMemStore) {
    for dev in store.devices() {
        dev.set_config(FaultConfig::default());
    }
}

/// Rebuilds one failed disk under injected faults and checks the outcome:
/// recovered, never aborted, every disk bit-identical to the pristine
/// images, parity consistent.
fn rebuild_under_faults(
    seed: u64,
    transient_per_mille: u16,
    latent_per_mille: u16,
    mode: RebuildMode,
    strategy: RecoveryStrategy,
) -> Result<RebuildReport, TestCaseError> {
    let mut store = faulty_mem_store(16);
    fill(&mut store, seed);
    let n = store.array().disks();
    let pristine: Vec<Vec<u8>> = (0..n).map(|d| disk_image(&store, d)).collect();
    let victim = (seed % n as u64) as usize;
    arm_faults(&store, seed, transient_per_mille, latent_per_mille, victim);
    store.fail_disk(victim).unwrap();
    let report = store.rebuild(mode, strategy).unwrap();
    prop_assert!(
        report.outcome.is_recovered(),
        "{mode} @ {transient_per_mille}\u{2030} transient, \
         {latent_per_mille}\u{2030} latent: {report}"
    );
    prop_assert!(store.failed_disks().is_empty());
    disarm_faults(&store);
    for (d, want) in pristine.iter().enumerate() {
        prop_assert_eq!(
            &disk_image(&store, d),
            want,
            "disk {} diverged ({}, {}\u{2030}/{}\u{2030})",
            d,
            mode,
            transient_per_mille,
            latent_per_mille
        );
    }
    prop_assert!(store.check_parity().is_empty());
    Ok(report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random transient (≤50‰) and latent (≤3‰) rates on every surviving
    // disk: both modes must recover bit-identically, with zero aborts.
    #[test]
    fn rebuild_absorbs_random_fault_rates(
        seed in any::<u64>(),
        transient in 0u16..51,
        latent in 0u16..4,
        spick in any::<u32>(),
    ) {
        let strategy =
            RecoveryStrategy::ALL[spick as usize % RecoveryStrategy::ALL.len()];
        let serial =
            rebuild_under_faults(seed, transient, latent, RebuildMode::Serial, strategy)?;
        let dag = rebuild_under_faults(seed, transient, latent, RebuildMode::Dag, strategy)?;
        // Same store, same faults: both modes rebuild the same chunk set
        // (each equals the pristine image, checked above).
        prop_assert_eq!(serial.chunks_rebuilt, dag.chunks_rebuilt);
    }

    // The repairing scrub converges: after one pass over a store with
    // latent sectors, a second pass finds nothing.
    #[test]
    fn scrub_converges_on_latent_errors(seed in any::<u64>(), latent in 1u16..6) {
        let mut store = faulty_mem_store(16);
        fill(&mut store, seed);
        let n = store.array().disks();
        let pristine: Vec<Vec<u8>> = (0..n).map(|d| disk_image(&store, d)).collect();
        arm_faults(&store, seed, 0, latent, n); // no disk skipped
        let planted: usize = store
            .devices()
            .iter()
            .map(|dev| {
                (0..store.array().chunks_per_disk())
                    .filter(|&o| dev.is_latent_bad(o))
                    .count()
            })
            .sum();
        let first = store.scrub();
        prop_assert_eq!(first.repaired_latent.len(), planted, "{}", &first);
        prop_assert!(first.unrecoverable.is_empty(), "{}", &first);
        let second = store.scrub();
        prop_assert!(second.is_clean(), "second pass clean: {}", &second);
        disarm_faults(&store);
        for (d, want) in pristine.iter().enumerate() {
            prop_assert_eq!(&disk_image(&store, d), want, "disk {} diverged", d);
        }
        prop_assert!(store.check_parity().is_empty());
    }
}

/// A second disk dying mid-rebuild escalates — and the engine still gets
/// every byte of both disks back.
#[test]
fn second_disk_death_mid_rebuild_escalates_and_recovers() {
    for mode in [RebuildMode::Serial, RebuildMode::Dag] {
        let mut store = faulty_mem_store(16);
        fill(&mut store, 0xE5CA);
        let n = store.array().disks();
        let pristine: Vec<Vec<u8>> = (0..n).map(|d| disk_image(&store, d)).collect();
        // Disk 3 is a group sibling of disk 4: the Inner strategy reads it
        // once per row, so it reliably dies mid-rebuild.
        store.devices()[3].set_config(FaultConfig {
            fail_after_reads: 4,
            ..FaultConfig::default()
        });
        store.fail_disk(4).unwrap();
        let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
        assert_eq!(
            report.outcome,
            RebuildOutcome::Escalated,
            "{mode}: {report}"
        );
        assert_eq!(report.escalations, 1, "{mode}");
        assert_eq!(report.rebuilt_disks, vec![3, 4], "{mode}");
        assert!(store.failed_disks().is_empty(), "{mode}");
        for (d, want) in pristine.iter().enumerate() {
            assert_eq!(&disk_image(&store, d), want, "{mode} disk {d} diverged");
        }
        assert!(store.check_parity().is_empty(), "{mode}");
    }
}

/// File-backed devices heal the same way: transient + latent faults on a
/// `FaultInjectingDevice<FileDevice>` array, both modes, bit-identical.
#[test]
fn file_backed_rebuild_absorbs_faults() {
    let base = std::env::temp_dir().join(format!("oi-raid-selfheal-{}", std::process::id()));
    for (run, mode) in [RebuildMode::Serial, RebuildMode::Dag]
        .into_iter()
        .enumerate()
    {
        let cfg = OiRaidConfig::reference();
        let dir = base.join(format!("run-{run}"));
        std::fs::create_dir_all(&dir).unwrap();
        let devices: Vec<_> = (0..cfg.disks())
            .map(|d| {
                FaultInjectingDevice::new(
                    FileDevice::create(dir.join(format!("disk-{d}")), 16, cfg.chunks_per_disk())
                        .unwrap(),
                    FaultConfig::default(),
                )
            })
            .collect();
        let mut store = OiRaidStore::with_devices(cfg, 16, devices).unwrap();
        fill(&mut store, 0xF11E ^ run as u64);
        let n = store.array().disks();
        let pristine: Vec<Vec<u8>> = (0..n).map(|d| disk_image(&store, d)).collect();
        for (d, dev) in store.devices().iter().enumerate() {
            if d == 4 {
                continue;
            }
            dev.set_config(FaultConfig {
                seed: 0xBEEF ^ d as u64,
                transient_read_per_mille: 25,
                transient_write_per_mille: 25,
                latent_per_mille: 2,
                ..FaultConfig::default()
            });
        }
        store.fail_disk(4).unwrap();
        let report = store.rebuild(mode, RecoveryStrategy::Hybrid).unwrap();
        assert!(report.outcome.is_recovered(), "{mode}: {report}");
        for dev in store.devices() {
            dev.set_config(FaultConfig::default());
        }
        for (d, want) in pristine.iter().enumerate() {
            assert_eq!(&disk_image(&store, d), want, "{mode} disk {d} diverged");
        }
        assert!(store.check_parity().is_empty(), "{mode}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Full fault grid (CI fault-matrix job): transient ∈ {10, 25, 50}‰ ×
/// latent ∈ {0, 2}‰ × both modes, several seeds each — zero aborts,
/// bit-identical recovery everywhere. Heavier than the default run, so
/// gated behind `OI_FAULT_MATRIX=1`.
#[test]
fn fault_matrix_sweep() {
    if std::env::var("OI_FAULT_MATRIX").is_err() {
        eprintln!("fault_matrix_sweep: set OI_FAULT_MATRIX=1 to run the full grid");
        return;
    }
    for transient in [10u16, 25, 50] {
        for latent in [0u16, 2] {
            for mode in [RebuildMode::Serial, RebuildMode::Dag] {
                for seed in [1u64, 0xABCD, 0xDEAD_BEEF] {
                    rebuild_under_faults(seed, transient, latent, mode, RecoveryStrategy::Hybrid)
                        .unwrap_or_else(|e| {
                            panic!("{mode} t={transient} l={latent} seed={seed:#x}: {e}")
                        });
                }
            }
        }
    }
}
