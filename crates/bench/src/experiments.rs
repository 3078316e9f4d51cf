//! The reconstructed evaluation: one function per table/figure.
//!
//! Each function returns `(title, Table)` pairs so the binary can print them
//! and tests can assert their structure. Experiment ids follow `DESIGN.md`
//! §3; `EXPERIMENTS.md` records the measured outcomes against the paper's
//! claims.

use disksim::{ArrivalProcess, DiskSpec, SimTime, Workload, WorkloadKind};
use ecc::{ErasureCode, Lrc, Raid6 as EccRaid6, ReedSolomon, Replication, UpdateCost, XorParity};
use layout::{FlatRaid5, FlatRaid6, Layout, ParityDeclustered, Raid50, RecoveryPlan, SparePolicy};
use oi_raid::{
    analysis::Model, DegradedScenario, OiRaid, OiRaidConfig, RecoveryStrategy, SkewMode,
};
use reliability::markov::array_mttdl;
use reliability::montecarlo::{simulate_lifetime, LifetimeConfig};
use reliability::patterns::{survivable_fraction, survival_profile};

use crate::table::{f3, sci, Table};

/// Disk capacity used by the timing experiments (1 TB).
pub const CAPACITY: u64 = 1_000_000_000_000;

/// The `(v, k, g)` sweep used by E1/E3/E10 — every outer design the `bibd`
/// catalogue provides at moderate scale, paired with the smallest prime
/// group size `>= k`.
pub fn sweep_parameters() -> Vec<(usize, usize, usize)> {
    vec![
        (7, 3, 3),
        (9, 3, 3),
        (13, 3, 3),
        (13, 4, 5),
        (21, 5, 5),
        (25, 5, 5),
        (31, 6, 7),
    ]
}

/// Builds the OI-RAID array for one sweep point.
///
/// # Panics
///
/// Panics if the design or config is unavailable (the sweep list is
/// validated by tests).
pub fn sweep_array(v: usize, k: usize, g: usize) -> OiRaid {
    let design =
        bibd::find_design(v, k).unwrap_or_else(|| panic!("catalogue must provide ({v},{k},1)"));
    OiRaid::new(OiRaidConfig::new(design, g, 1).expect("valid config")).expect("constructs")
}

fn hdd() -> DiskSpec {
    DiskSpec::hdd_7200(CAPACITY)
}

fn rebuild_secs(plan: &RecoveryPlan, chunks_per_disk: usize) -> f64 {
    let chunk_bytes = CAPACITY / chunks_per_disk as u64;
    plan.simulate(&hdd(), chunk_bytes)
        .rebuild_time
        .as_secs_f64()
}

/// E1 — single-disk recovery time and speedup vs array size.
pub fn e1_recovery_speedup() -> Vec<(String, Table)> {
    let mut sim_t = Table::new(&[
        "n",
        "v",
        "k",
        "g",
        "RAID5 (s)",
        "RAID50 (s)",
        "OI outer (s)",
        "OI hybrid (s)",
        "speedup vs RAID5",
        "speedup vs RAID50",
    ]);
    let mut ana_t = Table::new(&[
        "n",
        "v",
        "k",
        "g",
        "bottleneck frac (outer)",
        "bottleneck frac (hybrid)",
        "model speedup vs RAID5",
        "PD frac (1-fault baseline)",
    ]);
    for (v, k, g) in sweep_parameters() {
        let array = sweep_array(v, k, g);
        let n = array.disks();
        let t = array.chunks_per_disk();
        // Baselines sized identically (same n, same chunk grid).
        let raid5 = FlatRaid5::new(n, t).expect("raid5 geometry");
        let raid50 = Raid50::new(v, g, t).expect("raid50 geometry");
        let t_r5 = rebuild_secs(
            &raid5.recovery_plan(&[0], SparePolicy::Dedicated).unwrap(),
            t,
        );
        let t_r50 = rebuild_secs(
            &raid50.recovery_plan(&[0], SparePolicy::Dedicated).unwrap(),
            t,
        );
        let t_outer = rebuild_secs(
            &array
                .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Outer)
                .unwrap(),
            t,
        );
        let t_hybrid = rebuild_secs(
            &array
                .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Hybrid)
                .unwrap(),
            t,
        );
        sim_t.row_owned(vec![
            n.to_string(),
            v.to_string(),
            k.to_string(),
            g.to_string(),
            f3(t_r5),
            f3(t_r50),
            f3(t_outer),
            f3(t_hybrid),
            f3(t_r5 / t_hybrid),
            f3(t_r50 / t_hybrid),
        ]);
        let m = Model::of(&array);
        ana_t.row_owned(vec![
            n.to_string(),
            v.to_string(),
            k.to_string(),
            g.to_string(),
            f3(m.bottleneck_read_fraction(RecoveryStrategy::Outer)),
            f3(m.bottleneck_read_fraction(RecoveryStrategy::Hybrid)),
            f3(m.read_speedup_vs_raid5(RecoveryStrategy::Hybrid)),
            f3(m.pd_read_fraction()),
        ]);
    }
    vec![
        (
            "E1a: simulated single-disk rebuild time (1 TB disks)".into(),
            sim_t,
        ),
        ("E1b: analytical bottleneck model".into(), ana_t),
    ]
}

/// E2 — recovery time vs disk capacity (reference 21-disk config).
pub fn e2_capacity_sweep() -> Vec<(String, Table)> {
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let t = array.chunks_per_disk();
    let raid5 = FlatRaid5::new(array.disks(), t).unwrap();
    let mut table = Table::new(&[
        "capacity (GB)",
        "HDD RAID5 (s)",
        "HDD OI (s)",
        "HDD speedup",
        "SSD RAID5 (s)",
        "SSD OI (s)",
        "SSD speedup",
    ]);
    for gb in [250u64, 500, 1000, 2000, 4000] {
        let cap = gb * 1_000_000_000;
        let chunk = cap / t as u64;
        let p5 = raid5.recovery_plan(&[0], SparePolicy::Dedicated).unwrap();
        let po = array
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Hybrid)
            .unwrap();
        let mut cells = vec![gb.to_string()];
        for spec in [DiskSpec::hdd_7200(cap), DiskSpec::ssd_sata(cap)] {
            let t5 = p5.simulate(&spec, chunk).rebuild_time.as_secs_f64();
            let to = po.simulate(&spec, chunk).rebuild_time.as_secs_f64();
            cells.push(f3(t5));
            cells.push(f3(to));
            cells.push(f3(t5 / to));
        }
        table.row_owned(cells);
    }
    vec![(
        "E2: rebuild time vs disk capacity (n=21; HDD and SSD media)".into(),
        table,
    )]
}

/// E3 — storage overhead comparison.
pub fn e3_storage_overhead() -> Vec<(String, Table)> {
    let mut table = Table::new(&["scheme", "tolerance", "efficiency", "overhead"]);
    for (v, k, g) in sweep_parameters() {
        let m = Model::from_parameters(v, k, g);
        table.row_owned(vec![
            format!("OI-RAID(v={v},k={k},g={g})"),
            m.fault_tolerance().to_string(),
            f3(m.efficiency()),
            f3(m.storage_overhead()),
        ]);
    }
    let codes: Vec<Box<dyn ErasureCode>> = vec![
        Box::new(XorParity::new(6).unwrap()),
        Box::new(EccRaid6::new(6).unwrap()),
        Box::new(ReedSolomon::new(6, 3).unwrap()),
        Box::new(Lrc::new(12, 2, 2).unwrap()),
        Box::new(Replication::new(3).unwrap()),
        Box::new(Replication::new(4).unwrap()),
    ];
    for c in codes {
        let e = c.efficiency();
        table.row_owned(vec![
            c.name(),
            c.fault_tolerance().to_string(),
            f3(e),
            f3((1.0 - e) / e),
        ]);
    }
    vec![("E3: storage overhead (claim C7)".into(), table)]
}

/// E4 — update complexity (writes per user write).
pub fn e4_update_complexity() -> Vec<(String, Table)> {
    let mut table = Table::new(&["scheme", "tolerance", "writes/update", "optimal?"]);
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    // Measure by actually counting the update set over every data chunk.
    let counts: Vec<usize> = (0..array.data_chunks())
        .map(|i| {
            array
                .update_set(array.locate_data(i))
                .map_or(0, |s| s.len())
        })
        .collect();
    let writes = counts[0];
    assert!(counts.iter().all(|&c| c == writes));
    let tolerance = array.fault_tolerance();
    let verdict = |cost: UpdateCost, t: usize| {
        if cost.is_optimal_for_tolerance(t) {
            "yes"
        } else {
            "no"
        }
    };
    table.row_owned(vec![
        "OI-RAID (measured over all chunks)".into(),
        tolerance.to_string(),
        writes.to_string(),
        verdict(UpdateCost::new(1, writes - 1), tolerance).into(),
    ]);
    let codes: Vec<Box<dyn ErasureCode>> = vec![
        Box::new(XorParity::new(6).unwrap()),
        Box::new(EccRaid6::new(6).unwrap()),
        Box::new(ReedSolomon::new(6, 3).unwrap()),
        Box::new(Lrc::new(12, 2, 2).unwrap()),
        Box::new(Replication::new(3).unwrap()),
    ];
    for c in codes {
        let cost = c.update_cost();
        table.row_owned(vec![
            c.name(),
            c.fault_tolerance().to_string(),
            cost.total_writes().to_string(),
            verdict(cost, c.fault_tolerance()).into(),
        ]);
    }
    vec![("E4: update complexity (claim C6)".into(), table)]
}

/// The comparison layouts at the reference scale (21 disks).
fn reference_layouts() -> Vec<(String, Box<dyn Layout>)> {
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let pd_design = bibd::find_design(21, 5).expect("(21,5,1) exists");
    vec![
        ("OI-RAID(7,3,g=3)".into(), Box::new(array)),
        ("RAID5(21)".into(), Box::new(FlatRaid5::new(21, 9).unwrap())),
        ("RAID6(21)".into(), Box::new(FlatRaid6::new(21, 9).unwrap())),
        (
            "RAID50(7x3)".into(),
            Box::new(Raid50::new(7, 3, 9).unwrap()),
        ),
        (
            "PD(21,5,1)".into(),
            Box::new(ParityDeclustered::new(pd_design, 1).unwrap()),
        ),
    ]
}

/// E5 — probability of data loss vs number of failed disks.
pub fn e5_loss_probability() -> Vec<(String, Table)> {
    let budget = 25_000u64;
    let mut table = Table::new(&["layout", "f=1", "f=2", "f=3", "f=4", "f=5", "f=6"]);
    for (name, l) in reference_layouts() {
        let mut cells = vec![name];
        for f in 1..=6usize {
            let q = survivable_fraction(l.as_ref(), f, budget, 0xE5 + f as u64);
            cells.push(f3(1.0 - q));
        }
        table.row_owned(cells);
    }
    vec![(
        "E5: P(data loss | f simultaneous failures), 21 disks".into(),
        table,
    )]
}

/// E6 — rebuild read-load distribution and the skew ablation (also A1).
pub fn e6_load_distribution() -> Vec<(String, Table)> {
    let mut table = Table::new(&[
        "layout/skew",
        "strategy",
        "max load (chunks)",
        "mean load",
        "balance (max/mean)",
    ]);
    let mut add = |name: &str, array: &OiRaid, strategy: RecoveryStrategy| {
        let plan = array
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, strategy)
            .unwrap();
        let load = plan.read_load(array.disks());
        let survivors: Vec<u64> = (0..array.disks())
            .filter(|&d| d != 0)
            .map(|d| load[d])
            .collect();
        let max = *survivors.iter().max().unwrap();
        let mean = survivors.iter().sum::<u64>() as f64 / survivors.len() as f64;
        table.row_owned(vec![
            name.into(),
            strategy.label().into(),
            max.to_string(),
            f3(mean),
            f3(max as f64 / mean),
        ]);
    };
    let skewed = OiRaid::new(OiRaidConfig::new(bibd::fano(), 3, 4).unwrap()).unwrap();
    let naive =
        OiRaid::new(OiRaidConfig::with_skew(bibd::fano(), 3, 4, SkewMode::Naive).unwrap()).unwrap();
    for s in RecoveryStrategy::ALL {
        add("OI rotational", &skewed, s);
    }
    add("OI naive (ablation)", &naive, RecoveryStrategy::Outer);
    add("OI naive (ablation)", &naive, RecoveryStrategy::OuterAll);
    vec![(
        "E6/A1: per-survivor rebuild read load, disk 0 failed (c=4)".into(),
        table,
    )]
}

/// E7 — MTTDL vs disk MTTF (Markov) with a Monte-Carlo cross-check.
pub fn e7_mttdl() -> Vec<(String, Table)> {
    let budget = 8_000u64;
    // Repair times from the simulated rebuilds (hours at 1 TB).
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let t = array.chunks_per_disk();
    let oi_repair_h = rebuild_secs(
        &array
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Hybrid)
            .unwrap(),
        t,
    ) / 3600.0;
    let raid5 = FlatRaid5::new(21, t).unwrap();
    let r5_repair_h = rebuild_secs(
        &raid5.recovery_plan(&[0], SparePolicy::Dedicated).unwrap(),
        t,
    ) / 3600.0;
    let mut table = Table::new(&[
        "MTTF (h)",
        "RAID5(21)",
        "RAID6(21)",
        "RAID50(7x3)",
        "OI-RAID",
    ]);
    let layouts = reference_layouts();
    let profiles: Vec<(String, Vec<f64>, f64)> = layouts
        .iter()
        .filter(|(n, _)| !n.starts_with("PD"))
        .map(|(name, l)| {
            let q = survival_profile(l.as_ref(), 5, budget, 0xE7);
            let repair = if name.starts_with("OI") {
                oi_repair_h
            } else {
                r5_repair_h
            };
            (name.clone(), q, repair)
        })
        .collect();
    for mttf in [100_000.0f64, 300_000.0, 600_000.0, 1_000_000.0, 1_500_000.0] {
        let mut cells = vec![format!("{mttf:.0}")];
        for (name, q, repair) in &profiles {
            if name.starts_with("OI") {
                continue;
            }
            cells.push(sci(array_mttdl(21, mttf, *repair, q)));
        }
        let (_, q, repair) = profiles
            .iter()
            .find(|(n, _, _)| n.starts_with("OI"))
            .expect("OI profile present");
        cells.push(sci(array_mttdl(21, mttf, *repair, q)));
        table.row_owned(cells);
    }
    // Monte-Carlo cross-check at harsh parameters (so losses happen).
    let mut mc = Table::new(&["layout", "Markov MTTDL (h)", "MC MTTDL (h)", "MC losses"]);
    let harsh_mttf = 8_000.0;
    let harsh_repair = 200.0;
    for (name, l) in reference_layouts() {
        if name.starts_with("PD") {
            continue;
        }
        let q = survival_profile(l.as_ref(), 5, budget, 0xE7);
        let markov = array_mttdl(21, harsh_mttf, harsh_repair, &q);
        let mc_res = simulate_lifetime(
            l.as_ref(),
            &LifetimeConfig {
                mttf_hours: harsh_mttf,
                repair_hours: harsh_repair,
                mission_hours: 200_000.0,
                trials: 300,
                seed: 0xE7E7,
                lifetime: reliability::montecarlo::Lifetime::Exponential,
            },
        );
        mc.row_owned(vec![
            name,
            sci(markov),
            sci(mc_res.mttdl_estimate_hours),
            mc_res.losses.to_string(),
        ]);
    }
    vec![
        (
            "E7a: MTTDL vs disk MTTF (hours; repair from E1 sims)".into(),
            table,
        ),
        (
            "E7b: Markov vs Monte-Carlo (MTTF 8000 h, repair 200 h)".into(),
            mc,
        ),
    ]
}

/// E8 — foreground latency during rebuild (online recovery).
pub fn e8_degraded_mode() -> Vec<(String, Table)> {
    let mut table = Table::new(&[
        "layout",
        "rate (req/s)",
        "rebuild (s)",
        "idle p95 (ms)",
        "degraded p95 (ms)",
        "latency blowup",
    ]);
    // Fine-grained layout (c = 100 → 900 chunks/disk) so rebuild I/O is
    // MB-scale and pacing lets foreground requests interleave, as a real
    // rebuilder would.
    let array = OiRaid::new(OiRaidConfig::new(bibd::fano(), 3, 100).unwrap()).unwrap();
    let t = array.chunks_per_disk();
    let raid5 = FlatRaid5::new(21, t).unwrap();
    // 100 GB toy disks keep the task graphs small; shape is what matters.
    let cap: u64 = 100_000_000_000;
    for rate in [50.0f64, 150.0, 300.0] {
        let scenario = DegradedScenario {
            spec: DiskSpec::hdd_7200(cap),
            chunk_bytes: cap / t as u64,
            workload: Workload::new(
                WorkloadKind::UniformRandom,
                ArrivalProcess::Poisson { rate },
                64 << 10,
                0xE8,
            ),
            workload_duration: SimTime::from_secs_f64(60.0),
            rebuild_window: 4,
            low_priority_rebuild: false,
        };
        let mut prio_scenario = scenario.clone();
        prio_scenario.low_priority_rebuild = true;
        let oi_plan = array
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Hybrid)
            .unwrap();
        let r5_plan = raid5.recovery_plan(&[0], SparePolicy::Dedicated).unwrap();
        for (name, plan, sc) in [
            ("OI-RAID", &oi_plan, &scenario),
            ("OI-RAID (prio fg)", &oi_plan, &prio_scenario),
            ("RAID5(21)", &r5_plan, &scenario),
        ] {
            let run = sc.run(plan);
            let idle = run.idle_latency.p95.as_secs_f64() * 1e3;
            let degraded = run.degraded_latency.p95.as_secs_f64() * 1e3;
            table.row_owned(vec![
                name.into(),
                f3(rate),
                f3(run.rebuild_time.as_secs_f64()),
                f3(idle),
                f3(degraded),
                f3(degraded / idle),
            ]);
        }
    }
    vec![(
        "E8: online recovery under foreground load (100 GB disks)".into(),
        table,
    )]
}

/// E9 — multi-failure recovery times.
pub fn e9_multi_failure() -> Vec<(String, Table)> {
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let t = array.chunks_per_disk();
    let mut table = Table::new(&["failure pattern", "kind", "chunks rebuilt", "time (s)"]);
    let cases: Vec<(Vec<usize>, &str)> = vec![
        (vec![0], "single"),
        (vec![0, 3], "2, different groups"),
        (vec![0, 1], "2, same group"),
        (vec![0, 3, 6], "3, three groups"),
        (vec![0, 1, 3], "3, 2+1"),
        (vec![0, 1, 2], "3, whole group"),
    ];
    for (pattern, kind) in cases {
        let plan = array
            .recovery_plan(&pattern, SparePolicy::Distributed)
            .unwrap();
        let secs = rebuild_secs(&plan, t);
        table.row_owned(vec![
            format!("{pattern:?}"),
            kind.into(),
            plan.total_writes().to_string(),
            f3(secs),
        ]);
    }
    vec![("E9: multi-failure recovery (reference array)".into(), table)]
}

/// E10 — the BIBD catalogue and the OI-RAID systems it induces.
pub fn e10_catalogue() -> Vec<(String, Table)> {
    let mut table = Table::new(&[
        "v",
        "k",
        "b",
        "r",
        "construction",
        "g",
        "n disks",
        "efficiency",
    ]);
    for e in bibd::catalogue(60) {
        // Smallest prime group size >= k admits the rotational skew.
        let g = (e.k..).find(|&x| gf::is_prime(x)).expect("prime exists");
        let m = Model::from_parameters(e.v, e.k, g);
        table.row_owned(vec![
            e.v.to_string(),
            e.k.to_string(),
            e.b.to_string(),
            e.r.to_string(),
            e.method.into(),
            g.to_string(),
            (e.v * g).to_string(),
            f3(m.efficiency()),
        ]);
    }
    vec![("E10: constructible outer designs (v <= 60)".into(), table)]
}

/// E11 — MTTDL under latent sector errors (URE-killed rebuilds), the
/// modern failure mode the two-layer slack protects against.
pub fn e11_ure_sensitivity() -> Vec<(String, Table)> {
    use reliability::ure::{array_mttdl_with_ure, exposure_profile};
    let budget = 8_000u64;
    let cap = 4 * CAPACITY; // 4 TB disks: the capacity where UREs bite
    let mut table = Table::new(&["BER (errors/bit)", "RAID5(21)", "RAID6(21)", "OI-RAID"]);
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let t = array.chunks_per_disk();
    let raid5 = FlatRaid5::new(21, t).unwrap();
    let raid6 = FlatRaid6::new(21, t).unwrap();
    let layouts: Vec<(&dyn Layout, usize, f64)> = vec![
        // (layout, profile depth, repair hours at 4 TB)
        (&raid5, 1, 4.0 * 11_111.0 / 3600.0),
        (&raid6, 2, 4.0 * 11_111.0 / 3600.0),
        (&array, 4, 4.0 * 3_333.0 / 3600.0),
    ];
    for ber in [1e-16f64, 1e-15, 1e-14, 1e-13] {
        let mut cells = vec![format!("{ber:.0e}")];
        for (l, depth, repair) in &layouts {
            let q = survival_profile(*l, *depth, budget, 0xE11);
            let u = exposure_profile(*l, *depth, cap, ber);
            cells.push(sci(array_mttdl_with_ure(21, 1.0e6, *repair, &q, &u)));
        }
        table.row_owned(cells);
    }
    vec![(
        "E11: MTTDL (h) vs bit-error rate, 4 TB disks, MTTF 1e6 h".into(),
        table,
    )]
}

/// E13 — measured concurrent (DAG) vs serial rebuild on the byte-level store.
///
/// Unlike E1 (discrete-event simulation), this runs the plan-driven rebuild
/// engine against real bytes on latency-injected block devices: each chunk
/// read sleeps for a disk-like service time, so the wall-clock ratio shows
/// the genuine payoff of draining every surviving disk concurrently. Also
/// reports the per-device I/O counters of a DAG single-failure run —
/// the measured counterpart of the paper's balanced-rebuild-load claim.
pub fn e13_parallel_rebuild() -> Vec<(String, Table)> {
    use oi_raid::RebuildMode;
    use std::time::Duration;

    const CHUNK: usize = 4096;
    let read_latency = Duration::from_micros(300);
    let cfg = OiRaidConfig::reference();
    let make_store = || crate::closed_loop::slow_read_store(&cfg, CHUNK, read_latency);
    // A rebuilt store is bit-identical to its pre-failure self, so the same
    // two stores serve every failure pattern in sequence.
    let serial = make_store();
    let dag = make_store();
    let mut timing = Table::new(&[
        "failed disks",
        "chunks",
        "reads",
        "serial (ms)",
        "dag (ms)",
        "workers",
        "speedup",
    ]);
    let mut single_report = None;
    for pattern in [vec![4usize], vec![2, 9], vec![2, 9, 17]] {
        for &d in &pattern {
            serial.fail_disk(d).expect("valid disk");
            dag.fail_disk(d).expect("valid disk");
        }
        let rs = serial
            .rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid)
            .expect("recoverable pattern");
        let rp = dag
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .expect("recoverable pattern");
        assert_eq!(rs.total_reads(), rp.total_reads(), "same read schedule");
        let (s_ms, p_ms) = (rs.wall.as_secs_f64() * 1e3, rp.wall.as_secs_f64() * 1e3);
        timing.row_owned(vec![
            format!("{pattern:?}"),
            rp.chunks_rebuilt.to_string(),
            rp.total_reads().to_string(),
            f3(s_ms),
            f3(p_ms),
            rp.workers.to_string(),
            f3(s_ms / p_ms),
        ]);
        if pattern.len() == 1 {
            single_report = Some(rp);
        }
    }
    let mut per_device = Table::new(&["disk", "reads", "writes", "bytes read", "bytes written"]);
    let report = single_report.expect("single-failure pattern ran");
    for (disk, io) in report.device_io.iter().enumerate() {
        per_device.row_owned(vec![
            disk.to_string(),
            io.reads.to_string(),
            io.writes.to_string(),
            io.bytes_read.to_string(),
            io.bytes_written.to_string(),
        ]);
    }
    vec![
        (
            "E13: measured dag vs serial rebuild (21 disks, 300us/read devices)".into(),
            timing,
        ),
        (
            "E13: per-device I/O of the dag single-failure rebuild (disk 4)".into(),
            per_device,
        ),
    ]
}

/// E14 — kernel-path ablation: microbenchmark GiB/s of the XOR and
/// GF(2^8) multiply kernels per dispatch path, and the end-to-end rebuild
/// throughput they buy on pure in-memory devices (no injected latency, so
/// wall time is compute plus memcpy — the kernels' share of a rebuild).
///
/// Uses [`gf::kernels::force_path`] to pin each path process-wide; the
/// experiments binary is single-threaded between rebuilds, so the override
/// is safe here (unlike in the parallel test runner).
pub fn e14_kernel_throughput() -> Vec<(String, Table)> {
    use gf::kernels::{self, KernelPath, MulTable};
    use oi_raid::{OiRaidStore, RebuildMode};
    use std::time::{Duration, Instant};

    /// Measured throughput of `f` over `bytes`-sized passes, in GiB/s.
    fn gibs(bytes: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm-up
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < Duration::from_millis(120) {
            f();
            iters += 1;
        }
        (bytes as u64 * iters) as f64 / start.elapsed().as_secs_f64() / (1u64 << 30) as f64
    }

    const LEN: usize = 1 << 20;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst: Vec<u8> = (0..LEN).map(|i| (i * 17 + 3) as u8).collect();
    let table_57 = MulTable::new(0x57);

    let mut micro = Table::new(&["kernel", "path", "GiB/s", "speedup vs scalar"]);
    let xor_paths: Vec<(&str, f64)> = {
        let mut v = vec![
            (
                "scalar",
                gibs(LEN, || kernels::scalar::xor_acc(&mut dst, &src)),
            ),
            ("wide", gibs(LEN, || kernels::xor_acc_wide(&mut dst, &src))),
        ];
        v.push(("dispatched", gibs(LEN, || kernels::xor_acc(&mut dst, &src))));
        v
    };
    let xor_base = xor_paths[0].1;
    for (name, rate) in &xor_paths {
        micro.row_owned(vec![
            "xor_acc".into(),
            (*name).into(),
            f3(*rate),
            f3(rate / xor_base),
        ]);
    }
    let mul_paths: Vec<(&str, f64)> = {
        let mut v = vec![
            (
                "scalar",
                gibs(LEN, || kernels::scalar::mul_acc_slice(0x57, &src, &mut dst)),
            ),
            (
                "wide",
                gibs(LEN, || table_57.mul_acc_slice_wide(&src, &mut dst)),
            ),
        ];
        if kernels::simd_available() {
            v.push((
                "simd",
                gibs(LEN, || {
                    table_57.mul_acc_slice_simd(&src, &mut dst);
                }),
            ));
        }
        v.push((
            "dispatched",
            gibs(LEN, || table_57.mul_acc_slice(&src, &mut dst)),
        ));
        v
    };
    let mul_base = mul_paths[0].1;
    for (name, rate) in &mul_paths {
        micro.row_owned(vec![
            "mul_acc_slice".into(),
            (*name).into(),
            f3(*rate),
            f3(rate / mul_base),
        ]);
    }

    // End-to-end: rebuild a failed disk of a byte store on raw MemDevices
    // (reads are memcpy, no latency injection) under each forced path.
    const CHUNK: usize = 128 << 10;
    let cfg = OiRaidConfig::new(bibd::fano(), 3, 16).expect("valid config");
    let store = OiRaidStore::new(cfg, CHUNK).expect("valid config");
    crate::closed_loop::prefill(&store);
    let mut rebuild = Table::new(&[
        "path",
        "chunks",
        "serial (ms)",
        "serial (MiB/s)",
        "dag (ms)",
        "speedup vs scalar",
    ]);
    let forced = [
        Some(KernelPath::Scalar),
        Some(KernelPath::Wide),
        None, // auto: SIMD where available
    ];
    let mut scalar_ms = 0.0;
    for path in forced {
        kernels::force_path(path);
        let label = match path {
            Some(p) => p.name(),
            None => "auto",
        };
        // A rebuilt store is bit-identical to its pre-failure self, so one
        // store serves every path in sequence.
        store.fail_disk(4).expect("valid disk");
        let rs = store
            .rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid)
            .expect("recoverable");
        store.fail_disk(4).expect("valid disk");
        let rp = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .expect("recoverable");
        let s_ms = rs.wall.as_secs_f64() * 1e3;
        let p_ms = rp.wall.as_secs_f64() * 1e3;
        if path == Some(KernelPath::Scalar) {
            scalar_ms = s_ms;
        }
        let mib = (rs.chunks_rebuilt as usize * CHUNK) as f64 / (1 << 20) as f64;
        rebuild.row_owned(vec![
            label.into(),
            rs.chunks_rebuilt.to_string(),
            f3(s_ms),
            f3(mib / (s_ms / 1e3)),
            f3(p_ms),
            f3(scalar_ms / s_ms),
        ]);
    }
    kernels::force_path(None);
    vec![
        (
            "E14a: kernel microbenchmarks, 1 MiB buffers (GiB/s per path)".into(),
            micro,
        ),
        (
            "E14b: single-disk rebuild on in-memory devices per kernel path (128 KiB chunks)"
                .into(),
            rebuild,
        ),
    ]
}

/// A2 — recovery-strategy ablation (simulated times).
pub fn a2_strategy_ablation() -> Vec<(String, Table)> {
    let mut table = Table::new(&[
        "config",
        "strategy",
        "reads",
        "time (s)",
        "speedup vs inner",
    ]);
    for (v, k, g) in [(7usize, 3usize, 3usize), (13, 4, 5)] {
        let array = sweep_array(v, k, g);
        let t = array.chunks_per_disk();
        let mut inner_time = 0.0;
        for s in RecoveryStrategy::ALL {
            let plan = array
                .recovery_plan_with_strategy(0, SparePolicy::Distributed, s)
                .unwrap();
            let secs = rebuild_secs(&plan, t);
            if s == RecoveryStrategy::Inner {
                inner_time = secs;
            }
            table.row_owned(vec![
                format!("v={v},k={k},g={g}"),
                s.label().into(),
                plan.total_reads().to_string(),
                f3(secs),
                f3(inner_time / secs),
            ]);
        }
    }
    vec![("A2: recovery strategy ablation".into(), table)]
}

/// E15 — telemetry overhead: per-call cost of every hot-path telemetry
/// primitive, and the end-to-end wall-time cost of running a rebuild fully
/// observed (stage histograms + progress) versus with telemetry
/// globally disabled. The observed/off ratio is the number the "always-on"
/// claim rests on; the target is < 2 % on a compute-bound rebuild (no
/// injected device latency, so instrumentation has nowhere to hide).
pub fn e15_telemetry_overhead() -> Vec<(String, Table)> {
    use oi_raid::{OiRaidStore, RebuildMode, RebuildObserver};
    use std::time::Instant;
    use telemetry::{Histogram, Registry};

    /// Mean ns per call of `f` over `iters` iterations (one warm-up call).
    fn ns_per(iters: u64, mut f: impl FnMut()) -> f64 {
        f();
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }

    telemetry::set_enabled(true);
    let h = Histogram::new();
    let mut x = 0x9E37_79B9u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> (x % 48)
    };
    let record_on = ns_per(1_000_000, || h.record(next()));
    telemetry::set_enabled(false);
    let record_off = ns_per(1_000_000, || h.record(42));
    telemetry::set_enabled(true);
    let snapshot_p99 = ns_per(20_000, || {
        std::hint::black_box(h.snapshot().p99());
    });
    let reg = Registry::new();
    reg.register_histogram(
        "lat_ns",
        "latency",
        &[],
        std::sync::Arc::new(Histogram::new()),
    );
    reg.counter("ops_total", "ops", &[]).inc();
    let export = ns_per(5_000, || {
        std::hint::black_box(reg.prometheus());
    });

    let mut hot = Table::new(&["operation", "ns/op"]);
    for (op, ns) in [
        ("histogram record (enabled)", record_on),
        ("histogram record (disabled)", record_off),
        ("snapshot + p99", snapshot_p99),
        ("prometheus export (2 series)", export),
    ] {
        hot.row_owned(vec![op.into(), f3(ns)]);
    }

    /// Medians of `measure(i, on)` over rebuilds `i` with telemetry off
    /// (`on` false) and on, alternating rebuild by rebuild so the box's
    /// drift hits both: two warm-ups apiece, then `RUNS` measured each.
    fn alternated(mut measure: impl FnMut(usize, bool) -> f64) -> [f64; 2] {
        let mut got: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * (2 + RUNS) {
            let on = i % 2 == 1;
            telemetry::set_enabled(on);
            let x = measure(i, on);
            if i >= 4 {
                got[usize::from(on)].push(x);
            }
        }
        telemetry::set_enabled(true);
        got.map(|mut r| {
            r.sort_by(f64::total_cmp);
            r[RUNS / 2]
        })
    }
    const RUNS: usize = 41;

    // End-to-end: serial rebuild on pure in-memory devices — all compute,
    // so telemetry has maximal relative weight. A rebuild takes ~0.2 ms,
    // so only alternated medians resolve a few per cent.
    const CHUNK: usize = 64 << 10;
    let cfg = OiRaidConfig::reference();
    let store = OiRaidStore::new(cfg, CHUNK).expect("reference store");
    crate::closed_loop::prefill(&store);
    let [off_ms, on_ms] = alternated(|_, observed| {
        store.fail_disk(4).expect("valid disk");
        let report = if observed {
            let obs = RebuildObserver::default();
            store
                .rebuild_observed(RebuildMode::Serial, RecoveryStrategy::Hybrid, &obs)
                .expect("recoverable")
        } else {
            store
                .rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid)
                .expect("recoverable")
        };
        report.wall.as_secs_f64() * 1e3
    });
    let overhead = (on_ms - off_ms) / off_ms * 100.0;

    let mut e2e = Table::new(&["configuration", "median wall (ms)", "overhead (%)"]);
    e2e.row_owned(vec!["telemetry disabled".into(), f3(off_ms), f3(0.0)]);
    e2e.row_owned(vec![
        "fully observed (histograms+progress)".into(),
        f3(on_ms),
        f3(overhead),
    ]);

    // The rebuild every serving workload of `oibench` runs: the DAG
    // executor on two workers, 4 KiB chunks, a 9 MiB disk of Fano x 3 —
    // per chunk the most telemetry, and always traced (`trace_always`)
    // unless the kill switch is off. A different disk each time; median
    // MiB/s of each configuration.
    const SMALL: usize = 4 << 10;
    let small_cfg = OiRaidConfig::new(bibd::fano(), 3, 256).expect("Fano x 3");
    let small = OiRaidStore::new(small_cfg, SMALL).expect("serving store");
    small.set_dag_workers(Some(2));
    crate::closed_loop::prefill(&small);
    let disks = small.array().disks();
    let [small_off, small_on] = alternated(|i, _| {
        small.fail_disk((i * 5 + 4) % disks).expect("valid disk");
        let report = small
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Outer)
            .expect("recoverable");
        let mib = report.bytes_rebuilt as f64 / (1 << 20) as f64;
        mib / report.wall.as_secs_f64()
    });
    let mut dag = Table::new(&["configuration", "median MiB/s", "overhead (%)"]);
    dag.row_owned(vec!["telemetry disabled".into(), f3(small_off), f3(0.0)]);
    dag.row_owned(vec![
        "observed and traced (default)".into(),
        f3(small_on),
        f3((small_off / small_on - 1.0) * 100.0),
    ]);

    vec![
        ("E15a: telemetry hot-path cost per call".into(), hot),
        (
            format!(
                "E15b: serial rebuild, in-memory devices, {} KiB chunks, \
                 median of {RUNS} alternated",
                CHUNK >> 10
            ),
            e2e,
        ),
        (
            format!(
                "E15c: DAG rebuild (2 workers), in-memory devices, {} KiB chunks, \
                 median of {RUNS} alternated",
                SMALL >> 10
            ),
            dag,
        ),
    ]
}

/// E16 — self-healing rebuild under injected faults: every surviving disk
/// faults transiently at 10/25/50‰ (reads *and* writes) with latent sector
/// errors sprinkled on top, and the rebuild must still finish bit-identical
/// with zero aborts. The overhead column compares against the fault-free
/// wall time on the same latency-modelled devices; the second table runs
/// the repairing scrub over a latent-error field.
pub fn e16_self_healing() -> Vec<(String, Table)> {
    use blockdev::{BlockDevice, FaultConfig, FaultInjectingDevice, MemDevice};
    use oi_raid::{OiRaidStore, RebuildMode};
    use std::time::Duration;

    const CHUNK: usize = 4096;
    let read_latency = Duration::from_micros(100);
    let cfg = OiRaidConfig::reference();
    let make_store = || crate::closed_loop::slow_read_store(&cfg, CHUNK, read_latency);
    let image = |store: &OiRaidStore<FaultInjectingDevice<MemDevice>>, d: usize| -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; CHUNK];
        for o in 0..cfg.chunks_per_disk() {
            store.devices()[d]
                .read_chunk(o, &mut buf)
                .expect("readable");
            out.extend_from_slice(&buf);
        }
        out
    };

    let mut rebuild = Table::new(&[
        "transient (permille)",
        "latent (permille)",
        "outcome",
        "rounds",
        "retries",
        "exhausted",
        "reroutes",
        "latent repairs",
        "wall (ms)",
        "overhead (x)",
        "bit-identical",
    ]);
    const RUNS: usize = 3;
    let mut baseline_ms = None;
    for (transient, latent) in [(0u16, 0u16), (10, 2), (25, 10), (50, 50)] {
        let mut walls = Vec::with_capacity(RUNS);
        let mut last = None;
        let mut identical = true;
        for run in 0..RUNS {
            let store = make_store();
            let pristine: Vec<Vec<u8>> = (0..21).map(|d| image(&store, d)).collect();
            for (d, dev) in store.devices().iter().enumerate() {
                if d == 4 {
                    continue;
                }
                dev.set_config(FaultConfig {
                    seed: 0xE16 ^ ((d + 21 * run) as u64).wrapping_mul(0x9E37_79B9),
                    transient_read_per_mille: transient,
                    transient_write_per_mille: transient,
                    latent_per_mille: latent,
                    read_latency,
                    ..FaultConfig::default()
                });
            }
            store.fail_disk(4).expect("valid disk");
            let report = store
                .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                .expect("self-healing rebuild never errors on faults");
            // Disarm (keeping the latency model) before verifying bytes.
            for dev in store.devices() {
                dev.set_config(FaultConfig::latency(read_latency, Duration::ZERO));
            }
            identical &= (0..21).all(|d| image(&store, d) == pristine[d]);
            walls.push(report.wall.as_secs_f64() * 1e3);
            last = Some(report);
        }
        walls.sort_by(f64::total_cmp);
        let ms = walls[RUNS / 2];
        let report = last.expect("ran");
        let overhead = match baseline_ms {
            None => {
                baseline_ms = Some(ms);
                1.0
            }
            Some(base) => ms / base,
        };
        rebuild.row_owned(vec![
            transient.to_string(),
            latent.to_string(),
            report.outcome.to_string(),
            report.rounds.to_string(),
            report.retries.to_string(),
            report.retries_exhausted.to_string(),
            report.reroutes.to_string(),
            report.latent_repairs.to_string(),
            f3(ms),
            f3(overhead),
            identical.to_string(),
        ]);
    }

    let mut scrub = Table::new(&[
        "latent (permille)",
        "scanned",
        "latent repairs",
        "unrecoverable",
        "retries",
        "wall (ms)",
        "second pass clean",
    ]);
    for latent in [10u16, 25, 50] {
        let store = make_store();
        for (d, dev) in store.devices().iter().enumerate() {
            dev.set_config(FaultConfig {
                seed: 0x5C2B ^ (d as u64).wrapping_mul(0x9E37_79B9),
                latent_per_mille: latent,
                read_latency,
                ..FaultConfig::default()
            });
        }
        let report = store.scrub();
        let clean = store.scrub().is_clean();
        scrub.row_owned(vec![
            latent.to_string(),
            report.scanned.to_string(),
            report.repaired_latent.len().to_string(),
            report.unrecoverable.len().to_string(),
            report.retries.to_string(),
            f3(report.wall.as_secs_f64() * 1e3),
            clean.to_string(),
        ]);
    }

    vec![
        (
            "E16a: dag rebuild of disk 4 under injected faults (100us/read devices)".into(),
            rebuild,
        ),
        (
            "E16b: repairing scrub over a latent-sector field (21 disks)".into(),
            scrub,
        ),
    ]
}

/// E17 — online I/O during rebuild (claims C2/C5): foreground read latency
/// and rebuild-time inflation at several `QosConfig` throttle settings.
///
/// Devices carry a per-read service latency behind a spindle mutex, so
/// rebuild reads and foreground reads genuinely contend. Per setting, a
/// rebuild storm (fail disk 4 → rebuild, repeatedly) runs on one thread
/// while the main thread issues foreground reads of chunks on the other
/// 20 disks; the store's foreground histogram yields p50/p99. The
/// foreground workload avoids the failed disk on purpose: degraded-read
/// amplification is measured by E8, this experiment isolates scheduler
/// interference.
pub fn e17_online_qos() -> Vec<(String, Table)> {
    use blockdev::{FaultInjectingDevice, MemDevice};
    use oi_raid::{OiRaidStore, QosConfig, RebuildMode, RebuildOutcome};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    telemetry::set_enabled(true);
    const CHUNK: usize = 4096;
    /// Each setting's rebuild storm runs at least this long, so every row's
    /// foreground percentiles rest on comparable sample counts.
    const STORM: Duration = Duration::from_millis(250);
    let read_latency = Duration::from_micros(300);
    let cfg = OiRaidConfig::reference();
    let make_store = || crate::closed_loop::slow_read_store(&cfg, CHUNK, read_latency);
    // Foreground working set: data chunks that do not live on disk 4.
    let fg_set = |store: &OiRaidStore<FaultInjectingDevice<MemDevice>>| -> Vec<usize> {
        (0..store.data_chunks())
            .filter(|&i| store.locate(i).disk != 4)
            .collect()
    };

    // Healthy baseline: the same foreground loop with no rebuild running.
    let (healthy_p50, healthy_p99) = {
        let store = make_store();
        let set = fg_set(&store);
        for i in 0..1500usize {
            store.read_data(set[i % set.len()]).expect("healthy read");
        }
        let snap = store.telemetry().foreground_read_latency().snapshot();
        (snap.p50(), snap.p99())
    };

    let mut table = Table::new(&[
        "throttle (chunks/s)",
        "rebuilds",
        "wall/rebuild (ms)",
        "inflation (x)",
        "waits/rebuild",
        "fg reads",
        "fg p50 (us)",
        "fg p99 (us)",
        "p99 vs healthy (x)",
    ]);
    let mut base_wall = None;
    for setting in [None, Some(3000.0), Some(1000.0), Some(300.0)] {
        let store = make_store();
        match setting {
            None => store.set_qos(QosConfig::unlimited()),
            Some(rate) => {
                let mut q = QosConfig::throttled(rate);
                q.burst_chunks = 4;
                store.set_qos(q);
            }
        }
        let set = fg_set(&store);
        let done = AtomicBool::new(false);
        let (cycles, wall, waits) = std::thread::scope(|s| {
            let storm = s.spawn(|| {
                let began = Instant::now();
                let (mut cycles, mut wall, mut waits) = (0u32, Duration::ZERO, 0u64);
                while began.elapsed() < STORM || cycles == 0 {
                    store.fail_disk(4).expect("valid disk");
                    let r = store
                        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                        .expect("rebuild");
                    assert_eq!(r.outcome, RebuildOutcome::Complete);
                    cycles += 1;
                    wall += r.wall;
                    waits += r.throttle_waits;
                }
                done.store(true, Ordering::Relaxed);
                (cycles, wall, waits)
            });
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) && i < 2_000_000 {
                store.read_data(set[i % set.len()]).expect("online read");
                i += 1;
            }
            storm.join().expect("rebuild storm")
        });
        let snap = store.telemetry().foreground_read_latency().snapshot();
        let per_cycle_ms = wall.as_secs_f64() * 1e3 / f64::from(cycles);
        let inflation = match base_wall {
            None => {
                base_wall = Some(per_cycle_ms);
                1.0
            }
            Some(base) => per_cycle_ms / base,
        };
        table.row_owned(vec![
            setting.map_or("unlimited".into(), |r| format!("{r:.0}")),
            cycles.to_string(),
            f3(per_cycle_ms),
            f3(inflation),
            f3(waits as f64 / f64::from(cycles)),
            snap.count.to_string(),
            f3(snap.p50() as f64 / 1e3),
            f3(snap.p99() as f64 / 1e3),
            f3(snap.p99() as f64 / healthy_p99 as f64),
        ]);
    }
    table.row_owned(vec![
        "healthy (no rebuild)".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "1500".into(),
        f3(healthy_p50 as f64 / 1e3),
        f3(healthy_p99 as f64 / 1e3),
        "1.000".into(),
    ]);

    vec![(
        "E17: foreground read latency vs rebuild throttle (300us/read spindles, \
         rebuild storm on disk 4)"
            .into(),
        table,
    )]
}

/// E18 — DAG-scheduled rebuild vs the serial oracle.
///
/// Two tables. **E18a** rebuilds the same 2-disk failure (disks 4 and 9)
/// on 300 µs spindles with the serial executor and with the DAG executor
/// at several pool sizes: the serial loop pays every device read and
/// writeback one after another, while the DAG keeps every surviving disk's
/// queue deep and overlaps writebacks with reads on other disks. The
/// one-worker DAG row against the serial row is the scheduler's own
/// overhead. **E18b** runs a DAG rebuild storm on one thread while the
/// main thread issues foreground RMW `write_data` calls to chunks off the
/// failed disks, and reports the foreground write percentiles — degraded
/// RMW enters through striped per-region locks rather than a store-wide
/// update lock, so foreground writes keep flowing. The `degraded` column counts
/// writes whose update set had unavailable members mid-rebuild: those skip
/// the missing devices (the implied value already reflects the write) and
/// finish in microseconds, which pulls the p50 down while a storm runs.
///
/// The fill phase runs with faults disarmed; the spindle latency is armed
/// (reads *and* writes) only once the data is in place, so every measured
/// rebuild op pays the device.
pub fn e18_dag_scheduler() -> Vec<(String, Table)> {
    use blockdev::{BlockDevice, FaultConfig, FaultInjectingDevice, MemDevice};
    use oi_raid::{OiRaidStore, RebuildMode, RebuildOutcome};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    telemetry::set_enabled(true);
    const CHUNK: usize = 4096;
    /// The rebuild storm in E18b runs at least this long.
    const STORM: Duration = Duration::from_millis(250);
    let latency = Duration::from_micros(300);
    let failed = [4usize, 9];
    let cfg = OiRaidConfig::reference();
    let chunks = {
        let probe = OiRaidStore::new(cfg.clone(), CHUNK).expect("reference store");
        probe.devices()[0].chunks()
    };
    let make_store = || {
        let devices: Vec<_> = (0..21)
            .map(|_| {
                FaultInjectingDevice::new(MemDevice::new(CHUNK, chunks), FaultConfig::default())
            })
            .collect();
        let store = OiRaidStore::with_devices(cfg.clone(), CHUNK, devices).expect("valid devices");
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..CHUNK).map(|j| (idx * 197 + j * 13 + 7) as u8).collect();
            store.write_data(idx, &chunk).expect("healthy write");
        }
        for dev in store.devices() {
            dev.set_config(FaultConfig::latency(latency, latency));
        }
        store
    };

    // E18a: engine/pool sweep over the identical 2-disk rebuild. Each
    // configuration rebuilds three times on fresh stores and keeps the
    // fastest run — wall clocks in the single-digit-millisecond range are
    // noisy on a shared machine, and the minimum is the stable estimator
    // of what the engine actually costs.
    let run_engine = |mode: RebuildMode, pool: Option<usize>| {
        let mut best: Option<oi_raid::RebuildReport> = None;
        for _ in 0..3 {
            let store = make_store();
            store.set_dag_workers(pool);
            for &d in &failed {
                store.fail_disk(d).expect("valid disk");
            }
            let report = store
                .rebuild(mode, RecoveryStrategy::Hybrid)
                .expect("rebuild");
            assert_eq!(report.outcome, RebuildOutcome::Complete);
            if best.as_ref().is_none_or(|b| report.wall < b.wall) {
                best = Some(report);
            }
        }
        best.expect("three trials ran")
    };
    let mut t1 = Table::new(&[
        "engine",
        "pool",
        "wall (ms)",
        "speedup (x)",
        "utilization",
        "steals",
        "peak ready",
        "peak disk queue",
    ]);
    let base = run_engine(RebuildMode::Serial, None);
    let base_ms = base.wall.as_secs_f64() * 1e3;
    let mut auto_speedup = 0.0;
    let runs = [
        ("serial", None, base),
        ("dag", Some(1), run_engine(RebuildMode::Dag, Some(1))),
        ("dag", Some(4), run_engine(RebuildMode::Dag, Some(4))),
        ("dag (auto)", None, run_engine(RebuildMode::Dag, None)),
    ];
    for (name, _, r) in &runs {
        let wall_ms = r.wall.as_secs_f64() * 1e3;
        let speedup = base_ms / wall_ms;
        if *name == "dag (auto)" {
            auto_speedup = speedup;
        }
        let peak_queue = r
            .device_io
            .iter()
            .map(|s| s.max_inflight)
            .max()
            .unwrap_or(0);
        t1.row_owned(vec![
            (*name).into(),
            r.workers.to_string(),
            f3(wall_ms),
            f3(speedup),
            f3(r.worker_utilization()),
            r.sched.steals.to_string(),
            r.sched.max_ready_depth.to_string(),
            peak_queue.to_string(),
        ]);
    }
    // The headline acceptance bound: the DAG engine at its default pool
    // size beats the serial executor by >= 2.0x on this workload (measured
    // 2.8-4.0x over three runs on a 2-core box; the margin absorbs CI noise).
    assert!(
        auto_speedup >= 2.0,
        "dag speedup {auto_speedup:.3} over serial below the 2.0x bound"
    );

    // E18b: foreground RMW latency while the rebuild storm runs.
    let fg_set = |store: &OiRaidStore<FaultInjectingDevice<MemDevice>>| -> Vec<usize> {
        (0..store.data_chunks())
            .filter(|&i| !failed.contains(&store.locate(i).disk))
            .collect()
    };
    let payload =
        |i: usize| -> Vec<u8> { (0..CHUNK).map(|j| (i * 41 + j * 11 + 5) as u8).collect() };
    let (healthy_p50, healthy_p99, healthy_count) = {
        let store = make_store();
        let set = fg_set(&store);
        for i in 0..300usize {
            store
                .write_data(set[i % set.len()], &payload(i))
                .expect("healthy write");
        }
        let snap = store.telemetry().foreground_write_latency().snapshot();
        (snap.p50(), snap.p99(), snap.count)
    };
    let mut t2 = Table::new(&[
        "engine",
        "rebuild cycles",
        "fg writes",
        "degraded",
        "fg p50 (ms)",
        "fg p99 (ms)",
        "p99 vs healthy (x)",
    ]);
    t2.row_owned(vec![
        "healthy (no rebuild)".into(),
        "0".into(),
        healthy_count.to_string(),
        "0".into(),
        f3(healthy_p50 as f64 / 1e6),
        f3(healthy_p99 as f64 / 1e6),
        "1.000".into(),
    ]);
    let store = make_store();
    let set = fg_set(&store);
    let done = AtomicBool::new(false);
    let (cycles, writes) = std::thread::scope(|s| {
        let storm = s.spawn(|| {
            let began = Instant::now();
            let mut cycles = 0u32;
            while began.elapsed() < STORM || cycles == 0 {
                for &d in &failed {
                    store.fail_disk(d).expect("valid disk");
                }
                let r = store
                    .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                    .expect("rebuild");
                assert_eq!(r.outcome, RebuildOutcome::Complete);
                cycles += 1;
            }
            done.store(true, Ordering::Relaxed);
            cycles
        });
        let mut i = 0usize;
        while !done.load(Ordering::Relaxed) && i < 2_000_000 {
            store
                .write_data(set[i % set.len()], &payload(i))
                .expect("online write");
            i += 1;
        }
        (storm.join().expect("rebuild storm"), i)
    });
    let snap = store.telemetry().foreground_write_latency().snapshot();
    assert!(writes > 0, "foreground made no progress under the storm");
    t2.row_owned(vec![
        "dag (auto)".into(),
        cycles.to_string(),
        snap.count.to_string(),
        store.telemetry().degraded_writes().to_string(),
        f3(snap.p50() as f64 / 1e6),
        f3(snap.p99() as f64 / 1e6),
        f3(snap.p99() as f64 / healthy_p99 as f64),
    ]);

    vec![
        (
            "E18a: rebuild engine wall clock — disks {4, 9} failed, 300us spindles \
             (reads and writes)"
                .into(),
            t1,
        ),
        (
            "E18b: foreground RMW write latency during a 2-disk rebuild storm".into(),
            t2,
        ),
    ]
}

/// E19 — the multi-tenant volume layer under closed-loop load.
///
/// Three tables driven by the same zipfian record workload (YCSB-style
/// `theta = 0.99`, 70/30 read/write, 512-byte records over 4 KiB chunks on
/// 300 us spindles). **E19a** compares the unbatched one-call-per-op path
/// against the sharded batching path at several group sizes: batching must
/// win on throughput because zipf-hot reads dedupe and same-chunk writes
/// coalesce into a single RMW. **E19b** holds the batched path fixed and
/// sweeps the array state (healthy, two disks down, rebuild storm running).
/// **E19c** measures tenant isolation: a rate-capped tenant hammering the
/// same store must not move an uncapped tenant's p99 materially.
///
/// The client count (default 120 000 simulated closed-loop clients; override
/// with `OI_E19_CLIENTS`) sets both the op volume and the per-client rng
/// streams; each client issues at most one op per closed-loop turn.
///
/// # Panics
///
/// Panics if the batched path fails to beat the unbatched path by the
/// `1.3x` acceptance bound, or if the capped tenant pushes the uncapped
/// tenant's read p99 beyond `1.5x` its solo value.
pub fn e19_volume_closed_loop() -> Vec<(String, Table)> {
    use crate::closed_loop::{closed_loop, prefilled_store, spindles_on, volumes, LoopSpec};
    use blockdev::{FaultConfig, FaultInjectingDevice, MemDevice};
    use oi_raid::{RebuildMode, RebuildOutcome};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use volume::{TenantClass, TenantId, VolumeId};

    telemetry::set_enabled(true);
    const CHUNK: usize = 4096;
    const WORKERS: usize = 8;
    let latency = Duration::from_micros(300);
    let clients: usize = std::env::var("OI_E19_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000)
        .max(WORKERS);
    let cfg = OiRaidConfig::reference();

    // A fresh manager per measurement: prefill runs with latency off, then
    // the spindle delay is switched on for the measured phase.
    let make_mgr = |tenants: &[(&str, TenantClass)]| {
        let device = |_, chunks| {
            FaultInjectingDevice::new(MemDevice::new(CHUNK, chunks), FaultConfig::default())
        };
        let store = prefilled_store(&cfg, CHUNK, device, None);
        spindles_on(&store, latency);
        volumes(store, WORKERS * 2, tenants)
    };
    // The loop of one tenant: `seed` decorrelates phases.
    let spec = |id: (TenantId, VolumeId), records, total_ops, group, batched, seed| LoopSpec {
        tenant: id.0,
        vol: id.1,
        records,
        total_ops,
        clients,
        group,
        batched,
        seed,
        zipf_seed: 0xE19 ^ seed,
        done: None,
        workers: WORKERS,
    };

    let ms = |ns: u64| f3(ns as f64 / 1e6);
    let one_tenant: &[(&str, TenantClass)] = &[("t0", TenantClass::default())];
    let ops_a = clients.clamp(4_096, 122_880);
    let ops_unbatched = ops_a.min(12_288);

    // E19a: unbatched baseline vs batched at several group sizes.
    let mut t1 = Table::new(&[
        "path",
        "ops",
        "wall (ms)",
        "ops/s",
        "read p50 (ms)",
        "read p99 (ms)",
        "read p999 (ms)",
        "write p99 (ms)",
    ]);
    let mut row = |name: &str, r: &crate::closed_loop::LoopResult| {
        t1.row_owned(vec![
            name.into(),
            r.ops.to_string(),
            f3(r.wall.as_secs_f64() * 1e3),
            f3(r.ops_per_sec()),
            ms(r.read_p50),
            ms(r.read_p99),
            ms(r.read_p999),
            ms(r.write_p99),
        ]);
    };
    let unbatched = {
        let (mgr, ids, records) = make_mgr(one_tenant);
        closed_loop(&mgr, &spec(ids[0], records, ops_unbatched, 64, false, 1))
    };
    row("unbatched", &unbatched);
    let mut batched_best = 0.0f64;
    let mut batched_p99 = u64::MAX;
    for group in [64usize, 256, 1024] {
        let (mgr, ids, records) = make_mgr(one_tenant);
        let r = closed_loop(&mgr, &spec(ids[0], records, ops_a, group, true, 2));
        batched_best = batched_best.max(r.ops_per_sec());
        batched_p99 = batched_p99.min(r.read_p99);
        row(&format!("batched (group {group})"), &r);
    }
    // The headline acceptance bound: batching buys >= 1.3x on throughput
    // or tail latency over one-call-per-op for the same workload.
    let tput_ratio = batched_best / unbatched.ops_per_sec();
    let p99_ratio = unbatched.read_p99 as f64 / batched_p99.max(1) as f64;
    assert!(
        tput_ratio >= 1.3 || p99_ratio >= 1.3,
        "batching below the 1.3x bound: throughput {tput_ratio:.3}x, read p99 {p99_ratio:.3}x"
    );

    // E19b: the batched path across array states.
    let ops_b = (clients / 4).clamp(4_096, 30_720);
    let mut t2 = Table::new(&[
        "state",
        "ops",
        "ops/s",
        "read p50 (ms)",
        "read p99 (ms)",
        "read p999 (ms)",
        "write p99 (ms)",
        "degraded ops",
    ]);
    for state in ["healthy", "degraded (2 disks)", "rebuilding"] {
        let (mgr, ids, records) = make_mgr(one_tenant);
        let state_loop = spec(ids[0], records, ops_b, 256, true, 3);
        if state != "healthy" {
            mgr.store().fail_disk(4).expect("valid disk");
            mgr.store().fail_disk(9).expect("valid disk");
        }
        let r = if state == "rebuilding" {
            let workload_done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let storm = s.spawn(|| {
                    // Keep a rebuild running for the whole measured window.
                    loop {
                        let rep = mgr
                            .store()
                            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                            .expect("rebuild");
                        assert_eq!(rep.outcome, RebuildOutcome::Complete);
                        if workload_done.load(Ordering::Relaxed) {
                            break;
                        }
                        mgr.store().fail_disk(4).expect("valid disk");
                        mgr.store().fail_disk(9).expect("valid disk");
                    }
                });
                let r = closed_loop(&mgr, &state_loop);
                workload_done.store(true, Ordering::Relaxed);
                storm.join().expect("rebuild storm");
                r
            })
        } else {
            closed_loop(&mgr, &state_loop)
        };
        let degraded =
            mgr.store().telemetry().degraded_reads() + mgr.store().telemetry().degraded_writes();
        t2.row_owned(vec![
            state.into(),
            r.ops.to_string(),
            f3(r.ops_per_sec()),
            ms(r.read_p50),
            ms(r.read_p99),
            ms(r.read_p999),
            ms(r.write_p99),
            degraded.to_string(),
        ]);
    }

    // E19c: QoS isolation. Tenant A (uncapped) runs the same closed loop
    // solo and then alongside tenant B, which is rate-capped and must not
    // move A's tail.
    let ops_c = (clients / 5).clamp(4_096, 24_576);
    let two_tenants: &[(&str, TenantClass)] = &[
        ("tenant-a", TenantClass::default()),
        ("tenant-b", TenantClass::capped(600.0)),
    ];
    let solo = {
        let (mgr, ids, records) = make_mgr(two_tenants);
        closed_loop(&mgr, &spec(ids[0], records, ops_c, 256, true, 4))
    };
    let (shared_a, shared_b) = {
        let (mgr, ids, records) = make_mgr(two_tenants);
        let a_done = AtomicBool::new(false);
        let b_loop = LoopSpec {
            done: Some(&a_done),
            workers: 2,
            ..spec(ids[1], records, usize::MAX / 2, 8, true, 5)
        };
        std::thread::scope(|s| {
            let b = s.spawn(|| closed_loop(&mgr, &b_loop));
            let a = closed_loop(&mgr, &spec(ids[0], records, ops_c, 256, true, 4));
            a_done.store(true, Ordering::Relaxed);
            (a, b.join().expect("tenant B loop"))
        })
    };
    let p99_push = shared_a.read_p99 as f64 / solo.read_p99.max(1) as f64;
    let mut t3 = Table::new(&[
        "tenant",
        "scenario",
        "ops",
        "ops/s",
        "read p99 (ms)",
        "write p99 (ms)",
        "p99 vs solo (x)",
    ]);
    t3.row_owned(vec![
        "A (uncapped)".into(),
        "solo".into(),
        solo.ops.to_string(),
        f3(solo.ops_per_sec()),
        ms(solo.read_p99),
        ms(solo.write_p99),
        "1.000".into(),
    ]);
    t3.row_owned(vec![
        "A (uncapped)".into(),
        "with capped B".into(),
        shared_a.ops.to_string(),
        f3(shared_a.ops_per_sec()),
        ms(shared_a.read_p99),
        ms(shared_a.write_p99),
        f3(p99_push),
    ]);
    t3.row_owned(vec![
        "B (600 ops/s cap)".into(),
        "with A".into(),
        shared_b.ops.to_string(),
        f3(shared_b.ops_per_sec()),
        ms(shared_b.read_p99),
        ms(shared_b.write_p99),
        "-".into(),
    ]);
    // The isolation acceptance bound: B cannot push A's read p99 past
    // 1.5x its solo value.
    assert!(
        p99_push <= 1.5,
        "capped tenant pushed the uncapped tenant's p99 {p99_push:.3}x (bound 1.5x)"
    );

    vec![
        (
            format!(
                "E19a: closed-loop volume throughput — {clients} zipf(0.99) clients, \
                 70/30 read/write, 512B records, 300us spindles"
            ),
            t1,
        ),
        (
            "E19b: the batched path across array states (group 256)".into(),
            t2,
        ),
        (
            "E19c: tenant isolation — rate-capped B vs uncapped A's tail".into(),
            t3,
        ),
    ]
}

/// E20: what end-to-end request tracing costs. The E19 batched closed
/// loop (zipf clients, 70/30 mix, 300us spindles) runs three times over
/// identical fresh arrays: sampling off, the default 1-in-64, and 1-in-1
/// (every request traced through volume → wave → store → device). The
/// acceptance bound is the default setting: within 5% of the untraced
/// throughput.
pub fn e20_tracing_overhead() -> Vec<(String, Table)> {
    use crate::closed_loop::{closed_loop, prefilled_store, spindles_on, volumes, LoopSpec};
    use blockdev::{FaultConfig, FaultInjectingDevice, MemDevice};
    use std::time::Duration;
    use volume::TenantClass;

    telemetry::set_enabled(true);
    const CHUNK: usize = 4096;
    const WORKERS: usize = 8;
    const GROUP: usize = 256;
    let latency = Duration::from_micros(300);
    let clients: usize = std::env::var("OI_E20_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6_000)
        .max(WORKERS);
    let total_ops = (clients * 4).clamp(4_096, 24_576);
    let cfg = OiRaidConfig::reference();

    // One measured closed loop over a fresh prefilled array: `WORKERS`
    // threads share `clients` logical clients and submit batched groups.
    let measure = |sample: Option<u32>, seed: u64| -> (usize, Duration, u64) {
        telemetry::set_trace_sample(sample);
        let device = |_, chunks| {
            FaultInjectingDevice::new(MemDevice::new(CHUNK, chunks), FaultConfig::default())
        };
        let store = prefilled_store(&cfg, CHUNK, device, None);
        spindles_on(&store, latency);
        let (mgr, ids, records) = volumes(store, WORKERS * 2, &[("t0", TenantClass::default())]);
        let r = closed_loop(
            &mgr,
            &LoopSpec {
                tenant: ids[0].0,
                vol: ids[0].1,
                records,
                total_ops,
                clients,
                group: GROUP,
                batched: true,
                seed,
                zipf_seed: 0xE20 ^ seed,
                done: None,
                workers: WORKERS,
            },
        );
        (r.ops, r.wall, r.read_p99)
    };

    // Best of two runs per setting, interleaved, so scheduler noise does
    // not masquerade as tracing overhead.
    let modes: &[(&str, Option<u32>)] = &[
        ("off", None),
        ("1/64 (default)", Some(64)),
        ("1/1 (every request)", Some(1)),
    ];
    let mut best: Vec<(usize, Duration, u64)> = vec![(0, Duration::MAX, 0); modes.len()];
    for round in 0..2u64 {
        for (i, (_, sample)) in modes.iter().enumerate() {
            let r = measure(*sample, 11 + round);
            if r.1 < best[i].1 {
                best[i] = r;
            }
        }
    }
    telemetry::set_trace_sample(Some(64));

    let off_rate = best[0].0 as f64 / best[0].1.as_secs_f64();
    let mut t = Table::new(&[
        "sampling",
        "ops",
        "wall (ms)",
        "ops/s",
        "read p99 (ms)",
        "overhead vs off (%)",
    ]);
    let mut overhead_default = 0.0f64;
    for (i, (name, _)) in modes.iter().enumerate() {
        let (ops, wall, p99) = best[i];
        let rate = ops as f64 / wall.as_secs_f64();
        let overhead = (off_rate / rate - 1.0) * 100.0;
        if i == 1 {
            overhead_default = overhead;
        }
        t.row_owned(vec![
            (*name).into(),
            ops.to_string(),
            f3(wall.as_secs_f64() * 1e3),
            f3(rate),
            f3(p99 as f64 / 1e6),
            if i == 0 { "-".into() } else { f3(overhead) },
        ]);
    }
    // The acceptance bound: default sampling costs < 5% throughput.
    assert!(
        overhead_default < 5.0,
        "default 1/64 sampling cost {overhead_default:.2}% (bound 5%)"
    );

    vec![(
        format!(
            "E20: end-to-end tracing overhead — {clients} zipf(0.99) clients, \
             70/30 read/write, batched group {GROUP}, 300us spindles"
        ),
        t,
    )]
}

/// The E21/E22 measurement: E19's batched closed loop (group 256, eight
/// workers with one client each) over a fresh prefilled array of real file
/// devices in `dir` behind the 300us spindle model, journaled under
/// `policy` if given — with the background flusher a `Timed` deployment
/// would run. Returns the loop's result and `oi_flush_waves_total`;
/// removes `dir`.
fn file_closed_loop(
    cfg: &OiRaidConfig,
    dir: &std::path::Path,
    policy: Option<blockdev::FlushPolicy>,
    seed: u64,
    total_ops: usize,
) -> (crate::closed_loop::LoopResult, u64) {
    use crate::closed_loop::{closed_loop, prefilled_store, spindles_on, volumes, LoopSpec};
    use blockdev::{FaultConfig, FaultInjectingDevice, FileDevice};

    const CHUNK: usize = 4096;
    const WORKERS: usize = 8;
    std::fs::create_dir_all(dir).expect("bench dir");
    let device = |d, chunks| {
        let file = FileDevice::create(dir.join(format!("disk-{d:03}.img")), CHUNK, chunks)
            .expect("device file");
        FaultInjectingDevice::new(file, FaultConfig::default())
    };
    let store = prefilled_store(cfg, CHUNK, device, policy.map(|p| (dir, p)));
    spindles_on(&store, std::time::Duration::from_micros(300));
    let tenants = [("t0", volume::TenantClass::default())];
    let (mgr, ids, records) = volumes(store, WORKERS * 2, &tenants);
    let flusher = mgr.store().spawn_flusher();
    let result = closed_loop(
        &mgr,
        &LoopSpec {
            tenant: ids[0].0,
            vol: ids[0].1,
            records,
            total_ops,
            clients: WORKERS,
            group: 256,
            batched: true,
            seed,
            zipf_seed: seed,
            done: None,
            workers: WORKERS,
        },
    );
    drop(flusher);
    let reg = telemetry::Registry::new();
    mgr.store().export_metrics(&reg);
    let waves = reg
        .prometheus()
        .lines()
        .find(|l| l.starts_with("oi_flush_waves_total") && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    drop(mgr);
    let _ = std::fs::remove_dir_all(dir);
    (result, waves)
}

/// E21: what crash consistency costs — and what replay buys back. Two
/// tables over real file-backed devices:
///
/// 1. The E19-style batched closed loop (zipf clients, 70/30 mix) runs
///    over identical fresh arrays of latency-injected file devices
///    (E19's 300us spindle model) with the parity journal off and on —
///    on, every multi-member update writes a checksummed intent with one
///    group-commit `fdatasync` per coalesced wave. Acceptance: journaled
///    throughput within 15% of unjournaled.
/// 2. Crash-storm replay: the journal is loaded with committed-but-
///    unapplied intents (the worst case a kill-anywhere storm can leave
///    behind), one covered chunk is scribbled over, and `open_durable_with`
///    redoes the log. Reports replay throughput; asserts the scribbled
///    chunk comes back and parity is clean.
pub fn e21_journal_overhead() -> Vec<(String, Table)> {
    use blockdev::{BlockDevice, FlushPolicy, MemberWrite};
    use oi_raid::OiRaidStore;
    use std::time::{Duration, Instant};

    const CHUNK: usize = 4096;
    const GROUP: usize = 256;
    let total_ops: usize = std::env::var("OI_E21_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6_144)
        .max(8);
    let cfg = OiRaidConfig::reference();
    let base = std::env::temp_dir().join(format!("oi-raid-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // One measured closed loop over a fresh prefilled array of real file
    // devices behind E19's 300us spindle model; the only variable is
    // whether the parity journal (intent write + group-commit fdatasync
    // per wave) is in the update path.
    let measure = |journaled: bool, round: u64| -> (usize, Duration, u64) {
        let dir = base.join(format!("{}-{round}", if journaled { "on" } else { "off" }));
        let policy = journaled.then_some(FlushPolicy::Never);
        let (r, _) = file_closed_loop(&cfg, &dir, policy, 0xE21 ^ round, total_ops);
        (r.ops, r.wall, r.read_p99)
    };

    // Best of two interleaved rounds per setting, so filesystem noise
    // does not masquerade as journal overhead.
    let mut best = [(0usize, Duration::MAX, 0u64); 2];
    for round in 0..2u64 {
        for (i, journaled) in [false, true].into_iter().enumerate() {
            let r = measure(journaled, round);
            if r.1 < best[i].1 {
                best[i] = r;
            }
        }
    }
    let off_rate = best[0].0 as f64 / best[0].1.as_secs_f64();
    let on_rate = best[1].0 as f64 / best[1].1.as_secs_f64();
    let overhead = (off_rate / on_rate - 1.0) * 100.0;
    let mut t1 = Table::new(&[
        "journal",
        "ops",
        "wall (ms)",
        "ops/s",
        "read p99 (ms)",
        "overhead vs off (%)",
    ]);
    for (i, name) in ["off", "on (group commit)"].iter().enumerate() {
        let (ops, wall, p99) = best[i];
        t1.row_owned(vec![
            (*name).into(),
            ops.to_string(),
            f3(wall.as_secs_f64() * 1e3),
            f3(ops as f64 / wall.as_secs_f64()),
            f3(p99 as f64 / 1e6),
            if i == 0 { "-".into() } else { f3(overhead) },
        ]);
    }
    // The acceptance bound: crash consistency costs at most 15% of the
    // unjournaled closed-loop throughput.
    assert!(
        overhead <= 15.0,
        "journal cost {overhead:.2}% of closed-loop throughput (bound 15%)"
    );

    // ---- replay: redo a log full of committed-but-unapplied intents ----
    let intents: usize = std::env::var("OI_E21_REPLAY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
        .max(1);
    const MEMBERS: usize = 4; // one data chunk + 3 parity chunks per wave
    let dir = base.join("replay");
    let (victim, want) = {
        let store = OiRaidStore::create_durable_with(
            cfg.clone(),
            CHUNK,
            &dir,
            blockdev::FlushPolicy::Never,
        )
        .expect("durable store");
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..CHUNK).map(|j| (idx * 37 + j * 11 + 5) as u8).collect();
            store.write_data(idx, &chunk).expect("prefill write");
        }
        // Intents that rewrite chunks with the bytes they already hold:
        // exactly what a crash after commit-before-apply leaves behind
        // (redo is idempotent because records carry absolute values).
        let journal = store.journal().expect("durable store has a journal");
        let devices = store.devices();
        let chunks_per_disk = devices[0].chunks();
        let mut buf = vec![0u8; CHUNK];
        for i in 0..intents {
            let writes: Vec<MemberWrite> = (0..MEMBERS)
                .map(|m| {
                    let at = i * MEMBERS + m;
                    let disk = at % devices.len();
                    let chunk = (at / devices.len()) % chunks_per_disk;
                    devices[disk].read_chunk(chunk, &mut buf).expect("read");
                    MemberWrite {
                        disk: disk as u32,
                        chunk: chunk as u32,
                        data: buf.clone(),
                    }
                })
                .collect();
            let seq = journal.append_intent(&writes).expect("append");
            journal.commit(seq).expect("commit");
        }
        // Scribble over one covered chunk: the redo pass must undo this.
        let want = {
            devices[0].read_chunk(0, &mut buf).expect("read victim");
            buf.clone()
        };
        devices[0]
            .write_chunk(0, &vec![0xEE; CHUNK])
            .expect("scribble");
        ((0usize, 0usize), want)
    };
    let began = Instant::now();
    let store =
        OiRaidStore::open_durable_with(cfg.clone(), CHUNK, &dir, blockdev::FlushPolicy::Never)
            .expect("replay");
    let replay_wall = began.elapsed();
    let mut buf = vec![0u8; CHUNK];
    store.devices()[victim.0]
        .read_chunk(victim.1, &mut buf)
        .expect("read back");
    assert_eq!(buf, want, "replay must redo the scribbled chunk");
    assert!(
        store.check_parity().is_empty(),
        "parity clean after crash-storm replay"
    );
    assert_eq!(
        store.journal().expect("journal").outstanding(),
        0,
        "replay leaves no outstanding intents"
    );
    let bytes = (intents * MEMBERS * CHUNK) as f64;
    let mut t2 = Table::new(&[
        "intents",
        "member writes",
        "log (MiB)",
        "replay wall (ms)",
        "intents/s",
        "MiB/s",
    ]);
    t2.row_owned(vec![
        intents.to_string(),
        (intents * MEMBERS).to_string(),
        f3(bytes / (1 << 20) as f64),
        f3(replay_wall.as_secs_f64() * 1e3),
        f3(intents as f64 / replay_wall.as_secs_f64()),
        f3(bytes / (1 << 20) as f64 / replay_wall.as_secs_f64()),
    ]);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);

    vec![
        (
            format!(
                "E21: parity-journal overhead — E19 closed loop on file devices \
                 with 300us spindles, {total_ops} ops, group {GROUP}, journal off vs on"
            ),
            t1,
        ),
        (
            format!(
                "E21: crash-storm replay — {intents} committed-but-unapplied \
                 intents ({MEMBERS} member writes each) redone on open"
            ),
            t2,
        ),
    ]
}

/// E22: member-flush policy cost. The E21 closed loop with the parity
/// journal always on, sweeping [`blockdev::FlushPolicy`]:
///
/// * `Never` — journal-on baseline (process-crash durability, E21's "on"
///   row);
/// * `Timed(2ms)` — a background flusher walks the applied-marker
///   high-water mark, so commits never wait on member fsyncs;
/// * `PerWave` — every commit flushes the wave's touched members before
///   its applied marker (full power-loss durability on the ack path).
///
/// Asserts the acceptance bounds: PerWave costs at most 2.5x of the
/// journal-on closed-loop throughput, Timed at most 1.3x. `OI_E22_OPS`
/// trims the op count for smoke runs.
pub fn e22_flush_policy() -> Vec<(String, Table)> {
    use blockdev::FlushPolicy;
    use std::time::Duration;

    const GROUP: usize = 256;
    let total_ops: usize = std::env::var("OI_E22_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6_144)
        .max(8);
    let cfg = OiRaidConfig::reference();
    let base = std::env::temp_dir().join(format!("oi-raid-e22-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let policies: [(&str, FlushPolicy); 3] = [
        ("never (journal-on baseline)", FlushPolicy::Never),
        ("timed 2ms", FlushPolicy::Timed(Duration::from_millis(2))),
        ("perwave", FlushPolicy::PerWave),
    ];

    // One measured closed loop per policy, same harness as E21: real file
    // devices behind 300us spindles, Zipf 0.99 keys, 70/30 read/write.
    let measure = |name: &str, policy: FlushPolicy, round: u64| -> (usize, Duration, u64, u64) {
        let dir = base.join(format!(
            "{}-{round}",
            name.split_whitespace().next().unwrap()
        ));
        let (r, waves) = file_closed_loop(&cfg, &dir, Some(policy), 0xE22 ^ round, total_ops);
        (r.ops, r.wall, r.read_p99, waves)
    };

    // Best of two interleaved rounds per policy, as in E21, so filesystem
    // noise does not masquerade as flush cost.
    let mut best = [(0usize, Duration::MAX, 0u64, 0u64); 3];
    for round in 0..2u64 {
        for (i, (name, policy)) in policies.iter().enumerate() {
            let r = measure(name, *policy, round);
            if r.1 < best[i].1 {
                best[i] = r;
            }
        }
    }
    let rate = |i: usize| best[i].0 as f64 / best[i].1.as_secs_f64();
    let baseline = rate(0);
    let cost_timed = baseline / rate(1);
    let cost_perwave = baseline / rate(2);

    let mut t = Table::new(&[
        "flush policy",
        "ops",
        "wall (ms)",
        "ops/s",
        "read p99 (ms)",
        "flush waves",
        "cost vs never (x)",
    ]);
    for (i, (name, _)) in policies.iter().enumerate() {
        let (ops, wall, p99, waves) = best[i];
        t.row_owned(vec![
            (*name).into(),
            ops.to_string(),
            f3(wall.as_secs_f64() * 1e3),
            f3(ops as f64 / wall.as_secs_f64()),
            f3(p99 as f64 / 1e6),
            waves.to_string(),
            if i == 0 {
                "1.000".into()
            } else {
                f3(baseline / rate(i))
            },
        ]);
    }
    // Acceptance bounds: whole-host durability on the ack path costs at
    // most 2.5x of the journal-on closed loop; deferred (timed) flushing
    // at most 1.3x.
    assert!(
        cost_perwave <= 2.5,
        "PerWave costs {cost_perwave:.3}x of journal-on throughput (bound 2.5x)"
    );
    assert!(
        cost_timed <= 1.3,
        "Timed costs {cost_timed:.3}x of journal-on throughput (bound 1.3x)"
    );
    let _ = std::fs::remove_dir_all(&base);

    vec![(
        format!(
            "E22: member-flush policy cost — E21 closed loop, journal on, \
             {total_ops} ops, group {GROUP}, FlushPolicy never vs timed(2ms) vs perwave"
        ),
        t,
    )]
}

/// Runs one experiment by id (`e1`..`e22` but `e12`, `a1`, `a2`), or `all`.
/// Returns the rendered tables; unknown ids return `None`.
pub fn run(id: &str) -> Option<Vec<(String, Table)>> {
    match id {
        "e1" => Some(e1_recovery_speedup()),
        "e2" => Some(e2_capacity_sweep()),
        "e3" => Some(e3_storage_overhead()),
        "e4" => Some(e4_update_complexity()),
        "e5" => Some(e5_loss_probability()),
        "e6" | "a1" => Some(e6_load_distribution()),
        "e7" => Some(e7_mttdl()),
        "e8" => Some(e8_degraded_mode()),
        "e9" => Some(e9_multi_failure()),
        "e10" => Some(e10_catalogue()),
        "e11" => Some(e11_ure_sensitivity()),
        "e13" => Some(e13_parallel_rebuild()),
        "e14" => Some(e14_kernel_throughput()),
        "e15" => Some(e15_telemetry_overhead()),
        "e16" => Some(e16_self_healing()),
        "e17" => Some(e17_online_qos()),
        "e18" => Some(e18_dag_scheduler()),
        "e19" => Some(e19_volume_closed_loop()),
        "e20" => Some(e20_tracing_overhead()),
        "e21" => Some(e21_journal_overhead()),
        "e22" => Some(e22_flush_policy()),
        "a2" => Some(a2_strategy_ablation()),
        "all" => {
            let mut out = Vec::new();
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14",
                "e15", "e16", "e17", "e18", "e19", "e20", "e21", "e22", "a2",
            ] {
                out.extend(run(id).expect("known id"));
            }
            Some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configs_all_construct() {
        for (v, k, g) in sweep_parameters() {
            let a = sweep_array(v, k, g);
            assert_eq!(a.disks(), v * g);
        }
    }

    #[test]
    fn fast_tables_have_expected_shape() {
        let e3 = e3_storage_overhead();
        assert_eq!(e3.len(), 1);
        assert!(e3[0].1.render().contains("3-replication"));
        let e4 = e4_update_complexity();
        assert!(e4[0].1.render().contains("OI-RAID"));
        let e10 = e10_catalogue();
        assert!(e10[0].1.render().contains("difference-set"));
    }

    #[test]
    fn e9_runs_on_reference() {
        let t = e9_multi_failure();
        let text = t[0].1.render();
        assert!(text.contains("whole group"));
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99").is_none());
    }
}
