//! `oi-raidctl` — explore OI-RAID configurations from the command line.
//!
//! ```text
//! oi-raidctl designs [max_v]                     list constructible outer designs
//! oi-raidctl info <v> <k> <g> [opts]             geometry & properties summary
//! oi-raidctl layout <v> <k> <g> [opts]           per-disk chunk role map
//! oi-raidctl plan <v> <k> <g> --fail A,B [opts]  recovery plan & per-disk loads
//! oi-raidctl simulate <v> <k> <g> --fail A [opts] simulated rebuild time
//!
//! options: --cycles C (default 1)
//!          --strategy inner|outer|outer-all|hybrid (default outer)
//!          --capacity-gb N (default 1000)  --naive-skew
//! ```

use std::process::ExitCode;

use disksim::DiskSpec;
use layout::{ChunkAddr, Layout, Role, SparePolicy};
use oi_raid::{analysis::Model, OiRaid, OiRaidConfig, RecoveryStrategy, SkewMode};

struct Opts {
    cycles: usize,
    strategy: RecoveryStrategy,
    capacity_gb: u64,
    naive_skew: bool,
    fail: Vec<usize>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        cycles: 1,
        strategy: RecoveryStrategy::Outer,
        capacity_gb: 1000,
        naive_skew: false,
        fail: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cycles" => {
                o.cycles = next_num(&mut it, a)?;
            }
            "--capacity-gb" => {
                o.capacity_gb = next_num(&mut it, a)? as u64;
            }
            "--naive-skew" => o.naive_skew = true,
            "--strategy" => {
                let v = it.next().ok_or("--strategy needs a value")?;
                o.strategy = match v.as_str() {
                    "inner" => RecoveryStrategy::Inner,
                    "outer" => RecoveryStrategy::Outer,
                    "outer-all" => RecoveryStrategy::OuterAll,
                    "hybrid" => RecoveryStrategy::Hybrid,
                    other => return Err(format!("unknown strategy {other}")),
                };
            }
            "--fail" => {
                let v = it.next().ok_or("--fail needs a comma list")?;
                o.fail = v
                    .split(',')
                    .map(|x| x.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --fail list: {e}"))?;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn next_num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn build(v: usize, k: usize, g: usize, o: &Opts) -> Result<OiRaid, String> {
    let design = bibd::find_design(v, k).ok_or(format!(
        "no ({v}, {k}, 1) design in the catalogue — try `designs`"
    ))?;
    let skew = if o.naive_skew {
        SkewMode::Naive
    } else {
        SkewMode::Rotational
    };
    let cfg = OiRaidConfig::with_skew(design, g, o.cycles, skew).map_err(|e| e.to_string())?;
    OiRaid::new(cfg).map_err(|e| e.to_string())
}

fn cmd_designs(max_v: usize) {
    println!("{:<5}{:<5}{:<7}{:<5}construction", "v", "k", "b", "r");
    for e in bibd::catalogue(max_v) {
        println!("{:<5}{:<5}{:<7}{:<5}{}", e.v, e.k, e.b, e.r, e.method);
    }
}

fn cmd_info(array: &OiRaid, o: &Opts) {
    let m = Model::of(array);
    println!("array        : {}", array.name());
    println!(
        "disks        : {} ({} groups x {})",
        array.disks(),
        array.groups(),
        array.group_size()
    );
    println!("chunks/disk  : {}", array.chunks_per_disk());
    println!("data chunks  : {}", array.data_chunks());
    println!("tolerance    : any {} failures", array.fault_tolerance());
    println!(
        "efficiency   : {:.1}% (overhead {:.0}%)",
        array.efficiency() * 100.0,
        array.storage_overhead() * 100.0
    );
    println!(
        "update cost  : {} writes per data-chunk write",
        array
            .update_set(array.locate_data(0))
            .map_or(0, |s| s.len())
    );
    println!(
        "rebuild model: bottleneck {:.3} of a disk ({}), {:.1}x vs flat RAID5",
        m.bottleneck_read_fraction(o.strategy),
        o.strategy.label(),
        m.read_speedup_vs_raid5(o.strategy)
    );
}

fn cmd_layout(array: &OiRaid) {
    let n = array.disks();
    let t = array.chunks_per_disk();
    if n * t > 2000 {
        eprintln!("layout map too large to print ({n} disks x {t} chunks); reduce --cycles");
        return;
    }
    println!("rows = chunk offsets; D = data, O = outer parity, i = inner parity\n");
    print!("      ");
    for d in 0..n {
        print!("{:>3}", d % 10);
        if d % array.group_size() == array.group_size() - 1 {
            print!(" ");
        }
    }
    println!();
    for o in 0..t {
        print!("{o:>4}  ");
        for d in 0..n {
            let c = match array.chunk_role(ChunkAddr::new(d, o)) {
                Role::Data => 'D',
                Role::Parity => 'O',
                Role::InnerParity => 'i',
                Role::Spare => '.',
            };
            print!("{c:>3}");
            if d % array.group_size() == array.group_size() - 1 {
                print!(" ");
            }
        }
        println!();
    }
}

fn cmd_plan(array: &OiRaid, o: &Opts) -> Result<(), String> {
    if o.fail.is_empty() {
        return Err("plan needs --fail".into());
    }
    let plan = if let [d] = o.fail[..] {
        array
            .recovery_plan_with_strategy(d, SparePolicy::Distributed, o.strategy)
            .map_err(|e| e.to_string())?
    } else {
        array
            .recovery_plan(&o.fail, SparePolicy::Distributed)
            .map_err(|e| e.to_string())?
    };
    println!("{plan}");
    let load = plan.read_load(array.disks());
    let writes = plan.write_load(array.disks());
    println!("\nper-disk loads (reads/writes in chunks):");
    for d in 0..array.disks() {
        let marker = if o.fail.contains(&d) { " FAILED" } else { "" };
        println!("  disk {d:>3}: {:>5} r {:>4} w{marker}", load[d], writes[d]);
    }
    Ok(())
}

fn cmd_simulate(array: &OiRaid, o: &Opts) -> Result<(), String> {
    if o.fail.is_empty() {
        return Err("simulate needs --fail".into());
    }
    let plan = if let [d] = o.fail[..] {
        array
            .recovery_plan_with_strategy(d, SparePolicy::Distributed, o.strategy)
            .map_err(|e| e.to_string())?
    } else {
        array
            .recovery_plan(&o.fail, SparePolicy::Distributed)
            .map_err(|e| e.to_string())?
    };
    let cap = o.capacity_gb * 1_000_000_000;
    let sim = plan.simulate(
        &DiskSpec::hdd_7200(cap),
        cap / array.chunks_per_disk() as u64,
    );
    println!(
        "rebuild of {:?} on {} GB disks ({}): {}",
        o.fail,
        o.capacity_gb,
        o.strategy.label(),
        sim.rebuild_time
    );
    let busiest = sim
        .result
        .disk_stats()
        .iter()
        .max_by(|a, b| a.busy.cmp(&b.busy))
        .expect("disks exist");
    println!(
        "bottleneck: {} busy {} ({:.0}% utilised)",
        busiest.disk,
        busiest.busy,
        busiest.utilization * 100.0
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(
            "usage: oi-raidctl <designs|info|layout|plan|simulate> ... (see --help)".into(),
        );
    };
    if cmd == "--help" || cmd == "help" {
        println!(
            "oi-raidctl designs [max_v]\n\
             oi-raidctl info <v> <k> <g> [--cycles C] [--naive-skew]\n\
             oi-raidctl layout <v> <k> <g> [opts]\n\
             oi-raidctl plan <v> <k> <g> --fail A,B [--strategy S] [opts]\n\
             oi-raidctl simulate <v> <k> <g> --fail A [--capacity-gb N] [opts]"
        );
        return Ok(());
    }
    if cmd == "designs" {
        let max_v = args
            .get(1)
            .map(|s| s.parse().map_err(|e| format!("max_v: {e}")))
            .transpose()?
            .unwrap_or(60);
        cmd_designs(max_v);
        return Ok(());
    }
    if args.len() < 4 {
        return Err(format!("{cmd} needs <v> <k> <g>"));
    }
    let v: usize = args[1].parse().map_err(|e| format!("v: {e}"))?;
    let k: usize = args[2].parse().map_err(|e| format!("k: {e}"))?;
    let g: usize = args[3].parse().map_err(|e| format!("g: {e}"))?;
    let opts = parse_opts(&args[4..])?;
    let array = build(v, k, g, &opts)?;
    match cmd.as_str() {
        "info" => {
            cmd_info(&array, &opts);
            Ok(())
        }
        "layout" => {
            cmd_layout(&array);
            Ok(())
        }
        "plan" => cmd_plan(&array, &opts),
        "simulate" => cmd_simulate(&array, &opts),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
