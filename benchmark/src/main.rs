//! oibench: the software-ceiling benchmark of the OI-RAID serving stack.
//!
//! `oibench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload in this process and prints its result object as the last
//! line. Without `--workload` it runs every workload, untraced then
//! traced, one child process each, and writes the combined
//! `BENCH_*.json`. See README.md for what is measured and why.

mod calib;
mod metrics;
mod oracle;
mod probes;
mod recover;
mod rng;
mod run;
mod serve;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workload::{Spec, WORKLOADS};

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    trace: Option<bool>,
    pub smoke: bool,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: oibench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--json <path>]
  no --workload: run every workload (untraced, then traced) and write the combined JSON
  --describe: print BENCHMARK.json";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: None,
        smoke: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--describe" => {
                print!("{}", metrics::describe());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload here and prints its lines.
fn one(spec: Spec, args: &Args) -> ExitCode {
    match run::workload(spec, args, args.trace.unwrap_or(false)) {
        Ok(outcome) => {
            print!("{}", outcome.human());
            println!("detail {}", outcome.detail());
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "oibench: {}: {} of {} checks failed",
                    spec.name, outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("oibench: {}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process each (so `peak_rss_mib` is the
/// workload's own), untraced then traced, and writes the combined JSON.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("oibench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut ok = true;
    let mut sections = Vec::new();
    for spec in WORKLOADS {
        let mut parts = Vec::new();
        for &traced in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("oibench: cannot start {}: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().filter(|l| l.starts_with("{\"correct\":"));
            let detail = lines.pop().and_then(|l| l.strip_prefix("detail "));
            for line in &lines {
                println!("{line}");
            }
            let pass = if traced { "per_layer" } else { "end_to_end" };
            match (output.status.success(), result, detail) {
                (true, Some(result), Some(detail)) => {
                    parts.push(format!(
                        "\"{pass}\":{{\"result\":{result},\"detail\":{detail}}}"
                    ));
                }
                _ => {
                    eprintln!("oibench: {} ({pass}) failed: {}", spec.name, output.status);
                    ok = false;
                }
            }
        }
        sections.push(format!("\"{}\":{{{}}}", spec.name, parts.join(",")));
    }
    let combined = format!(
        "{{\"benchmark\":\"oibench\",\"seed\":{},\"seconds\":{},\"smoke\":{},\"threads\":{},\"correct\":{ok},\"workloads\":{{\n{}\n}}}}\n",
        args.seed,
        metrics::num(args.seconds),
        args.smoke,
        workload::client_threads(),
        sections.join(",\n")
    );
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| workload::out_dir().join("BENCH_latest.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, combined));
    match written {
        Ok(()) => println!("oibench: wrote {}", path.display()),
        Err(e) => {
            eprintln!("oibench: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "oibench: {}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pins glibc's allocator to the state a long-running process converges
/// to: the mmap threshold at its 32 MiB maximum (it only ever grows), and
/// the top of the heap never handed back to the kernel.
///
/// Left to itself glibc trims once the free top exceeds a threshold, and
/// whether a run's chunk buffers sit at the top is luck of layout: runs of
/// one seed fell into two modes a third apart (1.6 against 2.5 GiB/s of
/// degraded reads, 400 against 600 MiB/s of rebuild), re-faulting the same
/// pages every cycle in the slow one. Pinned, every run is in the fast one.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call with this C
    // signature; it changes allocator settings only, and it runs first
    // thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref() {
        None | Some("all") => all(&args),
        Some(name) => match Spec::by_name(name) {
            Some(spec) => one(if args.smoke { spec.smoke() } else { spec }, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "oibench: unknown workload {name}; one of {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        },
    }
}
