//! Regenerates the reconstructed tables and figures of the OI-RAID
//! evaluation.
//!
//! ```text
//! experiments all          # every experiment
//! experiments e1 e5        # a subset
//! experiments --csv e3     # CSV instead of aligned text
//! experiments --out DIR e5 # also write each table as DIR/<title>.csv
//! experiments --list       # available ids
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut skip_next = false;
    let ids: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--out" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .collect();
    if args.iter().any(|a| a == "--list") || ids.is_empty() {
        eprintln!(
            "usage: experiments [--csv] <id>...\n\
             ids: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e13 e14 e15 e16 e17 e18 e19 e20 e21 e22 a1 a2 all"
        );
        return if ids.is_empty() && !args.iter().any(|a| a == "--list") {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    for id in ids {
        match bench::experiments::run(id) {
            Some(tables) => {
                for (title, table) in tables {
                    if csv {
                        println!("# {title}");
                        print!("{}", table.to_csv());
                    } else {
                        println!("\n== {title} ==\n");
                        print!("{}", table.render());
                    }
                    if let Some(dir) = &out_dir {
                        if let Err(e) = std::fs::create_dir_all(dir) {
                            eprintln!("cannot create {dir}: {e}");
                            return ExitCode::FAILURE;
                        }
                        let slug: String = title
                            .chars()
                            .map(|c| if c.is_alphanumeric() { c } else { '_' })
                            .collect();
                        let path = format!("{dir}/{slug}.csv");
                        if let Err(e) = std::fs::write(&path, table.to_csv()) {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
