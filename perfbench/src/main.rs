//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the checkout root. Prints a provenance line, then the result
//! as the last line of stdout. `perfbench --write-refs` regenerates the
//! reference outputs under `perfbench/refs/`.

use std::process::ExitCode;

use perfbench::common::{host_threads, provenance, Env, ScratchDir};

const USAGE: &str = "usage: perfbench --workload <sweep-cycle|sweep-fast|fleet|chaos> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-refs";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 42, seconds: 10.0, trace: false, write_refs: false };
    while let Some(flag) = argv.next() {
        if flag == "--write-refs" {
            a.write_refs = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !perfbench::WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                a.workload = Some(value);
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if a.workload.is_none() && !a.write_refs {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn run(args: &Args) -> Result<Option<String>, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    for input in ["results/cache/cells.jsonl", "results/fleet.csv", "crates"] {
        if !root.join(input).exists() {
            return Err(format!("{input} not found: run from the repository root"));
        }
    }
    let tmp = ScratchDir::create(&root)?;
    // Hermetic I/O: nothing may resolve the default results directory.
    std::env::set_var("LVCONV_RESULTS", tmp.path().join("results"));
    let env = Env { root, tmp, threads: host_threads(), seed: args.seed, seconds: args.seconds };
    if args.write_refs {
        perfbench::write_refs(&env)?;
        return Ok(None);
    }
    let name = args.workload.as_deref().expect("checked by parse");
    let scale = match name {
        "sweep-cycle" => Some(perfbench::sweep::CYCLE_SCALE),
        "sweep-fast" => Some(1.0),
        _ => None,
    };
    println!("provenance {}", provenance(&env, name, scale));
    let out = perfbench::run_workload(&env, name, args.trace)?;
    perfbench::result_json(&out, args.trace).map(Some)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
