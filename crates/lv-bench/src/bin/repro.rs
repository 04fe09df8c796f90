//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro <experiment> [--scale S] [--force] [--no-cache] [--jobs N] [--trace FILE]
//!                    [--backend cycle|fast]
//! repro all            # every Paper II experiment
//! repro grid           # warm the Paper II slice of the cell cache
//! repro p1grid         # warm the Paper I slices of the cell cache
//! ```
//! Experiments: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 dataset
//! selector fig9 fig10 fig11 fig12 serve fleet chaos p1-blocks p1-vl
//! p1-cache p1-lanes p1-winograd p1-pareto p1-naive p1-roofline
//! ablation-* verify calibrate check
//!
//! `--backend` selects the simulation tier: `cycle` (the cycle-accurate
//! machine) or `fast` (the calibrated analytical model — see
//! `repro calibrate`, which re-derives its error envelope and fails on
//! drift). Without the flag each plan uses its own default: every figure
//! and Paper II artifact stays cycle-accurate, and only the `fleet` and
//! `chaos` chip menus run fast. The two tiers are cached under disjoint,
//! `FAST_MODEL_REV`-salted keys.
//!
//! Every sweep-backed artifact runs through one shared
//! [`lv_bench::plan::Executor`] with a persistent content-addressed cell
//! cache (`results/cache/cells.jsonl`): overlapping artifacts reuse each
//! other's simulations, `--force` resimulates (once per unique cell per
//! invocation), `--no-cache` bypasses the cache entirely, and `--jobs N`
//! sets the fan-out worker count.
//!
//! `check [--seed N] [--deep]` runs the `lv-check` conformance sweep
//! (every kernel variant against the f64 oracle under derived tolerances,
//! with the simulator invariant lint enabled), writes the PASS/FAIL table
//! to `results/check.txt`, and exits non-zero on any violation.
//!
//! `serve` runs the saturation sweep of the serving engine (bounded
//! queue, dynamic batching, selector-driven service times) and writes
//! `results/serve.txt` / `results/serve.csv`. `fleet` simulates a
//! cluster of heterogeneous Pareto-point chips behind a router
//! (round-robin / JSQ / power-of-two / model-affinity, SLO admission,
//! reactive autoscaling) and writes `results/fleet.txt` /
//! `results/fleet.csv`. Both take `--seed N` to resample arrivals.
//!
//! `chaos [--seed N] [--faults none|crash|straggler|rack|all]` sweeps
//! seeded fault scenarios (node crashes, stragglers, a correlated rack
//! outage) against three fault-tolerance stacks — fault-oblivious,
//! health-aware routing + deadline-budgeted retries, and the full stack
//! with tail hedging and graceful degradation — on paired arrival
//! traces, and writes `results/chaos.txt` / `results/chaos.csv`
//! (availability, capacity-under-SLO retained, p99 inflation,
//! retry/hedge overhead, time-to-recover). Bit-identical per seed.
//!
//! `--trace FILE` records the run with `lv-trace` and writes Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`): wall-clock
//! artifact and plan spans with cell counters, simulated-cycle network →
//! layer → kernel spans for `fig1`/`fig2` (plus
//! `results/roofline-<model>.csv`), and request lifecycle events for
//! `serve`.

use lv_bench::cli::{self, CliError, CliSpec, Invocation};
use lv_bench::error::BenchError;
use lv_bench::grid::results_dir;
use lv_bench::plan::{self, ExecOptions, Executor};
use lv_bench::trace::TraceCtx;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match cli::parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            if matches!(e, CliError::Empty) {
                eprintln!("{}", CliSpec::usage());
            } else {
                eprintln!("{e}");
            }
            eprintln!("{}", CliSpec::listing());
            std::process::exit(2);
        }
    };
    let ctx = if inv.trace.is_some() { TraceCtx::enabled() } else { TraceCtx::disabled() };
    let exec = Executor::new(ExecOptions {
        jobs: inv.jobs,
        no_cache: inv.no_cache,
        force: inv.force,
        verbose: true,
        backend: inv.backend,
        ..Default::default()
    });
    if let Err(e) = run(&inv, &exec, &ctx) {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &inv.trace {
        ctx.finish(path);
    }
}

fn run(inv: &Invocation, exec: &Executor, ctx: &TraceCtx) -> Result<(), BenchError> {
    match inv.artifact.as_str() {
        "grid" => {
            let out = exec.run(&plan::paper2_plan(inv.scale), ctx)?;
            println!("grid ready: {} rows", out.rows.len());
        }
        "p1grid" => {
            let mut rows = 0usize;
            for p in plan::p1_plans(inv.scale) {
                rows += exec.run(&p, ctx)?.rows.len();
            }
            println!("p1grid ready: {rows} rows");
        }
        "check" => {
            let backend = inv.backend.unwrap_or_default();
            let (text, pass) = lv_bench::check::check_text(inv.seed, inv.deep, backend);
            let dir = results_dir();
            std::fs::create_dir_all(&dir).map_err(BenchError::io("create results dir", &dir))?;
            let path = dir.join("check.txt");
            std::fs::write(&path, &text).map_err(BenchError::io("write check report", &path))?;
            println!("{text}");
            println!("[saved to {}]", path.display());
            if !pass {
                // Legacy behaviour: a failed conformance sweep exits 1
                // immediately, before any trace is written.
                std::process::exit(1);
            }
        }
        other => lv_bench::figures::run_experiment_traced(
            other, inv.scale, exec, ctx, inv.seed, inv.faults,
        )?,
    }
    Ok(())
}
