//! # perfbench — host-time benchmark of the lvconv workspace
//!
//! Drives the repository's layers only through their public functions
//! (`lv_bench::plan`, `lv_models`, `lv_conv`, `lv_sim`, `lv_tensor`,
//! `lv_fleet`) on four workloads, checks every output, and prints one
//! JSON result line. End-to-end metrics come from untraced passes;
//! `--trace 1` adds a traced run whose `lv_trace` spans, recorded around
//! those calls, yield the per-layer metrics. See `README.md` for which
//! per-layer metric should move which end-to-end metric on which workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod common;
pub mod des;
pub mod refs;
pub mod sweep;

use common::{json_str, Env, Outcome};
use des::Des;
use sweep::Sweep;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep-cycle", "sweep-fast", "fleet", "chaos"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("throughput_per_s", "1/s")];

/// Per-layer metrics (traced runs): name and unit. A workload that does
/// not exercise a layer reports 0 for it. `peak_rss_mb` is the process's
/// peak resident set after the first pass; it lives here, unbounded,
/// because on `sweep-cycle` it depends on how the allocator's per-thread
/// arenas happen to retain memory (218–633 MB over ten runs).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("peak_rss_mb", "MB"),
    ("lv-conv.run_s.direct", "s"),
    ("lv-conv.run_s.gemm3", "s"),
    ("lv-conv.run_s.gemm6", "s"),
    ("lv-conv.run_s.winograd", "s"),
    ("lv-sim.minstr_per_s.direct", "Minstr/s"),
    ("lv-sim.minstr_per_s.gemm3", "Minstr/s"),
    ("lv-sim.minstr_per_s.gemm6", "Minstr/s"),
    ("lv-sim.minstr_per_s.winograd", "Minstr/s"),
    ("lv-sim.ns_per_cycle.integrated", "ns"),
    ("lv-sim.ns_per_cycle.decoupled", "ns"),
    ("lv-sim.sim_instrs", "count"),
    ("lv-sim.cache_accesses", "count"),
    ("lv-sim.machine_new_s", "s"),
    ("lv-tensor.datagen_s", "s"),
    ("lv-conv.prepare_s", "s"),
    ("lv-bench.plan.cell_ms.p50", "ms"),
    ("lv-bench.plan.cell_ms.p99", "ms"),
    ("lv-bench.plan.cell_ms.samples", "count"),
    ("lv-bench.plan.parallel_efficiency", "ratio"),
    ("lv-bench.plan.expand_s", "s"),
    ("lv-bench.plan.key_ns", "ns"),
    ("lv-conv.model.workload_s", "s"),
    ("lv-sim.fastmodel.evaluate_s", "s"),
    ("lv-bench.plan.run_cold_s", "s"),
    ("lv-bench.plan.run_warm_s", "s"),
    ("lv-bench.plan.append_bytes", "bytes"),
    ("lv-bench.plan.cache_load_s", "s"),
    ("lv-bench.plan.cache_lines", "count"),
    ("lv-bench.plan.hit_ratio", "ratio"),
    ("lv-models.fast_err.mean", "ratio"),
    ("lv-models.fast_err.max", "ratio"),
    ("lv-fleet.generate_s", "s"),
    ("lv-fleet.fault_plan_s", "s"),
    ("lv-fleet.run_s.round-robin", "s"),
    ("lv-fleet.run_s.jsq", "s"),
    ("lv-fleet.run_s.p2c", "s"),
    ("lv-fleet.run_s.affinity", "s"),
    ("lv-fleet.run_s.autoscale", "s"),
    ("lv-fleet.run_s.oblivious", "s"),
    ("lv-fleet.run_s.health-retry", "s"),
    ("lv-fleet.run_s.full", "s"),
    ("lv-fleet.events", "count"),
    ("lv-fleet.ns_per_event", "ns"),
    ("lv-fleet.retries", "count"),
    ("lv-fleet.hedges", "count"),
    ("lv-fleet.hedges_wasted", "count"),
    ("lv-fleet.hedge_useful_ratio", "ratio"),
    ("lv-fleet.ejections", "count"),
    ("lv-fleet.degraded", "count"),
    ("lv-fleet.drops.admission", "count"),
    ("lv-fleet.drops.queue_full", "count"),
    ("lv-fleet.drops.deadline", "count"),
    ("lv-fleet.drops.failed", "count"),
    ("trace.overhead", "ratio"),
];

/// Run workload `name` (timed passes, plus the traced run when `traced`).
pub fn run_workload(env: &Env, name: &str, traced: bool) -> Result<Outcome, String> {
    match name {
        "sweep-cycle" => sweep::run(env, name, &sweep::CYCLE_PHASES, traced),
        "sweep-fast" => sweep::run(env, name, &sweep::FAST_PHASES, traced),
        "fleet" => des::run(env, Des::Fleet, traced),
        "chaos" => des::run(env, Des::Chaos, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the end-to-end
/// (untraced) or per-layer (traced) metrics, every value with all digits.
pub fn result_json(out: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if traced {
        for (name, unit) in PER_LAYER {
            metrics.insert(name, (out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = *out.e2e.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            metrics.insert(name, (v, unit));
        }
    }
    let mut m = String::new();
    for (name, (v, unit)) in &metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        if !m.is_empty() {
            m.push_str(", ");
        }
        let _ = write!(m, "{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(name), json_str(unit));
    }
    let t = out.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted.max(1),
        t.failed,
    ))
}

/// Regenerate every reference file under `perfbench/refs/` from this
/// checkout (after an intentional `KERNEL_REV`/`TIMING_REV`/
/// `FAST_MODEL_REV` bump).
pub fn write_refs(env: &Env) -> Result<(), String> {
    let dir = env.input("perfbench/refs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let salts = format!(
        "kernel_rev={} timing_rev={} fast_model_rev={}",
        lv_conv::KERNEL_REV,
        lv_sim::TIMING_REV,
        lv_sim::FAST_MODEL_REV
    );
    for s in [Sweep::Cycle, Sweep::Fast, Sweep::Warm] {
        let header = format!("{} reference at scale {}, {salts}", s.name(), s.scale());
        let text = sweep::reference(env, s)?.render(&header);
        write(env, &s.ref_path(), &text)?;
    }
    for d in [Des::Fleet, Des::Chaos] {
        let header = format!("{} report digests at seed {}, {salts}", d.name(), des::REF_SEED);
        write(env, &d.ref_path(), &des::reference(env, d)?.render(&header))?;
    }
    Ok(())
}

fn write(env: &Env, rel: &str, text: &str) -> Result<(), String> {
    let path = env.input(rel);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[refs] wrote {}", path.display());
    Ok(())
}
