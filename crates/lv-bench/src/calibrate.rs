//! `repro calibrate` — the fast-tier calibration artifact.
//!
//! Re-runs the calibration grid (both simulation tiers on every cell),
//! checks the observed residuals against the committed per-regime error
//! envelope in `lv_models::calib`, benchmarks the wall-clock speedup of
//! the fast tier over the cycle-accurate tier on the full Paper II grid,
//! and writes `results/calibrate.txt` + `results/calibration.csv`. Exits
//! non-zero on drift (CI runs this at `--scale 0.25`), and prints the
//! freshly derived table ready to paste into `lv-models/src/calib.rs`
//! when the envelope has to be regenerated after a model change.

use std::time::Instant;

use lv_models::calib::{self, CalibCell};
use lv_models::BackendKind;
use rayon::prelude::*;

use crate::error::BenchError;
use crate::figures::write_result;
use crate::plan::{self, ExecOptions, Executor};
use crate::trace::TraceCtx;

/// Run the calibration sweep at `scale`; returns the rendered report and
/// whether any regime drifted outside its committed envelope.
pub fn calibrate_report(scale: f64, ctx: &TraceCtx) -> Result<(String, bool), BenchError> {
    let pts = calib::calibration_points(scale);
    let n_pts = pts.len();
    eprintln!("[calibrate] {n_pts} grid points, both tiers ...");
    let per_point: Vec<Vec<CalibCell>> =
        pts.into_par_iter().map(|p| calib::measure_point(&p)).collect();
    let cells: Vec<CalibCell> = per_point.into_iter().flatten().collect();
    let rep = calib::summarize(&cells);

    // Wall-clock speedup on the full Paper II grid, cache-bypassed so
    // both tiers really simulate every unique cell.
    let bench = |backend: BackendKind| -> Result<(f64, usize), BenchError> {
        let exec = Executor::new(ExecOptions {
            no_cache: true,
            backend: Some(backend),
            ..Default::default()
        });
        let t0 = Instant::now();
        let out = exec.run(&plan::paper2_plan(scale), ctx)?;
        Ok((t0.elapsed().as_secs_f64(), out.report.simulated))
    };
    eprintln!("[calibrate] timing fast tier on the Paper II grid ...");
    let (t_fast, n_fast) = bench(BackendKind::Fast)?;
    eprintln!("[calibrate] timing cycle tier on the Paper II grid ...");
    let (t_cycle, n_cycle) = bench(BackendKind::Cycle)?;
    let speedup = t_cycle / t_fast.max(1e-9);

    // Per-cell CSV for external analysis.
    let mut csv = String::from(
        "machine,vpu,ic,ih,iw,oc,kh,kw,stride,pad,algo,cycle,fast_raw,bw_floor,predicted,rel\n",
    );
    for c in &cells {
        let s = &c.shape;
        let scale_r = c.stored().scale;
        csv.push_str(&format!(
            "{},{:?},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.0},{:.6}\n",
            c.machine,
            c.vpu,
            s.ic,
            s.ih,
            s.iw,
            s.oc,
            s.kh,
            s.kw,
            s.stride,
            s.pad,
            c.algo.name(),
            c.cycle,
            c.fast_raw,
            c.bw_floor,
            c.predicted(scale_r),
            c.residual(scale_r),
        ));
    }
    write_result("calibration.csv", &csv)?;

    // The human-readable report.
    let mut out = String::new();
    out.push_str(&format!(
        "fast-tier calibration: scale={scale} cells={} regimes={}\n\n",
        rep.cells,
        rep.regimes.len()
    ));
    out.push_str(&format!(
        "{:<10} {:<10} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {}\n",
        "algo",
        "vpu",
        "cells",
        "scale",
        "bound",
        "obs max",
        "obs mean",
        "new scale",
        "new bound",
        "status"
    ));
    for r in &rep.regimes {
        out.push_str(&format!(
            "{:<10} {:<10} {:>6} {:>9.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>9.4} {:>8.2}%  {}\n",
            r.algo.name(),
            format!("{:?}", r.vpu),
            r.cells,
            r.stored_scale,
            100.0 * r.stored_bound,
            100.0 * r.observed_max,
            100.0 * r.observed_mean,
            r.derived_scale,
            100.0 * r.derived_bound,
            if r.drifted() { "DRIFT" } else { "OK" }
        ));
    }
    out.push_str(&format!(
        "\nalgorithm-ranking agreement: {:.1}% of {} (machine, shape) groups\n",
        100.0 * rep.ranking_agreement(),
        rep.ranked_groups
    ));
    out.push_str(&format!(
        "\nPaper II grid wall-clock (cache bypassed):\n  \
         cycle tier: {t_cycle:>9.3} s  ({n_cycle} cells)\n  \
         fast tier:  {t_fast:>9.3} s  ({n_fast} cells)\n  \
         speedup:    {speedup:>9.1}x\n",
    ));
    out.push_str("\nderived table (paste into lv-models/src/calib.rs after a model change):\n");
    for r in &rep.regimes {
        out.push_str(&format!(
            "    RegimeCalibration {{ algo: Algo::{:?}, vpu: VpuStyle::{:?}, scale: {:.6}, \
             bound: {:.6} }},\n",
            r.algo, r.vpu, r.derived_scale, r.derived_bound
        ));
    }
    let drifted = rep.drifted();
    out.push_str(&format!(
        "\nRESULT: {} ({} cells, {} regimes)\n",
        if drifted { "DRIFT" } else { "PASS" },
        rep.cells,
        rep.regimes.len()
    ));
    Ok((out, drifted))
}
