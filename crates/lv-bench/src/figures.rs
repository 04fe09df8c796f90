//! Figure/table generators: one function per paper artifact, each writing
//! `results/<id>.txt` (human-readable report + ASCII chart) and where
//! useful `results/<id>.csv`. `run_experiment_traced` is the registry the
//! `repro` binary dispatches on.

use std::fmt::Write as _;

use lv_conv::{Algo, ALL_ALGOS};
use lv_sim::CLOCK_HZ;

use crate::chart::{hbar_chart, table};
use crate::cli::CliSpec;
use crate::error::BenchError;
use crate::grid::{
    self, policy_cycles, results_dir, table1_layers, GridRow, P1_L2S, P1_VLENS, P2_L2S, P2_VLENS,
};
use crate::plan::{self, Executor, Model, SweepPlan};
use crate::selector::{evaluate_selector, predicted_cycles, SelectorEval};
use crate::trace::TraceCtx;

/// Seconds at the simulated clock ([`CLOCK_HZ`]).
fn secs(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ
}

/// Write `results/<name>` with a typed error instead of a panic or a
/// silently-dropped `.ok()`, so `repro` exits 1 with the path and cause
/// when `results/` is missing or unwritable.
pub(crate) fn write_result(name: &str, text: &str) -> Result<(), BenchError> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(BenchError::io("create results dir", &dir))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(BenchError::io("write report", &path))?;
    Ok(())
}

fn save(id: &str, text: &str) -> Result<(), BenchError> {
    write_result(&format!("{id}.txt"), text)
}

// Per-artifact sweep plans. Each is the exact slice of the experiment
// space the figure reads, so overlapping artifacts share cells through
// the executor's content-addressed cache (fig3's 1-MiB column IS fig5's
// 512-bit row) and nothing simulates more than its figure needs.

fn baseline_plan(id: &str, model: Model, scale: f64) -> SweepPlan {
    SweepPlan::new(id).layers(model).scale(scale).vlens(&[512]).l2s(&[1]).algos(&ALL_ALGOS)
}

fn vl_plan(id: &str, model: Model, scale: f64) -> SweepPlan {
    SweepPlan::new(id).layers(model).scale(scale).vlens(&P2_VLENS).l2s(&[1]).algos(&ALL_ALGOS)
}

fn l2_plan(id: &str, model: Model, vlen: usize, scale: f64) -> SweepPlan {
    SweepPlan::new(id).layers(model).scale(scale).vlens(&[vlen]).l2s(&P2_L2S).algos(&ALL_ALGOS)
}

/// Dispatch an experiment by id against a shared executor and trace
/// context: each artifact gets a wall-clock span on the harness track,
/// every grid slice goes through the executor's cell cache (so `all`
/// simulates each unique cell at most once), and `fig1`/`fig2`/`serve`
/// run an extra traced workload when the context is recording. `seed`
/// drives the stochastic artifacts (`serve`/`fleet`/`chaos` arrival and
/// fault processes); grid cells are deterministic and ignore it. `faults`
/// restricts the `chaos` sweep to one scenario (other artifacts ignore
/// it). `check` is not dispatched here: `repro` runs it itself (see
/// [`crate::check`]).
pub fn run_experiment_traced(
    id: &str,
    scale: f64,
    exec: &Executor,
    ctx: &TraceCtx,
    seed: u64,
    faults: Option<lv_fleet::FaultScenario>,
) -> Result<(), BenchError> {
    let span = ctx.artifact_begin(id);
    let run = |p: &SweepPlan| exec.run(p, ctx).map(|o| o.rows);
    let report = match id {
        "table1" => table1_report(scale),
        "fig1" => {
            let rows = run(&baseline_plan("fig1", Model::Vgg16, scale))?;
            crate::trace::traced_fig_run(ctx, &rows, "vgg16", scale)?;
            fig1_2(&rows, "vgg16", "fig1")?
        }
        "fig2" => {
            let rows = run(&baseline_plan("fig2", Model::Yolo20, scale))?;
            crate::trace::traced_fig_run(ctx, &rows, "yolov3-20", scale)?;
            fig1_2(&rows, "yolov3-20", "fig2")?
        }
        "fig3" => fig3_4(&run(&vl_plan("fig3", Model::Vgg16, scale))?, "vgg16", "fig3")?,
        "fig4" => fig3_4(&run(&vl_plan("fig4", Model::Yolo20, scale))?, "yolov3-20", "fig4")?,
        "fig5" => fig5_8(&run(&l2_plan("fig5", Model::Vgg16, 512, scale))?, "vgg16", 512, "fig5")?,
        "fig6" => {
            fig5_8(&run(&l2_plan("fig6", Model::Vgg16, 4096, scale))?, "vgg16", 4096, "fig6")?
        }
        "fig7" => {
            fig5_8(&run(&l2_plan("fig7", Model::Yolo20, 512, scale))?, "yolov3-20", 512, "fig7")?
        }
        "fig8" => {
            fig5_8(&run(&l2_plan("fig8", Model::Yolo20, 4096, scale))?, "yolov3-20", 4096, "fig8")?
        }
        // These read the full Paper II grid (both models, all 16 configs)
        // on the cycle tier: the selector trains on all of it and the
        // Pareto/serving analyses sweep every design point.
        "dataset" => dataset_report(&run(&plan::paper2_plan(scale))?)?,
        "selector" => selector_report(&run(&plan::paper2_plan(scale))?),
        "fig9" => fig9_10(&run(&plan::paper2_plan(scale))?, "vgg16", "fig9")?,
        "fig10" => fig9_10(&run(&plan::paper2_plan(scale))?, "yolov3-20", "fig10")?,
        "fig11" => fig11(&run(&plan::paper2_plan(scale))?)?,
        "fig12" => fig12(&run(&plan::paper2_plan(scale))?)?,
        "serve" => crate::serving::serve_report(&run(&plan::paper2_plan(scale))?, ctx, seed)?,
        "fleet" => crate::fleet::fleet_report(scale, exec, ctx, seed)?,
        "chaos" => crate::chaos::chaos_report(scale, exec, ctx, seed, faults)?,
        "p1-vl" => p1_vl(&run(&plan::p1_dec_plan(scale).l2s(&[1]))?),
        "p1-cache" => p1_cache(&run(&plan::p1_dec_plan(scale))?),
        "p1-lanes" => p1_lanes(&run(&plan::p1_lanes_plan(scale))?),
        "p1-winograd" => p1_winograd(&run(&plan::p1_wino_plan(scale))?),
        "p1-pareto" => p1_pareto(&run(&plan::p1_dec_plan(scale))?),
        "p1-blocks" => p1_blocks(scale),
        "p1-naive" => p1_naive(scale),
        "p1-roofline" => p1_roofline(scale),
        "ablation-tiles" => ablation_tiles(scale),
        "ablation-energy" => ablation_energy(scale),
        "ablation-fft" => ablation_fft(scale),
        "ablation-unroll" => ablation_unroll(scale),
        "ablation-contention" => ablation_contention(scale),
        "verify" => crate::verify::render(&crate::verify::verify(scale, exec, ctx)?),
        "calibrate" => {
            let (text, drifted) = crate::calibrate::calibrate_report(scale, ctx)?;
            if drifted {
                save(id, &text)?;
                eprintln!("{text}");
                eprintln!("calibrate: fast tier outside its committed error envelope");
                std::process::exit(1);
            }
            text
        }
        "all" => {
            for e in [
                "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                "dataset", "selector", "fig9", "fig10", "fig11", "fig12", "serve", "fleet",
            ] {
                run_experiment_traced(e, scale, exec, ctx, seed, None)?;
            }
            ctx.artifact_end(span);
            return Ok(());
        }
        "p1-all" => {
            for e in [
                "p1-vl",
                "p1-cache",
                "p1-lanes",
                "p1-winograd",
                "p1-pareto",
                "p1-blocks",
                "p1-naive",
                "p1-roofline",
            ] {
                run_experiment_traced(e, scale, exec, ctx, seed, None)?;
            }
            ctx.artifact_end(span);
            return Ok(());
        }
        "ablations" => {
            for e in [
                "ablation-tiles",
                "ablation-energy",
                "ablation-fft",
                "ablation-unroll",
                "ablation-contention",
            ] {
                run_experiment_traced(e, scale, exec, ctx, seed, None)?;
            }
            ctx.artifact_end(span);
            return Ok(());
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!("{}", CliSpec::listing());
            std::process::exit(2);
        }
    };
    save(id, &report)?;
    println!("{report}");
    println!("[saved to {}/{id}.txt]", results_dir().display());
    ctx.artifact_end(span);
    Ok(())
}

// ------------------------------------------------------------- Table 1

fn table1_report(scale: f64) -> String {
    let mut rows = Vec::new();
    for (model, layer, s) in table1_layers(scale) {
        rows.push(vec![
            model,
            layer.to_string(),
            s.ic.to_string(),
            s.oc.to_string(),
            format!("{}", s.ih),
            format!("{}", s.oh()),
            format!("{}x{}", s.kh, s.kw),
            s.stride.to_string(),
        ]);
    }
    format!(
        "Table 1: convolutional layers of VGG-16 and YOLOv3 (first 20 layers)\n{}",
        table(&["model", "layer", "IC", "OC", "IH/IW", "OH/OW", "K", "stride"], &rows)
    )
}

// ----------------------------------------------------------- Figs 1-2

fn fig1_2(rows: &[GridRow], model: &str, id: &str) -> Result<String, BenchError> {
    let mut out = format!(
        "{id}: per-layer execution time of {model}, 512-bit vectors, 1 MiB L2 (Paper II Fig. {})\n",
        if model == "vgg16" { 1 } else { 2 }
    );
    let mut csv = String::from("layer,algo,seconds\n");
    let mut win_counts: Vec<(Algo, usize)> = ALL_ALGOS.iter().map(|&a| (a, 0)).collect();
    for (m, layer, _s) in table1_layers(1.0) {
        if m != model {
            continue;
        }
        let mut bars = Vec::new();
        let mut best: Option<(Algo, u64)> = None;
        for a in ALL_ALGOS {
            if let Some(r) = grid::find(rows, model, layer, 512, 1, a) {
                bars.push((a.name().to_string(), secs(r.cycles)));
                let _ = writeln!(csv, "{layer},{},{:.6}", a.name(), secs(r.cycles));
                if best.is_none_or(|(_, c)| r.cycles < c) {
                    best = Some((a, r.cycles));
                }
            }
        }
        if let Some((b, _)) = best {
            win_counts.iter_mut().find(|(a, _)| *a == b).unwrap().1 += 1;
            out.push_str(&hbar_chart(
                &format!("layer {layer} (winner: {})", b.name()),
                &bars,
                40,
                "s",
            ));
        }
    }
    out.push_str("\nwinner tally: ");
    for (a, n) in win_counts {
        let _ = write!(out, "{}={n} ", a.name());
    }
    out.push('\n');
    write_result(&format!("{id}.csv"), &csv)?;
    Ok(out)
}

// ----------------------------------------------------------- Figs 3-4

fn fig3_4(rows: &[GridRow], model: &str, id: &str) -> Result<String, BenchError> {
    let mut out = format!(
        "{id}: vector-length scaling (512->4096 bit) of {model} layers at 1 MiB L2\n\
         (cells: speedup over the same algorithm at 512-bit)\n\n"
    );
    let mut csv = String::from("layer,algo,vlen_bits,seconds,speedup_vs_512\n");
    for (m, layer, _s) in table1_layers(1.0) {
        if m != model {
            continue;
        }
        let mut trows = Vec::new();
        for a in ALL_ALGOS {
            let base = grid::find(rows, model, layer, 512, 1, a).map(|r| r.cycles);
            let Some(base) = base else { continue };
            let mut cells = vec![a.name().to_string()];
            for &vl in &P2_VLENS {
                if let Some(r) = grid::find(rows, model, layer, vl, 1, a) {
                    let sp = base as f64 / r.cycles as f64;
                    cells.push(format!("{sp:.2}x"));
                    let _ =
                        writeln!(csv, "{layer},{},{vl},{:.6},{sp:.3}", a.name(), secs(r.cycles));
                } else {
                    cells.push("-".into());
                }
            }
            trows.push(cells);
        }
        let _ = writeln!(out, "layer {layer}:");
        out.push_str(&table(&["algo", "512b", "1024b", "2048b", "4096b"], &trows));
    }
    // Summary: per-algo speedup range at 4096-bit, the paper's headline.
    out.push_str("\nspeedup range 512->4096 bit per algorithm:\n");
    for a in ALL_ALGOS {
        let mut sps = Vec::new();
        for (m, layer, _s) in table1_layers(1.0) {
            if m != model {
                continue;
            }
            if let (Some(b), Some(r)) = (
                grid::find(rows, model, layer, 512, 1, a),
                grid::find(rows, model, layer, 4096, 1, a),
            ) {
                sps.push(b.cycles as f64 / r.cycles as f64);
            }
        }
        if !sps.is_empty() {
            let (mn, mx) =
                sps.iter().fold((f64::MAX, f64::MIN), |(a0, a1), &v| (a0.min(v), a1.max(v)));
            let _ = writeln!(out, "  {:22} {mn:.2}x .. {mx:.2}x", a.name());
        }
    }
    write_result(&format!("{id}.csv"), &csv)?;
    Ok(out)
}

// ----------------------------------------------------------- Figs 5-8

fn fig5_8(rows: &[GridRow], model: &str, vlen: usize, id: &str) -> Result<String, BenchError> {
    let mut out = format!(
        "{id}: L2 scaling (1->64 MiB) of {model} layers at {vlen}-bit vectors\n\
         (cells: speedup over the same algorithm at 1 MiB)\n\n"
    );
    let mut csv = String::from("layer,algo,l2_mib,seconds,speedup_vs_1mib\n");
    for (m, layer, _s) in table1_layers(1.0) {
        if m != model {
            continue;
        }
        let mut trows = Vec::new();
        for a in ALL_ALGOS {
            let Some(base) = grid::find(rows, model, layer, vlen, 1, a).map(|r| r.cycles) else {
                continue;
            };
            let mut cells = vec![a.name().to_string()];
            for &l2 in &P2_L2S {
                if let Some(r) = grid::find(rows, model, layer, vlen, l2, a) {
                    let sp = base as f64 / r.cycles as f64;
                    cells.push(format!("{sp:.2}x"));
                    let _ =
                        writeln!(csv, "{layer},{},{l2},{:.6},{sp:.3}", a.name(), secs(r.cycles));
                } else {
                    cells.push("-".into());
                }
            }
            trows.push(cells);
        }
        let _ = writeln!(out, "layer {layer}:");
        out.push_str(&table(&["algo", "1MB", "4MB", "16MB", "64MB"], &trows));
    }
    write_result(&format!("{id}.csv"), &csv)?;
    Ok(out)
}

// -------------------------------------------------- dataset + selector

fn dataset_report(rows: &[GridRow]) -> Result<String, BenchError> {
    let (ds, keys) = crate::selector::dataset_from_grid(rows);
    let mut counts = vec![0usize; ALL_ALGOS.len()];
    for &l in &ds.labels {
        counts[l] += 1;
    }
    let mut out = format!(
        "dataset: {} points ({} layers x 16 hardware configs), 12 features\n\nbest-algorithm distribution:\n",
        ds.len(),
        keys.iter().map(|k| (k.model.clone(), k.layer)).collect::<std::collections::BTreeSet<_>>().len()
    );
    for (a, c) in ALL_ALGOS.iter().zip(counts) {
        let _ = writeln!(out, "  {:22} {c}", a.name());
    }
    // Also dump the dataset itself for external use.
    let mut csv = crate::selector::FEATURE_NAMES.join(",");
    csv.push_str(",label\n");
    for (f, l) in ds.features.iter().zip(&ds.labels) {
        let cells: Vec<String> = f.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(csv, "{},{}", cells.join(","), Algo::from_label(*l).name());
    }
    write_result("dataset.csv", &csv)?;
    Ok(out)
}

fn selector_eval(rows: &[GridRow]) -> SelectorEval {
    evaluate_selector(rows, crate::selector::tuned_params())
}

fn selector_report(rows: &[GridRow]) -> String {
    let eval = selector_eval(rows);
    let mut out =
        String::from("selector: random-forest per-layer algorithm selection (Paper II 4.3)\n\n");
    let _ = writeln!(
        out,
        "5-fold CV accuracy: mean {:.1}%  (folds: {})",
        100.0 * eval.cv.mean_accuracy,
        eval.cv
            .fold_accuracy
            .iter()
            .map(|a| format!("{:.1}%", 100.0 * a))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "paper reports: 92.8% mean accuracy");
    let _ = writeln!(
        out,
        "\nmisprediction cost (MAPE of mispredicted points): {:.1}%  (paper: 20.4%)",
        eval.mispredict_mape
    );
    out.push_str("\nbaseline classifiers (fold-1 split):\n");
    for (name, acc) in &eval.baselines {
        let _ = writeln!(out, "  {:16} {:.1}%", name, 100.0 * acc);
    }
    out.push_str("\nfeature importances (mean decrease in impurity):\n");
    let mut imp = eval.importances.clone();
    imp.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in imp {
        let _ = writeln!(out, "  {name:12} {v:.3}");
    }
    out
}

// ---------------------------------------------------------- Figs 9-10

fn fig9_10(rows: &[GridRow], model: &str, id: &str) -> Result<String, BenchError> {
    let eval = selector_eval(rows);
    let layers: Vec<usize> =
        table1_layers(1.0).into_iter().filter(|(m, _, _)| m == model).map(|(_, l, _)| l).collect();
    let policies: Vec<(String, Option<Algo>)> = vec![
        ("Direct".into(), Some(Algo::Direct)),
        ("im2col+GEMM-3loops".into(), Some(Algo::Gemm3)),
        ("im2col+GEMM-6loops".into(), Some(Algo::Gemm6)),
        ("Winograd*".into(), Some(Algo::Winograd)),
        ("Optimal".into(), None),
    ];
    let mut out = format!(
        "{id}: {model} conv-stack execution time per hardware config and selection policy\n\
         (Paper II Fig. {}; Winograd* falls back to the 6-loop GEMM where inapplicable)\n\n",
        if model == "vgg16" { 9 } else { 10 }
    );
    let mut csv = String::from("vlen_bits,l2_mib,policy,seconds\n");
    let mut ratios_best_single = Vec::new();
    let mut pred_errs = Vec::new();
    for &vlen in &P2_VLENS {
        for &l2 in &P2_L2S {
            let mut cells = vec![format!("{vlen}b x {l2}MB")];
            let mut totals = Vec::new();
            for (name, pol) in &policies {
                let total: u64 = layers
                    .iter()
                    .map(|&l| policy_cycles(rows, model, l, vlen, l2, *pol).unwrap_or(0))
                    .sum();
                totals.push(total);
                cells.push(format!("{:.4}", secs(total)));
                let _ = writeln!(csv, "{vlen},{l2},{name},{:.6}", secs(total));
            }
            // Predicted-optimal policy from the cross-validated forest.
            let pred_total: u64 = layers
                .iter()
                .map(|&l| {
                    predicted_cycles(rows, &eval.predictions, model, l, vlen, l2)
                        .or_else(|| policy_cycles(rows, model, l, vlen, l2, None))
                        .unwrap_or(0)
                })
                .sum();
            cells.push(format!("{:.4}", secs(pred_total)));
            let _ = writeln!(csv, "{vlen},{l2},Predicted,{:.6}", secs(pred_total));
            let optimal = totals[4];
            let best_single = totals[..4].iter().copied().min().unwrap();
            ratios_best_single.push((
                totals[0] as f64 / optimal as f64, // vs always-Direct
                totals[2] as f64 / optimal as f64, // vs always-6-loop GEMM
            ));
            pred_errs.push((pred_total as f64 - optimal as f64) / optimal as f64);
            cells.push(format!("{:.2}x", best_single as f64 / optimal as f64));
            let mut row = cells;
            row.push(format!("{:.1}%", 100.0 * pred_errs.last().unwrap()));
            // keep
            outpush(&mut out, row);
        }
    }
    let header = [
        "config",
        "Direct",
        "GEMM-3l",
        "GEMM-6l",
        "Winograd*",
        "Optimal",
        "Predicted",
        "best-single/opt",
        "pred-err",
    ];
    out = format!(
        "{}{}",
        out.lines().take(3).map(|l| format!("{l}\n")).collect::<String>(),
        table(&header, &collect_rows(&out))
    );
    let (max_vs_direct, max_vs_gemm6) = ratios_best_single
        .iter()
        .fold((f64::MIN, f64::MIN), |(a, b), &(x, y)| (a.max(x), b.max(y)));
    let mean_err = 100.0 * pred_errs.iter().sum::<f64>() / pred_errs.len() as f64;
    let max_err = 100.0 * pred_errs.iter().cloned().fold(f64::MIN, f64::max);
    let _ = writeln!(
        out,
        "\nOptimal beats always-Direct by up to {max_vs_direct:.2}x and always-6-loop-GEMM by up to {max_vs_gemm6:.2}x\n\
         Predicted-vs-Optimal error: mean {mean_err:.2}%, max {max_err:.2}%\n\
         (paper: VGG-16 1.85x over Direct / 1.73x over 6-loop; YOLOv3 1.33x / 2.11x;\n\
          predicted error avg 1.67%/0.95%, max 8.4%/5.9%)"
    );
    write_result(&format!("{id}.csv"), &csv)?;
    Ok(out)
}

// Helpers to build the fig9/10 table without fighting the borrow checker:
// rows are staged as tab-joined lines inside the report buffer, then
// collected.
fn outpush(out: &mut String, cells: Vec<String>) {
    out.push('\u{1}');
    out.push_str(&cells.join("\t"));
    out.push('\n');
}

fn collect_rows(out: &str) -> Vec<Vec<String>> {
    out.lines()
        .filter(|l| l.starts_with('\u{1}'))
        .map(|l| l[1..].split('\t').map(|s| s.to_string()).collect())
        .collect()
}

// ------------------------------------------------------------- Fig 11

fn fig11(rows: &[GridRow]) -> Result<String, BenchError> {
    use lv_area::{chip_area_mm2, pareto_frontier, pareto_knee, DesignPoint};
    let eval = selector_eval(rows);
    let model = "vgg16";
    let layers: Vec<usize> = (1..=13).collect();
    let mut pts = Vec::new();
    let mut policies: Vec<(String, Option<Algo>)> = ALL_ALGOS
        .iter()
        .map(|&a| {
            (
                if a == Algo::Winograd { "Winograd*".to_string() } else { a.name().to_string() },
                Some(a),
            )
        })
        .collect();
    policies.push(("Optimal".into(), None));
    for &vlen in &P2_VLENS {
        for &l2 in &P2_L2S {
            let area = chip_area_mm2(1, vlen, l2);
            for (name, pol) in &policies {
                let total: u64 = layers
                    .iter()
                    .map(|&l| policy_cycles(rows, model, l, vlen, l2, *pol).unwrap_or(0))
                    .sum();
                pts.push(DesignPoint {
                    label: format!("{vlen}b x {l2}MB, {name}"),
                    area,
                    cost: total as f64,
                });
            }
            let pred: u64 = layers
                .iter()
                .map(|&l| {
                    predicted_cycles(rows, &eval.predictions, model, l, vlen, l2)
                        .or_else(|| policy_cycles(rows, model, l, vlen, l2, None))
                        .unwrap_or(0)
                })
                .sum();
            pts.push(DesignPoint {
                label: format!("{vlen}b x {l2}MB, Predicted"),
                area,
                cost: pred as f64,
            });
        }
    }
    let frontier = pareto_frontier(&pts);
    let knee = pareto_knee(&pts);
    let mut out = String::from(
        "fig11: performance-area Pareto analysis, single VGG-16 instance at 7 nm (Paper II Fig. 11)\n\n",
    );
    let mut csv = String::from("label,area_mm2,cycles,on_frontier\n");
    for (i, p) in pts.iter().enumerate() {
        let _ =
            writeln!(csv, "{},{:.3},{},{}", p.label, p.area, p.cost as u64, frontier.contains(&i));
    }
    out.push_str("Pareto frontier (area ascending):\n");
    for &i in &frontier {
        let p = &pts[i];
        let _ = writeln!(
            out,
            "  {:32} area {:7.2} mm2   time {:.4} s{}",
            p.label,
            p.area,
            secs(p.cost as u64),
            if Some(i) == knee { "   <-- Pareto-optimal (knee)" } else { "" }
        );
    }
    let frontier_all_optimal = frontier
        .iter()
        .all(|&i| pts[i].label.contains("Optimal") || pts[i].label.contains("Predicted"));
    let _ = writeln!(
        out,
        "\nall frontier points use per-layer algorithm selection: {frontier_all_optimal}\n\
         (paper: every frontier point corresponds to selecting the optimal algorithm per layer;\n\
          Pareto-optimal configuration is 2048-bit x 1 MiB at 2.35 mm2)"
    );
    write_result("fig11.csv", &csv)?;
    Ok(out)
}

// ------------------------------------------------------------- Fig 12

fn fig12(rows: &[GridRow]) -> Result<String, BenchError> {
    use lv_area::{chip_area_mm2, pareto_frontier, DesignPoint};
    use lv_serving::{colocated_throughput, partition_l2};
    let model = "vgg16";
    let layers: Vec<usize> = (1..=13).collect();
    let mut out = String::from(
        "fig12: throughput-area tradeoff, co-located VGG-16 instances on a multicore RVV chip at 7 nm\n\
         (Paper II Fig. 12; per-layer Optimal algorithm, CAT-style equal L2 partitions)\n\n",
    );
    let mut pts = Vec::new();
    let mut meta = Vec::new();
    let mut csv = String::from(
        "cores,vlen_bits,shared_l2_mib,replicas,l2_per_model_mib,images_per_cycle,area_mm2\n",
    );
    for &cores in &[1usize, 4, 16, 64] {
        for &vlen in &P2_VLENS {
            for &shared_l2 in &[1usize, 4, 16, 64, 256] {
                let Some(part) = partition_l2(shared_l2, cores, &P2_L2S) else { continue };
                let cycles: u64 = layers
                    .iter()
                    .map(|&l| policy_cycles(rows, model, l, vlen, part, None).unwrap_or(0))
                    .sum();
                if cycles == 0 {
                    continue;
                }
                let tput = colocated_throughput(cores, cycles);
                let area = chip_area_mm2(cores, vlen, shared_l2);
                let _ =
                    writeln!(csv, "{cores},{vlen},{shared_l2},{cores},{part},{tput:.3e},{area:.2}");
                pts.push(DesignPoint {
                    label: format!("{cores}c x {vlen}b, {shared_l2}MB shared ({part}MB/model)"),
                    area,
                    cost: 1.0 / tput,
                });
                meta.push((cores, part, tput));
            }
        }
    }
    let frontier = pareto_frontier(&pts);
    out.push_str("Pareto frontier (throughput per area):\n");
    for &i in &frontier {
        let p = &pts[i];
        let _ = writeln!(
            out,
            "  {:44} area {:8.2} mm2   {:.3e} img/cycle ({:.1} img/s @2GHz)",
            p.label,
            p.area,
            1.0 / p.cost,
            CLOCK_HZ / p.cost
        );
    }
    // Paper claim: frontier points co-locate as many models as possible
    // with the smallest viable partition.
    let max_cores = meta.iter().map(|&(c, _, _)| c).max().unwrap_or(1);
    let frontier_max_replicas: Vec<bool> =
        frontier.iter().map(|&i| meta[i].0 == max_cores || meta[i].1 <= 4).collect();
    let _ = writeln!(
        out,
        "\nfrontier points co-locating max replicas or a small (<=4MB) partition: {}/{}\n\
         (paper: all Pareto points co-locate as many models as possible with the lowest\n\
          viable L2 per model)",
        frontier_max_replicas.iter().filter(|&&b| b).count(),
        frontier_max_replicas.len()
    );
    write_result("fig12.csv", &csv)?;
    Ok(out)
}

// ------------------------------------------------------ Paper I extras

fn p1_model_total(
    rows: &[GridRow],
    model: &str,
    vlen: usize,
    l2: usize,
    lanes: Option<usize>,
) -> Option<u64> {
    let sel: Vec<&GridRow> = rows
        .iter()
        .filter(|r| {
            r.model == model
                && r.vlen_bits == vlen
                && r.l2_mib == l2
                && lanes.is_none_or(|n| r.lanes == n)
        })
        .collect();
    if sel.is_empty() {
        return None;
    }
    Some(sel.iter().map(|r| r.cycles).sum())
}

fn p1_vl(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "p1-vl: YOLOv3(20) on the decoupled RISC-VV machine, 3-loop GEMM, L2 = 1 MiB (Paper I Fig. 6)\n\n",
    );
    let base = p1_model_total(rows, "yolov3-20/dec", 512, 1, None).unwrap_or(1);
    let mut bars = Vec::new();
    for &vl in &P1_VLENS {
        if let Some(c) = p1_model_total(rows, "yolov3-20/dec", vl, 1, None) {
            bars.push((format!("{vl}b ({:.2}x)", base as f64 / c as f64), secs(c)));
        }
    }
    out.push_str(&hbar_chart("execution time", &bars, 40, "s"));
    let c8192 = p1_model_total(rows, "yolov3-20/dec", 8192, 1, None).unwrap_or(1);
    let c16384 = p1_model_total(rows, "yolov3-20/dec", 16384, 1, None).unwrap_or(1);
    let _ = writeln!(
        out,
        "\n8192b -> 16384b gain at 1 MiB: {:.1}% (paper: performance saturates beyond 8192-bit)",
        100.0 * (c8192 as f64 / c16384 as f64 - 1.0)
    );
    // Average consumed VL and L2 miss rate (Paper I Table III).
    out.push_str("\naverage consumed vector length and L2 miss rate (Paper I Table III):\n");
    let mut trows = Vec::new();
    for &vl in &P1_VLENS {
        let sel: Vec<&GridRow> = rows
            .iter()
            .filter(|r| r.model == "yolov3-20/dec" && r.vlen_bits == vl && r.l2_mib == 1)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let avg_vl = sel.iter().map(|r| r.avg_vl * r.cycles as f64).sum::<f64>()
            / sel.iter().map(|r| r.cycles as f64).sum::<f64>();
        let miss = sel.iter().map(|r| r.l2_miss_rate * r.cycles as f64).sum::<f64>()
            / sel.iter().map(|r| r.cycles as f64).sum::<f64>();
        trows.push(vec![
            format!("{vl}-bit"),
            format!("{:.1}", avg_vl),
            format!("{:.0}%", 100.0 * miss),
        ]);
    }
    out.push_str(&table(&["vlen", "avg VL (elems)", "L2 miss"], &trows));
    out
}

fn p1_cache(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "p1-cache: YOLOv3(20), decoupled RISC-VV, 3-loop GEMM, L2 1 MiB -> 256 MiB (Paper I Fig. 7)\n\n",
    );
    let mut trows = Vec::new();
    for &vl in &P1_VLENS {
        let Some(base) = p1_model_total(rows, "yolov3-20/dec", vl, 1, None) else { continue };
        let mut cells = vec![format!("{vl}b")];
        for &l2 in &P1_L2S {
            match p1_model_total(rows, "yolov3-20/dec", vl, l2, None) {
                Some(c) => cells.push(format!("{:.2}x", base as f64 / c as f64)),
                None => cells.push("-".into()),
            }
        }
        trows.push(cells);
    }
    out.push_str(&table(&["vlen", "1MB", "16MB", "64MB", "256MB"], &trows));
    let c8 = p1_model_total(rows, "yolov3-20/dec", 8192, 256, None).unwrap_or(1);
    let c16 = p1_model_total(rows, "yolov3-20/dec", 16384, 256, None).unwrap_or(1);
    let base512 = p1_model_total(rows, "yolov3-20/dec", 512, 1, None).unwrap_or(1);
    let best = p1_model_total(rows, "yolov3-20/dec", 16384, 256, None).unwrap_or(1);
    let _ = writeln!(
        out,
        "\n8192b -> 16384b gain at 256 MiB: {:.1}% (paper: ~5%)\n\
         total gain 512b/1MB -> 16384b/256MB: {:.1}x (paper: ~5x)",
        100.0 * (c8 as f64 / c16 as f64 - 1.0),
        base512 as f64 / best as f64
    );
    out
}

fn p1_lanes(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "p1-lanes: vector-lane scaling, YOLOv3(20), decoupled RISC-VV, L2 = 1 MiB (Paper I VI-B.c)\n\n",
    );
    let mut trows = Vec::new();
    for &vl in &[512usize, 2048, 8192] {
        let base = p1_model_total(rows, &format!("yolov3-20/dec/l{}", 2), vl, 1, Some(2));
        let Some(base) = base else { continue };
        let mut cells = vec![format!("{vl}b")];
        for &lanes in &[2usize, 4, 8] {
            match p1_model_total(rows, &format!("yolov3-20/dec/l{lanes}"), vl, 1, Some(lanes)) {
                Some(c) => cells.push(format!("{:.2}x", base as f64 / c as f64)),
                None => cells.push("-".into()),
            }
        }
        trows.push(cells);
    }
    out.push_str(&table(&["vlen", "2 lanes", "4 lanes", "8 lanes"], &trows));
    out.push_str(
        "\n(paper: ~1.25x for 8192-bit from 2->8 lanes; 512-bit saturates beyond 4 lanes —\n\
         additional lanes mainly benefit long vectors)\n",
    );
    out
}

fn p1_winograd(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "p1-winograd: Winograd(+GEMM fallback) VL x L2 sweeps on the integrated machine (Paper I Figs. 9-10)\n\n",
    );
    for model in ["yolov3-20/wino", "vgg16/wino"] {
        let _ = writeln!(out, "{model}:");
        let mut trows = Vec::new();
        for &vl in &[512usize, 1024, 2048] {
            let Some(base) = p1_model_total(rows, model, vl, 1, None) else { continue };
            let mut cells = vec![format!("{vl}b")];
            for &l2 in &P1_L2S {
                match p1_model_total(rows, model, vl, l2, None) {
                    Some(c) => cells.push(format!("{:.2}x", base as f64 / c as f64)),
                    None => cells.push("-".into()),
                }
            }
            trows.push(cells);
        }
        out.push_str(&table(&["vlen", "1MB", "16MB", "64MB", "256MB"], &trows));
        if let (Some(b), Some(c)) =
            (p1_model_total(rows, model, 512, 1, None), p1_model_total(rows, model, 2048, 1, None))
        {
            let _ = writeln!(
                out,
                "  512b -> 2048b at 1MB: {:.2}x (paper: ~1.4x)\n",
                b as f64 / c as f64
            );
        }
    }
    out.push_str(
        "(paper: VGG16 stops benefiting past 64MB; YOLOv3 gains ~1.75x, VGG16 ~1.4x from cache)\n",
    );
    out
}

fn p1_pareto(rows: &[GridRow]) -> String {
    use lv_area::{chip_area_mm2, pareto_frontier, pareto_knee, DesignPoint};
    let mut pts = Vec::new();
    for &vl in &P1_VLENS[..5] {
        for &l2 in &P1_L2S {
            if let Some(c) = p1_model_total(rows, "yolov3-20/dec", vl, l2, None) {
                pts.push(DesignPoint {
                    label: format!("{vl}b x {l2}MB"),
                    area: chip_area_mm2(1, vl, l2),
                    cost: c as f64,
                });
            }
        }
    }
    let frontier = pareto_frontier(&pts);
    let knee = pareto_knee(&pts);
    let mut out = String::from(
        "p1-pareto: perf-area Pareto of a single decoupled RISC-VV core, YOLOv3(20) (Paper I Fig. 11)\n\n",
    );
    for &i in &frontier {
        let p = &pts[i];
        let _ = writeln!(
            out,
            "  {:16} area {:7.2} mm2   {:.4} s{}",
            p.label,
            p.area,
            secs(p.cost as u64),
            if Some(i) == knee { "   <-- Pareto-optimal" } else { "" }
        );
    }
    let long_vl_frontier =
        frontier.iter().filter(|&&i| pts[i].label.starts_with(['2', '4', '8'])).count();
    let _ = writeln!(
        out,
        "\nfrontier points with >=2048-bit vectors: {long_vl_frontier}/{} \n\
         (paper: most frontier points use long vectors; the knee pairs a long VL with the smallest 1MB cache)",
        frontier.len()
    );
    out
}

fn p1_blocks(scale: f64) -> String {
    use lv_conv::{gemm6, Gemm6Blocking};
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::{pseudo_buf, pseudo_weights};
    // Paper I Table II: first 4 conv layers of YOLOv3 on the decoupled
    // machine, 6-loop GEMM across block sizes vs the 3-loop baseline.
    let layers: Vec<_> =
        table1_layers(scale).into_iter().filter(|(m, l, _)| m == "yolov3-20" && *l <= 4).collect();
    let run_3loop = || -> u64 {
        layers
            .iter()
            .map(|(_, _, s)| {
                let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
                let input = pseudo_buf(s.input_len(), 1);
                let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 2);
                let mut out = vec![0.0f32; s.output_len()];
                lv_conv::gemm3::run(&mut m, s, &input, &w, &mut out);
                m.cycles()
            })
            .sum()
    };
    let base = run_3loop();
    let blockings = [
        (128usize, 1024usize, 256usize),
        (16, 1024, 128),
        (16, 512, 128),
        (16, 512, 256),
        (32, 512, 128),
        (64, 1024, 128),
    ];
    let mut trows = Vec::new();
    for (mc, nc, kc) in blockings {
        let mc_eff = mc.min(16); // micro-panel cap = register file
        let blk = Gemm6Blocking::new(mc_eff, nc, kc);
        let total: u64 = layers
            .iter()
            .map(|(_, _, s)| {
                let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
                let input = pseudo_buf(s.input_len(), 1);
                let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 2);
                let mut out = vec![0.0f32; s.output_len()];
                gemm6::run(&mut m, s, &input, &w, &mut out, &blk);
                m.cycles()
            })
            .sum();
        trows.push(vec![format!("{mc}x{nc}x{kc}"), format!("{:.2}", base as f64 / total as f64)]);
    }
    let mut out = format!(
        "p1-blocks: 6-loop GEMM block-size sweep vs 3-loop baseline, YOLOv3 first 4 conv layers,\n\
         decoupled RISC-VV, 512-bit, 1 MiB L2 (Paper I Table II; scale {scale})\n\n"
    );
    out.push_str(&table(&["block size", "perf vs 3-loop"], &trows));
    out.push_str(
        "\n(paper: all ratios 0.90-0.98 — the 6-loop BLIS optimizations do NOT pay off on the\n\
         decoupled VPU, whose vector unit reads from L2 and ignores software prefetch)\n",
    );
    out
}

fn p1_naive(scale: f64) -> String {
    use lv_conv::direct::{self, DirectVariant};
    use lv_conv::{prepare_weights, Algo};
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::{pseudo_buf, pseudo_weights};
    // Naive scalar GEMM vs optimized vectorized kernels on YOLOv3-tiny
    // conv layers (Paper I: 14x on RISC-VV; manual-vs-auto 21x on SVE).
    let layers: Vec<_> = lv_models::zoo::yolov3_tiny()
        .conv_shapes()
        .into_iter()
        .map(|s| s.scaled(scale * 0.5))
        .collect();
    let mut naive_total = 0u64;
    let mut opt_total = 0u64;
    let mut naive_direct_total = 0u64;
    let mut reordered_total = 0u64;
    for s in &layers {
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 2);
        let mut out = vec![0.0f32; s.output_len()];
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        lv_conv::gemm3::run_naive_scalar(&mut m, s, &input, &w, &mut out);
        naive_total += m.cycles();
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        lv_conv::gemm3::run(&mut m, s, &input, &w, &mut out);
        opt_total += m.cycles();
        let p = prepare_weights(Algo::Direct, s, &w);
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        direct::run(&mut m, s, &input, &p.data, &mut out, DirectVariant::NaiveIc);
        naive_direct_total += m.cycles();
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        direct::run(&mut m, s, &input, &p.data, &mut out, DirectVariant::Reordered);
        reordered_total += m.cycles();
    }
    format!(
        "p1-naive: manual vectorization vs naive baselines, YOLOv3-tiny conv stack (scale {:.2})\n\n\
         naive scalar im2col+GEMM : {:.4} s\n\
         optimized 3-loop GEMM    : {:.4} s   speedup {:.1}x (paper: 14x on RISC-VV)\n\n\
         Direct naive-IC variant  : {:.4} s\n\
         Direct loop-reordered    : {:.4} s   speedup {:.1}x (paper: ~3x from loop reorder)\n",
        scale * 0.5,
        secs(naive_total),
        secs(opt_total),
        naive_total as f64 / opt_total as f64,
        secs(naive_direct_total),
        secs(reordered_total),
        naive_direct_total as f64 / reordered_total as f64,
    )
}

/// Paper I Table IV: arithmetic intensity and sustained fraction of peak
/// for the discrete YOLOv3 conv layers, on the A64FX-like machine with the
/// 6-loop GEMM (the configuration the paper profiled).
fn p1_roofline(scale: f64) -> String {
    use lv_models::measure_layer;
    use lv_sim::MachineConfig;
    let cfg = MachineConfig::a64fx_like();
    let peak_flops_per_cycle = (2 * cfg.elems_per_cycle()) as f64; // FMA = 2 flops/elem
    let mut seen = std::collections::BTreeSet::new();
    let mut trows = Vec::new();
    for (model, layer, s) in table1_layers(scale) {
        if model != "yolov3-20" {
            continue;
        }
        let (mm, kk, nn) = s.gemm_mkn();
        if !seen.insert((mm, kk, nn)) {
            continue; // the paper lists only layers with discrete matrix sizes
        }
        let meas = measure_layer(&cfg, &s, Algo::Gemm6).expect("gemm applies");
        let fpc = meas.stats.flops_per_cycle();
        let line_bytes = cfg.l2.line_bytes;
        let bw_util = meas.stats.dram_bytes_per_cycle(line_bytes) / cfg.peak_dram_bytes_per_cycle();
        trows.push(vec![
            format!("L{layer}"),
            mm.to_string(),
            nn.to_string(),
            kk.to_string(),
            format!("{:.1}", s.arithmetic_intensity()),
            format!("{:.0}%", 100.0 * fpc / peak_flops_per_cycle),
            meas.stats.prefetch_lines.to_string(),
            format!("{:.0}%", 100.0 * bw_util),
        ]);
    }
    let mut out = format!(
        "p1-roofline: arithmetic intensity and sustained fraction of peak, YOLOv3 discrete\n\
         conv layers on the A64FX-like machine with the 6-loop GEMM (Paper I Table IV; scale {scale})\n\n"
    );
    out.push_str(&table(
        &["layer", "M", "N", "K", "AI (flop/B)", "% of peak", "prefetch lines", "BW util"],
        &trows,
    ));
    out.push_str(
        "\n(paper: low-AI layers — small M and K — sustain ~46-50% of peak, high-AI layers 75-91%;\n\
         BW util = demand+prefetch DRAM bytes/cycle against the 12.8 GB/s channel)\n",
    );
    out
}

/// Ablation: Winograd tile size F(2,3) vs F(4,3) vs the paper's F(6,3) —
/// cycles, average consumed VL and numerical error.
fn ablation_tiles(scale: f64) -> String {
    use lv_conv::winograd::{self, WinoPlan};
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::{conv2d_reference, max_rel_error, pseudo_buf, pseudo_weights};
    let s = table1_layers(scale)
        .into_iter()
        .find(|(m, l, _)| m == "vgg16" && *l == 4)
        .map(|(_, _, s)| s)
        .unwrap();
    let input = pseudo_buf(s.input_len(), 1);
    let w = pseudo_weights(s.weight_len(), s.ic * 9, 2);
    let golden = conv2d_reference(&s, &input, &w);
    let mut trows = Vec::new();
    for vlen in [512usize, 2048, 4096] {
        for plan in [WinoPlan::F2X2, WinoPlan::F4X4, WinoPlan::F6X6] {
            let w_t = winograd::transform_weights(&plan, &s, &w);
            let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
            let mut out = vec![0.0f32; s.output_len()];
            winograd::run(&plan, &mut m, &s, &input, &w_t, &mut out);
            let st = m.stats();
            trows.push(vec![
                format!("{vlen}b"),
                format!("F({0}x{0},3x3)", plan.m),
                st.cycles.to_string(),
                format!("{:.1}", st.avg_vl()),
                format!("{:.2e}", max_rel_error(&out, &golden)),
            ]);
        }
    }
    let mut out = format!(
        "ablation-tiles: Winograd tile-size ablation on VGG-16 layer 4 (scale {scale})\n\
         The paper fixes 8x8 tiles (F(6x6,3x3)): larger tiles lose accuracy, smaller tiles\n\
         lose arithmetic reduction and vector-length utilization.\n\n"
    );
    out.push_str(&table(&["vlen", "tile", "cycles", "avg VL", "max rel err"], &trows));
    out.push_str(
        "\n(expected: cycles F(2,3) > F(4,3) > F(6,3); error grows with the tile;\n\
         avg VL of small tiles saturates sooner)\n",
    );
    out
}

/// Ablation: energy and energy-delay across design points, extending the
/// Fig. 11 Pareto analysis with the energy model. Measures live (it needs
/// full `Stats`, which the cell cache deliberately does not store).
fn ablation_energy(scale: f64) -> String {
    use lv_area::chip_area_mm2;
    use lv_area::energy::{energy_of, EnergyParams};
    use lv_models::measure_layer;
    use lv_sim::MachineConfig;
    let p = EnergyParams::default();
    // Representative layer: VGG-16 L5 measured live (we need full Stats,
    // which the cached grid does not store).
    let s = table1_layers(scale)
        .into_iter()
        .find(|(m, l, _)| m == "vgg16" && *l == 5)
        .map(|(_, _, s)| s)
        .unwrap();
    let mut trows = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for vlen in P2_VLENS {
        for l2 in P2_L2S {
            let cfg = MachineConfig::rvv_integrated(vlen, l2);
            let meas = ALL_ALGOS
                .iter()
                .filter_map(|&a| measure_layer(&cfg, &s, a))
                .min_by_key(|m| m.cycles)
                .expect("at least one algorithm applies");
            let algo = meas.algo;
            let area = chip_area_mm2(1, vlen, l2);
            let e = energy_of(&p, &meas.stats, l2, area);
            let t = meas.seconds();
            let edp = e.edp(t);
            trows.push(vec![
                format!("{vlen}b x {l2}MB"),
                algo.name().to_string(),
                format!("{:.3}", t * 1e3),
                format!("{:.3}", e.total_j() * 1e3),
                format!("{:.1}%", 100.0 * e.dram_j / e.total_j()),
                format!("{:.1}%", 100.0 * e.leakage_j / e.total_j()),
                format!("{:.3e}", edp),
            ]);
            if best.as_ref().is_none_or(|(_, b)| edp < *b) {
                best = Some((format!("{vlen}b x {l2}MB"), edp));
            }
        }
    }
    let mut out = format!(
        "ablation-energy: energy / energy-delay across design points, VGG-16 layer 5,\n\
         best algorithm per point (scale {scale})\n\n"
    );
    out.push_str(&table(
        &["config", "algo", "time ms", "energy mJ", "DRAM %", "leak %", "EDP (Js)"],
        &trows,
    ));
    if let Some((label, edp)) = best {
        let _ = writeln!(
            out,
            "\nEDP-optimal design point: {label} ({edp:.3e} Js)\n\
             (large caches pay leakage for fewer DRAM lines; long vectors cut cycle\n\
              counts — the energy analogue of the paper's area-performance tradeoff)"
        );
    }
    out
}

/// Ablation: FFT convolution vs the paper's three algorithms as the kernel
/// grows — measuring the rationale for excluding FFT ("large kernel sizes
/// are not common in modern CNNs").
fn ablation_fft(scale: f64) -> String {
    use lv_conv::fft;
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::{pseudo_buf, pseudo_weights, ConvShape};
    let hw = ((64.0 * scale.max(0.2)) as usize).max(16);
    let (ic, oc) = (8usize, 8usize);
    let mut trows = Vec::new();
    for k in [3usize, 5, 7, 11] {
        let s = ConvShape::same_pad(ic, oc, hw, k, 1);
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_weights(s.weight_len(), s.ic * k * k, 2);
        let cfg = MachineConfig::rvv_integrated(2048, 4);
        let mut cells = vec![format!("{k}x{k}")];
        // Direct and GEMM from the standard registry.
        for algo in [Algo::Direct, Algo::Gemm6] {
            let meas = lv_models::measure_layer(&cfg, &s, algo).unwrap();
            cells.push(meas.cycles.to_string());
        }
        // Winograd only applies at 3x3.
        cells.push(if s.winograd_applicable() {
            lv_models::measure_layer(&cfg, &s, Algo::Winograd).unwrap().cycles.to_string()
        } else {
            "-".into()
        });
        // FFT.
        let wf = fft::transform_weights(&s, &w);
        let mut m = Machine::new(cfg);
        let mut out = vec![0.0f32; s.output_len()];
        fft::run(&mut m, &s, &input, &wf, &mut out);
        cells.push(m.cycles().to_string());
        trows.push(cells);
    }
    let mut out = format!(
        "ablation-fft: FFT convolution vs Direct/GEMM/Winograd as the kernel grows\n\
         ({ic}->{oc} channels at {hw}x{hw}, 2048-bit vectors, 4 MiB L2)\n\n"
    );
    out.push_str(&table(&["kernel", "direct", "gemm6", "winograd", "fft"], &trows));
    out.push_str(
        "\n(expected: FFT uncompetitive at 3x3 — the paper's reason to exclude it — with\n\
         its relative cost shrinking as the kernel grows, since FFT cycles are nearly\n\
         kernel-size independent)\n",
    );
    out
}

/// Ablation: shared-L2 contention vs CAT partitioning, with real kernel
/// traces — measuring the paper's "static cache partitioning" assumption.
fn ablation_contention(scale: f64) -> String {
    use lv_conv::{prepare_weights, run_conv, Algo};
    use lv_serving::contention::replay;
    use lv_sim::{CacheGeometry, Machine, MachineConfig, MIB};
    use lv_tensor::{pseudo_buf, pseudo_weights};
    let s = table1_layers(scale * 0.5)
        .into_iter()
        .find(|(m, l, _)| m == "vgg16" && *l == 5)
        .map(|(_, _, s)| s)
        .unwrap();
    // Record each tenant's L2 trace on a decoupled machine (all vector
    // traffic is L2-visible there) with the partition-sized cache.
    let record = |seed: u64| -> (Vec<(u64, u64)>, u64) {
        let input = pseudo_buf(s.input_len(), seed);
        let w = pseudo_weights(s.weight_len(), s.ic * 9, seed + 1);
        let p = prepare_weights(Algo::Gemm3, &s, &w);
        let mut out = vec![0.0f32; s.output_len()];
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 2));
        m.enable_l2_trace();
        run_conv(&mut m, Algo::Gemm3, &s, &input, &p, &mut out);
        (m.take_l2_trace(), m.cycles())
    };
    let (t1, cycles1) = record(1);
    let (t2, _) = record(101);
    let shared = CacheGeometry { size_bytes: 4 * MIB, ways: 8, line_bytes: 64 };
    let rep = replay(&[t1, t2], shared);
    let penalty = 23; // mem_line - l2_line of the default cost model
    let extra = rep.est_extra_cycles(penalty);
    let mut out = format!(
        "ablation-contention: two co-located VGG-16 L5 tenants (3-loop GEMM, scale {:.2}),\n\
         4 MiB shared L2 vs 2 x 2 MiB CAT partitions, trace-replay model\n\n",
        scale * 0.5
    );
    let mut trows = Vec::new();
    for i in 0..2 {
        trows.push(vec![
            format!("tenant {}", i + 1),
            rep.accesses[i].to_string(),
            rep.isolated_misses[i].to_string(),
            rep.shared_misses[i].to_string(),
            rep.partitioned_misses[i].to_string(),
            format!("{:+.1}%", 100.0 * extra[i] as f64 / cycles1 as f64),
        ]);
    }
    out.push_str(&table(
        &["tenant", "L2 accesses", "alone(4MB)", "shared(4MB)", "CAT(2MB)", "est dT vs CAT"],
        &trows,
    ));
    let _ = writeln!(
        out,
        "\ninterference factor (shared/isolated misses): {:.2}x\n\
         (the paper assumes CAT-style isolation for Fig. 12; this measures what\n\
          free-for-all sharing would have cost instead)",
        rep.interference()
    );
    out
}

/// Ablation: GEMM i-loop unroll factor (Paper I: tuned to 16; 32 spills
/// registers and drops ~15%).
fn ablation_unroll(scale: f64) -> String {
    use lv_conv::gemm3_kernel_unrolled;
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::{pseudo_buf, pseudo_weights};
    let s = table1_layers(scale)
        .into_iter()
        .find(|(m, l, _)| m == "yolov3-20" && *l == 4)
        .map(|(_, _, s)| s)
        .unwrap();
    let (mm, kk, nn) = s.gemm_mkn();
    let a = pseudo_weights(mm * kk, kk, 1);
    let b = pseudo_buf(kk * nn, 2);
    let mut trows = Vec::new();
    let mut base = 0u64;
    for unroll in [1usize, 2, 4, 8, 16, 24, 32] {
        let mut c = vec![0.0f32; mm * nn];
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        gemm3_kernel_unrolled(&mut m, mm, kk, nn, &a, &b, &mut c, unroll);
        if unroll == 1 {
            base = m.cycles();
        }
        trows.push(vec![
            unroll.to_string(),
            m.cycles().to_string(),
            format!("{:.2}x", base as f64 / m.cycles() as f64),
        ]);
    }
    let mut out = format!(
        "ablation-unroll: 3-loop GEMM i-loop unroll factor on YOLOv3 layer 4's GEMM\n\
         (M={mm}, K={kk}, N={nn}; decoupled RISC-VV, 512-bit, 1 MiB; scale {scale})\n\n"
    );
    out.push_str(&table(&["unroll", "cycles", "speedup vs 1"], &trows));
    out.push_str(
        "\n(paper: no significant gain beyond 16 registers; 32 drops ~15% from register\n\
         spilling — the spills here are modeled as C-tile reload/writeback per FMA)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecOptions;
    use lv_tensor::ConvShape;

    #[test]
    fn fig_row_staging_roundtrip() {
        let mut out = String::new();
        outpush(&mut out, vec!["a".into(), "b".into()]);
        outpush(&mut out, vec!["c".into(), "d".into()]);
        let rows = collect_rows(&out);
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn table1_report_contains_all_layers() {
        let r = table1_report(1.0);
        assert!(r.contains("vgg16"));
        assert!(r.contains("yolov3-20"));
        assert_eq!(r.lines().count(), 2 + 1 + 28); // title + header + sep + rows
    }

    #[test]
    fn p1_model_total_filters() {
        let plan = SweepPlan::new("t")
            .layer("x", 1, ConvShape::same_pad(2, 4, 8, 3, 1))
            .suffix("/dec")
            .decoupled()
            .algo(Algo::Gemm3);
        let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
        let rows = exec.run(&plan, &TraceCtx::disabled()).expect("uncached run").rows;
        assert!(p1_model_total(&rows, "x/dec", 512, 1, None).is_some());
        assert!(p1_model_total(&rows, "x/dec", 1024, 1, None).is_none());
    }
}
