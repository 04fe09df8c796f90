//! The measurement grid: the row type every figure aggregates, the Table-1
//! layer list, the paper's hardware sweeps and the row lookups figures
//! share. Rows are produced only by [`crate::plan::Executor`] running a
//! [`crate::plan::SweepPlan`] through its content-addressed cell cache
//! (`results/cache/cells.jsonl`).

use std::path::PathBuf;

use lv_conv::{Algo, ALL_ALGOS};
use lv_models::zoo;
use lv_sim::VpuStyle;
use lv_tensor::ConvShape;
use serde::{Deserialize, Serialize};

/// One measured grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRow {
    /// Model the layer comes from ("vgg16" / "yolov3-20").
    pub model: String,
    /// 1-based conv-layer ordinal within the model (paper numbering).
    pub layer: usize,
    /// Layer geometry.
    pub shape: ConvShape,
    /// VPU attachment ("int" = integrated, "dec" = decoupled).
    pub vpu: VpuStyle,
    /// Vector lanes.
    pub lanes: usize,
    /// Vector length in bits.
    pub vlen_bits: usize,
    /// L2 size in MiB.
    pub l2_mib: usize,
    /// Algorithm.
    pub algo: Algo,
    /// Simulated cycles.
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate.
    pub l2_miss_rate: f64,
}

/// The Paper II hardware grid: vector lengths 512-4096 bits x L2 1-64 MiB.
pub const P2_VLENS: [usize; 4] = [512, 1024, 2048, 4096];
/// Paper II L2 sweep (MiB).
pub const P2_L2S: [usize; 4] = [1, 4, 16, 64];
/// Paper I vector-length sweep (bits).
pub const P1_VLENS: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];
/// Paper I L2 sweep (MiB).
pub const P1_L2S: [usize; 4] = [1, 16, 64, 256];

/// The layers of Table 1, tagged with model and 1-based ordinal, spatially
/// scaled by `scale` (1.0 = the paper's dimensions).
pub fn table1_layers(scale: f64) -> Vec<(String, usize, ConvShape)> {
    let mut out = Vec::new();
    for (name, model) in [("vgg16", zoo::vgg16()), ("yolov3-20", zoo::yolov3_first20())] {
        for (i, s) in model.conv_shapes().into_iter().enumerate() {
            let s = if (scale - 1.0).abs() < 1e-9 { s } else { s.scaled(scale) };
            out.push((name.to_string(), i + 1, s));
        }
    }
    out
}

/// Directory where cached results and generated figures live.
pub fn results_dir() -> PathBuf {
    std::env::var_os("LVCONV_RESULTS").map(PathBuf::from).unwrap_or_else(|| {
        // Walk up from CWD to find the workspace `results/` dir.
        let mut d = std::env::current_dir().expect("cwd");
        loop {
            if d.join("results").is_dir() || d.join("Cargo.toml").is_file() {
                return d.join("results");
            }
            if !d.pop() {
                return PathBuf::from("results");
            }
        }
    })
}

/// Look up one row.
pub fn find<'a>(
    rows: &'a [GridRow],
    model: &str,
    layer: usize,
    vlen: usize,
    l2: usize,
    algo: Algo,
) -> Option<&'a GridRow> {
    rows.iter().find(|r| {
        r.model == model
            && r.layer == layer
            && r.vlen_bits == vlen
            && r.l2_mib == l2
            && r.algo == algo
    })
}

/// Helper for figure code: cycles of the named selection policy for a
/// layer. `policy` is `Some(algo)` for a fixed algorithm (with Winograd
/// falling back to Gemm6 where inapplicable, the paper's `Winograd*`), or
/// `None` for the per-layer Optimal.
pub fn policy_cycles(
    rows: &[GridRow],
    model: &str,
    layer: usize,
    vlen: usize,
    l2: usize,
    policy: Option<Algo>,
) -> Option<u64> {
    match policy {
        Some(Algo::Winograd) => find(rows, model, layer, vlen, l2, Algo::Winograd)
            .or_else(|| find(rows, model, layer, vlen, l2, Algo::Gemm6))
            .map(|r| r.cycles),
        Some(a) => find(rows, model, layer, vlen, l2, a).map(|r| r.cycles),
        None => ALL_ALGOS
            .iter()
            .filter_map(|&a| find(rows, model, layer, vlen, l2, a).map(|r| r.cycles))
            .min(),
    }
}

/// Conv-stack cycles of `model` at one config under a selection policy:
/// [`policy_cycles`] summed over the model's Table-1 layers, a missing
/// layer counting 0.
pub fn stack_cycles(
    rows: &[GridRow],
    model: &str,
    vlen: usize,
    l2: usize,
    policy: Option<Algo>,
) -> u64 {
    table1_layers(1.0)
        .iter()
        .filter(|(m, _, _)| m == model)
        .map(|(_, l, _)| policy_cycles(rows, model, *l, vlen, l2, policy).unwrap_or(0))
        .sum()
}

/// Cycles of every row of `model` at one config summed, or `None` when
/// it has no row. A Paper I plan measures one algorithm per layer and
/// tags each lane count's model name (`/l{n}`), so this is the stack
/// total of that plan's kernel choice.
pub fn rows_total(rows: &[GridRow], model: &str, vlen: usize, l2: usize) -> Option<u64> {
    rows.iter()
        .filter(|r| r.model == model && r.vlen_bits == vlen && r.l2_mib == l2)
        .fold(None, |sum, r| Some(sum.unwrap_or(0) + r.cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecOptions, Executor, SweepPlan};
    use crate::trace::TraceCtx;

    #[test]
    fn table1_has_28_layers() {
        let t = table1_layers(1.0);
        assert_eq!(t.len(), 28);
        assert_eq!(t.iter().filter(|(m, _, _)| m == "vgg16").count(), 13);
        assert_eq!(t.iter().filter(|(m, _, _)| m == "yolov3-20").count(), 15);
    }

    #[test]
    fn winograd_policy_falls_back() {
        // A tiny fake grid: only a Gemm6 row for VGG-16's first layer and a
        // Winograd row for its second; the other eleven layers are missing.
        let row = |layer: usize, algo: Algo, cycles: u64| GridRow {
            model: "vgg16".into(),
            layer,
            shape: ConvShape::same_pad(4, 4, 8, 1, 1),
            vpu: VpuStyle::Integrated,
            lanes: 8,
            vlen_bits: 512,
            l2_mib: 1,
            algo,
            cycles,
            avg_vl: 16.0,
            l2_miss_rate: 0.5,
        };
        let rows = vec![row(1, Algo::Gemm6, 1234), row(2, Algo::Winograd, 100)];
        assert_eq!(policy_cycles(&rows, "vgg16", 1, 512, 1, Some(Algo::Winograd)), Some(1234));
        assert_eq!(policy_cycles(&rows, "vgg16", 1, 512, 1, None), Some(1234));
        assert_eq!(policy_cycles(&rows, "vgg16", 1, 512, 1, Some(Algo::Direct)), None);
        // Stack totals: Winograd* falls back per layer, a missing layer
        // counts 0.
        assert_eq!(stack_cycles(&rows, "vgg16", 512, 1, Some(Algo::Winograd)), 1334);
        assert_eq!(stack_cycles(&rows, "vgg16", 512, 1, None), 1334);
        assert_eq!(stack_cycles(&rows, "vgg16", 512, 1, Some(Algo::Gemm6)), 1234);
        assert_eq!(stack_cycles(&rows, "vgg16", 512, 1, Some(Algo::Direct)), 0);
        assert_eq!(stack_cycles(&rows, "vgg16", 1024, 1, None), 0);
    }

    #[test]
    fn rows_total_filters() {
        let plan = SweepPlan::new("t")
            .layer("x", 1, ConvShape::same_pad(2, 4, 8, 3, 1))
            .suffix("/dec")
            .decoupled()
            .algo(Algo::Gemm3);
        let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
        let rows = exec.run(&plan, &TraceCtx::disabled()).expect("uncached run").rows;
        assert!(rows_total(&rows, "x/dec", 512, 1).is_some());
        assert!(rows_total(&rows, "x/dec", 1024, 1).is_none());
    }
}
