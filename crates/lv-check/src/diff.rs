//! The differential runner: every kernel x every machine x a shape grid
//! plus a seeded shape fuzzer, each cell judged against the f64 oracle
//! under the asserted tolerances from [`crate::tolerance`].
//!
//! Coverage per convolution shape:
//!
//! * Direct in all three [`DirectVariant`]s (not just the `Optimized`
//!   default that [`lv_conv::run_conv`] dispatches to),
//! * im2col + 3-loop GEMM,
//! * im2col + 6-loop GEMM under three [`Gemm6Blocking`] choices — the
//!   paper's blocking plus two deliberately awkward ones that force
//!   remainder panels in every loop,
//! * Winograd where applicable, under the paper's F(6x6, 3x3) plan and
//!   the F(2x2) / F(4x4) plans of the tile-size ablation,
//!
//! and separately the depthwise kernel over its own shape list. Every
//! machine runs with the [`lv_sim`] invariant lint enabled, so a
//! conformance sweep simultaneously audits the simulator's cycle/cache
//! accounting and register dataflow.

use lv_conv::{
    depthwise::{run_depthwise, DepthwiseShape},
    direct, gemm3, gemm6,
    winograd::{self, WinoPlan},
    Algo, DirectVariant, Gemm6Blocking,
};
use lv_models::calib;
use lv_sim::{Machine, MachineConfig};
use lv_tensor::{pseudo_buf, ConvShape};
use proptest::TestRng;

use crate::oracle::{self, ConvOracle};
use crate::tolerance::{self, Comparison};

/// Options for a conformance sweep.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Seed for the shape fuzzer (grid shapes are fixed).
    pub seed: u64,
    /// Deep mode: more fuzz shapes, larger shapes, more machines.
    pub deep: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self { seed: 42, deep: false }
    }
}

/// One kernel x shape x machine cell of the sweep.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Kernel identifier (e.g. `direct/opt`, `gemm6/5x33x7`, `wino/f6`).
    pub kernel: String,
    /// Human-readable shape.
    pub shape: String,
    /// Machine identifier (e.g. `int1024`, `dec512`).
    pub machine: String,
    /// Largest absolute error vs the f64 oracle.
    pub max_abs_err: f64,
    /// Tolerance at the worst element.
    pub bound_at_max: f64,
    /// Elements over tolerance (0 = PASS).
    pub violations: usize,
    /// Worst violation rendered for the report, empty when passing.
    pub detail: String,
}

impl CellResult {
    /// Whether the cell passed.
    pub fn pass(&self) -> bool {
        self.violations == 0
    }
}

/// Aggregated sweep results.
#[derive(Debug)]
pub struct CheckReport {
    /// All cells, in execution order.
    pub cells: Vec<CellResult>,
    /// The fuzzer-generated shapes (for reproduction in bug reports).
    pub fuzz_shapes: Vec<ConvShape>,
    /// Seed the fuzzer ran with.
    pub seed: u64,
    /// Whether deep mode was on.
    pub deep: bool,
    /// Total simulator-lint checks performed across all cells.
    pub lint_checks: u64,
}

impl CheckReport {
    /// Number of failing cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| !c.pass()).count()
    }

    /// Whether every cell passed.
    pub fn pass(&self) -> bool {
        self.failures() == 0
    }

    /// Render the per-cell PASS/FAIL table plus a summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance sweep: seed={} deep={} cells={} lint_checks={}\n\n",
            self.seed,
            self.deep,
            self.cells.len(),
            self.lint_checks
        ));
        out.push_str(&format!(
            "{:<14} {:<34} {:<8} {:>12} {:>12}  {}\n",
            "kernel", "shape", "machine", "max_abs_err", "bound", "status"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<14} {:<34} {:<8} {:>12.3e} {:>12.3e}  {}\n",
                c.kernel,
                c.shape,
                c.machine,
                c.max_abs_err,
                c.bound_at_max,
                if c.pass() { "PASS" } else { "FAIL" }
            ));
            if !c.pass() {
                out.push_str(&format!("    {}\n", c.detail));
            }
        }
        out.push_str(&format!("\nfuzz shapes ({}):\n", self.fuzz_shapes.len()));
        for s in &self.fuzz_shapes {
            out.push_str(&format!("  {}\n", shape_label(s)));
        }
        let fails = self.failures();
        if fails == 0 {
            out.push_str(&format!("\nRESULT: PASS ({} cells)\n", self.cells.len()));
        } else {
            out.push_str(&format!(
                "\nRESULT: FAIL ({fails} of {} cells over tolerance)\n",
                self.cells.len()
            ));
        }
        out
    }
}

/// Compact human-readable shape label.
pub fn shape_label(s: &ConvShape) -> String {
    format!("ic{}x{}x{}->oc{} k{}x{} s{} p{}", s.ic, s.ih, s.iw, s.oc, s.kh, s.kw, s.stride, s.pad)
}

/// The structured shape grid: [`calib::structured_shapes`] (blocking
/// boundaries, ragged tile edges, 1xN / Nx1, non-square kernels and
/// images, strides 1..3, pad 0..2), which also anchors the fast tier's
/// calibration. Deep mode swaps the last shape, a cheap stand-in, for the
/// real IC_BLOCK tail and adds an even kernel.
pub fn structured_grid(deep: bool) -> Vec<ConvShape> {
    let mut g = calib::structured_shapes();
    if deep {
        // The last shape is a cheap stand-in for this one: the IC_BLOCK
        // tail in the winograd tuple stage (66 = 64 + 2), the most
        // expensive grid shape, deep mode only.
        g.pop();
        g.push(ConvShape::same_pad(66, 7, 12, 3, 1));
        // Even kernel.
        g.push(ConvShape { ic: 3, ih: 8, iw: 8, oc: 4, kh: 2, kw: 2, stride: 2, pad: 0 });
    }
    g
}

/// Seeded shape fuzzer: adversarial strides, pads, channel counts that
/// straddle vector lengths and blocking factors, degenerate 1-pixel
/// dimensions. Regenerates until the shape is valid and within the MAC
/// budget, so every seed yields exactly `n` shapes.
pub fn fuzz_shapes(seed: u64, n: usize, deep: bool) -> Vec<ConvShape> {
    const ICS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 17, 33, 36, 66];
    const OCS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33];
    const KS: [usize; 4] = [1, 2, 3, 5];
    let mac_cap: u64 = if deep { 2_000_000 } else { 300_000 };
    let mut rng = TestRng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = ConvShape {
            ic: ICS[rng.below(ICS.len())],
            ih: 1 + rng.below(18),
            iw: 1 + rng.below(18),
            oc: OCS[rng.below(OCS.len())],
            kh: KS[rng.below(KS.len())],
            kw: KS[rng.below(KS.len())],
            stride: 1 + rng.below(3),
            pad: rng.below(3),
        };
        if s.ih + 2 * s.pad < s.kh || s.iw + 2 * s.pad < s.kw {
            continue;
        }
        if s.macs() > mac_cap {
            continue;
        }
        out.push(s);
    }
    out
}

/// Machine points the sweep runs on. All have the invariant lint enabled
/// by the runner; the mix covers short and long vectors and both VPU
/// styles (the decoupled style exercises the L1-bypass cache path).
pub fn machine_points(deep: bool) -> Vec<(String, MachineConfig)> {
    let mut v = vec![
        ("int256".to_string(), MachineConfig::rvv_integrated(256, 1)),
        ("int1024".to_string(), MachineConfig::rvv_integrated(1024, 1)),
        ("dec512".to_string(), MachineConfig::rvv_decoupled(512, 1)),
    ];
    if deep {
        v.push(("int2048".to_string(), MachineConfig::rvv_integrated(2048, 2)));
        v.push(("int4096".to_string(), MachineConfig::rvv_integrated(4096, 2)));
        v.push(("dec2048".to_string(), MachineConfig::rvv_decoupled(2048, 2)));
    }
    v
}

fn cell(
    kernel: &str,
    shape: String,
    machine: &str,
    cmp: &Comparison,
    oracle: &ConvOracle,
) -> CellResult {
    let detail = match &cmp.worst {
        None => String::new(),
        Some(v) => format!(
            "worst at index {}: got {:.9e} want {:.9e} err {:.3e} > bound {:.3e} \
             (|acc| {:.3e}, {} elements over)",
            v.index,
            v.got,
            v.want,
            v.err,
            v.bound,
            oracle.absacc.get(v.index).copied().unwrap_or(0.0),
            cmp.violations
        ),
    };
    CellResult {
        kernel: kernel.to_string(),
        shape,
        machine: machine.to_string(),
        max_abs_err: cmp.max_abs_err,
        bound_at_max: cmp.bound_at_max,
        violations: cmp.violations,
        detail,
    }
}

/// Run every applicable kernel for `s` on every machine point and judge
/// each output against the oracle. `data_seed` decorrelates the pseudo
/// data across shapes.
pub fn check_conv_shape(
    s: &ConvShape,
    machines: &[(String, MachineConfig)],
    data_seed: u64,
    lint_checks: &mut u64,
) -> Vec<CellResult> {
    let input = pseudo_buf(s.input_len(), 2 * data_seed + 1);
    let weights = pseudo_buf(s.weight_len(), 2 * data_seed + 2);
    let orc = oracle::conv2d_f64(s, &input, &weights);
    let exact_bounds = tolerance::exact_algo_bounds(s, &orc);
    let label = shape_label(s);

    // Prepared weights, shared across machines.
    let w_hwio = lv_conv::prepare_weights(Algo::Direct, s, &weights);
    let gemm6_blockings = [
        ("gemm6/paper", Gemm6Blocking::paper()),
        ("gemm6/8x64x32", Gemm6Blocking::new(8, 64, 32)),
        ("gemm6/5x33x7", Gemm6Blocking::new(5, 33, 7)),
    ];
    // Every Winograd plan in row order, with its weights and bounds.
    let plans: &[WinoPlan] = if s.winograd_applicable() {
        &[WinoPlan::F6X6, WinoPlan::F2X2, WinoPlan::F4X4]
    } else {
        &[]
    };
    let wino: Vec<_> = plans
        .iter()
        .map(|p| {
            let w_t = winograd::transform_weights(p, s, &weights);
            (p, w_t, tolerance::winograd_bounds(p, s, &input, &weights))
        })
        .collect();

    let mut cells = Vec::new();
    let mut out = vec![0.0f32; s.output_len()];
    for (mname, cfg) in machines {
        let mut run =
            |kernel: &str, bounds: &[f64], f: &mut dyn FnMut(&mut Machine, &mut [f32])| {
                let mut m = Machine::new(*cfg);
                m.enable_lint();
                out.fill(0.0);
                f(&mut m, &mut out);
                *lint_checks += m.lint().map_or(0, |l| l.checks());
                let cmp = tolerance::compare(&out, &orc.out, bounds);
                cells.push(cell(kernel, label.clone(), mname, &cmp, &orc));
            };

        for (kname, variant) in [
            ("direct/naive", DirectVariant::NaiveIc),
            ("direct/reord", DirectVariant::Reordered),
            ("direct/opt", DirectVariant::Optimized),
        ] {
            run(kname, &exact_bounds, &mut |m, out| {
                direct::run(m, s, &input, &w_hwio.data, out, variant)
            });
        }
        run("gemm3", &exact_bounds, &mut |m, out| gemm3::run(m, s, &input, &weights, out));
        for (kname, blk) in &gemm6_blockings {
            run(kname, &exact_bounds, &mut |m, out| gemm6::run(m, s, &input, &weights, out, blk));
        }
        for (plan, w_t, bounds) in &wino {
            let kname = format!("wino/f{}", plan.m);
            run(&kname, bounds, &mut |m, out| winograd::run(plan, m, s, &input, w_t, out));
        }
    }
    cells
}

/// Depthwise shapes exercised by the sweep.
pub fn depthwise_grid() -> Vec<DepthwiseShape> {
    vec![
        DepthwiseShape { channels: 5, hw: 10, k: 3, stride: 1 },
        DepthwiseShape { channels: 17, hw: 9, k: 3, stride: 2 },
        DepthwiseShape { channels: 3, hw: 12, k: 5, stride: 1 },
    ]
}

/// Check the depthwise kernel on every machine point.
pub fn check_depthwise(
    machines: &[(String, MachineConfig)],
    lint_checks: &mut u64,
) -> Vec<CellResult> {
    let mut cells = Vec::new();
    for (i, ds) in depthwise_grid().iter().enumerate() {
        let input = pseudo_buf(ds.input_len(), 900 + 2 * i as u64);
        let weights = pseudo_buf(ds.weight_len(), 901 + 2 * i as u64);
        let orc = oracle::depthwise_f64(ds.channels, ds.hw, ds.k, ds.stride, &input, &weights);
        let bounds = tolerance::depthwise_bounds(ds.k, &orc);
        let label = format!("dw c{} {}x{} k{} s{}", ds.channels, ds.hw, ds.hw, ds.k, ds.stride);
        let mut out = vec![0.0f32; ds.output_len()];
        for (mname, cfg) in machines {
            let mut m = Machine::new(*cfg);
            m.enable_lint();
            out.fill(0.0);
            run_depthwise(&mut m, ds, &input, &weights, &mut out);
            *lint_checks += m.lint().map_or(0, |l| l.checks());
            let cmp = tolerance::compare(&out, &orc.out, &bounds);
            cells.push(cell("depthwise", label.clone(), mname, &cmp, &orc));
        }
    }
    cells
}

/// Run the full conformance sweep.
pub fn run_check(cfg: &CheckConfig) -> CheckReport {
    let machines = machine_points(cfg.deep);
    let fuzz = fuzz_shapes(cfg.seed, if cfg.deep { 40 } else { 12 }, cfg.deep);
    let mut cells = Vec::new();
    let mut lint_checks = 0u64;
    for (i, s) in structured_grid(cfg.deep).iter().enumerate() {
        cells.extend(check_conv_shape(s, &machines, i as u64, &mut lint_checks));
    }
    for (i, s) in fuzz.iter().enumerate() {
        cells.extend(check_conv_shape(s, &machines, 100 + i as u64, &mut lint_checks));
    }
    cells.extend(check_depthwise(&machines, &mut lint_checks));
    CheckReport { cells, fuzz_shapes: fuzz, seed: cfg.seed, deep: cfg.deep, lint_checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzer_is_deterministic_and_respects_budget() {
        let a = fuzz_shapes(7, 8, false);
        let b = fuzz_shapes(7, 8, false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for s in &a {
            assert!(s.macs() <= 300_000);
            assert!(s.oh() >= 1 && s.ow() >= 1);
        }
        let c = fuzz_shapes(8, 8, false);
        assert_ne!(a, c, "different seeds should give different shapes");
    }

    #[test]
    fn single_shape_all_kernels_pass() {
        // One cheap shape through every kernel on one short- and one
        // long-vector machine; the full sweep runs via `repro check`.
        let s = ConvShape::same_pad(3, 5, 12, 3, 1);
        let machines = vec![
            ("int256".to_string(), MachineConfig::rvv_integrated(256, 1)),
            ("dec512".to_string(), MachineConfig::rvv_decoupled(512, 1)),
        ];
        let mut lint = 0;
        let cells = check_conv_shape(&s, &machines, 0, &mut lint);
        // 7 exact kernels + 3 winograd variants, on 2 machines.
        assert_eq!(cells.len(), 20);
        assert!(lint > 0, "lint must actually run");
        for c in &cells {
            assert!(c.pass(), "{} on {} failed: {}", c.kernel, c.machine, c.detail);
        }
    }

    #[test]
    fn depthwise_cells_pass() {
        let machines = vec![("int256".to_string(), MachineConfig::rvv_integrated(256, 1))];
        let mut lint = 0;
        for c in check_depthwise(&machines, &mut lint) {
            assert!(c.pass(), "{} failed: {}", c.shape, c.detail);
        }
    }

    #[test]
    fn corrupted_output_is_flagged_with_shape_and_magnitude() {
        // Simulate a kernel bug by corrupting the oracle comparison input:
        // the report must carry the offending magnitude, not just a bool.
        let s = ConvShape::same_pad(2, 2, 6, 3, 1);
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_buf(s.weight_len(), 2);
        let orc = oracle::conv2d_f64(&s, &input, &w);
        let bounds = tolerance::exact_algo_bounds(&s, &orc);
        let mut got: Vec<f32> = orc.out.iter().map(|&x| x as f32).collect();
        got[5] += 0.25;
        let cmp = tolerance::compare(&got, &orc.out, &bounds);
        let c = cell("direct/opt", shape_label(&s), "int256", &cmp, &orc);
        assert!(!c.pass());
        assert!(c.detail.contains("index 5"), "detail: {}", c.detail);
        assert!(c.max_abs_err > 0.2);
    }
}
