//! Property tests for the lowering and Winograd kernels.
//!
//! * im2col round-trip: the vectorized `lower` (pad + im2col) is a pure
//!   data-movement kernel, so its column matrix must equal the f64 direct
//!   gather **bit for bit** over randomly drawn shapes — any arithmetic
//!   sneaking into the lowering path is a bug, not a rounding difference.
//! * `winograd`: every plan — F(2x2), F(4x4) and the paper's F(6x6) — must
//!   stay inside the derived Higham-style tolerance from `lv-check` (no
//!   fudge factor) against the f64 oracle over randomly drawn
//!   Winograd-applicable shapes.

use lv_check::tolerance;
use lv_conv::winograd::{self, WinoPlan};
use lv_sim::{Machine, MachineConfig};
use lv_tensor::{pseudo_buf, ConvShape};
use proptest::TestRng;

/// Draw a small valid conv shape. `wino` restricts to Winograd-applicable
/// shapes (3x3, stride 1, same padding).
fn draw_shape(rng: &mut TestRng, wino: bool) -> ConvShape {
    loop {
        let ic = 1 + rng.below(6);
        let oc = 1 + rng.below(6);
        let ih = 3 + rng.below(12);
        let iw = 3 + rng.below(12);
        if wino {
            return ConvShape { ic, ih, iw, oc, kh: 3, kw: 3, stride: 1, pad: 1 };
        }
        let k = [1, 2, 3, 5][rng.below(4)];
        let stride = 1 + rng.below(2);
        let pad = rng.below(3);
        let s = ConvShape { ic, ih, iw, oc, kh: k, kw: k, stride, pad };
        // The output grid must be non-empty and the first tap in range.
        if s.ih + 2 * s.pad >= s.kh && s.iw + 2 * s.pad >= s.kw {
            return s;
        }
    }
}

#[test]
fn im2col_lowering_equals_direct_gather_bit_for_bit() {
    let mut rng = TestRng::new(0x1517_c0de);
    for case in 0..48u64 {
        let s = draw_shape(&mut rng, false);
        let input = pseudo_buf(s.input_len(), 100 + case);
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        m.enable_lint();
        let col = lv_conv::im2col::lower(&mut m, &s, &input);
        let want = lv_check::im2col_f64(&s, &input);
        assert_eq!(col.len(), want.len(), "column matrix size for {s:?}");
        for (i, (&got, &w)) in col.iter().zip(&want).enumerate() {
            // Pure data movement: exact equality, including signed zeros.
            assert!(
                (got as f64).to_bits() == w.to_bits(),
                "case {case}, {s:?}: col[{i}] = {got:e}, gather says {w:e}"
            );
        }
    }
}

fn check_winograd_plan(plan: &WinoPlan, seed: u64, cases: u64) {
    let mut rng = TestRng::new(seed);
    for case in 0..cases {
        let s = draw_shape(&mut rng, true);
        let input = pseudo_buf(s.input_len(), 3 + 2 * case);
        let weights = pseudo_buf(s.weight_len(), 4 + 2 * case);
        let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
        m.enable_lint();
        let w_t = winograd::transform_weights(plan, &s, &weights);
        let mut out = lv_tensor::AlignedVec::zeroed(s.output_len());
        winograd::run(plan, &mut m, &s, &input, &w_t, &mut out);

        let orc = lv_check::conv2d_f64(&s, &input, &weights);
        let bounds = tolerance::winograd_bounds(plan, &s, &input, &weights);
        let cmp = tolerance::compare(&out, &orc.out, &bounds);
        assert!(
            cmp.pass(),
            "F({m}x{m}) case {case}, {s:?}: max_abs_err {e:.3e}, {v} over tolerance, worst {w:?}",
            m = plan.m,
            e = cmp.max_abs_err,
            v = cmp.violations,
            w = cmp.worst,
        );
    }
}

#[test]
fn winograd_f2x2_stays_inside_derived_tolerance() {
    check_winograd_plan(&WinoPlan::F2X2, 0xf2f2, 24);
}

#[test]
fn winograd_f4x4_stays_inside_derived_tolerance() {
    check_winograd_plan(&WinoPlan::F4X4, 0xf4f4, 24);
}

#[test]
fn winograd_f6x6_stays_inside_derived_tolerance() {
    check_winograd_plan(&WinoPlan::F6X6, 0xf6f6, 24);
}
