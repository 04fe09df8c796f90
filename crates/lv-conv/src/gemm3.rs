//! The optimized 3-loop GEMM of Paper I (Fig. 2) and its im2col+GEMM
//! convolution wrapper.
//!
//! Loop order `j-i-k` with the `j` loop advanced by the granted vector
//! length (VLA) and the `i` loop unrolled by [`UNROLL`] to reuse the loaded
//! `B` vector across 16 accumulators — the register-reuse and pipelining
//! optimizations the paper found portable across vector ISAs.

use lv_sim::{Machine, VReg};
use lv_tensor::ConvShape;

use crate::im2col;

/// `i`-loop unroll factor. The paper tuned this on RISC-VV: no improvement
/// beyond 16 registers and a ~15% penalty at 32 due to register spilling.
pub const UNROLL: usize = 16;

const VB: VReg = VReg(30);
/// Accumulators that stay register-resident; unrolling past this spills.
const RESIDENT: usize = 30;
const SPILL: VReg = VReg(31);

/// `C(MxN) += A(MxK) * B(KxN)`, all row-major, on the simulated machine.
///
/// `C` must be zero (or hold the accumulation input); the kernel loads,
/// accumulates into, and stores back `C` tiles like the Darknet original
/// (`beta = 1`).
pub fn gemm3_kernel(
    m: &mut Machine,
    mm: usize,
    kk: usize,
    nn: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm3_kernel_unrolled(m, mm, kk, nn, a, b, c, UNROLL);
}

/// [`gemm3_kernel`] with an explicit unroll factor, for the Paper I
/// unroll ablation ("no significant improvement beyond 16 registers …
/// utilizing 32 registers dropped performance ~15% due to register
/// spilling"). Unrolling past the 30-register accumulator budget is
/// faithfully modeled: spilled accumulators live in the `C` tile and pay a
/// load + store around every FMA.
pub fn gemm3_kernel_unrolled(
    m: &mut Machine,
    mm: usize,
    kk: usize,
    nn: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    unroll: usize,
) {
    assert!(a.len() >= mm * kk && b.len() >= kk * nn && c.len() >= mm * nn);
    assert!(unroll >= 1, "unroll factor must be positive");
    let mut j = 0;
    while j < nn {
        let vl = m.vsetvl(nn - j);
        let mut i = 0;
        while i < mm {
            let u = unroll.min(mm - i);
            let resident = u.min(RESIDENT);
            for t in 0..resident {
                m.vle32(VReg(t as u8), &c[(i + t) * nn + j..]);
            }
            for p in 0..kk {
                m.vle32(VB, &b[p * nn + j..]);
                for t in 0..u {
                    let av = m.scalar_load_hidden(a, (i + t) * kk + p);
                    if t < resident {
                        m.vfmacc_vf(VReg(t as u8), av, VB);
                    } else {
                        // Spilled accumulator: reload, update, write back.
                        m.vle32(SPILL, &c[(i + t) * nn + j..]);
                        m.vfmacc_vf(SPILL, av, VB);
                        m.vse32(SPILL, &mut c[(i + t) * nn + j..]);
                    }
                }
                m.scalar_ops(1);
            }
            for t in 0..resident {
                m.vse32(VReg(t as u8), &mut c[(i + t) * nn + j..]);
            }
            m.scalar_ops(2);
            i += u;
        }
        j += vl;
    }
}

/// im2col + 3-loop GEMM convolution: NCHW input/output, OIHW weights
/// (which are exactly the row-major `M x K` GEMM `A` matrix).
pub fn run(m: &mut Machine, s: &ConvShape, input: &[f32], w_mk: &[f32], output: &mut [f32]) {
    let (mm, kk, nn) = s.gemm_mkn();
    let col = im2col::lower(m, s, input);
    // NCHW output [oc][oh][ow] is exactly the row-major M x N C matrix.
    output.fill(0.0);
    gemm3_kernel(m, mm, kk, nn, w_mk, &col, output);
}

/// The unvectorized Darknet baseline: scalar im2col (with bounds checks,
/// as `im2col_cpu` does) followed by the naive scalar `ijk` GEMM. Used by
/// the Paper I naive-vs-optimized comparison; every access runs through
/// the scalar side of the machine.
pub fn run_naive_scalar(
    m: &mut Machine,
    s: &ConvShape,
    input: &[f32],
    w_mk: &[f32],
    output: &mut [f32],
) {
    let (mm, kk, nn) = s.gemm_mkn();
    let (oh, ow) = (s.oh(), s.ow());
    let mut col = lv_tensor::AlignedVec::zeroed(kk * nn);
    // Scalar im2col.
    for ic in 0..s.ic {
        for ky in 0..s.kh {
            for kx in 0..s.kw {
                let krow = (ic * s.kh + ky) * s.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * s.stride + ky) as isize - s.pad as isize;
                        let ix = (ox * s.stride + kx) as isize - s.pad as isize;
                        m.scalar_ops(3); // index math + bounds test
                        let v = if iy < 0 || ix < 0 || iy >= s.ih as isize || ix >= s.iw as isize {
                            0.0
                        } else {
                            m.scalar_load(input, (ic * s.ih + iy as usize) * s.iw + ix as usize)
                        };
                        m.scalar_store(&mut col, krow * nn + oy * ow + ox, v);
                    }
                }
            }
        }
    }
    // Naive scalar GEMM (Darknet's gemm_nn loop order).
    output.fill(0.0);
    for i in 0..mm {
        for p in 0..kk {
            let a = m.scalar_load(w_mk, i * kk + p);
            for j in 0..nn {
                let b = m.scalar_load(&col, p * nn + j);
                let c = m.scalar_load(output, i * nn + j);
                m.scalar_fma();
                m.scalar_store(output, i * nn + j, c + a * b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_sim::MachineConfig;
    use lv_tensor::{conv2d_reference, gemm_reference, max_rel_error, pseudo_buf};

    #[test]
    fn naive_scalar_matches_reference_and_is_slower() {
        let s = lv_tensor::ConvShape::same_pad(3, 6, 10, 3, 1);
        let input = pseudo_buf(s.input_len(), 5);
        let w = pseudo_buf(s.weight_len(), 6);
        let want = conv2d_reference(&s, &input, &w);
        let mut out = vec![0.0f32; s.output_len()];
        let mut m1 = Machine::new(MachineConfig::rvv_integrated(512, 1));
        run_naive_scalar(&mut m1, &s, &input, &w, &mut out);
        assert!(max_rel_error(&out, &want) < 1e-3);
        let mut m2 = Machine::new(MachineConfig::rvv_integrated(512, 1));
        run(&mut m2, &s, &input, &w, &mut out);
        assert!(
            m1.cycles() > 4 * m2.cycles(),
            "naive {} should be >4x optimized {}",
            m1.cycles(),
            m2.cycles()
        );
    }

    #[test]
    fn gemm_matches_reference() {
        let (mm, kk, nn) = (7, 13, 40); // deliberately awkward sizes
        let a = pseudo_buf(mm * kk, 1);
        let b = pseudo_buf(kk * nn, 2);
        let mut c = vec![0.0f32; mm * nn];
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        gemm3_kernel(&mut m, mm, kk, nn, &a, &b, &mut c);
        let want = gemm_reference(mm, kk, nn, &a, &b);
        assert!(max_rel_error(&c, &want) < 1e-3);
    }

    #[test]
    fn gemm_tail_m_not_multiple_of_unroll() {
        let (mm, kk, nn) = (UNROLL + 3, 5, 17);
        let a = pseudo_buf(mm * kk, 3);
        let b = pseudo_buf(kk * nn, 4);
        let mut c = vec![0.0f32; mm * nn];
        let mut m = Machine::new(MachineConfig::rvv_integrated(2048, 1));
        gemm3_kernel(&mut m, mm, kk, nn, &a, &b, &mut c);
        assert!(max_rel_error(&c, &gemm_reference(mm, kk, nn, &a, &b)) < 1e-3);
    }

    #[test]
    fn unrolled_variants_all_match_reference() {
        let (mm, kk, nn) = (35, 20, 40); // > RESIDENT rows to exercise spills
        let a = pseudo_buf(mm * kk, 7);
        let b = pseudo_buf(kk * nn, 8);
        let want = gemm_reference(mm, kk, nn, &a, &b);
        for unroll in [1usize, 4, 16, 32, 35] {
            let mut c = vec![0.0f32; mm * nn];
            let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
            gemm3_kernel_unrolled(&mut m, mm, kk, nn, &a, &b, &mut c, unroll);
            assert!(max_rel_error(&c, &want) < 1e-3, "unroll {unroll}");
        }
    }

    #[test]
    fn unroll_sweet_spot_matches_paper() {
        // Paper I: gains up to ~16, then a drop from register spilling.
        let (mm, kk, nn) = (64, 128, 256);
        let a = pseudo_buf(mm * kk, 1);
        let b = pseudo_buf(kk * nn, 2);
        let cycles_at = |unroll: usize| {
            let mut c = vec![0.0f32; mm * nn];
            let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
            gemm3_kernel_unrolled(&mut m, mm, kk, nn, &a, &b, &mut c, unroll);
            m.cycles()
        };
        let c1 = cycles_at(1);
        let c16 = cycles_at(16);
        let c32 = cycles_at(32);
        assert!(c16 < c1, "unrolling must help: {c16} vs {c1}");
        assert!(c32 > c16, "spilling at 32 must hurt: {c32} vs {c16}");
        let drop = c32 as f64 / c16 as f64;
        assert!((1.02..1.6).contains(&drop), "spill penalty {drop:.2}x out of range");
    }

    #[test]
    fn conv_matches_reference() {
        for (s, vlen) in [
            (lv_tensor::ConvShape::same_pad(3, 8, 14, 3, 1), 512),
            (lv_tensor::ConvShape::same_pad(4, 6, 15, 3, 2), 1024),
            (lv_tensor::ConvShape::same_pad(6, 5, 10, 1, 1), 4096),
        ] {
            let input = pseudo_buf(s.input_len(), 5);
            let w = pseudo_buf(s.weight_len(), 6);
            let mut out = vec![0.0f32; s.output_len()];
            let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
            run(&mut m, &s, &input, &w, &mut out);
            let want = conv2d_reference(&s, &input, &w);
            assert!(max_rel_error(&out, &want) < 1e-3, "mismatch for {s:?} vlen {vlen}");
        }
    }
}
