//! Winograd F(m x m, 3x3) convolution with the paper's **inter-tile
//! parallelism across input/output channels** (Paper I §IV-B), one kernel
//! for every tile size: a [`WinoPlan`] carries the tile and its transform
//! matrices. [`WinoPlan::F6X6`] (8x8 tiles) is the paper's plan and the
//! one [`crate::run_conv`] dispatches to; [`WinoPlan::F4X4`] and
//! [`WinoPlan::F2X2`] run the same code for the tile-size ablation
//! (`repro ablation-tiles`).
//!
//! Larger Winograd tiles would exploit long vectors directly but lose
//! numerical accuracy, so the paper keeps 8x8 tiles and instead packs *one
//! row of the tile from each of `VL/t` channels* into a vector register:
//! transform arithmetic is identical across channels, so the whole
//! transform runs at full vector length. The tuple (elementwise)
//! multiplication is vectorized across the `t*t` tuple elements — for 8x8
//! tiles "16 blocks with 4 elements in each block", which caps its useful
//! vector length at 2048 bits and is the structural reason Winograd stops
//! scaling beyond 2048-bit vectors in the paper's sweeps.
//!
//! Pipeline (NNPACK structure):
//! 1. input transform `U = (B^T d B)^T` for every `t x t` input tile,
//! 2. tuple multiplication `M[oc][tile] += U[ic][tile] * W[oc][ic]`
//!    (elementwise over the tuple elements),
//! 3. output transform `Y = A^T M A`, scattered back to NCHW.
//!
//! All stages store tiles *transposed* (`U`, `W`, `M` alike); elementwise
//! products are transpose-invariant, and the double application of the
//! row-matrix + transpose sequence yields the untransposed result (see the
//! stage comments). The weight transform `W = (G g G^T)^T` runs offline and
//! is not charged, as in the paper.

use lv_sim::{Machine, VReg};
use lv_tensor::{AlignedVec, ConvShape};

use crate::im2col::pad_nchw;

/// A Winograd plan F(m x m, 3x3) with input tile `t = m + 2 <= 8`. The
/// matrices are zero-extended to the 8x8 maximum; only the leading `t`
/// rows and columns are read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WinoPlan {
    /// Output tile size `m`.
    pub m: usize,
    /// Input tile size `t = m + 2`.
    pub t: usize,
    /// `B^T` (t x t).
    pub bt: [[f32; 8]; 8],
    /// `G` (t x 3).
    pub g: [[f32; 3]; 8],
    /// `A^T` (t x t, valid rows `0..m`).
    pub at: [[f32; 8]; 8],
}

impl WinoPlan {
    /// F(6x6, 3x3) on 8x8 tiles, Lavin-style interpolation points: the
    /// paper's plan.
    pub const F6X6: WinoPlan = WinoPlan {
        m: 6,
        t: 8,
        bt: [
            [1.0, 0.0, -5.25, 0.0, 5.25, 0.0, -1.0, 0.0],
            [0.0, 1.0, 1.0, -4.25, -4.25, 1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0, 4.25, -4.25, -1.0, 1.0, 0.0],
            [0.0, 0.5, 0.25, -2.5, -1.25, 2.0, 1.0, 0.0],
            [0.0, -0.5, 0.25, 2.5, -1.25, -2.0, 1.0, 0.0],
            [0.0, 2.0, 4.0, -2.5, -5.0, 0.5, 1.0, 0.0],
            [0.0, -2.0, 4.0, 2.5, -5.0, -0.5, 1.0, 0.0],
            [0.0, -1.0, 0.0, 5.25, 0.0, -5.25, 0.0, 1.0],
        ],
        g: [
            [1.0, 0.0, 0.0],
            [-2.0 / 9.0, -2.0 / 9.0, -2.0 / 9.0],
            [-2.0 / 9.0, 2.0 / 9.0, -2.0 / 9.0],
            [1.0 / 90.0, 1.0 / 45.0, 2.0 / 45.0],
            [1.0 / 90.0, -1.0 / 45.0, 2.0 / 45.0],
            [32.0 / 45.0, 16.0 / 45.0, 8.0 / 45.0],
            [32.0 / 45.0, -16.0 / 45.0, 8.0 / 45.0],
            [0.0, 0.0, 1.0],
        ],
        at: [
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.0],
            [0.0, 1.0, 1.0, 4.0, 4.0, 0.25, 0.25, 0.0],
            [0.0, 1.0, -1.0, 8.0, -8.0, 0.125, -0.125, 0.0],
            [0.0, 1.0, 1.0, 16.0, 16.0, 0.0625, 0.0625, 0.0],
            [0.0, 1.0, -1.0, 32.0, -32.0, 0.03125, -0.03125, 1.0],
            [0.0; 8],
            [0.0; 8],
        ],
    };

    /// F(4x4, 3x3) on 6x6 tiles: 4x multiplication reduction.
    pub const F4X4: WinoPlan = WinoPlan {
        m: 4,
        t: 6,
        bt: [
            [4.0, 0.0, -5.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -4.0, -4.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 4.0, -4.0, -1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -2.0, -1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, -1.0, -2.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 4.0, 0.0, -5.0, 0.0, 1.0, 0.0, 0.0],
            [0.0; 8],
            [0.0; 8],
        ],
        g: [
            [0.25, 0.0, 0.0],
            [-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
            [-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
            [1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
            [1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
            [0.0, 0.0, 1.0],
            [0.0; 3],
            [0.0; 3],
        ],
        at: [
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 4.0, 4.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 8.0, -8.0, 1.0, 0.0, 0.0],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
        ],
    };

    /// F(2x2, 3x3) on 4x4 tiles: 2.25x multiplication reduction.
    pub const F2X2: WinoPlan = WinoPlan {
        m: 2,
        t: 4,
        bt: [
            [1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
        ],
        g: [
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [0.0, 0.0, 1.0],
            [0.0; 3],
            [0.0; 3],
            [0.0; 3],
            [0.0; 3],
        ],
        at: [
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
            [0.0; 8],
        ],
    };

    /// Tuple elements per tile (`t * t`).
    fn tuple(&self) -> usize {
        self.t * self.t
    }
}

/// Tile-block size of the tuple-multiplication stage. Fixed (tuned for a
/// ~1 MiB cache once, like NNPACK), which is why the paper finds Winograd
/// insensitive to L2 sizes beyond a point.
const TILE_BLOCK: usize = 16;
/// Output-channel accumulators held in registers during tuple multiply.
const OC_BLOCK: usize = 8;
/// Input-channel block of the tuple-multiplication stage.
const IC_BLOCK: usize = 64;

/// Length of [`transform_weights`]' output: one `t*t`-element tuple per
/// (output, input) channel pair.
pub fn transformed_len(plan: &WinoPlan, s: &ConvShape) -> usize {
    s.oc * s.ic * plan.tuple()
}

/// Offline weight transform: OIHW 3x3 weights -> `[oc][ic][t*t]` tuples,
/// each tile stored transposed (`(G g G^T)^T`). Host-side, uncharged.
pub fn transform_weights(plan: &WinoPlan, s: &ConvShape, w_oihw: &[f32]) -> AlignedVec {
    assert!(s.winograd_applicable());
    let t = plan.t;
    let mut out = AlignedVec::zeroed(transformed_len(plan, s));
    let mut gg = [[0.0f32; 3]; 8];
    let mut v = [[0.0f32; 8]; 8];
    for oc in 0..s.oc {
        for ic in 0..s.ic {
            let g0 = &w_oihw[((oc * s.ic + ic) * 3) * 3..((oc * s.ic + ic) * 3 + 3) * 3];
            // gg = G (t x 3) * g (3x3)
            for i in 0..t {
                for j in 0..3 {
                    gg[i][j] = (0..3).map(|k| plan.g[i][k] * g0[k * 3 + j]).sum();
                }
            }
            // v = gg * G^T  (t x t)
            for i in 0..t {
                for j in 0..t {
                    v[i][j] = (0..3).map(|k| gg[i][k] * plan.g[j][k]).sum();
                }
            }
            let base = (oc * s.ic + ic) * plan.tuple();
            for r in 0..t {
                for cc in 0..t {
                    out[base + r * t + cc] = v[cc][r]; // store transposed
                }
            }
        }
    }
    out
}

/// Apply a constant `t x t` matrix to `t` row registers:
/// `dst[i] = sum_j c[i][j] * src[j]`, skipping zero coefficients (this is
/// how the intrinsics implementations encode the transform).
fn apply_row_matrix(m: &mut Machine, c: &[[f32; 8]; 8], src: &[VReg], dst: &[VReg]) {
    for (i, &d) in dst.iter().enumerate() {
        let mut started = false;
        for (j, &s) in src.iter().enumerate() {
            let coef = c[i][j];
            if coef == 0.0 {
                continue;
            }
            if !started {
                m.vfmul_vf(d, coef, s);
                started = true;
            } else {
                m.vfmacc_vf(d, coef, s);
            }
        }
        if !started {
            m.vfmv_v_f(d, 0.0);
        }
    }
}

const SRC: [VReg; 8] = [VReg(0), VReg(1), VReg(2), VReg(3), VReg(4), VReg(5), VReg(6), VReg(7)];
const DST: [VReg; 8] =
    [VReg(8), VReg(9), VReg(10), VReg(11), VReg(12), VReg(13), VReg(14), VReg(15)];

/// Winograd convolution under `plan`: NCHW input/output, weights from
/// [`transform_weights`] with the same plan. Panics unless the layer is
/// 3x3 stride-1.
pub fn run(
    plan: &WinoPlan,
    m: &mut Machine,
    s: &ConvShape,
    input: &[f32],
    w_t: &[f32],
    output: &mut [f32],
) {
    assert!(s.winograd_applicable(), "Winograd requires 3x3 stride-1 layers");
    let (t, mo, tuple) = (plan.t, plan.m, plan.tuple());
    let (src, dst) = (&SRC[..t], &DST[..t]);
    let (oh, ow) = (s.oh(), s.ow());
    let tiles_y = oh.div_ceil(mo);
    let tiles_x = ow.div_ceil(mo);
    let nt = tiles_y * tiles_x;
    // Padded input covering every t x t tile window: the image sits at
    // (pad, pad) and the plane extends to tiles*m + 2 in each dimension.
    let ph = tiles_y * mo + 2;
    let pw = tiles_x * mo + 2;
    let padded = pad_nchw(m, s.ic, s.ih, s.iw, input, ph, pw, s.pad, s.pad);

    let mvl = m.mvl();
    let nch_max = (mvl / t).max(1);

    // ---- Stage 1: input transform -> U [ic][tile][t*t] (tiles transposed).
    let mut ubuf = AlignedVec::zeroed(s.ic * nt * tuple);
    let mut icb = 0;
    while icb < s.ic {
        let nch = nch_max.min(s.ic - icb);
        let _ = m.vsetvl(nch * t);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let ti = ty * tiles_x + tx;
                for r in 0..t {
                    let off = (icb * ph + ty * mo + r) * pw + tx * mo;
                    m.vload_seg(src[r], &padded[off..], t, ph * pw, nch);
                }
                // (B^T d); transpose; (B^T (B^T d)^T) == (B^T d B)^T.
                apply_row_matrix(m, &plan.bt, src, dst);
                m.vtranspose_n(dst);
                apply_row_matrix(m, &plan.bt, dst, src);
                for r in 0..t {
                    let off = (icb * nt + ti) * tuple + r * t;
                    m.vstore_seg(src[r], &mut ubuf[off..], t, nt * tuple, nch);
                }
                m.scalar_ops(4);
            }
        }
        icb += nch;
    }

    // ---- Stage 2: tuple multiplication -> M [oc][tile][t*t].
    // Vector runs across tuple elements: vl = min(t*t, MVL), for 8x8
    // tiles the paper's "16 blocks of 4 elements" scheme (useful VL caps
    // at 2048 bits).
    let mut mbuf = AlignedVec::zeroed(s.oc * nt * tuple);
    let vlf = tuple.min(mvl);
    let fchunks = tuple.div_ceil(vlf);
    let vu = VReg(8);
    let vw = VReg(9);
    let mut t0 = 0;
    while t0 < nt {
        let tb = TILE_BLOCK.min(nt - t0);
        let mut ic0 = 0;
        while ic0 < s.ic {
            let icn = IC_BLOCK.min(s.ic - ic0);
            let mut oc0 = 0;
            while oc0 < s.oc {
                let ocn = OC_BLOCK.min(s.oc - oc0);
                for ti in t0..t0 + tb {
                    for fc in 0..fchunks {
                        let f0 = fc * vlf;
                        let _ = m.vsetvl(vlf.min(tuple - f0));
                        for u in 0..ocn {
                            let moff = ((oc0 + u) * nt + ti) * tuple + f0;
                            if ic0 == 0 {
                                m.vfmv_v_f(VReg(u as u8), 0.0);
                            } else {
                                m.vle32(VReg(u as u8), &mbuf[moff..]);
                            }
                        }
                        for ic in ic0..ic0 + icn {
                            m.vle32(vu, &ubuf[(ic * nt + ti) * tuple + f0..]);
                            for u in 0..ocn {
                                m.vle32(vw, &w_t[((oc0 + u) * s.ic + ic) * tuple + f0..]);
                                m.vfmacc_vv(VReg(u as u8), vw, vu);
                            }
                        }
                        for u in 0..ocn {
                            let moff = ((oc0 + u) * nt + ti) * tuple + f0;
                            m.vse32(VReg(u as u8), &mut mbuf[moff..]);
                        }
                    }
                    m.scalar_ops(4);
                }
                oc0 += ocn;
            }
            ic0 += icn;
        }
        t0 += tb;
    }

    // ---- Stage 3: output transform, scattered to NCHW with edge clipping.
    let mut ocb = 0;
    while ocb < s.oc {
        let nch = nch_max.min(s.oc - ocb);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let ti = ty * tiles_x + tx;
                let _ = m.vsetvl(nch * t);
                for r in 0..t {
                    let off = (ocb * nt + ti) * tuple + r * t;
                    m.vload_seg(src[r], &mbuf[off..], t, nt * tuple, nch);
                }
                // M holds (stage-2 products)^T; A^T M^T = (M A)^T, transpose,
                // then A^T (M A) = Y.
                apply_row_matrix(m, &plan.at, src, dst);
                m.vtranspose_n(dst);
                apply_row_matrix(m, &plan.at, dst, src);
                let rows = mo.min(oh - ty * mo);
                let cols = mo.min(ow - tx * mo);
                for r in 0..rows {
                    let off = ocb * oh * ow + (ty * mo + r) * ow + tx * mo;
                    m.vstore_seg_partial(src[r], &mut output[off..], cols, t, oh * ow, nch);
                }
                m.scalar_ops(4);
            }
        }
        ocb += nch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_sim::MachineConfig;
    use lv_tensor::{conv2d_reference, max_rel_error, pseudo_buf};

    /// F(6,3) is a different factorization; allow a loose fp32 tolerance.
    const TOL: f64 = 5e-2;

    /// Pseudo-data seeds: input uses the seed, weights the seed plus one.
    const F6_SEED: u64 = 21;
    const SMALL_SEED: u64 = 31;

    /// Run `plan` on pseudo data drawn from `seed`, assert its max
    /// relative error against the reference is below `tol`, and return
    /// that error.
    fn check(plan: &WinoPlan, s: ConvShape, vlen: usize, tol: f64, seed: u64) -> f64 {
        let input = pseudo_buf(s.input_len(), seed);
        let w = pseudo_buf(s.weight_len(), seed + 1);
        let wt = transform_weights(plan, &s, &w);
        let mut out = vec![0.0f32; s.output_len()];
        let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
        run(plan, &mut m, &s, &input, &wt, &mut out);
        let err = max_rel_error(&out, &conv2d_reference(&s, &input, &w));
        assert!(err < tol, "rel err {err} for F({}) {s:?} vlen {vlen}", plan.m);
        err
    }

    #[test]
    fn matches_reference_single_channel() {
        check(&WinoPlan::F6X6, ConvShape::same_pad(1, 1, 12, 3, 1), 512, TOL, F6_SEED);
    }

    #[test]
    fn matches_reference_multichannel() {
        check(&WinoPlan::F6X6, ConvShape::same_pad(4, 5, 18, 3, 1), 512, TOL, F6_SEED);
    }

    #[test]
    fn matches_reference_edge_tiles() {
        // 14x14: tiles of 6 leave a ragged 2-pixel edge.
        check(&WinoPlan::F6X6, ConvShape::same_pad(3, 4, 14, 3, 1), 512, TOL, F6_SEED);
    }

    #[test]
    fn matches_reference_long_vectors() {
        check(&WinoPlan::F6X6, ConvShape::same_pad(9, 6, 13, 3, 1), 2048, TOL, F6_SEED);
        check(&WinoPlan::F6X6, ConvShape::same_pad(5, 17, 20, 3, 1), 4096, TOL, F6_SEED);
    }

    #[test]
    fn matches_reference_many_channels() {
        // Exercises the IC_BLOCK/OC_BLOCK tails (ic > 64 requires two
        // ic-blocks; oc = 9 leaves a 1-wide oc tail).
        let s = ConvShape { ic: 66, ih: 12, iw: 12, oc: 9, kh: 3, kw: 3, stride: 1, pad: 1 };
        check(&WinoPlan::F6X6, s, 1024, TOL, F6_SEED);
    }

    #[test]
    fn f2x2_matches_reference() {
        check(&WinoPlan::F2X2, ConvShape::same_pad(3, 5, 14, 3, 1), 512, 1e-3, SMALL_SEED);
        check(&WinoPlan::F2X2, ConvShape::same_pad(4, 3, 11, 3, 1), 2048, 1e-3, SMALL_SEED);
    }

    #[test]
    fn f4x4_matches_reference() {
        check(&WinoPlan::F4X4, ConvShape::same_pad(3, 5, 14, 3, 1), 512, 1e-2, SMALL_SEED);
        check(&WinoPlan::F4X4, ConvShape::same_pad(5, 4, 17, 3, 1), 1024, 1e-2, SMALL_SEED);
    }

    #[test]
    fn numerical_error_grows_with_tile_size() {
        // The paper's justification for not using tiles > 8x8: error grows
        // with the tile. Measure F(2,3) vs F(4,3) on the same layer.
        let s = ConvShape::same_pad(8, 8, 26, 3, 1);
        let e2 = check(&WinoPlan::F2X2, s, 512, 1e-3, SMALL_SEED);
        let e4 = check(&WinoPlan::F4X4, s, 512, 1e-2, SMALL_SEED);
        assert!(e4 > e2, "F(4,3) err {e4} should exceed F(2,3) err {e2}");
    }

    #[test]
    fn bigger_tiles_use_fewer_cycles_at_long_vl() {
        // The flip side: smaller tiles waste arithmetic reduction. At any
        // VL the F(2,3) plan should cost more cycles than F(4,3), which
        // should cost more than the paper's F(6,3).
        let s = ConvShape::same_pad(16, 16, 24, 3, 1);
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_buf(s.weight_len(), 2);
        let cycles_of = |plan: &WinoPlan| {
            let wt = transform_weights(plan, &s, &w);
            let mut out = vec![0.0f32; s.output_len()];
            let mut m = Machine::new(MachineConfig::rvv_integrated(2048, 1));
            run(plan, &mut m, &s, &input, &wt, &mut out);
            m.cycles()
        };
        let c2 = cycles_of(&WinoPlan::F2X2);
        let c4 = cycles_of(&WinoPlan::F4X4);
        let c6 = cycles_of(&WinoPlan::F6X6);
        assert!(c2 > c4, "F(2,3) {c2} should cost more than F(4,3) {c4}");
        assert!(c4 > c6, "F(4,3) {c4} should cost more than F(6,3) {c6}");
    }

    #[test]
    #[should_panic(expected = "3x3 stride-1")]
    fn rejects_strided() {
        let s = ConvShape::same_pad(2, 2, 12, 3, 2);
        let mut m = Machine::new(MachineConfig::default());
        let wt = AlignedVec::zeroed(2 * 2 * WinoPlan::F6X6.tuple());
        let input = vec![0.0; s.input_len()];
        let mut out = vec![0.0; s.output_len()];
        run(&WinoPlan::F6X6, &mut m, &s, &input, &wt, &mut out);
    }

    #[test]
    fn tuple_vector_length_caps_at_2048_bits() {
        // The tuple-multiply stage issues vectors of at most 64 elements
        // (2048 bits): average consumed VL must stop growing past that.
        let s = ConvShape::same_pad(8, 8, 24, 3, 1);
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_buf(s.weight_len(), 2);
        let wt = transform_weights(&WinoPlan::F6X6, &s, &w);
        let avg_vl = |vlen: usize| {
            let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
            let mut out = vec![0.0f32; s.output_len()];
            run(&WinoPlan::F6X6, &mut m, &s, &input, &wt, &mut out);
            m.stats().avg_vl()
        };
        let v2048 = avg_vl(2048);
        let v8192 = avg_vl(8192);
        // ic/oc = 8 also caps the transform stages at 64 elements, so the
        // overall average VL should be flat between 2048 and 8192 bits.
        assert!((v8192 - v2048).abs() / v2048 < 0.05, "{v2048} vs {v8192}");
    }
}
