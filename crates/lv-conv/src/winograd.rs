//! Winograd F(6x6, 3x3) convolution on 8x8 tiles with the paper's
//! **inter-tile parallelism across input/output channels** (Paper I §IV-B).
//!
//! Larger Winograd tiles would exploit long vectors directly but lose
//! numerical accuracy, so the paper keeps 8x8 tiles and instead packs *one
//! row of the 8x8 tile from each of `VL/8` channels* into a vector register:
//! transform arithmetic is identical across channels, so the whole
//! transform runs at full vector length. The tuple (elementwise)
//! multiplication is vectorized across the 64 tuple elements — "16 blocks
//! with 4 elements in each block", which caps its useful vector length at
//! 2048 bits and is the structural reason Winograd stops scaling beyond
//! 2048-bit vectors in the paper's sweeps.
//!
//! Pipeline (NNPACK structure):
//! 1. input transform `U = (B^T d B)^T` for every 8x8 input tile,
//! 2. tuple multiplication `M[oc][tile] += U[ic][tile] * W[oc][ic]`
//!    (elementwise over the 64 tuple elements),
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

/// Output tile size `m` of F(m x m, 3x3).
pub const TILE_OUT: usize = 6;
/// Input tile size (`m + r - 1`).
pub const TILE_IN: usize = 8;
/// Tuple elements per tile.
pub const TUPLE: usize = TILE_IN * TILE_IN;

/// `B^T` for F(6, 3) (Lavin-style interpolation points).
pub const BT: [[f32; 8]; 8] = [
    [1.0, 0.0, -5.25, 0.0, 5.25, 0.0, -1.0, 0.0],
    [0.0, 1.0, 1.0, -4.25, -4.25, 1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0, 4.25, -4.25, -1.0, 1.0, 0.0],
    [0.0, 0.5, 0.25, -2.5, -1.25, 2.0, 1.0, 0.0],
    [0.0, -0.5, 0.25, 2.5, -1.25, -2.0, 1.0, 0.0],
    [0.0, 2.0, 4.0, -2.5, -5.0, 0.5, 1.0, 0.0],
    [0.0, -2.0, 4.0, 2.5, -5.0, -0.5, 1.0, 0.0],
    [0.0, -1.0, 0.0, 5.25, 0.0, -5.25, 0.0, 1.0],
];

/// `G` for F(6, 3).
pub const G: [[f32; 3]; 8] = [
    [1.0, 0.0, 0.0],
    [-2.0 / 9.0, -2.0 / 9.0, -2.0 / 9.0],
    [-2.0 / 9.0, 2.0 / 9.0, -2.0 / 9.0],
    [1.0 / 90.0, 1.0 / 45.0, 2.0 / 45.0],
    [1.0 / 90.0, -1.0 / 45.0, 2.0 / 45.0],
    [32.0 / 45.0, 16.0 / 45.0, 8.0 / 45.0],
    [32.0 / 45.0, -16.0 / 45.0, 8.0 / 45.0],
    [0.0, 0.0, 1.0],
];

/// `A^T` for F(6, 3), zero-extended to 8x8 so the row-matrix/transpose
/// machinery is uniform across stages.
pub const AT8: [[f32; 8]; 8] = [
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
    [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.0],
    [0.0, 1.0, 1.0, 4.0, 4.0, 0.25, 0.25, 0.0],
    [0.0, 1.0, -1.0, 8.0, -8.0, 0.125, -0.125, 0.0],
    [0.0, 1.0, 1.0, 16.0, 16.0, 0.0625, 0.0625, 0.0],
    [0.0, 1.0, -1.0, 32.0, -32.0, 0.03125, -0.03125, 1.0],
    [0.0; 8],
    [0.0; 8],
];

/// Tile-block size of the tuple-multiplication stage. Fixed (tuned for a
/// ~1 MiB cache once, like NNPACK), which is why the paper finds Winograd
/// insensitive to L2 sizes beyond a point.
const TILE_BLOCK: usize = 16;
/// Output-channel accumulators held in registers during tuple multiply.
const OC_BLOCK: usize = 8;
/// Input-channel block of the tuple-multiplication stage.
const IC_BLOCK: usize = 64;

/// Length of [`transform_weights`]' output: one 64-element tuple per
/// (output, input) channel pair.
pub fn transformed_len(s: &ConvShape) -> usize {
    s.oc * s.ic * TUPLE
}

/// Offline weight transform: OIHW 3x3 weights -> `[oc][ic][64]` tuples,
/// each tile stored transposed (`(G g G^T)^T`). Host-side, uncharged.
pub fn transform_weights(s: &ConvShape, w_oihw: &[f32]) -> AlignedVec {
    assert!(s.winograd_applicable());
    let mut out = AlignedVec::zeroed(transformed_len(s));
    let mut gg = [[0.0f32; 3]; 8];
    let mut v = [[0.0f32; 8]; 8];
    for oc in 0..s.oc {
        for ic in 0..s.ic {
            let g0 = &w_oihw[((oc * s.ic + ic) * 3) * 3..((oc * s.ic + ic) * 3 + 3) * 3];
            // gg = G (8x3) * g (3x3)
            for i in 0..8 {
                for j in 0..3 {
                    gg[i][j] = (0..3).map(|k| G[i][k] * g0[k * 3 + j]).sum();
                }
            }
            // v = gg * G^T  (8x8)
            for i in 0..8 {
                for j in 0..8 {
                    v[i][j] = (0..3).map(|k| gg[i][k] * G[j][k]).sum();
                }
            }
            let base = (oc * s.ic + ic) * TUPLE;
            for r in 0..8 {
                for cc in 0..8 {
                    out[base + r * 8 + cc] = v[cc][r]; // store transposed
                }
            }
        }
    }
    out
}

/// Apply an 8x8 constant matrix to eight row registers:
/// `dst[i] = sum_j c[i][j] * src[j]`, skipping zero coefficients (this is
/// how the intrinsics implementations encode the transform).
fn apply_row_matrix(m: &mut Machine, c: &[[f32; 8]; 8], src: [VReg; 8], dst: [VReg; 8]) {
    for i in 0..8 {
        let mut started = false;
        for j in 0..8 {
            let coef = c[i][j];
            if coef == 0.0 {
                continue;
            }
            if !started {
                m.vfmul_vf(dst[i], coef, src[j]);
                started = true;
            } else {
                m.vfmacc_vf(dst[i], coef, src[j]);
            }
        }
        if !started {
            m.vfmv_v_f(dst[i], 0.0);
        }
    }
}

const SRC: [VReg; 8] = [VReg(0), VReg(1), VReg(2), VReg(3), VReg(4), VReg(5), VReg(6), VReg(7)];
const DST: [VReg; 8] =
    [VReg(8), VReg(9), VReg(10), VReg(11), VReg(12), VReg(13), VReg(14), VReg(15)];

/// Winograd convolution: NCHW input/output, weights from
/// [`transform_weights`]. Panics unless the layer is 3x3 stride-1.
pub fn run(m: &mut Machine, s: &ConvShape, input: &[f32], w_t: &[f32], output: &mut [f32]) {
    assert!(s.winograd_applicable(), "Winograd requires 3x3 stride-1 layers");
    let (oh, ow) = (s.oh(), s.ow());
    let tiles_y = oh.div_ceil(TILE_OUT);
    let tiles_x = ow.div_ceil(TILE_OUT);
    let nt = tiles_y * tiles_x;
    // Padded input covering every 8x8 tile window: the image sits at
    // (pad, pad) and the plane extends to tiles*6 + 2 in each dimension.
    let ph = tiles_y * TILE_OUT + 2;
    let pw = tiles_x * TILE_OUT + 2;
    let padded = pad_nchw(m, s.ic, s.ih, s.iw, input, ph, pw, s.pad, s.pad);

    let mvl = m.mvl();
    let nch_max = (mvl / TILE_IN).max(1);

    // ---- Stage 1: input transform -> U [ic][tile][64] (tiles transposed).
    let mut ubuf = AlignedVec::zeroed(s.ic * nt * TUPLE);
    let mut icb = 0;
    while icb < s.ic {
        let nch = nch_max.min(s.ic - icb);
        let _ = m.vsetvl(nch * TILE_IN);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let t = ty * tiles_x + tx;
                for r in 0..TILE_IN {
                    let off = (icb * ph + ty * TILE_OUT + r) * pw + tx * TILE_OUT;
                    m.vload_seg(SRC[r], &padded[off..], TILE_IN, ph * pw, nch);
                }
                // (B^T d); transpose; (B^T (B^T d)^T) == (B^T d B)^T.
                apply_row_matrix(m, &BT, SRC, DST);
                m.vtranspose8(DST);
                apply_row_matrix(m, &BT, DST, SRC);
                for r in 0..TILE_IN {
                    let off = (icb * nt + t) * TUPLE + r * TILE_IN;
                    m.vstore_seg(SRC[r], &mut ubuf[off..], TILE_IN, nt * TUPLE, nch);
                }
                m.scalar_ops(4);
            }
        }
        icb += nch;
    }

    // ---- Stage 2: tuple multiplication -> M [oc][tile][64].
    // Vector runs across tuple elements: vl = min(64, MVL), the paper's
    // "16 blocks of 4 elements" scheme (useful VL caps at 2048 bits).
    let mut mbuf = AlignedVec::zeroed(s.oc * nt * TUPLE);
    let vlf = TUPLE.min(mvl);
    let fchunks = TUPLE / vlf;
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
                for t in t0..t0 + tb {
                    for fc in 0..fchunks {
                        let f0 = fc * vlf;
                        let _ = m.vsetvl(vlf);
                        for u in 0..ocn {
                            let moff = ((oc0 + u) * nt + t) * TUPLE + f0;
                            if ic0 == 0 {
                                m.vfmv_v_f(VReg(u as u8), 0.0);
                            } else {
                                m.vle32(VReg(u as u8), &mbuf[moff..]);
                            }
                        }
                        for ic in ic0..ic0 + icn {
                            m.vle32(vu, &ubuf[(ic * nt + t) * TUPLE + f0..]);
                            for u in 0..ocn {
                                m.vle32(vw, &w_t[((oc0 + u) * s.ic + ic) * TUPLE + f0..]);
                                m.vfmacc_vv(VReg(u as u8), vw, vu);
                            }
                        }
                        for u in 0..ocn {
                            let moff = ((oc0 + u) * nt + t) * TUPLE + f0;
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
                let t = ty * tiles_x + tx;
                let _ = m.vsetvl(nch * TILE_IN);
                for r in 0..TILE_IN {
                    let off = (ocb * nt + t) * TUPLE + r * TILE_IN;
                    m.vload_seg(SRC[r], &mbuf[off..], TILE_IN, nt * TUPLE, nch);
                }
                // M holds (stage-2 products)^T; A^T M^T = (M A)^T, transpose,
                // then A^T (M A) = Y.
                apply_row_matrix(m, &AT8, SRC, DST);
                m.vtranspose8(DST);
                apply_row_matrix(m, &AT8, DST, SRC);
                let rows = TILE_OUT.min(oh - ty * TILE_OUT);
                let cols = TILE_OUT.min(ow - tx * TILE_OUT);
                for r in 0..rows {
                    let off = ocb * oh * ow + (ty * TILE_OUT + r) * ow + tx * TILE_OUT;
                    m.vstore_seg_partial(SRC[r], &mut output[off..], cols, TILE_IN, oh * ow, nch);
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

    /// Winograd is a different factorization; allow a loose fp32 tolerance.
    const TOL: f64 = 5e-2;

    fn check(s: ConvShape, vlen: usize) {
        let input = pseudo_buf(s.input_len(), 21);
        let w = pseudo_buf(s.weight_len(), 22);
        let wt = transform_weights(&s, &w);
        let mut out = vec![0.0f32; s.output_len()];
        let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
        run(&mut m, &s, &input, &wt, &mut out);
        let want = conv2d_reference(&s, &input, &w);
        let err = max_rel_error(&out, &want);
        assert!(err < TOL, "rel err {err} for {s:?} vlen {vlen}");
    }

    #[test]
    fn matches_reference_single_channel() {
        check(ConvShape::same_pad(1, 1, 12, 3, 1), 512);
    }

    #[test]
    fn matches_reference_multichannel() {
        check(ConvShape::same_pad(4, 5, 18, 3, 1), 512);
    }

    #[test]
    fn matches_reference_edge_tiles() {
        // 14x14: tiles of 6 leave a ragged 2-pixel edge.
        check(ConvShape::same_pad(3, 4, 14, 3, 1), 512);
    }

    #[test]
    fn matches_reference_long_vectors() {
        check(ConvShape::same_pad(9, 6, 13, 3, 1), 2048);
        check(ConvShape::same_pad(5, 17, 20, 3, 1), 4096);
    }

    #[test]
    fn matches_reference_many_channels() {
        // Exercises the IC_BLOCK/OC_BLOCK tails (ic > 64 requires two
        // ic-blocks; oc = 9 leaves a 1-wide oc tail).
        check(ConvShape { ic: 66, ih: 12, iw: 12, oc: 9, kh: 3, kw: 3, stride: 1, pad: 1 }, 1024);
    }

    #[test]
    #[should_panic(expected = "3x3 stride-1")]
    fn rejects_strided() {
        let s = ConvShape::same_pad(2, 2, 12, 3, 2);
        let mut m = Machine::new(MachineConfig::default());
        let wt = AlignedVec::zeroed(2 * 2 * TUPLE);
        let input = vec![0.0; s.input_len()];
        let mut out = vec![0.0; s.output_len()];
        run(&mut m, &s, &input, &wt, &mut out);
    }

    #[test]
    fn tuple_vector_length_caps_at_2048_bits() {
        // The tuple-multiply stage issues vectors of at most 64 elements
        // (2048 bits): average consumed VL must stop growing past that.
        let s = ConvShape::same_pad(8, 8, 24, 3, 1);
        let input = pseudo_buf(s.input_len(), 1);
        let w = pseudo_buf(s.weight_len(), 2);
        let wt = transform_weights(&s, &w);
        let avg_vl = |vlen: usize| {
            let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
            let mut out = vec![0.0f32; s.output_len()];
            run(&mut m, &s, &input, &wt, &mut out);
            m.stats().avg_vl()
        };
        let v2048 = avg_vl(2048);
        let v8192 = avg_vl(8192);
        // ic/oc = 8 also caps the transform stages at 64 elements, so the
        // overall average VL should be flat between 2048 and 8192 bits.
        assert!((v8192 - v2048).abs() / v2048 < 0.05, "{v2048} vs {v8192}");
    }
}
