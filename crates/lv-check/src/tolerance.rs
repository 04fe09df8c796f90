//! Principled per-algorithm error tolerances.
//!
//! Everything here follows the standard model of f32 arithmetic
//! (Higham, *Accuracy and Stability of Numerical Algorithms*): each
//! operation `fl(x op y) = (x op y)(1 + δ)` with `|δ| ≤ ε = 2^-24`, and a
//! chain of `n` such operations accumulates at most
//! `γ_n = n·ε / (1 − n·ε)` relative to the sum of absolute values of the
//! terms involved.
//!
//! **Exact-factorization algorithms** (Direct in all variants, im2col +
//! GEMM in any blocking, depthwise): these compute the convolution sum
//! term-by-term, in some order, with FMA contractions. Any summation
//! order of the `K = ic·kh·kw` products satisfies
//! `|fl(Σ) − Σ| ≤ γ_{K+1} Σ|iv·wv|`; we use `γ_{K+4}` to also cover the
//! product roundings and the final f32 store. The magnitude scale
//! `Σ|iv·wv|` is the oracle's per-element absolute accumulation, so the
//! bound is elementwise, not a norm bound.
//!
//! **Winograd F(m x m, 3x3)**: the transforms amplify rounding error, so
//! a fixed ULP count would be either unsound or vacuous. Instead the
//! bound is *derived* by running the same transform pipeline on absolute
//! values: every intermediate's rounding error is bounded by
//! `γ · (abs-value pipeline)` elementwise, and the absolute-value
//! pipeline propagates those magnitudes through `|Aᵀ| (Σ_ic |G g Gᵀ| ⊙
//! |Bᵀ d B|) |A|` exactly (in f64). The γ coefficient counts the longest
//! rounding chain: `ic + 1` for the tuple accumulation, `2t` per input /
//! output transform (two ≤t-term matrix products each) and `6` for the
//! offline weight transform — `n_eff = ic + 4t + 8` with slack. The
//! result scales with accumulation depth (`ic`) and with the actual data
//! magnitudes, and is asserted as-is: no empirical fudge factor.

use lv_conv::winograd::WinoPlan;
use lv_tensor::ConvShape;

use crate::oracle::ConvOracle;

/// f32 unit roundoff `2^-24`.
pub const EPS32: f64 = 5.960_464_477_539_063e-8;

/// Higham's `γ_n = n·ε / (1 − n·ε)`: worst-case relative error of an
/// `n`-operation f32 rounding chain. Panics if `n·ε ≥ 1` (no finite
/// bound exists — far beyond any shape this harness runs).
pub fn gamma(n: usize) -> f64 {
    let ne = n as f64 * EPS32;
    assert!(ne < 1.0, "gamma({n}) undefined: n*eps >= 1");
    ne / (1.0 - ne)
}

/// Per-element tolerances for the exact-factorization algorithms:
/// `γ_{K+4} · Σ|iv·wv|` with `K = ic·kh·kw`.
pub fn exact_algo_bounds(s: &ConvShape, oracle: &ConvOracle) -> Vec<f64> {
    let k = s.ic * s.kh * s.kw;
    let g = gamma(k + 4);
    oracle.absacc.iter().map(|a| g * a).collect()
}

/// Per-element tolerances for depthwise convolution: `γ_{k²+4} · Σ|iv·wv|`.
pub fn depthwise_bounds(k: usize, oracle: &ConvOracle) -> Vec<f64> {
    let g = gamma(k * k + 4);
    oracle.absacc.iter().map(|a| g * a).collect()
}

/// Derived per-element tolerances for a Winograd F(m x m, 3x3) `plan`,
/// computed by the absolute-value pipeline described in the module docs
/// over the plan's `Bᵀ`, `G` and `Aᵀ` (in f64). NCHW `input`, OIHW
/// `weights` (untransformed).
pub fn winograd_bounds(plan: &WinoPlan, s: &ConvShape, input: &[f32], weights: &[f32]) -> Vec<f64> {
    assert!(s.winograd_applicable());
    let (t, tile_m) = (plan.t, plan.m);
    assert_eq!(tile_m + 2, t, "input tile must be m + 2 for r = 3");
    assert!(t <= 8, "Winograd tiles are at most 8x8");
    let bt = plan.bt.map(|r| r.map(|x| (x as f64).abs()));
    let g = plan.g.map(|r| r.map(|x| (x as f64).abs()));
    let at = plan.at.map(|r| r.map(|x| (x as f64).abs()));
    let (oh, ow) = (s.oh(), s.ow());
    let tiles_y = oh.div_ceil(tile_m);
    let tiles_x = ow.div_ceil(tile_m);

    // |U| = |G| |g| |Gᵀ| per (oc, ic), precomputed once.
    let mut uabs = vec![0.0f64; s.oc * s.ic * t * t];
    let mut gg = vec![vec![0.0f64; 3]; t];
    for oc in 0..s.oc {
        for ic in 0..s.ic {
            let g0 = &weights[((oc * s.ic + ic) * 3) * 3..((oc * s.ic + ic) * 3 + 3) * 3];
            for i in 0..t {
                for j in 0..3 {
                    gg[i][j] = (0..3).map(|k| g[i][k] * (g0[k * 3 + j] as f64).abs()).sum();
                }
            }
            let base = (oc * s.ic + ic) * t * t;
            for i in 0..t {
                for j in 0..t {
                    uabs[base + i * t + j] = (0..3).map(|k| gg[i][k] * g[j][k]).sum::<f64>();
                }
            }
        }
    }

    // Longest rounding chain: tuple accumulation over ic, two t-term
    // matrix products in each of the input and output transforms, and
    // the 6-operation offline weight transform, plus slack for the
    // products and the final f32 store.
    let gam = gamma(s.ic + 4 * t + 8);

    let mut bounds = vec![0.0f64; s.output_len()];
    let mut dabs = vec![vec![0.0f64; t]; t];
    let mut tmp = vec![vec![0.0f64; t]; t];
    let mut vabs = vec![vec![0.0f64; t]; t];
    let mut mabs = vec![vec![0.0f64; t]; t];
    for oc in 0..s.oc {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                for row in mabs.iter_mut() {
                    row.fill(0.0);
                }
                for ic in 0..s.ic {
                    // |d| for this tile: padded-plane coordinate
                    // (ty·m + r, tx·m + c) maps to input
                    // (ty·m + r − pad, tx·m + c − pad).
                    for r in 0..t {
                        for c in 0..t {
                            let iy = (ty * tile_m + r) as isize - s.pad as isize;
                            let ix = (tx * tile_m + c) as isize - s.pad as isize;
                            dabs[r][c] =
                                if iy < 0 || ix < 0 || iy >= s.ih as isize || ix >= s.iw as isize {
                                    0.0
                                } else {
                                    (input[(ic * s.ih + iy as usize) * s.iw + ix as usize] as f64)
                                        .abs()
                                };
                        }
                    }
                    // |V| = |Bᵀ| |d| |B|.
                    for i in 0..t {
                        for j in 0..t {
                            tmp[i][j] = (0..t).map(|k| bt[i][k] * dabs[k][j]).sum();
                        }
                    }
                    for i in 0..t {
                        for j in 0..t {
                            vabs[i][j] = (0..t).map(|k| tmp[i][k] * bt[j][k]).sum();
                        }
                    }
                    let base = (oc * s.ic + ic) * t * t;
                    for i in 0..t {
                        for j in 0..t {
                            mabs[i][j] += uabs[base + i * t + j] * vabs[i][j];
                        }
                    }
                }
                // Tile bound = |Aᵀ| |M| |A|, clipped to the image.
                let rows = tile_m.min(oh - ty * tile_m);
                let cols = tile_m.min(ow - tx * tile_m);
                for r in 0..rows {
                    for c in 0..cols {
                        let mut acc = 0.0f64;
                        for k in 0..t {
                            let a = at[r][k];
                            if a == 0.0 {
                                continue;
                            }
                            acc += a * (0..t).map(|l| mabs[k][l] * at[c][l]).sum::<f64>();
                        }
                        let o = (oc * oh + ty * tile_m + r) * ow + tx * tile_m + c;
                        bounds[o] = gam * acc;
                    }
                }
            }
        }
    }
    bounds
}

/// One element that exceeded its tolerance.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Flat NCHW index of the element.
    pub index: usize,
    /// Kernel output.
    pub got: f32,
    /// Oracle value.
    pub want: f64,
    /// `|got − want|`.
    pub err: f64,
    /// The asserted tolerance at this element.
    pub bound: f64,
}

/// Result of comparing a kernel output against the oracle under
/// per-element tolerances.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Largest absolute error over all elements.
    pub max_abs_err: f64,
    /// Tolerance at the element with the largest error.
    pub bound_at_max: f64,
    /// Number of elements over tolerance.
    pub violations: usize,
    /// The worst violation (largest `err / bound`), if any.
    pub worst: Option<Violation>,
}

impl Comparison {
    /// Whether every element was within tolerance.
    pub fn pass(&self) -> bool {
        self.violations == 0
    }
}

/// Compare a kernel's f32 output against the oracle under per-element
/// tolerances.
pub fn compare(got: &[f32], want: &[f64], bounds: &[f64]) -> Comparison {
    assert_eq!(got.len(), want.len());
    assert_eq!(got.len(), bounds.len());
    let mut max_abs_err = 0.0f64;
    let mut bound_at_max = 0.0f64;
    let mut violations = 0usize;
    let mut worst: Option<Violation> = None;
    for (i, ((&g, &w), &b)) in got.iter().zip(want).zip(bounds).enumerate() {
        let err = (g as f64 - w).abs();
        if err > max_abs_err {
            max_abs_err = err;
            bound_at_max = b;
        }
        if err > b {
            violations += 1;
            let ratio = if b > 0.0 { err / b } else { f64::INFINITY };
            let worse = worst
                .as_ref()
                .map(|v| {
                    let vr = if v.bound > 0.0 { v.err / v.bound } else { f64::INFINITY };
                    ratio > vr
                })
                .unwrap_or(true);
            if worse {
                worst = Some(Violation { index: i, got: g, want: w, err, bound: b });
            }
        }
    }
    Comparison { max_abs_err, bound_at_max, violations, worst }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv2d_f64;
    use lv_tensor::pseudo_buf;

    #[test]
    fn gamma_grows_with_chain_length() {
        assert!(gamma(1) > 0.0);
        assert!(gamma(100) > gamma(10));
        assert!(gamma(1000) < 1e-4); // still tiny for realistic depths
    }

    #[test]
    fn exact_bounds_scale_with_accumulation_depth() {
        let small = ConvShape::same_pad(1, 1, 6, 3, 1);
        let big = ConvShape::same_pad(32, 1, 6, 3, 1);
        let mk = |s: &ConvShape| {
            let input = pseudo_buf(s.input_len(), 1);
            let w = pseudo_buf(s.weight_len(), 2);
            let o = conv2d_f64(s, &input, &w);
            let b = exact_algo_bounds(s, &o);
            // Normalize by magnitude so only the gamma factor differs.
            let center = (s.oh() / 2) * s.ow() + s.ow() / 2;
            b[center] / o.absacc[center]
        };
        assert!(mk(&big) > mk(&small));
    }

    #[test]
    fn compare_flags_injected_error() {
        let want = vec![1.0f64, 2.0, 3.0];
        let bounds = vec![1e-6f64; 3];
        let mut got = vec![1.0f32, 2.0, 3.0];
        assert!(compare(&got, &want, &bounds).pass());
        got[1] = 2.5;
        let c = compare(&got, &want, &bounds);
        assert!(!c.pass());
        let v = c.worst.unwrap();
        assert_eq!(v.index, 1);
        assert!((v.err - 0.5).abs() < 1e-9);
    }
}
