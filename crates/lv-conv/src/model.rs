//! Fast-tier workload builders: event-count summaries of the four kernels.
//!
//! For each [`Algo`] this module mirrors the *loop structure* of the real
//! kernel — the same blocking factors, the same vector-length stepping, the
//! same instruction mix per iteration — but instead of executing it, counts
//! the events and hands them to `lv_sim::fastmodel` to price. The counts
//! are closed-form products over loop-block combinations, so building and
//! pricing a workload is O(1) in the layer size while the cycle-accurate
//! machine is O(MACs).
//!
//! Fidelity contract: instruction/beat counts follow the kernels exactly
//! (same trip counts, same unroll factors); cache-line placement uses a
//! working-set model instead of simulated tag arrays, which is where the
//! fast tier's error lives. That error is measured, scaled out per regime,
//! and bounded by `lv-models::calib` — see `DESIGN.md` "Two-tier
//! simulation".

use lv_sim::fastmodel::{MemClass, Phase, Workload};
use lv_sim::{MachineConfig, COST, LINE_BYTES};
use lv_tensor::ConvShape;

use crate::algo::Algo;
use crate::gemm6::Gemm6Blocking;

/// Loop-block decomposition: `total` split into `step`-sized chunks gives
/// `total/step` full blocks plus at most one remainder block. All kernel
/// loops are homogeneous within a block size, so summing per-iteration
/// costs over this ≤2-entry list is exact.
fn blocks(total: u64, step: u64) -> Vec<(u64, u64)> {
    let mut v = Vec::with_capacity(2);
    if total == 0 {
        return v;
    }
    if total / step > 0 {
        v.push((total / step, step));
    }
    if total % step > 0 {
        v.push((1, total % step));
    }
    v
}

/// Cache lines touched by a contiguous run of `elems` f32 values.
fn run_lines(elems: u64) -> u64 {
    if elems == 0 {
        0
    } else {
        (4 * elems).div_ceil(LINE_BYTES)
    }
}

/// Cache lines touched by `elems` f32 accesses strided `stride_elems`
/// apart, with the machine's adjacent-same-line dedup.
fn strided_lines(elems: u64, stride_elems: u64) -> u64 {
    if elems == 0 {
        0
    } else {
        elems.min((elems * 4 * stride_elems).div_ceil(LINE_BYTES)).max(1)
    }
}

/// Per-loop context: max VL in elements, arithmetic beat divisor.
struct Ctx {
    mvl: u64,
    epc: u64,
}

impl Ctx {
    fn new(cfg: &MachineConfig) -> Self {
        Self { mvl: cfg.vlen_elems() as u64, epc: cfg.elems_per_cycle() as u64 }
    }

    fn beats(&self, vl: u64) -> u64 {
        vl.div_ceil(self.epc)
    }

    fn gather(&self, vl: u64) -> u64 {
        vl.div_ceil(COST.gather_elems_per_cycle.max(1))
    }
}

/// Accumulator for one VL-stepped loop (`while i < n { vl = vsetvl(n - i) }`)
/// executed `reps` times: step count, beats, elements, contiguous lines.
struct VlLoop {
    steps: u64,
    beats: u64,
    elems: u64,
    lines: u64,
}

fn vl_loop(ctx: &Ctx, n: u64, reps: u64) -> VlLoop {
    let mut l = VlLoop { steps: 0, beats: 0, elems: 0, lines: 0 };
    for (count, vl) in blocks(n, ctx.mvl) {
        l.steps += count;
        l.beats += count * ctx.beats(vl);
        l.lines += count * run_lines(vl);
    }
    l.elems = n;
    l.steps *= reps;
    l.beats *= reps;
    l.elems *= reps;
    l.lines *= reps;
    l
}

/// `pad_nchw(c, h, w -> ph, pw)`: per source row, a VL-stepped
/// load/store copy into the padded interior plus two scalar index ops.
/// `src_cold` distinguishes the external input tensor (compulsory DRAM
/// misses) from an intermediate produced earlier in the same kernel.
fn pad_phase(ctx: &Ctx, c: u64, h: u64, w: u64, ph: u64, pw: u64, src_cold: bool) -> Phase {
    let rows = c * h;
    let l = vl_loop(ctx, w, rows);
    // Per-row line sums overcount boundary lines shared between
    // consecutive rows of a contiguous buffer; a buffer can only miss
    // its own footprint cold, the rest are revisits.
    let src_cold_lines = if src_cold { run_lines(c * h * w).min(l.lines) } else { 0 };
    let src = MemClass {
        label: "pad-src",
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        cold_lines: src_cold_lines,
        reuse_lines: l.lines - src_cold_lines,
        resident_bytes: 4 * c * h * w,
        ..Default::default()
    };
    let dst_cold = run_lines(c * ph * pw).min(l.lines);
    let dst = MemClass {
        label: "pad-dst",
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        cold_lines: dst_cold,
        reuse_lines: l.lines - dst_cold,
        resident_bytes: 4 * c * ph * pw,
        ..Default::default()
    };
    Phase {
        label: "pad",
        vsetvls: l.steps,
        scalar_ops: 2 * rows,
        mem: vec![src, dst],
        ..Default::default()
    }
}

/// `im2col`: for each of the `K = ic*kh*kw` kernel rows and each output
/// row, a VL-stepped copy (unit-stride at stride 1, strided otherwise)
/// from the padded input into the column buffer.
fn im2col_phase(ctx: &Ctx, s: &ConvShape) -> Phase {
    let (ic, kh, kw) = (s.ic as u64, s.kh as u64, s.kw as u64);
    let (oh, ow, stride) = (s.oh() as u64, s.ow() as u64, s.stride as u64);
    let (ph, pw) = ((s.ih + 2 * s.pad) as u64, (s.iw + 2 * s.pad) as u64);
    let k = ic * kh * kw;
    let rows = k * oh;
    let l = vl_loop(ctx, ow, rows);
    let (src_lines, gather) = if stride == 1 {
        (l.lines, 0)
    } else {
        let mut lines = 0;
        let mut g = 0;
        for (count, vl) in blocks(ow, ctx.mvl) {
            lines += count * strided_lines(vl, stride);
            g += count * ctx.gather(vl);
        }
        (lines * rows, g * rows)
    };
    let padded_bytes = 4 * ic * ph * pw;
    // The padded input was written by the pad phase, so its first im2col
    // touch hits whatever level the whole buffer fits in; the `kh*kw`
    // repeat sweeps have the same capacity gate.
    let src = MemClass {
        label: "im2col-src",
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        reuse_lines: src_lines,
        resident_bytes: padded_bytes,
        gather_cycles: gather,
        ..Default::default()
    };
    let dst_cold = run_lines(k * oh * ow).min(l.lines);
    let dst = MemClass {
        label: "im2col-dst",
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        cold_lines: dst_cold,
        reuse_lines: l.lines - dst_cold,
        resident_bytes: 4 * k * oh * ow,
        ..Default::default()
    };
    Phase {
        label: "im2col",
        vsetvls: l.steps,
        scalar_ops: 2 * rows,
        mem: vec![src, dst],
        ..Default::default()
    }
}

/// The 3-loop GEMM kernel (`gemm3_kernel`, UNROLL = 16): N-stripes of one
/// VL, 16-row i-blocks holding C resident, and a full K sweep streaming
/// one B row-stripe per step with hidden scalar A loads.
fn gemm3_phase(ctx: &Ctx, mm: u64, kk: u64, nn: u64) -> Phase {
    let mut p = Phase { label: "gemm3", ..Default::default() };
    let iblocks = blocks(mm, 16);
    let nib: u64 = iblocks.iter().map(|&(c, _)| c).sum();
    let nstripes: u64 = blocks(nn, ctx.mvl).iter().map(|&(c, _)| c).sum();
    let mut b_loads = MemClass { label: "B", ..Default::default() };
    let mut c_rw = MemClass { label: "C", ..Default::default() };
    let mut b_stripe_lines = 0; // one pass over B (first i-block of each stripe)
    for (cs, vl) in blocks(nn, ctx.mvl) {
        p.vsetvls += cs;
        // FMA per stripe: mm * kk instructions at this VL.
        p.arith_instrs += cs * mm * kk;
        p.arith_beats += cs * mm * kk * ctx.beats(vl);
        p.arith_elems += cs * mm * kk * vl;
        p.flops += 2 * cs * mm * kk * vl;
        // One B row-stripe load per (i-block, k).
        b_loads.instrs += cs * nib * kk;
        b_loads.beats += cs * nib * kk * ctx.beats(vl);
        b_loads.elems += cs * nib * kk * vl;
        b_loads.reuse_lines += cs * nib * kk * run_lines(vl);
        b_stripe_lines += cs * kk * run_lines(vl);
        // C rows: one load + one store per (i-row, stripe).
        c_rw.instrs += cs * 2 * mm;
        c_rw.beats += cs * 2 * mm * ctx.beats(vl);
        c_rw.elems += cs * 2 * mm * vl;
        c_rw.cold_lines += cs * mm * run_lines(vl); // loads: first touch of C
        c_rw.reuse_lines += cs * mm * run_lines(vl); // stores hit the loaded lines
                                                     // Inner-loop bookkeeping: one scalar op per k step, two per i-block.
        p.scalar_ops += cs * (nib * kk + 2 * nib);
    }
    // B is an intermediate (the im2col column buffer). The first i-block of
    // each stripe re-reads it at whole-buffer reuse distance; later i-blocks
    // re-touch a single stripe (stripe footprint + resident C/A).
    let b_total = b_loads.reuse_lines;
    let b_bytes = 4 * kk * nn;
    let b_first = MemClass {
        reuse_lines: b_stripe_lines.min(b_total),
        resident_bytes: b_bytes,
        ..MemClass { label: "B-first", ..b_loads.clone() }
    };
    let b_repeat = MemClass {
        label: "B-repeat",
        reuse_lines: b_total - b_first.reuse_lines,
        resident_bytes: 4 * (kk * ctx.mvl + 16 * kk + 30 * ctx.mvl),
        ..Default::default()
    };
    c_rw.resident_bytes = 4 * 30 * ctx.mvl; // resident C tile
                                            // Hidden scalar A loads: `kk` consecutive f32 per i-row per stripe.
    let a_line_touches = nstripes * mm * kk.div_ceil(LINE_BYTES / 4);
    let a_cold = run_lines(mm * kk);
    let a = MemClass {
        label: "A-scalar",
        cold_lines: a_cold.min(a_line_touches),
        reuse_lines: a_line_touches.saturating_sub(a_cold),
        resident_bytes: 4 * (16 * kk + kk * ctx.mvl),
        scalar: true,
        ..Default::default()
    };
    p.mem = vec![b_first, b_repeat, c_rw, a];
    p
}

fn gemm3_workload(ctx: &Ctx, s: &ConvShape) -> Workload {
    let (ph, pw) = ((s.ih + 2 * s.pad) as u64, (s.iw + 2 * s.pad) as u64);
    let (mm, kk, nn) = s.gemm_mkn();
    Workload {
        phases: vec![
            pad_phase(ctx, s.ic as u64, s.ih as u64, s.iw as u64, ph, pw, true),
            im2col_phase(ctx, s),
            gemm3_phase(ctx, mm as u64, kk as u64, nn as u64),
        ],
    }
}

/// One `pack_panel` call: `rows` VL-stepped row copies of `cols` elements
/// each, executed `reps` times. Source reuse is capacity-gated by
/// `src_resident`; the destination is one of the two small packing buffers.
fn pack_phase(
    ctx: &Ctx,
    rows: u64,
    cols: u64,
    reps: u64,
    src_label: &'static str,
    src_cold: u64,
    src_resident: u64,
    dst_resident: u64,
) -> Phase {
    let l = vl_loop(ctx, cols, rows * reps);
    let src = MemClass {
        label: src_label,
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        cold_lines: src_cold.min(l.lines),
        reuse_lines: l.lines - src_cold.min(l.lines),
        resident_bytes: src_resident,
        ..Default::default()
    };
    let dst = MemClass {
        label: "pack-dst",
        instrs: l.steps,
        beats: l.beats,
        elems: l.elems,
        reuse_lines: l.lines,
        resident_bytes: dst_resident,
        ..Default::default()
    };
    Phase {
        label: "pack",
        vsetvls: l.steps,
        scalar_ops: 2 * rows * reps,
        mem: vec![src, dst],
        ..Default::default()
    }
}

/// The 6-loop BLIS-style GEMM: `nc`/`kc`/`mc` cache blocking with B- and
/// A-panel packing and the same 16-row micro-kernel as the 3-loop GEMM.
fn gemm6_workload(ctx: &Ctx, s: &ConvShape) -> Workload {
    let blk = Gemm6Blocking::paper();
    let (nc, kc, mc) = (blk.nc as u64, blk.kc as u64, blk.mc as u64);
    let (mm, kk, nn) = s.gemm_mkn();
    let (mm, kk, nn) = (mm as u64, kk as u64, nn as u64);
    let (ph, pw) = ((s.ih + 2 * s.pad) as u64, (s.iw + 2 * s.pad) as u64);
    let mut phases = vec![
        pad_phase(ctx, s.ic as u64, s.ih as u64, s.iw as u64, ph, pw, true),
        im2col_phase(ctx, s),
    ];
    let packed_b_bytes = 4 * kc * nc;
    let packed_a_bytes = 4 * mc * kc;
    let nk1: u64 = blocks(kk, kc).iter().map(|&(c, _)| c).sum();
    let ni1: u64 = blocks(mm, mc).iter().map(|&(c, _)| c).sum();
    let nj1: u64 = blocks(nn, nc).iter().map(|&(c, _)| c).sum();
    let mut micro = Phase { label: "gemm6-micro", ..Default::default() };
    let mut pb =
        MemClass { label: "packedB", resident_bytes: packed_b_bytes, ..Default::default() };
    let mut c_rw =
        MemClass { label: "C", resident_bytes: 4 * (mc * nc + kc * nc), ..Default::default() };
    let mut c_cold = 0u64;
    for (cj, nb) in blocks(nn, nc) {
        // Pack B: kb x nb once per (j1, k1); B is the im2col intermediate,
        // read exactly once across all blocks.
        for (ck, kb) in blocks(kk, kc) {
            phases.push(pack_phase(
                ctx,
                kb,
                nb,
                cj * ck,
                "B-pack-src",
                0,
                4 * kk * nn,
                packed_b_bytes,
            ));
            // Pack A: mb x kb once per (j1, k1, i1); A re-read every j1.
            for (ci, mb) in blocks(mm, mc) {
                phases.push(pack_phase(
                    ctx,
                    mb,
                    kb,
                    cj * ck * ci,
                    "A-pack-src",
                    if cj * ck * ci > 0 { run_lines(mb * kb) * ck * ci } else { 0 },
                    4 * mm * kk,
                    packed_a_bytes,
                ));
                // Micro-kernel over this (nb, kb, mb) block.
                let reps = cj * ck * ci;
                for (cs, vl) in blocks(nb, ctx.mvl) {
                    let it = reps * cs;
                    micro.vsetvls += it;
                    for (cu, u) in blocks(mb, 16) {
                        let b = it * cu;
                        // u C loads + u C stores per (i-block, j-step).
                        c_rw.instrs += b * 2 * u;
                        c_rw.beats += b * 2 * u * ctx.beats(vl);
                        c_rw.elems += b * 2 * u * vl;
                        c_rw.reuse_lines += b * 2 * u * run_lines(vl);
                        // kb packed-B stripe loads per i-block.
                        pb.instrs += b * kb;
                        pb.beats += b * kb * ctx.beats(vl);
                        pb.elems += b * kb * vl;
                        pb.reuse_lines += b * kb * run_lines(vl);
                        // u FMAs per k step + loop bookkeeping.
                        micro.arith_instrs += b * kb * u;
                        micro.arith_beats += b * kb * u * ctx.beats(vl);
                        micro.arith_elems += b * kb * u * vl;
                        micro.flops += 2 * b * kb * u * vl;
                        micro.scalar_ops += b * (kb + 2);
                    }
                }
            }
        }
    }
    // C's first touch per line is compulsory; the remaining k1 passes reuse.
    c_cold += run_lines(mm * nn);
    c_rw.cold_lines = c_cold.min(c_rw.reuse_lines);
    c_rw.reuse_lines -= c_rw.cold_lines;
    // Hidden scalar loads of the packed A panel: resident in L1 (8 KiB).
    let a_hidden = MemClass {
        label: "packedA-scalar",
        reuse_lines: (nj1 * nk1 * ni1 * mc * kc).div_ceil(LINE_BYTES / 4),
        resident_bytes: packed_a_bytes,
        scalar: true,
        ..Default::default()
    };
    micro.mem = vec![pb, c_rw, a_hidden];
    phases.push(micro);
    Workload { phases }
}

/// Direct convolution, mirroring `direct::run`'s path selection: a
/// spatial-vectorised path when output width wins, otherwise an
/// NHWC-converted channel path (fused multi-pixel when `mvl` spans
/// several pixels' channels, channel-blocked otherwise).
fn direct_workload(ctx: &Ctx, s: &ConvShape) -> Workload {
    let (ic, oc) = (s.ic as u64, s.oc as u64);
    let (oh, ow, stride) = (s.oh() as u64, s.ow() as u64, s.stride as u64);
    let (ph, pw) = ((s.ih + 2 * s.pad) as u64, (s.iw + 2 * s.pad) as u64);
    let r = ic * s.kh as u64 * s.kw as u64;
    let spatial_fill = ow.min(ctx.mvl);
    let channel_fill = oc.min(ctx.mvl);
    let padded_bytes = 4 * ic * ph * pw;
    let weight_bytes = 4 * r * oc;
    let out_bytes = 4 * oc * oh * ow;
    if spatial_fill > channel_fill || (spatial_fill == channel_fill && ow >= oc) {
        // Spatial path: pad, then 12-filter output-channel blocks over
        // VL-stepped output-row stripes.
        let mut p = Phase { label: "direct-spatial", ..Default::default() };
        let mut input =
            MemClass { label: "input", resident_bytes: padded_bytes, ..Default::default() };
        let mut weights = MemClass {
            label: "weights-scalar",
            resident_bytes: weight_bytes,
            scalar: true,
            ..Default::default()
        };
        let mut out = MemClass { label: "output", ..Default::default() };
        let mut w_touches = 0u64;
        for (cb, ob) in blocks(oc, 12) {
            for (cs, vl) in blocks(ow, ctx.mvl) {
                let it = cb * oh * cs;
                p.vsetvls += it;
                // ob accumulator clears + ob FMAs per (ic, ky, kx).
                p.arith_instrs += it * ob * (1 + r);
                p.arith_beats += it * ob * (1 + r) * ctx.beats(vl);
                p.arith_elems += it * ob * (1 + r) * vl;
                p.flops += 2 * it * ob * r * vl;
                // One input row stripe per (ic, ky, kx).
                input.instrs += it * r;
                input.beats += it * r * ctx.beats(vl);
                input.elems += it * r * vl;
                input.reuse_lines +=
                    it * r * if stride == 1 { run_lines(vl) } else { strided_lines(vl, stride) };
                if stride != 1 {
                    input.gather_cycles += it * r * ctx.gather(vl);
                }
                // ob hidden weight loads per (ic, ky, kx): consecutive in oc.
                w_touches += it * r * (4 * ob).div_ceil(LINE_BYTES).max(1);
                // ob output stores.
                out.instrs += it * ob;
                out.beats += it * ob * ctx.beats(vl);
                out.elems += it * ob * vl;
                out.cold_lines += it * ob * run_lines(vl);
                p.scalar_ops += it * 4;
            }
        }
        let w_cold = run_lines(r * oc).min(w_touches);
        weights.cold_lines = w_cold;
        weights.reuse_lines = w_touches - w_cold;
        p.mem = vec![input, weights, out];
        let pad = pad_phase(ctx, ic, s.ih as u64, s.iw as u64, ph, pw, true);
        return Workload { phases: vec![pad, p] };
    }
    // Channel path: NCHW -> padded NHWC conversion, the compute kernel,
    // then NHWC -> NCHW conversion of the output.
    let mut phases = Vec::new();
    if ic == 1 {
        phases.push(pad_phase(ctx, 1, s.ih as u64, s.iw as u64, ph, pw, true));
    } else {
        let rows = ic * s.ih as u64;
        let l = vl_loop(ctx, s.iw as u64, rows);
        let mut gather = 0u64;
        let mut dst_lines = 0u64;
        for (count, vl) in blocks(s.iw as u64, ctx.mvl) {
            gather += rows * count * ctx.gather(vl);
            dst_lines += rows * count * strided_lines(vl, ic);
        }
        // Cold misses are bounded by each buffer's footprint: the strided
        // NHWC writes revisit the same lines (16 channels per line), which
        // the machine serves from cache.
        let src_cold = run_lines(ic * s.ih as u64 * s.iw as u64).min(l.lines);
        let dst_cold = run_lines(ic * ph * pw).min(dst_lines);
        phases.push(Phase {
            label: "nchw->nhwc",
            vsetvls: l.steps,
            scalar_ops: 2 * rows,
            mem: vec![
                MemClass {
                    label: "conv-src",
                    instrs: l.steps,
                    beats: l.beats,
                    elems: l.elems,
                    cold_lines: src_cold,
                    reuse_lines: l.lines - src_cold,
                    resident_bytes: 4 * ic * s.ih as u64 * s.iw as u64,
                    ..Default::default()
                },
                MemClass {
                    label: "conv-dst",
                    instrs: l.steps,
                    beats: l.beats,
                    elems: l.elems,
                    cold_lines: dst_cold,
                    reuse_lines: dst_lines - dst_cold,
                    resident_bytes: padded_bytes,
                    gather_cycles: gather,
                    ..Default::default()
                },
            ],
            ..Default::default()
        });
    }
    let t_max = ctx.mvl / oc.max(1);
    let fused_fill = if t_max >= 2 { t_max.min(ow) * oc } else { 0 };
    let mut kernel = Phase { label: "direct-channel", ..Default::default() };
    let mut input = MemClass { label: "input", resident_bytes: padded_bytes, ..Default::default() };
    let mut weights =
        MemClass { label: "weights", resident_bytes: weight_bytes, ..Default::default() };
    let mut out = MemClass { label: "output-nhwc", ..Default::default() };
    if fused_fill < 4 * channel_fill {
        // Channel-blocked: VL over output channels, 8-pixel unroll, one
        // weight-row vector load + hidden scalar input loads per tap.
        input.scalar = true;
        let mut in_touches = 0u64;
        let mut w_touches = 0u64;
        for (cs, vl) in blocks(oc, ctx.mvl) {
            for (cx, ub) in blocks(ow, 8) {
                let it = oh * cs * cx;
                kernel.vsetvls += it;
                kernel.arith_instrs += it * ub * (1 + r);
                kernel.arith_beats += it * ub * (1 + r) * ctx.beats(vl);
                kernel.arith_elems += it * ub * (1 + r) * vl;
                kernel.flops += 2 * it * ub * r * vl;
                weights.instrs += it * r;
                weights.beats += it * r * ctx.beats(vl);
                weights.elems += it * r * vl;
                w_touches += it * r * run_lines(vl);
                in_touches += it * r * ub.div_ceil(LINE_BYTES / 4).max(1);
                out.instrs += it * ub;
                out.beats += it * ub * ctx.beats(vl);
                out.elems += it * ub * vl;
                out.cold_lines += it * ub * run_lines(vl);
                kernel.scalar_ops += it * 4;
            }
        }
        let w_cold = run_lines(r * oc).min(w_touches);
        weights.cold_lines = w_cold;
        weights.reuse_lines = w_touches - w_cold;
        // The padded NHWC input was first-touched by the pad/conversion
        // phase above, so every kernel read is a revisit.
        input.reuse_lines = in_touches;
    } else {
        // Fused: t pixels x oc channels per vector; weight segments are
        // broadcast with `vload_seg`, input pixels gathered per tap.
        let t = t_max.min(ow);
        let main = ow / (8 * t);
        let rem = ow - main * 8 * t;
        let tail = rem.div_ceil(t);
        let mut in_touches = 0u64;
        let mut w_touches = 0u64;
        // (iterations, accumulators-per-iteration, vector length)
        let mut shapes = vec![(oh * main, 8u64, t * oc)];
        if tail > 0 {
            shapes.push((oh * tail, 1, (rem / tail).max(1).min(t) * oc));
        }
        for (it, acc, vl) in shapes {
            kernel.vsetvls += it;
            kernel.arith_instrs += it * acc * (1 + 2 * r); // clears + gathers' FMA pairs
            kernel.arith_beats += it * acc * (1 + 2 * r) * ctx.beats(vl);
            kernel.arith_elems += it * acc * (1 + 2 * r) * vl;
            kernel.flops += 2 * it * acc * r * vl;
            // One broadcast weight-segment load per tap.
            weights.instrs += it * r;
            weights.beats += it * r * ctx.beats(vl);
            weights.elems += it * r * vl;
            weights.gather_cycles += it * r * ctx.gather(vl);
            w_touches += it * r * run_lines(oc);
            // acc gathered input vectors per tap: t pixels strided ic*stride.
            input.instrs += it * acc * r;
            input.beats += it * acc * r * ctx.beats(vl);
            input.elems += it * acc * r * vl;
            input.gather_cycles += it * acc * r * ctx.gather(vl);
            in_touches += it * acc * r * strided_lines(vl / oc.max(1), ic * stride);
            out.instrs += it * acc;
            out.beats += it * acc * ctx.beats(vl);
            out.elems += it * acc * vl;
            out.cold_lines += it * acc * run_lines(vl);
            kernel.scalar_ops += it * 4;
        }
        let w_cold = run_lines(r * oc).min(w_touches);
        weights.cold_lines = w_cold;
        weights.reuse_lines = w_touches - w_cold;
        // Warm for the same reason as the channel-blocked branch.
        input.reuse_lines = in_touches;
    }
    kernel.mem = vec![input, weights, out];
    phases.push(kernel);
    // NHWC -> NCHW output conversion (charged).
    {
        let rows = oc * oh;
        let l = vl_loop(ctx, ow, if oc == 1 { 0 } else { rows });
        let mut gather = 0u64;
        let mut src_lines = 0u64;
        if oc == 1 {
            let l1 = vl_loop(ctx, oh * ow, 1);
            phases.push(Phase {
                label: "nhwc->nchw",
                vsetvls: l1.steps,
                mem: vec![
                    MemClass {
                        label: "conv-src",
                        instrs: l1.steps,
                        beats: l1.beats,
                        elems: l1.elems,
                        reuse_lines: l1.lines,
                        resident_bytes: out_bytes,
                        ..Default::default()
                    },
                    MemClass {
                        label: "conv-dst",
                        instrs: l1.steps,
                        beats: l1.beats,
                        elems: l1.elems,
                        cold_lines: l1.lines,
                        ..Default::default()
                    },
                ],
                ..Default::default()
            });
        } else {
            for (count, vl) in blocks(ow, ctx.mvl) {
                gather += rows * count * ctx.gather(vl);
                src_lines += rows * count * strided_lines(vl, oc);
            }
            phases.push(Phase {
                label: "nhwc->nchw",
                vsetvls: l.steps,
                scalar_ops: 2 * rows,
                mem: vec![
                    MemClass {
                        label: "conv-src",
                        instrs: l.steps,
                        beats: l.beats,
                        elems: l.elems,
                        reuse_lines: src_lines,
                        resident_bytes: out_bytes,
                        gather_cycles: gather,
                        ..Default::default()
                    },
                    MemClass {
                        label: "conv-dst",
                        instrs: l.steps,
                        beats: l.beats,
                        elems: l.elems,
                        cold_lines: run_lines(oc * oh * ow).min(l.lines),
                        reuse_lines: l.lines - run_lines(oc * oh * ow).min(l.lines),
                        resident_bytes: out_bytes,
                        ..Default::default()
                    },
                ],
                ..Default::default()
            });
        }
    }
    Workload { phases }
}

/// Winograd F(6x6, 3x3): pad, tile input transform (segment loads, the
/// 44-term BT pipeline twice around an 8-register transpose), the tuple-
/// space batched GEMM, and the output transform with partial-tile stores.
fn winograd_workload(ctx: &Ctx, s: &ConvShape) -> Workload {
    let (ic, oc) = (s.ic as u64, s.oc as u64);
    let (oh, ow) = (s.oh() as u64, s.ow() as u64);
    let ty = oh.div_ceil(6);
    let tx = ow.div_ceil(6);
    let nt = ty * tx;
    let (ph, pw) = (6 * ty + 2, 6 * tx + 2);
    let nch = (ctx.mvl / 8).max(1);
    let ubuf_bytes = 4 * ic * nt * 64;
    let mbuf_bytes = 4 * oc * nt * 64;
    let mut phases = vec![pad_phase(ctx, ic, s.ih as u64, s.iw as u64, ph, pw, true)];

    // Stage 1: input transform. One vsetvl per channel block; per tile,
    // 8 segment loads, BT apply (44 instrs), transpose (24 permutes),
    // BT apply, 8 segment stores.
    let mut s1 = Phase { label: "wino-input", ..Default::default() };
    let mut s1_in =
        MemClass { label: "padded", resident_bytes: 4 * ic * ph * pw, ..Default::default() };
    let mut s1_out = MemClass { label: "ubuf", ..Default::default() };
    for (cb, bn) in blocks(ic, nch) {
        let vl = bn * 8;
        s1.vsetvls += cb;
        let it = cb * nt;
        s1_in.instrs += it * 8;
        s1_in.beats += it * 8 * ctx.beats(vl);
        s1_in.elems += it * 8 * vl;
        s1_in.gather_cycles += it * 8 * ctx.gather(vl);
        s1_in.reuse_lines += it * 8 * bn; // one ~32 B segment per channel
        s1.arith_instrs += it * 88;
        s1.arith_beats += it * 88 * ctx.beats(vl);
        s1.arith_elems += it * 88 * vl;
        s1.flops += it * 88 * 2 * vl;
        s1.extra_cycles += it * 24 * (1 + ctx.beats(vl));
        s1.extra_instrs += it * 24;
        s1.extra_elems += it * 24 * vl;
        s1_out.instrs += it * 8;
        s1_out.beats += it * 8 * ctx.beats(vl);
        s1_out.elems += it * 8 * vl;
        s1_out.gather_cycles += it * 8 * ctx.gather(vl);
        s1_out.cold_lines += it * 8 * bn;
        s1.scalar_ops += it * 4;
    }
    s1.mem = vec![s1_in, s1_out];
    phases.push(s1);

    // Stage 2: tuple-space GEMM over (tile-block, ic-block, oc-block).
    let vlf = 64u64.min(ctx.mvl);
    let fchunks = 64u64.div_ceil(vlf);
    let mut s2 = Phase { label: "wino-gemm", ..Default::default() };
    let mut s2_u = MemClass { label: "ubuf", ..Default::default() };
    let mut s2_w = MemClass {
        label: "w-tuples",
        resident_bytes: 4 * 64 * 64 * 8, // one (ic, oc) block of tuples
        ..Default::default()
    };
    let mut s2_m =
        MemClass { label: "mbuf", resident_bytes: 4 * 16 * 64 * oc, ..Default::default() };
    let nic: u64 = blocks(ic, 64).iter().map(|&(c, _)| c).sum();
    let mut u_touches = 0u64;
    let mut w_touches = 0u64;
    for (ct, tb) in blocks(nt, 16) {
        for (cic, icn) in blocks(ic, 64) {
            for (coc, ocn) in blocks(oc, 8) {
                let it = ct * cic * coc * tb * fchunks;
                s2.vsetvls += it;
                // Accumulator init: vfmv on the first ic block, mbuf
                // reload on the rest; count both as one instr per ocn.
                s2_m.instrs += it * ocn; // stores
                s2_m.beats += it * 2 * ocn * ctx.beats(vlf);
                s2_m.elems += it * 2 * ocn * vlf;
                s2_m.reuse_lines += it * 2 * ocn * run_lines(vlf);
                s2_m.instrs += it * ocn; // loads-or-clears (clears priced as arith below)
                s2_u.instrs += it * icn;
                s2_u.beats += it * icn * ctx.beats(vlf);
                s2_u.elems += it * icn * vlf;
                u_touches += it * icn * run_lines(vlf);
                s2_w.instrs += it * icn * ocn;
                s2_w.beats += it * icn * ocn * ctx.beats(vlf);
                s2_w.elems += it * icn * ocn * vlf;
                w_touches += it * icn * ocn * run_lines(vlf);
                s2.arith_instrs += it * icn * ocn;
                s2.arith_beats += it * icn * ocn * ctx.beats(vlf);
                s2.arith_elems += it * icn * ocn * vlf;
                s2.flops += 2 * it * icn * ocn * vlf;
                s2.scalar_ops += ct * cic * coc * tb * 4;
            }
        }
    }
    // ubuf: first oc-block pass at whole-buffer distance, repeats at block
    // distance; weight tuples: compulsory first touch, reloaded per tile.
    s2_u.reuse_lines = u_touches;
    s2_u.resident_bytes = ubuf_bytes;
    let w_cold = run_lines(oc * ic * 64).min(w_touches);
    s2_w.cold_lines = w_cold;
    s2_w.reuse_lines = w_touches - w_cold;
    s2_m.cold_lines = run_lines(oc * nt * 64).min(s2_m.reuse_lines);
    s2_m.reuse_lines -= s2_m.cold_lines;
    // mbuf reuse crosses ic blocks when there is more than one.
    if nic > 1 {
        s2_m.resident_bytes = mbuf_bytes.min(4 * (16 * 64 * oc + 64 * 64 * nt));
    }
    s2.mem = vec![s2_u, s2_w, s2_m];
    phases.push(s2);

    // Stage 3: output transform, symmetric to stage 1 plus partial-row
    // stores into the NCHW output.
    let mut s3 = Phase { label: "wino-output", ..Default::default() };
    let mut s3_m = MemClass { label: "mbuf", resident_bytes: mbuf_bytes, ..Default::default() };
    let mut s3_out = MemClass { label: "output", ..Default::default() };
    for (cb, bn) in blocks(oc, nch) {
        let vl = bn * 8;
        s3.vsetvls += cb;
        let it = cb * nt;
        s3_m.instrs += it * 8;
        s3_m.beats += it * 8 * ctx.beats(vl);
        s3_m.elems += it * 8 * vl;
        s3_m.gather_cycles += it * 8 * ctx.gather(vl);
        s3_m.reuse_lines += it * 8 * bn;
        // `WinoPlan::F6X6.at` applied twice (38 arith + 2 clears each)
        // around the transpose.
        s3.arith_instrs += it * 80;
        s3.arith_beats += it * 80 * ctx.beats(vl);
        s3.arith_elems += it * 80 * vl;
        s3.flops += it * 76 * 2 * vl;
        s3.extra_cycles += it * 24 * (1 + ctx.beats(vl));
        s3.extra_instrs += it * 24;
        s3.extra_elems += it * 24 * vl;
        // ~6 valid rows per tile (fewer on the bottom edge): count exact
        // total rows = tx * oh per full sweep of tile columns.
        let store_rows = cb * tx * oh;
        s3_out.instrs += store_rows;
        s3_out.beats += store_rows * ctx.beats(vl);
        s3_out.elems += store_rows * vl;
        s3_out.gather_cycles += store_rows * ctx.gather(vl);
        s3_out.cold_lines += store_rows * bn;
        s3.scalar_ops += it * 4;
    }
    s3.mem = vec![s3_m, s3_out];
    phases.push(s3);
    Workload { phases }
}

/// Build the fast-tier workload for `algo` on shape `s` at design point
/// `cfg`. Returns `None` exactly when [`Algo::applicable`] is false, so
/// the two tiers agree on which cells exist.
pub fn workload(algo: Algo, s: &ConvShape, cfg: &MachineConfig) -> Option<Workload> {
    if !algo.applicable(s) {
        return None;
    }
    let ctx = Ctx::new(cfg);
    Some(match algo {
        Algo::Gemm3 => gemm3_workload(&ctx, s),
        Algo::Gemm6 => gemm6_workload(&ctx, s),
        Algo::Direct => direct_workload(&ctx, s),
        Algo::Winograd => winograd_workload(&ctx, s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_ALGOS;
    use lv_sim::fastmodel::evaluate;

    fn shapes() -> Vec<ConvShape> {
        vec![
            ConvShape::same_pad(3, 16, 24, 3, 1),
            ConvShape::same_pad(16, 32, 14, 3, 2),
            ConvShape::same_pad(8, 8, 12, 1, 1),
            ConvShape::same_pad(4, 60, 10, 3, 1),
        ]
    }

    #[test]
    fn applicability_matches_algo() {
        let cfg = MachineConfig::default();
        for s in shapes() {
            for a in ALL_ALGOS {
                assert_eq!(workload(a, &s, &cfg).is_some(), a.applicable(&s), "{a:?} {s:?}");
            }
        }
    }

    #[test]
    fn gemm3_flops_match_macs_exactly() {
        let cfg = MachineConfig::default();
        for s in shapes() {
            let w = workload(Algo::Gemm3, &s, &cfg).unwrap();
            let p = evaluate(&cfg, &w, 1.0);
            assert_eq!(p.flops, 2 * s.macs(), "{s:?}");
        }
    }

    #[test]
    fn predictions_are_positive_and_physical() {
        for cfg in [
            MachineConfig::rvv_integrated(512, 1),
            MachineConfig::rvv_integrated(4096, 64),
            MachineConfig::rvv_decoupled(2048, 16),
        ] {
            for s in shapes() {
                for a in ALL_ALGOS {
                    let Some(w) = workload(a, &s, &cfg) else { continue };
                    let p = evaluate(&cfg, &w, 1.0);
                    assert!(p.cycles >= 1, "{a:?} {s:?}");
                    assert!(p.bw_util <= 1.0 + 1e-9, "{a:?} {s:?} bw={}", p.bw_util);
                    assert!((0.0..=1.0).contains(&p.l2_miss_rate), "{a:?} {s:?}");
                    assert!(p.avg_vl > 0.0 && p.avg_vl <= cfg.vlen_elems() as f64, "{a:?} {s:?}");
                }
            }
        }
    }

    #[test]
    fn longer_vectors_do_not_slow_the_model_down() {
        // The headline co-design trend: at fixed work, growing VL should
        // not increase predicted cycles. Direct is excluded: its path
        // selection switches to the gather-heavy fused kernel at large
        // MVL, and the cycle-accurate machine really does slow down there
        // (3.17M vs 1.52M cycles on this shape) — the model must track
        // that, not monotonicity.
        let s = ConvShape::same_pad(16, 32, 28, 3, 1);
        for a in [Algo::Gemm3, Algo::Gemm6, Algo::Winograd] {
            let c512 = evaluate(
                &MachineConfig::rvv_integrated(512, 1),
                &workload(a, &s, &MachineConfig::rvv_integrated(512, 1)).unwrap(),
                1.0,
            )
            .cycles;
            let c4096 = evaluate(
                &MachineConfig::rvv_integrated(4096, 1),
                &workload(a, &s, &MachineConfig::rvv_integrated(4096, 1)).unwrap(),
                1.0,
            )
            .cycles;
            assert!(c4096 < c512, "{a:?}: {c4096} !< {c512}");
        }
    }

    #[test]
    fn larger_l2_never_hurts() {
        let s = ConvShape::same_pad(64, 64, 56, 3, 1);
        for a in ALL_ALGOS {
            let price = |l2: usize| {
                let cfg = MachineConfig::rvv_integrated(512, l2);
                evaluate(&cfg, &workload(a, &s, &cfg).unwrap(), 1.0).cycles
            };
            assert!(price(64) <= price(1), "{a:?}");
        }
    }
}
