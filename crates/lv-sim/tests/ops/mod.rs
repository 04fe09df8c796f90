//! Random programs over every public [`Machine`] operation, shared by the
//! parity tests: operands are drawn valid for the current vector length,
//! and every memory operation targets one of three caller-owned buffers,
//! so two machines running the same program see the same addresses.

use lv_sim::{Machine, Stats, VReg, NUM_VREGS};
use proptest::TestRng;

/// Elements per caller-owned buffer: larger than the widest access
/// (64 lanes x stride 16), and three of them overflow the 64 KiB L1.
const BUF_LEN: usize = 6000;

/// One public machine operation with its operands drawn.
#[derive(Debug, Clone)]
pub enum Op {
    Vsetvl(usize),
    Vle32(VReg, usize, usize),
    Vse32(VReg, usize, usize),
    Vlse32(VReg, usize, usize, usize),
    Vsse32(VReg, usize, usize, usize),
    /// `(reg, buf, offset, seg_len, seg_stride, nsegs)`.
    VloadSeg(VReg, usize, usize, usize, usize, usize),
    VstoreSeg(VReg, usize, usize, usize, usize, usize),
    /// `(reg, buf, offset, seg_valid, seg_block, seg_stride, nsegs)`.
    VstoreSegPartial(VReg, usize, usize, usize, usize, usize, usize),
    VgatherRepeat(VReg, usize, usize, usize, usize),
    VfmvVf(VReg, f32),
    Vmv(VReg, VReg),
    VfmaccVf(VReg, f32, VReg),
    VfmaccVv(VReg, VReg, VReg),
    VfnmsacVv(VReg, VReg, VReg),
    VfaddVv(VReg, VReg, VReg),
    VfsubVv(VReg, VReg, VReg),
    VfmulVv(VReg, VReg, VReg),
    VfmulVf(VReg, f32, VReg),
    VfaddVf(VReg, f32, VReg),
    VfmaxVv(VReg, VReg, VReg),
    Vleaky(VReg, f32),
    Vredsum(VReg),
    /// Transpose `n` registers at `vl = n * k`: `(n, k, first register)`.
    Vtranspose(usize, usize, u8),
    ScalarOps(u64),
    ScalarFma,
    ScalarLoad(usize, usize),
    ScalarLoadHidden(usize, usize),
    ScalarStore(usize, usize, f32),
    Prefetch(usize, usize, usize),
}

fn reg(rng: &mut TestRng) -> VReg {
    VReg(rng.below(NUM_VREGS) as u8)
}

/// A register different from every one in `not`.
fn reg_except(rng: &mut TestRng, not: &[VReg]) -> VReg {
    loop {
        let r = reg(rng);
        if !not.contains(&r) {
            return r;
        }
    }
}

fn scalar(rng: &mut TestRng) -> f32 {
    rng.unit_f64() as f32 * 4.0 - 2.0
}

/// A divisor of `vl` no larger than 16.
fn divisor(rng: &mut TestRng, vl: usize) -> usize {
    let ds: Vec<usize> = (1..=vl.min(16)).filter(|d| vl % d == 0).collect();
    ds[rng.below(ds.len())]
}

/// An offset leaving `extent` elements in bounds.
fn offset(rng: &mut TestRng, extent: usize) -> usize {
    rng.below(BUF_LEN - extent + 1)
}

/// Draw one valid op at the current vector length `vl` (updated by
/// `Vsetvl` and `Vtranspose`).
fn draw(rng: &mut TestRng, vl: &mut usize, mvl: usize) -> Op {
    let buf = rng.below(3);
    let (r0, v) = (reg(rng), *vl);
    match rng.below(29) {
        0 => {
            *vl = (1 + rng.below(2 * mvl)).min(mvl);
            Op::Vsetvl(*vl)
        }
        1 => Op::Vle32(r0, buf, offset(rng, v)),
        2 => Op::Vse32(r0, buf, offset(rng, v)),
        n @ (3 | 4) => {
            let stride = 1 + rng.below(16);
            let off = offset(rng, (v - 1) * stride + 1);
            if n == 3 {
                Op::Vlse32(r0, buf, off, stride)
            } else {
                Op::Vsse32(r0, buf, off, stride)
            }
        }
        n @ (5 | 6) => {
            let seg_len = divisor(rng, v);
            let nsegs = v / seg_len;
            // Loads may broadcast one segment (stride 0); stores may not.
            let seg_stride = if n == 5 { rng.below(40) } else { 1 + rng.below(40) };
            let off = offset(rng, (nsegs - 1) * seg_stride + seg_len);
            if n == 5 {
                Op::VloadSeg(r0, buf, off, seg_len, seg_stride, nsegs)
            } else {
                Op::VstoreSeg(r0, buf, off, seg_len, seg_stride, nsegs)
            }
        }
        7 => {
            let seg_block = divisor(rng, v);
            let seg_valid = 1 + rng.below(seg_block);
            let nsegs = v / seg_block;
            let seg_stride = rng.below(40);
            let off = offset(rng, (nsegs - 1) * seg_stride + seg_valid);
            Op::VstoreSegPartial(r0, buf, off, seg_valid, seg_block, seg_stride, nsegs)
        }
        8 => {
            let repeat = divisor(rng, v);
            let stride = rng.below(24);
            let off = offset(rng, (v / repeat - 1) * stride + 1);
            Op::VgatherRepeat(r0, buf, off, stride, repeat)
        }
        9 => Op::VfmvVf(r0, scalar(rng)),
        10 => Op::Vmv(r0, reg(rng)),
        11 => Op::VfmaccVf(r0, scalar(rng), reg_except(rng, &[r0])),
        n @ (12..=16) => {
            let (a, b) = (reg_except(rng, &[r0]), reg_except(rng, &[r0]));
            match n {
                12 => Op::VfmaccVv(r0, a, b),
                13 => Op::VfnmsacVv(r0, a, b),
                14 => Op::VfsubVv(r0, a, b),
                15 => Op::VfmulVv(r0, a, b),
                _ => Op::VfmaxVv(r0, a, b),
            }
        }
        // In-place forms of the ops that allow the destination to alias.
        17 => Op::VfaddVv(r0, r0, reg_except(rng, &[r0])),
        18 => Op::VfaddVv(r0, reg_except(rng, &[r0]), r0),
        19 => Op::VfaddVv(r0, reg_except(rng, &[r0]), reg_except(rng, &[r0])),
        20 => Op::VfmaxVv(r0, r0, reg_except(rng, &[r0])),
        21 => Op::VfmulVf(r0, scalar(rng), if rng.below(2) == 0 { r0 } else { reg(rng) }),
        22 => Op::VfaddVf(r0, scalar(rng), if rng.below(2) == 0 { r0 } else { reg(rng) }),
        23 => Op::Vleaky(r0, scalar(rng)),
        24 => Op::Vredsum(r0),
        25 => {
            let n = 2 + rng.below(7);
            let k = 1 + rng.below(mvl / n);
            *vl = n * k;
            Op::Vtranspose(n, k, rng.below(NUM_VREGS - n + 1) as u8)
        }
        26 => {
            if rng.below(2) == 0 {
                Op::ScalarOps(1 + rng.below(8) as u64)
            } else {
                Op::ScalarFma
            }
        }
        27 => {
            let idx = rng.below(BUF_LEN);
            match rng.below(3) {
                0 => Op::ScalarLoad(buf, idx),
                1 => Op::ScalarLoadHidden(buf, idx),
                _ => Op::ScalarStore(buf, idx, scalar(rng)),
            }
        }
        _ => Op::Prefetch(buf, rng.below(BUF_LEN + 64), rng.below(4096)),
    }
}

/// Run `prog` on `m` over `bufs` and return the final counters.
pub fn run(m: &mut Machine, prog: &[Op], bufs: &mut [Vec<f32>; 3]) -> Stats {
    for op in prog {
        match *op {
            Op::Vsetvl(avl) => {
                m.vsetvl(avl);
            }
            Op::Vle32(r, b, off) => m.vle32(r, &bufs[b][off..]),
            Op::Vse32(r, b, off) => m.vse32(r, &mut bufs[b][off..]),
            Op::Vlse32(r, b, off, st) => m.vlse32(r, &bufs[b][off..], st),
            Op::Vsse32(r, b, off, st) => m.vsse32(r, &mut bufs[b][off..], st),
            Op::VloadSeg(r, b, off, len, st, n) => m.vload_seg(r, &bufs[b][off..], len, st, n),
            Op::VstoreSeg(r, b, off, len, st, n) => {
                m.vstore_seg(r, &mut bufs[b][off..], len, st, n)
            }
            Op::VstoreSegPartial(r, b, off, valid, block, st, n) => {
                m.vstore_seg_partial(r, &mut bufs[b][off..], valid, block, st, n)
            }
            Op::VgatherRepeat(r, b, off, st, rep) => m.vgather_repeat(r, &bufs[b][off..], st, rep),
            Op::VfmvVf(d, x) => m.vfmv_v_f(d, x),
            Op::Vmv(d, s) => m.vmv(d, s),
            Op::VfmaccVf(d, f, s) => m.vfmacc_vf(d, f, s),
            Op::VfmaccVv(d, a, b) => m.vfmacc_vv(d, a, b),
            Op::VfnmsacVv(d, a, b) => m.vfnmsac_vv(d, a, b),
            Op::VfaddVv(d, a, b) => m.vfadd_vv(d, a, b),
            Op::VfsubVv(d, a, b) => m.vfsub_vv(d, a, b),
            Op::VfmulVv(d, a, b) => m.vfmul_vv(d, a, b),
            Op::VfmulVf(d, f, s) => m.vfmul_vf(d, f, s),
            Op::VfaddVf(d, f, s) => m.vfadd_vf(d, f, s),
            Op::VfmaxVv(d, a, b) => m.vfmax_vv(d, a, b),
            Op::Vleaky(d, a) => m.vleaky(d, a),
            Op::Vredsum(r) => {
                m.vredsum(r);
            }
            Op::Vtranspose(n, k, first) => {
                m.vsetvl(n * k);
                let regs: Vec<VReg> = (first..first + n as u8).map(VReg).collect();
                m.vtranspose_n(&regs);
            }
            Op::ScalarOps(n) => m.scalar_ops(n),
            Op::ScalarFma => m.scalar_fma(),
            Op::ScalarLoad(b, i) => {
                m.scalar_load(&bufs[b], i);
            }
            Op::ScalarLoadHidden(b, i) => {
                m.scalar_load_hidden(&bufs[b], i);
            }
            Op::ScalarStore(b, i, v) => m.scalar_store(&mut bufs[b], i, v),
            Op::Prefetch(b, off, bytes) => m.prefetch(&bufs[b], off, bytes),
        }
    }
    m.stats()
}

/// A program of `len` ops for a machine of `mvl` elements, from `seed`.
pub fn program(seed: u64, mvl: usize, len: usize) -> Vec<Op> {
    let mut rng = TestRng::new(seed);
    let mut vl = mvl;
    (0..len).map(|_| draw(&mut rng, &mut vl, mvl)).collect()
}

/// The three caller-owned buffers a program addresses.
pub fn buffers() -> [Vec<f32>; 3] {
    std::array::from_fn(|k| (0..BUF_LEN).map(|i| (i * (k + 1)) as f32 * 0.25).collect())
}
