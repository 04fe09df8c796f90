//! Golden-cell regression: a small set of cycle-accurate grid cells is
//! pinned against `TIMING_REV`/`KERNEL_REV`. If either the machine's
//! cost model or a kernel changes timing, the matching REV constant must
//! be bumped (invalidating the cell cache) and these pins regenerated —
//! a silent drift of simulated cycles would corrupt warm caches and
//! every downstream figure.
//!
//! Simulated addresses come from real heap allocations, so exact counts
//! wobble by a handful of conflict misses between runs (documented <1%
//! in `measure.rs`); pins are therefore held to the same 1% noise
//! envelope rather than exact equality.
//!
//! Regenerate by running with `LV_GOLDEN_DUMP=1` and `--nocapture`,
//! then paste the printed table.

use lv_conv::{Algo, KERNEL_REV};
use lv_models::measure_layer;
use lv_sim::{MachineConfig, TIMING_REV};
use lv_tensor::ConvShape;

/// Relative envelope for a pin: the documented run-to-run allocator
/// noise of the cycle tier.
const NOISE: f64 = 0.01;

/// (vlen, l2_mib, decoupled, shape, algo, pinned cycles).
fn golden() -> Vec<(usize, usize, bool, ConvShape, Algo, u64)> {
    let s33 = ConvShape::same_pad(16, 32, 14, 3, 1);
    let s11 = ConvShape { ic: 64, ih: 7, iw: 7, oc: 32, kh: 1, kw: 1, stride: 1, pad: 0 };
    let sst = ConvShape::same_pad(8, 16, 15, 3, 2);
    vec![
        (512, 1, false, s33, Algo::Direct, 361_427),
        (512, 1, false, s33, Algo::Gemm3, 413_471),
        (512, 1, false, s33, Algo::Gemm6, 519_983),
        (512, 1, false, s33, Algo::Winograd, 522_727),
        (2048, 4, false, s33, Algo::Gemm3, 269_508),
        (2048, 4, false, s33, Algo::Winograd, 302_998),
        (1024, 1, true, s33, Algo::Gemm6, 436_708),
        (512, 1, false, s11, Algo::Direct, 71_257),
        (1024, 1, true, s11, Algo::Gemm3, 75_111),
        (512, 1, false, sst, Algo::Direct, 43_619),
        (2048, 4, false, sst, Algo::Gemm3, 42_918),
    ]
}

fn config(vlen: usize, l2: usize, dec: bool) -> MachineConfig {
    if dec {
        MachineConfig::rvv_decoupled(vlen, l2)
    } else {
        MachineConfig::rvv_integrated(vlen, l2)
    }
}

#[test]
fn pinned_cells_reproduce_within_noise() {
    assert_eq!(
        (TIMING_REV, KERNEL_REV),
        (1, 1),
        "TIMING_REV/KERNEL_REV changed: re-pin the golden cells below \
         (LV_GOLDEN_DUMP=1 prints the fresh table) and keep the bump"
    );
    let dump = std::env::var("LV_GOLDEN_DUMP").is_ok();
    let mut failures = Vec::new();
    for (vlen, l2, dec, s, algo, want) in golden() {
        let cfg = config(vlen, l2, dec);
        let m = measure_layer(&cfg, &s, algo).expect("golden cells are applicable");
        if dump {
            println!(
                "({vlen}, {l2}, {dec}, {s:?}, Algo::{algo:?}, {}_u64), // was {want}",
                m.cycles
            );
        }
        let rel = (m.cycles as f64 - want as f64).abs() / want as f64;
        if rel > NOISE {
            failures.push(format!(
                "vlen={vlen} l2={l2} dec={dec} {} {s:?}: got {} cycles, pinned {want} \
                 ({:+.2}% > {:.0}% noise envelope)",
                algo.name(),
                m.cycles,
                100.0 * (m.cycles as f64 / want as f64 - 1.0),
                100.0 * NOISE
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden cells drifted without a TIMING_REV/KERNEL_REV bump:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
