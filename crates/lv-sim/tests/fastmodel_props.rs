//! Property-based tests of the analytical fast tier: random (valid)
//! machine configurations and random synthetic workloads must never
//! panic the evaluator, and every prediction must be physical —
//! positive finite cycles, bandwidth utilization capped at 100%, and
//! rates inside [0, 1].

use lv_sim::fastmodel::{evaluate, MemClass, Phase, Workload};
use lv_sim::MachineConfig;
use proptest::prelude::*;

/// A random but internally consistent memory class: touches split
/// between cold and reuse, beats/elems proportional to instructions.
fn mem_class(instrs: u64, vl: u64, cold: u64, resident_kib: u64, scalar: bool) -> MemClass {
    let lines = instrs * (4 * vl).div_ceil(64).max(1);
    MemClass {
        label: "fuzz",
        instrs,
        beats: instrs * vl.div_ceil(4).max(1),
        elems: instrs * vl,
        cold_lines: cold.min(lines),
        reuse_lines: lines - cold.min(lines),
        resident_bytes: resident_kib * 1024,
        gather_cycles: if scalar { 0 } else { instrs },
        scalar,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random valid configs x random workloads: no panic, physical output.
    #[test]
    fn predictions_are_always_physical(
        vlen_exp in 7usize..14,
        lanes_exp in 0usize..5,
        dec in any::<bool>(),
        l2_exp in 0usize..7,
        instrs in 1u64..4096,
        vl in 1u64..512,
        cold in 0u64..10_000,
        resident_kib in 0u64..4096,
        scalar in any::<bool>(),
        scale in 0.25f64..4.0,
    ) {
        let preset = if dec { MachineConfig::rvv_decoupled } else { MachineConfig::rvv_integrated };
        let cfg = MachineConfig {
            lanes: (1 << lanes_exp).min(1 << (vlen_exp - 5)),
            ..preset(1 << vlen_exp, 1 << l2_exp)
        };
        cfg.validate().expect("inputs are valid by construction");
        let vl = vl.min(cfg.vlen_elems() as u64);
        let w = Workload {
            phases: vec![Phase {
                label: "fuzz",
                vsetvls: instrs,
                scalar_ops: instrs / 2,
                arith_instrs: instrs,
                arith_beats: instrs * vl.div_ceil(cfg.elems_per_cycle() as u64).max(1),
                arith_elems: instrs * vl,
                flops: 2 * instrs * vl,
                mem: vec![
                    mem_class(instrs, vl, cold, resident_kib, scalar),
                    mem_class(instrs / 3 + 1, vl, cold / 2, resident_kib / 2, false),
                ],
                ..Default::default()
            }],
        };
        let p = evaluate(&cfg, &w, scale);
        prop_assert!(p.cycles >= 1, "cycles must be positive: {p:?}");
        prop_assert!(p.raw_cycles.is_finite() && p.raw_cycles > 0.0, "{p:?}");
        prop_assert!(p.bw_util.is_finite() && (0.0..=1.0).contains(&p.bw_util), "{p:?}");
        prop_assert!((0.0..=1.0).contains(&p.l2_miss_rate), "{p:?}");
        prop_assert!(p.avg_vl.is_finite() && p.avg_vl >= 0.0, "{p:?}");
        prop_assert!(p.avg_vl <= cfg.vlen_elems() as f64 + 1e-9, "{p:?}");
    }

    /// An empty workload is still physical (the 1-cycle floor holds).
    #[test]
    fn empty_workload_has_the_unit_floor(scale in 0.01f64..100.0) {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let p = evaluate(&cfg, &Workload { phases: vec![] }, scale);
        prop_assert!(p.cycles >= 1);
        prop_assert!((0.0..=1.0).contains(&p.bw_util));
    }
}
