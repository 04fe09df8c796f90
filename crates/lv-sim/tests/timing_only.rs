//! Timing-only parity: a [`Machine::timing_only`] machine must charge
//! exactly what a computing machine charges. Random op programs run twice
//! over the same caller-owned buffers (so over the same simulated
//! addresses), once per mode, and every [`Stats`] counter must match bit
//! for bit, cycles and cache counters included.

mod ops;

use lv_sim::{CacheGeometry, Machine, MachineConfig, VReg, KIB};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every public op charges identical cycles, counters and cache
    /// accesses with and without data, on both VPU styles, with software
    /// prefetch on and off, through a roomy and a thrashing L2.
    #[test]
    fn timing_only_stats_match_compute(
        seed in 0u64..u64::MAX,
        vlen_log in 0usize..4,
        decoupled in any::<bool>(),
        sw_prefetch in any::<bool>(),
        tiny_l2 in any::<bool>(),
    ) {
        let preset =
            if decoupled { MachineConfig::rvv_decoupled } else { MachineConfig::rvv_integrated };
        let mut cfg = MachineConfig { sw_prefetch, ..preset(256 << vlen_log, 1) };
        if tiny_l2 {
            cfg.l2 = CacheGeometry { size_bytes: 16 * KIB, ways: 4 };
        }
        let prog = ops::program(seed, cfg.vlen_elems(), 400);

        let mut bufs = ops::buffers();
        let mut compute = Machine::new(cfg);
        let mut timing_only = Machine::new(cfg).timing_only();
        let want = ops::run(&mut compute, &prog, &mut bufs);
        let got = ops::run(&mut timing_only, &prog, &mut bufs);
        prop_assert_eq!(got, want);
        prop_assert!(want.vector_instrs > 0 && want.l2_accesses > 0);
    }
}

/// A timing-only machine leaves destinations untouched and keeps the
/// bounds asserts of a computing one.
#[test]
fn timing_only_writes_nothing() {
    let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1)).timing_only();
    let src = vec![1.0f32; 16];
    let mut dst = vec![0.0f32; 16];
    m.vsetvl(16);
    m.vle32(VReg(0), &src);
    m.vfmul_vf(VReg(1), 2.0, VReg(0));
    m.vse32(VReg(1), &mut dst);
    m.scalar_store(&mut dst, 3, 5.0);
    assert_eq!(m.vredsum(VReg(0)), 0.0);
    assert!(dst.iter().all(|&x| x == 0.0));
    assert!(m.cycles() > 0);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn timing_only_scalar_store_checks_index() {
    let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1)).timing_only();
    let mut dst = vec![0.0f32; 4];
    m.scalar_store(&mut dst, 4, 1.0);
}

#[test]
#[should_panic(expected = "vle32 source too short")]
fn timing_only_vector_load_checks_length() {
    let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1)).timing_only();
    let src = vec![0.0f32; 8];
    m.vsetvl(16);
    m.vle32(VReg(0), &src);
}

#[test]
#[should_panic(expected = "aliases")]
fn timing_only_keeps_alias_check() {
    let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1)).timing_only();
    m.vsetvl(4);
    m.vfmacc_vv(VReg(1), VReg(1), VReg(2));
}
