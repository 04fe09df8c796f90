//! Property-based tests of the machine model's invariants.

use lv_sim::{CacheGeometry, Machine, MachineConfig, VReg};
use proptest::prelude::*;

fn fma_workload(m: &mut Machine, n: usize, data: &[f32]) -> u64 {
    let mut i = 0;
    while i < n {
        let vl = m.vsetvl(n - i);
        m.vle32(VReg(1), &data[i..]);
        m.vfmacc_vf(VReg(0), 1.5, VReg(1));
        i += vl;
    }
    m.cycles()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Longer vectors never make a fixed streaming workload slower.
    #[test]
    fn longer_vectors_never_slower(n in 64usize..4096) {
        let data = vec![1.0f32; n];
        let mut last = u64::MAX;
        for vlen in [512usize, 1024, 2048, 4096, 8192] {
            let mut m = Machine::new(MachineConfig::rvv_integrated(vlen, 1));
            let c = fma_workload(&mut m, n, &data);
            prop_assert!(c <= last, "vlen {vlen}: {c} > previous {last}");
            last = c;
        }
    }

    /// A larger L2 never slows a repeated-sweep workload (inclusive LRU,
    /// same line costs).
    #[test]
    fn bigger_cache_never_slower(kb in 8usize..512) {
        let data = vec![1.0f32; kb * 256];
        let run = |l2_mib: usize| {
            let mut m = Machine::new(MachineConfig::rvv_integrated(512, l2_mib));
            for _ in 0..3 {
                fma_workload(&mut m, data.len(), &data);
            }
            m.cycles()
        };
        let small = run(1);
        let big = run(64);
        prop_assert!(big <= small, "64MB {big} > 1MB {small}");
    }

    /// More lanes never slow arithmetic down.
    #[test]
    fn more_lanes_never_slower(n in 64usize..2048) {
        let data = vec![1.0f32; n];
        let mut last = u64::MAX;
        for lanes in [2usize, 4, 8, 16] {
            let cfg = MachineConfig { lanes, ..MachineConfig::rvv_integrated(2048, 1) };
            let mut m = Machine::new(cfg);
            let c = fma_workload(&mut m, n, &data);
            prop_assert!(c <= last);
            last = c;
        }
    }

    /// Cycle counts are additive over instruction sequences (no hidden
    /// global state besides caches): running A then B costs the same as
    /// the sum measured with a stats snapshot between them.
    #[test]
    fn stats_deltas_are_additive(n in 16usize..512) {
        let data = vec![2.0f32; n];
        let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
        let c0 = m.cycles();
        fma_workload(&mut m, n, &data);
        let c1 = m.cycles();
        fma_workload(&mut m, n, &data);
        let c2 = m.cycles();
        prop_assert!(c1 - c0 >= c2 - c1, "warm pass should not exceed cold pass");
        prop_assert_eq!(m.stats().cycles, c2);
    }

    /// vsetvl grants exactly min(avl, MVL) and the granted length is what
    /// subsequent ops consume.
    #[test]
    fn vsetvl_contract(avl in 1usize..10_000, vlen_pow in 4u32..10) {
        let vlen = 1usize << vlen_pow; // elements: vlen/32... use bits
        let mut m = Machine::new(MachineConfig::rvv_integrated(512 << (vlen_pow - 4), 1));
        let mvl = m.mvl();
        let granted = m.vsetvl(avl);
        prop_assert_eq!(granted, avl.min(mvl));
        prop_assert_eq!(m.vl(), granted);
        let _ = vlen;
    }

    /// The register file faithfully stores and returns data for any vl.
    #[test]
    fn regfile_roundtrip(vals in proptest::collection::vec(-1e6f32..1e6, 1..128)) {
        let mut m = Machine::new(MachineConfig::rvv_integrated(4096, 1));
        let n = vals.len();
        let mut out = vec![0.0f32; n];
        let mut i = 0;
        while i < n {
            let vl = m.vsetvl(n - i);
            m.vle32(VReg(7), &vals[i..]);
            m.vse32(VReg(7), &mut out[i..]);
            i += vl;
        }
        prop_assert_eq!(out, vals);
    }

    /// Strided loads and unit-stride loads see the same data when stride=1.
    #[test]
    fn stride_one_equals_unit(vals in proptest::collection::vec(-1e3f32..1e3, 16..64)) {
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        let vl = m.vsetvl(16);
        m.vle32(VReg(0), &vals);
        m.vlse32(VReg(1), &vals, 1);
        prop_assert_eq!(m.read_reg(VReg(0)), m.read_reg(VReg(1)));
        let _ = vl;
    }
}

/// Cache associativity invariant: a working set of exactly `ways` lines in
/// one set never misses after warmup, `ways + 1` always does.
#[test]
fn associativity_boundary() {
    use lv_sim::Cache;
    let geo = CacheGeometry { size_bytes: 4 * 64 * 8, ways: 4 }; // 8 sets
    let mut c = Cache::new(geo);
    let lines_same_set: Vec<u64> = (0..5).map(|i| 8 * i + 3).collect();
    // Warm 4 ways.
    for &l in &lines_same_set[..4] {
        c.access_line(l);
    }
    let m0 = c.misses();
    for _ in 0..10 {
        for &l in &lines_same_set[..4] {
            assert!(c.access_line(l));
        }
    }
    assert_eq!(c.misses(), m0);
    // A fifth line in the same set thrashes under LRU round-robin.
    let m1 = c.misses();
    for _ in 0..3 {
        for &l in &lines_same_set {
            c.access_line(l);
        }
    }
    assert!(c.misses() > m1);
}

/// Decoupled VPUs must match integrated functional results exactly.
#[test]
fn vpu_styles_agree_functionally() {
    let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
    let run = |cfg: MachineConfig| {
        let mut m = Machine::new(cfg);
        let mut out = vec![0.0f32; data.len()];
        let mut i = 0;
        while i < data.len() {
            let vl = m.vsetvl(data.len() - i);
            m.vle32(VReg(0), &data[i..]);
            m.vfmul_vf(VReg(1), 3.0, VReg(0));
            m.vse32(VReg(1), &mut out[i..]);
            i += vl;
        }
        out
    };
    assert_eq!(
        run(MachineConfig::rvv_integrated(512, 1)),
        run(MachineConfig::rvv_decoupled(512, 1))
    );
}
