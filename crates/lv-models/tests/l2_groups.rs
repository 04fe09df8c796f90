//! Kernel-level checks of `measure_group`, the one measurement path: one
//! kernel pass prices the paper's four Paper II L2 sizes.
//!
//! Within a group every L2 sees the same access stream, so two things
//! hold exactly. The counters that do not depend on addresses equal a lone
//! `measure_layer` run's. And with equal ways and nested power-of-two set
//! counts, LRU set refinement makes each larger L2 hold a superset of each
//! smaller one (Hill & Smith, IEEE TC 1989), so neither misses nor cycles
//! may rise with the L2 size. Separate runs allocate their buffers at
//! different host addresses and show rises; a group cannot.

use lv_check::{machine_points, structured_grid};
use lv_conv::ALL_ALGOS;
use lv_models::{measure_group, measure_layer};
use lv_sim::{MachineConfig, MIB};
use lv_tensor::ConvShape;

/// The Paper II L2 sizes, smallest first.
const L2_MIB: [usize; 4] = [1, 4, 16, 64];

#[test]
fn group_counts_like_lone_runs_and_never_rises_with_l2_size() {
    let mut shapes = structured_grid(false);
    // One layer whose im2col and GEMM working sets overflow 1 MiB, so the
    // group's members really differ.
    shapes.push(ConvShape::same_pad(32, 32, 48, 3, 1));
    let (mut groups, mut drops) = (0, 0);
    for s in shapes {
        for (name, base) in machine_points(false) {
            let cfgs: Vec<MachineConfig> = L2_MIB
                .iter()
                .map(|&mib| MachineConfig {
                    l2: lv_sim::CacheGeometry { size_bytes: mib * MIB, ..base.l2 },
                    ..base
                })
                .collect();
            for algo in ALL_ALGOS {
                let Some(group) = measure_group(&cfgs, &s, algo) else {
                    assert!(!algo.applicable(&s));
                    continue;
                };
                let cell = format!("{algo} on {s:?} at {name}");
                assert_eq!(group.len(), cfgs.len(), "{cell}");
                for (cfg, g) in cfgs.iter().zip(&group) {
                    let lone = measure_layer(cfg, &s, algo).expect("applicable");
                    let (g, w) = (&g.stats, &lone.stats);
                    let at = format!("{cell}, {} MiB", cfg.l2.size_bytes / MIB);
                    assert_eq!(g.flops, w.flops, "flops: {at}");
                    assert_eq!(g.vector_instrs, w.vector_instrs, "vector_instrs: {at}");
                    assert_eq!(g.vector_elems, w.vector_elems, "vector_elems: {at}");
                    assert_eq!(g.vsetvls, w.vsetvls, "vsetvls: {at}");
                    assert_eq!(g.scalar_ops, w.scalar_ops, "scalar_ops: {at}");
                    assert_eq!(g.avg_vl(), lone.avg_vl, "avg_vl: {at}");
                }
                for pair in group.windows(2) {
                    let (small, big) = (&pair[0], &pair[1]);
                    let at = format!("{cell}, {} -> {} MiB", small.l2_mib, big.l2_mib);
                    assert_eq!(small.stats.l2_accesses, big.stats.l2_accesses, "{at}");
                    assert!(big.stats.l2_misses <= small.stats.l2_misses, "l2_misses rise: {at}");
                    assert!(big.cycles <= small.cycles, "cycles rise: {at}");
                    drops += usize::from(big.cycles < small.cycles);
                }
                groups += 1;
            }
        }
    }
    assert!(groups > 100, "grid too small: {groups} groups");
    assert!(drops > 0, "no group spans a working-set knee");
}
