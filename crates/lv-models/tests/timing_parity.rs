//! Kernel-level parity of the timing-only measurement path.
//!
//! `measure_layer` runs each kernel on a timing-only machine over zeroed
//! buffers. Here every kernel also runs the computing way — pseudo-random
//! input, converted weights, a computing machine — over the conformance
//! shape grid and machine points, and the two must count the same work.
//! Cycles and cache counters are compared elsewhere (`golden_cells.rs`):
//! they follow host heap addresses, which differ between any two runs.

use lv_check::{machine_points, structured_grid};
use lv_conv::{prepare_weights, run_conv, ALL_ALGOS};
use lv_models::measure_layer;
use lv_sim::Machine;
use lv_tensor::{pseudo_buf, pseudo_weights};

#[test]
fn timing_only_measurement_counts_the_computed_work() {
    // The deep grid plus the default grid's cheaper stand-in shape, on
    // every machine point (both VPU styles, vectors up to 4096 bits).
    let mut shapes = structured_grid(true);
    let extra: Vec<_> =
        structured_grid(false).into_iter().filter(|s| !shapes.contains(s)).collect();
    shapes.extend(extra);
    let mut cells = 0;
    for s in shapes {
        for (name, cfg) in machine_points(true) {
            for algo in ALL_ALGOS {
                let Some(got) = measure_layer(&cfg, &s, algo) else {
                    assert!(!algo.applicable(&s));
                    continue;
                };
                let input = pseudo_buf(s.input_len(), 101);
                let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 102);
                let prepared = prepare_weights(algo, &s, &w);
                let mut out = vec![0.0f32; s.output_len()];
                let mut m = Machine::new(cfg);
                run_conv(&mut m, algo, &s, &input, &prepared, &mut out);
                let want = m.stats();
                let (g, cell) = (&got.stats, format!("{algo} on {s:?} at {name}"));
                assert_eq!(g.flops, want.flops, "flops: {cell}");
                assert_eq!(g.vector_instrs, want.vector_instrs, "vector_instrs: {cell}");
                assert_eq!(g.vector_elems, want.vector_elems, "vector_elems: {cell}");
                assert_eq!(g.vsetvls, want.vsetvls, "vsetvls: {cell}");
                assert_eq!(g.scalar_ops, want.scalar_ops, "scalar_ops: {cell}");
                assert_eq!(got.avg_vl, want.avg_vl(), "avg_vl: {cell}");
                cells += 1;
            }
        }
    }
    assert!(cells > 150, "grid too small: {cells} cells");
}
