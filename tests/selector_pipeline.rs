//! The full selection pipeline on a scaled-down grid: simulate, label,
//! train, cross-validate, and check that the predicted-optimal policy is
//! close to the oracle — the machinery behind Figs. 9-12.

use lvconv::bench::grid::policy_cycles;
use lvconv::bench::plan::{ExecOptions, Executor, SweepPlan};
use lvconv::bench::selector::{dataset_from_grid, evaluate_selector, predicted_cycles};
use lvconv::bench::trace::TraceCtx;
use lvconv::conv::{Algo, ALL_ALGOS};
use lvconv::forest::ForestParams;
use lvconv::tensor::ConvShape;

/// A reduced grid: 6 distinctive layers x 8 hardware configs x 4 algos.
fn small_grid() -> Vec<lvconv::bench::grid::GridRow> {
    let layers = [
        ConvShape::same_pad(3, 16, 48, 3, 1),  // first-layer regime
        ConvShape::same_pad(16, 32, 24, 3, 1), // contested 3x3
        ConvShape::same_pad(32, 16, 24, 1, 1), // 1x1 squeeze
        ConvShape::same_pad(16, 32, 24, 3, 2), // strided
        ConvShape::same_pad(64, 64, 6, 3, 1),  // skinny
        ConvShape::same_pad(8, 64, 12, 3, 1),  // wide oc
    ];
    let plan = layers
        .iter()
        .enumerate()
        .fold(SweepPlan::new("small"), |p, (i, s)| p.layer("small", i + 1, *s))
        .vlens(&[512, 1024, 2048, 4096])
        .l2s(&[1, 4])
        .algos(&ALL_ALGOS);
    let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
    exec.run(&plan, &TraceCtx::disabled()).expect("uncached run").rows
}

#[test]
fn labels_vary_across_design_points() {
    // The premise of the whole paper: the best algorithm is not constant.
    let rows = small_grid();
    let (ds, _) = dataset_from_grid(&rows);
    let distinct: std::collections::BTreeSet<usize> = ds.labels.iter().copied().collect();
    assert!(distinct.len() >= 2, "expected multiple winning algorithms, got {distinct:?}");
}

#[test]
fn selector_beats_chance_and_predictions_resolve() {
    let rows = small_grid();
    let eval = evaluate_selector(&rows, ForestParams { n_trees: 40, ..Default::default() });
    // 4-class problem: chance ~ the majority-class share; the forest should
    // do clearly better than 40%.
    assert!(eval.cv.mean_accuracy > 0.5, "cv accuracy too low: {:.2}", eval.cv.mean_accuracy);
    // Every cross-validated prediction must map to a real measurement.
    for (k, algo) in &eval.predictions {
        let c = policy_cycles(&rows, &k.model, k.layer, k.vlen, k.l2, Some(*algo));
        assert!(c.is_some(), "prediction {algo:?} unmeasurable at {k:?}");
    }
}

#[test]
fn predicted_policy_close_to_oracle() {
    let rows = small_grid();
    let eval = evaluate_selector(&rows, ForestParams { n_trees: 40, ..Default::default() });
    let mut pred_total = 0u64;
    let mut oracle_total = 0u64;
    for k in eval.predictions.keys() {
        let p = predicted_cycles(&rows, &eval.predictions, &k.model, k.layer, k.vlen, k.l2)
            .expect("resolvable");
        let o = policy_cycles(&rows, &k.model, k.layer, k.vlen, k.l2, None).expect("oracle");
        pred_total += p;
        oracle_total += o;
        assert!(p >= o, "prediction cannot beat the oracle");
    }
    let overhead = pred_total as f64 / oracle_total as f64;
    assert!(overhead < 1.25, "predicted policy should be within 25% of oracle, got {overhead:.3}x");
}

#[test]
fn oracle_policy_dominates_uniform_policies() {
    let rows = small_grid();
    for vlen in [512usize, 2048] {
        let oracle: u64 =
            (1..=6).map(|l| policy_cycles(&rows, "small", l, vlen, 1, None).unwrap()).sum();
        for algo in ALL_ALGOS {
            let uniform: u64 = (1..=6)
                .map(|l| {
                    policy_cycles(&rows, "small", l, vlen, 1, Some(algo)).unwrap_or(u64::MAX / 8)
                })
                .sum();
            assert!(oracle <= uniform, "oracle lost to {algo:?} at {vlen}b");
        }
    }
}

#[test]
fn dataset_counts_match_grid() {
    let rows = small_grid();
    let (ds, keys) = dataset_from_grid(&rows);
    assert_eq!(ds.len(), 6 * 4 * 2);
    assert_eq!(keys.len(), ds.len());
}

#[test]
fn winograd_label_only_on_applicable_layers() {
    let rows = small_grid();
    let (ds, keys) = dataset_from_grid(&rows);
    for (row, &label) in ds.labels.iter().enumerate() {
        if Algo::from_label(label) == Algo::Winograd {
            let k = &keys[row];
            // Find that layer's shape from the grid.
            let shape = rows.iter().find(|r| r.layer == k.layer).unwrap().shape;
            assert!(shape.winograd_applicable());
        }
    }
}
