//! The algorithm-selection model (Paper II §4.3): dataset construction
//! from the measurement grid, random-forest training, cross-validated
//! evaluation, and the "Predicted Optimal" policy used by Figs. 9-12.

use std::collections::HashMap;

use lv_conv::{Algo, ALL_ALGOS};
use lv_forest::{
    baseline_accuracies, cross_validate, CvReport, Dataset, ForestParams, RandomForest,
};
use lv_tensor::ConvShape;
use serde::{Deserialize, Serialize};

use crate::grid::{find, GridRow, P2_L2S, P2_VLENS};

/// The paper's tuned forest hyperparameters (they "tune the
/// hyperparameters of the Random Forest classifier": depth 10 with
/// bootstrapping; our sweep additionally lands on 200 trees considering 6
/// features per split, which reproduces the 92.8% CV accuracy).
pub fn tuned_params() -> ForestParams {
    ForestParams { n_trees: 200, mtry: Some(6), ..Default::default() }
}

/// The 12 features the paper feeds the classifier: 2 hardware + 10 layer
/// dimensions.
pub const FEATURE_NAMES: [&str; 12] =
    ["vlen_bits", "l2_mib", "ic", "ih", "iw", "stride", "pad", "oc", "oh", "ow", "kh", "kw"];

/// Feature vector for a (layer, hardware config) pair.
pub fn features_of(s: &ConvShape, vlen_bits: usize, l2_mib: usize) -> Vec<f64> {
    vec![
        vlen_bits as f64,
        l2_mib as f64,
        s.ic as f64,
        s.ih as f64,
        s.iw as f64,
        s.stride as f64,
        s.pad as f64,
        s.oc as f64,
        s.oh() as f64,
        s.ow() as f64,
        s.kh as f64,
        s.kw as f64,
    ]
}

/// Key identifying a dataset row.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PointKey {
    /// Model name.
    pub model: String,
    /// 1-based layer ordinal.
    pub layer: usize,
    /// Vector length (bits).
    pub vlen: usize,
    /// L2 size (MiB).
    pub l2: usize,
}

/// Build the classifier dataset from the Paper II grid: one row per
/// (layer, hardware config) labeled with the fastest algorithm. Returns
/// the dataset and the key of each row (same order).
pub fn dataset_from_grid(rows: &[GridRow]) -> (Dataset, Vec<PointKey>) {
    let mut feats = Vec::new();
    let mut labels = Vec::new();
    let mut keys = Vec::new();
    // Deterministic order: iterate the canonical grid.
    let mut layer_shapes: Vec<(String, usize, ConvShape)> = Vec::new();
    for r in rows {
        if !layer_shapes.iter().any(|(m, l, _)| *m == r.model && *l == r.layer) {
            layer_shapes.push((r.model.clone(), r.layer, r.shape));
        }
    }
    for (model, layer, shape) in layer_shapes {
        for &vlen in &P2_VLENS {
            for &l2 in &P2_L2S {
                let best = ALL_ALGOS
                    .iter()
                    .filter_map(|&a| find(rows, &model, layer, vlen, l2, a).map(|r| (a, r.cycles)))
                    .min_by_key(|&(_, c)| c);
                let Some((winner, _)) = best else { continue };
                feats.push(features_of(&shape, vlen, l2));
                labels.push(winner.label());
                keys.push(PointKey { model: model.clone(), layer, vlen, l2 });
            }
        }
    }
    let mut ds = Dataset::new(FEATURE_NAMES.iter().map(|s| s.to_string()).collect(), feats, labels);
    ds.n_classes = ALL_ALGOS.len();
    (ds, keys)
}

/// Full evaluation of the selector, mirroring the paper's §4.3 numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectorEval {
    /// 5-fold cross-validation report (paper: 92.8% mean accuracy).
    pub cv: CvReport,
    /// Mean absolute percentage slowdown of mispredicted points
    /// (paper: 20.4%).
    pub mispredict_mape: f64,
    /// Normalized feature importances (forest trained on all rows).
    pub importances: Vec<(String, f64)>,
    /// Accuracy of the baseline classifiers on an 80/20 split.
    pub baselines: Vec<(String, f64)>,
    /// Cross-validated prediction per point (each point predicted by the
    /// fold that held it out).
    pub predictions: HashMap<PointKey, Algo>,
}

/// Train + evaluate the selector on the grid.
pub fn evaluate_selector(rows: &[GridRow], params: ForestParams) -> SelectorEval {
    let (ds, keys) = dataset_from_grid(rows);
    let cv = cross_validate(&ds, params, 5);
    let mut predictions = HashMap::new();
    for &(row, pred) in &cv.predictions {
        predictions.insert(keys[row].clone(), Algo::from_label(pred));
    }
    // Misprediction cost: how much slower is the predicted algorithm than
    // the optimum where the prediction is wrong.
    let mut errs = Vec::new();
    for &(row, pred) in &cv.predictions {
        if pred == ds.labels[row] {
            continue;
        }
        let k = &keys[row];
        let best = find(rows, &k.model, k.layer, k.vlen, k.l2, Algo::from_label(ds.labels[row]))
            .map(|r| r.cycles);
        let got = crate::grid::policy_cycles(
            rows,
            &k.model,
            k.layer,
            k.vlen,
            k.l2,
            Some(Algo::from_label(pred)),
        );
        if let (Some(b), Some(g)) = (best, got) {
            errs.push((g as f64 - b as f64).abs() / b as f64);
        }
    }
    let mispredict_mape =
        if errs.is_empty() { 0.0 } else { 100.0 * errs.iter().sum::<f64>() / errs.len() as f64 };
    // Importances from a forest on the full data.
    let forest = RandomForest::fit(&ds, params);
    let importances =
        FEATURE_NAMES.iter().map(|s| s.to_string()).zip(forest.feature_importances()).collect();
    // Baselines on the first CV fold's split.
    let folds = lv_forest::stratified_kfold(&ds.labels, 5, params.seed);
    let baselines = baseline_accuracies(&ds, &folds[0].0, &folds[0].1);
    SelectorEval { cv, mispredict_mape, importances, baselines, predictions }
}

/// Cycles of the "Predicted Optimal" policy for one layer/config.
pub fn predicted_cycles(
    rows: &[GridRow],
    preds: &HashMap<PointKey, Algo>,
    model: &str,
    layer: usize,
    vlen: usize,
    l2: usize,
) -> Option<u64> {
    let key = PointKey { model: model.to_string(), layer, vlen, l2 };
    let algo = preds.get(&key).copied()?;
    crate::grid::policy_cycles(rows, model, layer, vlen, l2, Some(algo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecOptions, Executor, SweepPlan};
    use crate::trace::TraceCtx;

    /// A small synthetic grid good enough to exercise the plumbing.
    fn mini_grid() -> Vec<GridRow> {
        let plan = SweepPlan::new("mini")
            .layer("mini", 1, ConvShape::same_pad(3, 16, 24, 3, 1))
            .layer("mini", 2, ConvShape::same_pad(16, 8, 12, 1, 1))
            .vlens(&P2_VLENS)
            .l2s(&[1, 4])
            .algos(&ALL_ALGOS);
        let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
        exec.run(&plan, &TraceCtx::disabled()).expect("uncached run").rows
    }

    #[test]
    fn dataset_built_per_config() {
        let rows = mini_grid();
        let (ds, keys) = dataset_from_grid(&rows);
        // 2 layers x 4 vlens x 2 l2 (only 1 and 4 MiB present in rows;
        // configs with no measurements are skipped).
        assert_eq!(ds.len(), 16);
        assert_eq!(keys.len(), 16);
        assert_eq!(ds.n_features(), 12);
    }

    #[test]
    fn features_match_names() {
        let s = ConvShape::same_pad(3, 8, 16, 3, 2);
        let f = features_of(&s, 1024, 4);
        assert_eq!(f.len(), FEATURE_NAMES.len());
        assert_eq!(f[0], 1024.0);
        assert_eq!(f[5], 2.0); // stride
        assert_eq!(f[8], s.oh() as f64);
    }

    #[test]
    fn selector_end_to_end() {
        let rows = mini_grid();
        let eval = evaluate_selector(&rows, ForestParams { n_trees: 10, ..Default::default() });
        assert_eq!(eval.cv.fold_accuracy.len(), 5);
        assert!(eval.cv.mean_accuracy > 0.0);
        assert_eq!(eval.predictions.len(), 16);
        // Predicted cycles resolvable for every key.
        for k in eval.predictions.keys() {
            assert!(predicted_cycles(&rows, &eval.predictions, &k.model, k.layer, k.vlen, k.l2)
                .is_some());
        }
    }
}
