//! Grid → selector → serving engine, end to end at one configuration:
//! the machinery behind the `serve` artifact, on a scaled-down grid.
//!
//! Measured per-layer cycles feed the random-forest selector (trained
//! once, reused via `predict_batch`); the resulting per-policy network
//! service times drive the multi-replica serving engine, and the
//! capacity ordering Optimal <= Predicted/Direct must come out the way
//! Figs. 9/10 imply.

use lvconv::bench::grid::policy_cycles;
use lvconv::bench::plan::{ExecOptions, Executor, SweepPlan};
use lvconv::bench::selector::{dataset_from_grid, features_of};
use lvconv::bench::trace::TraceCtx;
use lvconv::conv::{Algo, ALL_ALGOS};
use lvconv::forest::{ForestParams, RandomForest};
use lvconv::serving::{partition_l2, BatchPolicy, EngineConfig, RequestClass, ServingEngine};
use lvconv::sim::CLOCK_HZ;
use lvconv::tensor::ConvShape;

/// The serving config under test: 2 replicas of a 1024-bit core, 8 MiB
/// shared L2 CAT-partitioned into the measured 4 MiB slices.
const VLEN: usize = 1024;
const REPLICAS: usize = 2;

fn small_grid() -> Vec<lvconv::bench::grid::GridRow> {
    let layers = [
        ConvShape::same_pad(3, 16, 48, 3, 1),
        ConvShape::same_pad(16, 32, 24, 3, 1),
        ConvShape::same_pad(32, 16, 24, 1, 1),
        ConvShape::same_pad(16, 32, 24, 3, 2),
        ConvShape::same_pad(64, 64, 6, 3, 1),
        ConvShape::same_pad(8, 64, 12, 3, 1),
    ];
    let plan = layers
        .iter()
        .enumerate()
        .fold(SweepPlan::new("small"), |p, (i, s)| p.layer("small", i + 1, *s))
        .vlens(&[512, VLEN, 2048])
        .l2s(&[1, 4])
        .algos(&ALL_ALGOS);
    let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
    exec.run(&plan, &TraceCtx::disabled()).expect("uncached run").rows
}

#[test]
fn grid_to_selector_to_serving_pipeline() {
    let rows = small_grid();
    let l2 = partition_l2(8, REPLICAS, &[1, 4]).expect("8 MiB / 2 replicas = 4 MiB, measured");
    assert_eq!(l2, 4);

    // Train the forest once on the measured grid, then classify every
    // layer of the deployed config in one pass (the serving-reuse API).
    let (ds, _keys) = dataset_from_grid(&rows);
    let forest = RandomForest::fit(&ds, ForestParams { n_trees: 40, ..Default::default() });
    let shapes: Vec<(usize, ConvShape)> = {
        let mut seen = std::collections::BTreeMap::new();
        for r in rows.iter().filter(|r| r.vlen_bits == VLEN && r.l2_mib == l2) {
            seen.entry(r.layer).or_insert(r.shape);
        }
        seen.into_iter().collect()
    };
    assert_eq!(shapes.len(), 6);
    let feats: Vec<Vec<f64>> = shapes.iter().map(|(_, s)| features_of(s, VLEN, l2)).collect();
    let picks = forest.predict_batch(&feats);
    assert_eq!(picks.len(), shapes.len());

    // Per-policy network service time at the simulated clock.
    let secs = |cycles: u64| cycles as f64 / CLOCK_HZ;
    let stack = |pol: Option<Algo>| -> u64 {
        shapes
            .iter()
            .map(|(l, _)| policy_cycles(&rows, "small", *l, VLEN, l2, pol).unwrap_or(0))
            .sum()
    };
    let direct = stack(Some(Algo::Direct));
    let optimal = stack(None);
    let predicted: u64 = shapes
        .iter()
        .zip(&picks)
        .map(|((l, _), &p)| {
            policy_cycles(&rows, "small", *l, VLEN, l2, Some(Algo::from_label(p)))
                .or_else(|| policy_cycles(&rows, "small", *l, VLEN, l2, None))
                .unwrap_or(0)
        })
        .sum();
    assert!(optimal > 0 && direct >= optimal, "oracle can't lose to Direct");
    assert!(predicted >= optimal, "predictions can't beat the oracle");

    // Serve each policy at the same offered load past Direct's capacity:
    // the faster stacks must complete more work with fewer drops.
    let offered = 1.4 * REPLICAS as f64 / secs(direct);
    let serve = |service_s: f64| {
        let cfg = EngineConfig {
            replicas: REPLICAS,
            classes: RequestClass::uniform(service_s),
            arrival_rate: offered,
            requests: 4000,
            queue_capacity: 32,
            deadline_s: None,
            batch: BatchPolicy::none(),
            batch_setup_frac: 0.0,
            seed: 7,
        };
        ServingEngine::new(cfg).expect("valid config").run()
    };
    let rep_direct = serve(secs(direct));
    let rep_optimal = serve(secs(optimal));
    let rep_predicted = serve(secs(predicted));

    // Past saturation the bounded queue sheds and achieved rps tracks the
    // per-policy capacity, so the Fig. 9/10 ordering shows up in serving.
    assert!(rep_direct.drop_rate > 0.05, "1.4x capacity must shed");
    assert!(
        rep_optimal.achieved_rps >= rep_direct.achieved_rps * 0.999,
        "optimal capacity {} below direct {}",
        rep_optimal.achieved_rps,
        rep_direct.achieved_rps
    );
    assert!(
        rep_predicted.achieved_rps >= rep_direct.achieved_rps * 0.999,
        "predicted capacity {} below direct {}",
        rep_predicted.achieved_rps,
        rep_direct.achieved_rps
    );
    // Everyone's p99 stays finite and bounded by queue drain time.
    let bound = (32.0 / REPLICAS as f64 + 2.0) * secs(direct);
    for rep in [&rep_direct, &rep_optimal, &rep_predicted] {
        assert!(rep.latency.p99_s.is_finite() && rep.latency.p99_s <= bound);
        assert!(rep.completed > 0);
    }
}
