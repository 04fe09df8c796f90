//! Train the random-forest algorithm selector on a (scaled-down) co-design
//! grid and use it to pick per-layer algorithms, comparing against the
//! oracle and the best single algorithm — the paper's §4.3 in miniature.
//!
//! ```text
//! cargo run --release -p lvconv --example algorithm_selection [scale]
//! ```

use lvconv::bench::plan::{paper2_plan, ExecOptions, Executor};
use lvconv::bench::selector::{dataset_from_grid, evaluate_selector};
use lvconv::bench::trace::TraceCtx;
use lvconv::forest::ForestParams;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.12);
    eprintln!("simulating the co-design grid at scale {scale} (this takes ~a minute)...");
    let exec = Executor::new(ExecOptions { no_cache: true, ..Default::default() });
    let rows = exec.run(&paper2_plan(scale), &TraceCtx::disabled()).expect("uncached run").rows;
    let (ds, _) = dataset_from_grid(&rows);
    println!("dataset: {} labeled points, {} features\n", ds.len(), ds.n_features());

    let eval = evaluate_selector(&rows, ForestParams::default());
    println!(
        "5-fold cross-validated accuracy: {:.1}% (paper: 92.8% at full scale)",
        100.0 * eval.cv.mean_accuracy
    );
    println!("misprediction cost (MAPE): {:.1}% (paper: 20.4%)\n", eval.mispredict_mape);

    println!("baseline classifiers on the same data:");
    for (name, acc) in &eval.baselines {
        println!("  {name:16} {:.1}%", 100.0 * acc);
    }

    println!("\ntop feature importances:");
    let mut imp = eval.importances.clone();
    imp.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in imp.iter().take(6) {
        println!("  {name:12} {v:.3}");
    }
    println!(
        "\nThe hardware features (vlen, L2) rank alongside the layer dimensions:\n\
         the best algorithm is a property of the (layer, machine) pair, which is\n\
         why the paper argues for runtime selection in model serving."
    );
}
