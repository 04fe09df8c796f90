//! Model serving: co-locate CNN replicas on a multicore long-vector chip
//! with CAT-style L2 partitioning, measure per-replica inference latency
//! on the simulated machine, then drive an open-loop serving simulation to
//! see throughput and tail latency — the paper's deployment scenario.
//!
//! ```text
//! cargo run --release -p lvconv --example model_serving [scale]
//! ```

use lvconv::area::chip_area_mm2;
use lvconv::conv::ALL_ALGOS;
use lvconv::models::{measure_layer, zoo};
use lvconv::serving::{partition_l2, EngineConfig, ServingEngine};
use lvconv::sim::MachineConfig;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let model = zoo::vgg16();
    let layers: Vec<_> = model.conv_shapes().iter().map(|s| s.scaled(scale)).collect();
    let vlen = 2048;
    let shared_l2 = 64; // MiB
    let measured = [1usize, 4, 16, 64];

    println!("serving VGG-16 (conv stack scaled by {scale}) on a {vlen}-bit multicore chip");
    println!("shared L2 = {shared_l2} MiB, equal CAT partitions\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "replicas", "L2/model", "latency", "capacity", "p99@70%", "util", "area"
    );

    for replicas in [1usize, 2, 4, 8] {
        let Some(part) = partition_l2(shared_l2, replicas, &measured) else {
            println!("{replicas:>8} -- partition too small, skipped");
            continue;
        };
        // Per-image latency: best algorithm per layer at this partition.
        let cfg = MachineConfig::rvv_integrated(vlen, part);
        let cycles: u64 = layers
            .iter()
            .map(|s| {
                ALL_ALGOS
                    .iter()
                    .filter_map(|&a| measure_layer(&cfg, s, a).map(|m| m.cycles))
                    .min()
                    .unwrap()
            })
            .sum();
        let service_s = cycles as f64 / 2e9;
        let capacity = replicas as f64 / service_s;
        let rep =
            ServingEngine::new(EngineConfig::basic(replicas, service_s, 0.7 * capacity, 5000, 11))
                .expect("serving config is valid by construction")
                .run();
        println!(
            "{:>8} {:>8}MB {:>9.2}ms {:>8.1}img/s {:>8.2}ms {:>9.0}% {:>7.1}mm2",
            replicas,
            part,
            service_s * 1e3,
            capacity,
            rep.latency.p99_s * 1e3,
            100.0 * rep.utilization,
            chip_area_mm2(replicas, vlen, shared_l2),
        );
    }
    println!(
        "\nCo-location trades per-replica cache for parallel replicas: throughput\n\
         scales with replica count long before the smaller partition hurts —\n\
         the effect behind the paper's Fig. 12 Pareto frontier."
    );
}
