//! Conformance tests for the serving engine: deterministic replay under a
//! fixed seed, FIFO dispatch (batching never reorders admitted requests),
//! arrival conservation under backpressure, and trace transparency
//! (`run_traced` reports byte-identically to `run`).

use lv_serving::engine::{EngineConfig, RequestClass, ServingEngine};
use lv_serving::BatchPolicy;
use lv_trace::{PointEvent, Tracer};

/// A moderately loaded heterogeneous config exercising batching, a finite
/// queue and deadline shedding all at once.
fn stress_config(seed: u64) -> EngineConfig {
    EngineConfig {
        replicas: 3,
        classes: vec![
            RequestClass { name: "vgg16".into(), unit_cost_s: 0.020, weight: 1.0 },
            RequestClass { name: "yolov3".into(), unit_cost_s: 0.045, weight: 2.0 },
        ],
        arrival_rate: 150.0,
        requests: 600,
        queue_capacity: 24,
        deadline_s: Some(0.12),
        batch: BatchPolicy::new(4, 0.004),
        batch_setup_frac: 0.3,
        seed,
    }
}

#[test]
fn identical_seed_replays_byte_identically() {
    let a = ServingEngine::new(stress_config(11)).unwrap().run();
    let b = ServingEngine::new(stress_config(11)).unwrap().run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed must replay exactly");

    let c = ServingEngine::new(stress_config(12)).unwrap().run();
    assert_ne!(
        format!("{a:?}"),
        format!("{c:?}"),
        "a different seed must draw a different arrival process"
    );
}

#[test]
fn traced_run_reports_identically_to_untraced() {
    let engine = ServingEngine::new(stress_config(7)).unwrap();
    let plain = engine.run();
    let tracer = Tracer::enabled();
    let traced = engine.run_traced(&tracer, 3);
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "tracing must not perturb the simulation"
    );
    assert!(
        !tracer.snapshot_points().is_empty(),
        "an enabled tracer must have observed request lifecycle events"
    );
}

#[test]
fn batching_never_reorders_admitted_requests() {
    // The admission queue is FIFO and batches pop from its head, so the
    // order in which requests *leave* the queue (whether dispatched into a
    // batch or shed at a deadline) must follow arrival order exactly. The
    // tracer's `queue` async phases are correlated by arrival sequence
    // number, and the engine emits events in simulated-time order, so the
    // stream of `queue`-phase ends must carry strictly increasing ids.
    let tracer = Tracer::enabled();
    let report = ServingEngine::new(stress_config(21)).unwrap().run_traced(&tracer, 0);
    assert!(report.completed > 0);

    let mut last_id: Option<u64> = None;
    let mut ends = 0usize;
    for ev in tracer.snapshot_points() {
        if let PointEvent::AsyncEnd { id, name, .. } = ev {
            if name == "queue" {
                if let Some(prev) = last_id {
                    assert!(
                        id > prev,
                        "request {id} left the queue after request {prev}: dispatch reordered"
                    );
                }
                last_id = Some(id);
                ends += 1;
            }
        }
    }
    // Every admitted request leaves the queue exactly once (completion or
    // deadline shed); only queue-full rejections never enter it.
    let admitted = 600 - report.drops.queue_full as usize;
    assert_eq!(ends, admitted, "every admitted request must leave the queue exactly once");
}

#[test]
fn every_arrival_is_served_or_counted_dropped() {
    let report = ServingEngine::new(stress_config(33)).unwrap().run();
    assert_eq!(
        report.completed + report.drops.total() as usize,
        600,
        "arrivals must be conserved: completed + dropped == issued"
    );
    assert!(report.drops.queue_full > 0, "the stress config must exercise backpressure");
    assert!(report.drops.deadline_exceeded > 0, "the stress config must exercise shedding");
    assert!(report.latency.count == report.completed);
    assert!(report.mean_batch_size >= 1.0, "batches hold at least one request");
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
}

#[test]
fn unloaded_engine_batches_singly_and_drops_nothing() {
    // Arrivals far apart relative to service time: every batch should be a
    // singleton (time trigger with an empty tail), nothing dropped, and
    // latency ~ unit cost + max_wait.
    let cfg = EngineConfig {
        replicas: 2,
        classes: RequestClass::uniform(0.002),
        arrival_rate: 20.0,
        requests: 200,
        queue_capacity: 64,
        deadline_s: None,
        batch: BatchPolicy::new(8, 0.001),
        batch_setup_frac: 0.2,
        seed: 5,
    };
    let report = ServingEngine::new(cfg).unwrap().run();
    assert_eq!(report.completed, 200);
    assert_eq!(report.drops.total(), 0);
    assert!(
        report.mean_batch_size < 1.5,
        "an unloaded engine must not accumulate batches (got {})",
        report.mean_batch_size
    );
    assert!(report.latency.max_s >= 0.002 + 0.001 - 1e-12);
}
