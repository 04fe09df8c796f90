//! The serving engine: a discrete-event simulation of a multi-replica
//! model server with bounded admission, deadline shedding, dynamic
//! batching, heterogeneous request classes, and full observability.
//!
//! ## Event loop
//!
//! Two event kinds drive the clock forward: *arrivals* (open-loop Poisson
//! process; each draws a request class by weight) and *dispatches* (a free
//! replica launches a batch). A dispatch becomes eligible at
//!
//! * `max(replica_free, arrival_of_max_batch_th_request)` once the queue
//!   holds a full batch (size trigger), or
//! * `max(replica_free, head_arrival + max_wait)` otherwise (time
//!   trigger) — unless an earlier arrival completes the batch first.
//!
//! The earlier event is processed; ties go to the arrival so batches fill
//! greedily. Before a batch launches, queued requests whose deadline
//! passed are shed ([`crate::metrics::DropReason::DeadlineExceeded`]);
//! requests arriving at a full queue are rejected on the spot
//! ([`crate::metrics::DropReason::QueueFull`]).

use lv_trace::{Tracer, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::batch::BatchPolicy;
use crate::metrics::{
    DropStats, LatencyHistogram, LatencySummary, ReplicaCounters, SeriesRecorder, SliceStat,
};
use crate::node::{EngineNode, NodeConfig, NodeEvent};
use crate::queue::QueuedRequest;
use crate::ServingError;

/// One class of requests (e.g. one model) in the traffic mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestClass {
    /// Display name ("vgg16", "yolov3", ...).
    pub name: String,
    /// Service time of one request of this class alone, in seconds.
    pub unit_cost_s: f64,
    /// Relative traffic weight (need not be normalised).
    pub weight: f64,
}

impl RequestClass {
    /// A single uniform class, for homogeneous traffic.
    pub fn uniform(unit_cost_s: f64) -> Vec<Self> {
        vec![Self { name: "default".into(), unit_cost_s, weight: 1.0 }]
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of model replicas (each on its own core / L2 partition).
    pub replicas: usize,
    /// Traffic mix; at least one class.
    pub classes: Vec<RequestClass>,
    /// Total mean arrival rate across classes, requests/second.
    pub arrival_rate: f64,
    /// Number of arrivals to simulate.
    pub requests: usize,
    /// Admission queue capacity (requests beyond it are rejected).
    pub queue_capacity: usize,
    /// Optional relative deadline: queued longer than this ⇒ shed.
    pub deadline_s: Option<f64>,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Fraction of a solo request's cost that is per-launch setup, `[0,1)`
    /// (see [`crate::batch::batch_service_time`]).
    pub batch_setup_frac: f64,
    /// RNG seed (the simulation is deterministic given the seed).
    pub seed: u64,
}

impl EngineConfig {
    /// Minimal config: homogeneous traffic, unbounded queue, no batching.
    pub fn basic(
        replicas: usize,
        service_time_s: f64,
        arrival_rate: f64,
        requests: usize,
        seed: u64,
    ) -> Self {
        Self {
            replicas,
            classes: RequestClass::uniform(service_time_s),
            arrival_rate,
            requests,
            queue_capacity: usize::MAX,
            deadline_s: None,
            batch: BatchPolicy::none(),
            batch_setup_frac: 0.0,
            seed,
        }
    }

    fn validate(&self) -> Result<(), ServingError> {
        if self.replicas == 0 {
            return Err(ServingError::NoReplicas);
        }
        if self.requests == 0 {
            return Err(ServingError::NoRequests);
        }
        if !self.arrival_rate.is_finite() || self.arrival_rate <= 0.0 {
            return Err(ServingError::InvalidArrivalRate(self.arrival_rate));
        }
        if self.classes.is_empty() {
            return Err(ServingError::NoClasses);
        }
        for c in &self.classes {
            if !c.unit_cost_s.is_finite() || c.unit_cost_s <= 0.0 {
                return Err(ServingError::InvalidServiceTime(c.unit_cost_s));
            }
            if !c.weight.is_finite() || c.weight < 0.0 {
                return Err(ServingError::InvalidWeight(c.weight));
            }
        }
        if !self.classes.iter().any(|c| c.weight > 0.0) {
            return Err(ServingError::NoClasses);
        }
        // The server-side fields share NodeConfig's validation (zero
        // replicas / queue / batch, setup fraction, non-positive deadline).
        self.node_config().validate()
    }

    /// The node-side subset of this config (see [`crate::node`]).
    pub fn node_config(&self) -> NodeConfig {
        NodeConfig {
            replicas: self.replicas,
            queue_capacity: self.queue_capacity,
            deadline_s: self.deadline_s,
            batch: self.batch,
            batch_setup_frac: self.batch_setup_frac,
            strict_deadline: false,
        }
    }
}

/// Everything the engine observed in one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Completions per second of makespan.
    pub achieved_rps: f64,
    /// Requests served to completion.
    pub completed: usize,
    /// Drop accounting by reason.
    pub drops: DropStats,
    /// Fraction of arrivals dropped (either reason).
    pub drop_rate: f64,
    /// End-to-end latency summary of completed requests: the per-replica
    /// histograms folded with [`LatencyHistogram::merge`] (exact).
    pub latency: LatencySummary,
    /// Per-replica latency summaries, index-aligned with
    /// [`EngineReport::replica_counters`].
    pub replica_latency: Vec<LatencySummary>,
    /// Mean executed batch size.
    pub mean_batch_size: f64,
    /// Mean replica utilization over the makespan, [0, 1].
    pub utilization: f64,
    /// Per-replica work counters.
    pub replica_counters: Vec<ReplicaCounters>,
    /// Time-sliced utilization / queue-depth series.
    pub series: Vec<SliceStat>,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: usize,
}

/// The serving engine. Construct with [`ServingEngine::new`] (validates the
/// config), then [`ServingEngine::run`].
#[derive(Debug)]
pub struct ServingEngine {
    cfg: EngineConfig,
}

impl ServingEngine {
    /// Validate `cfg` and build an engine.
    pub fn new(cfg: EngineConfig) -> Result<Self, ServingError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// Run the simulation to completion (all arrivals either served or
    /// dropped) and report.
    pub fn run(&self) -> EngineReport {
        self.run_traced(&Tracer::disabled(), 0)
    }

    /// [`ServingEngine::run`], emitting request-lifecycle trace events into
    /// `tracer` under Chrome-trace process id `pid`.
    ///
    /// The event vocabulary, all timestamped in microseconds of simulated
    /// wall time:
    ///
    /// * per admitted request, async-nestable phases correlated by arrival
    ///   sequence number: `request` (arrival → completion or shed)
    ///   containing `queue` (arrival → dispatch), then `batch` and
    ///   `execute` (dispatch → completion); queue-full rejections never
    ///   open a phase and appear only as drop instants;
    /// * per executed batch, a complete span on the owning replica's track
    ///   carrying `batch_size` / `service_s` args;
    /// * `drop:queue_full` / `drop:deadline` instants on a drops track;
    /// * a `queue_depth` counter sampled at every depth transition.
    ///
    /// With a disabled tracer this is exactly [`ServingEngine::run`]: the
    /// simulation consumes no trace state and the report is identical.
    pub fn run_traced(&self, tracer: &Tracer, pid: u64) -> EngineReport {
        let c = &self.cfg;
        let trace = tracer.is_enabled();
        let queue_track = TrackId::new(pid, 0);
        let drops_track = TrackId::new(pid, 1);
        if trace {
            tracer.name_process(pid, "serving-engine");
            tracer.name_track(queue_track, "admission queue");
            tracer.name_track(drops_track, "drops");
            for ri in 0..c.replicas {
                tracer.name_track(TrackId::new(pid, 2 + ri as u64), &format!("replica {ri}"));
            }
        }
        let mut rng = StdRng::seed_from_u64(c.seed);
        let total_weight: f64 = c.classes.iter().map(|cl| cl.weight).sum();

        // Time-series slices of ~1/20 of the expected run length.
        let width_s = (c.requests as f64 / c.arrival_rate / 20.0).max(1e-6);

        let mut node = EngineNode::new(self.cfg.node_config()).expect("validated at construction");
        let mut series = SeriesRecorder::new(width_s);
        let mut last_arrival = 0.0f64;

        // Map node events (sheds, batch launches) to trace emissions and
        // the utilization / queue-depth series, in chronological order.
        let process = |events: Vec<NodeEvent>, series: &mut SeriesRecorder| {
            for ev in events {
                match ev {
                    NodeEvent::Shed { at_s, shed, queue_len_after } => {
                        let d_us = at_s * 1e6;
                        if trace {
                            for r in &shed {
                                tracer.async_end(pid, r.id, "queue", d_us);
                                tracer.instant(drops_track, "drop:deadline", d_us, vec![]);
                                tracer.async_end(pid, r.id, "request", d_us);
                            }
                        }
                        series.note_depth(at_s, queue_len_after);
                        if trace {
                            tracer.counter(
                                queue_track,
                                "queue_depth",
                                d_us,
                                queue_len_after as f64,
                            );
                        }
                    }
                    NodeEvent::Batch {
                        replica,
                        at_s,
                        done_s,
                        service_s,
                        requests,
                        queue_len_after,
                    } => {
                        series.note_depth(at_s, queue_len_after);
                        series.add_busy(at_s, done_s);
                        if trace {
                            let (d_us, done_us) = (at_s * 1e6, done_s * 1e6);
                            let replica_track = TrackId::new(pid, 2 + replica as u64);
                            let span = tracer.begin_args(
                                replica_track,
                                &format!("batch x{}", requests.len()),
                                d_us,
                                vec![
                                    ("batch_size".into(), (requests.len() as u64).into()),
                                    ("service_s".into(), service_s.into()),
                                ],
                            );
                            tracer.end(span, done_us);
                            for r in &requests {
                                tracer.async_end(pid, r.id, "queue", d_us);
                                tracer.async_begin(
                                    pid,
                                    r.id,
                                    "batch",
                                    d_us,
                                    vec![("replica".into(), (replica as u64).into())],
                                );
                                tracer.async_begin(pid, r.id, "execute", d_us, vec![]);
                                tracer.async_end(pid, r.id, "execute", done_us);
                                tracer.async_end(pid, r.id, "batch", done_us);
                                tracer.async_end(pid, r.id, "request", done_us);
                            }
                            tracer.counter(
                                queue_track,
                                "queue_depth",
                                d_us,
                                queue_len_after as f64,
                            );
                        }
                    }
                }
            }
        };

        // Arrival generator: exponential inter-arrival, weighted class pick.
        let mut t_arr = 0.0f64;
        let mut remaining = c.requests;
        let mut issued = 0u64;
        let gen_arrival = |rng: &mut StdRng, t_arr: &mut f64, issued: &mut u64| -> QueuedRequest {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            *t_arr += -u.ln() / c.arrival_rate;
            let class = if c.classes.len() == 1 {
                0
            } else {
                let mut pick = rng.gen_range(f64::EPSILON..1.0) * total_weight;
                let mut idx = 0;
                for (i, cl) in c.classes.iter().enumerate() {
                    idx = i;
                    pick -= cl.weight;
                    if pick <= 0.0 {
                        break;
                    }
                }
                idx
            };
            let id = *issued;
            *issued += 1;
            QueuedRequest {
                id,
                arrival_s: *t_arr,
                class,
                unit_cost_s: c.classes[class].unit_cost_s,
            }
        };

        let mut next_arrival: Option<QueuedRequest> = if remaining > 0 {
            remaining -= 1;
            Some(gen_arrival(&mut rng, &mut t_arr, &mut issued))
        } else {
            None
        };

        // The node advances to each arrival (processing every dispatch
        // eligible strictly before it — ties go to the arrival so batches
        // fill greedily), then the arrival is offered; when arrivals run
        // out, the node drains its backlog.
        while let Some(arr) = next_arrival {
            process(node.advance(arr.arrival_s), &mut series);
            last_arrival = arr.arrival_s;
            let t_us = arr.arrival_s * 1e6;
            if node.offer(arr) {
                series.note_depth(arr.arrival_s, node.queue_len());
                if trace {
                    let class_name = c.classes[arr.class].name.as_str();
                    tracer.async_begin(
                        pid,
                        arr.id,
                        "request",
                        t_us,
                        vec![("class".into(), class_name.into())],
                    );
                    tracer.async_begin(pid, arr.id, "queue", t_us, vec![]);
                    tracer.counter(queue_track, "queue_depth", t_us, node.queue_len() as f64);
                }
            } else if trace {
                tracer.instant(drops_track, "drop:queue_full", t_us, vec![]);
            }
            next_arrival = if remaining > 0 {
                remaining -= 1;
                Some(gen_arrival(&mut rng, &mut t_arr, &mut issued))
            } else {
                None
            };
        }
        process(node.drain(), &mut series);

        // Per-replica histograms merge exactly into the global summary
        // (LatencyHistogram keeps raw samples).
        let merged = node.merged_latency();
        let completed = merged.len();
        let makespan = node.last_completion_s().max(last_arrival).max(f64::EPSILON);
        let drops = node.drops();
        let (batches, batched_requests) = node.batch_counts();
        let max_queue_depth = series.max_depth();
        EngineReport {
            offered_rps: c.arrival_rate,
            achieved_rps: completed as f64 / makespan,
            completed,
            drops,
            drop_rate: drops.total() as f64 / c.requests as f64,
            latency: merged.summary(),
            replica_latency: node.latencies().iter().map(LatencyHistogram::summary).collect(),
            mean_batch_size: if batches > 0 {
                batched_requests as f64 / batches as f64
            } else {
                0.0
            },
            utilization: node.busy_s() / (makespan * c.replicas as f64),
            replica_counters: node.counters().to_vec(),
            series: series.finalize(makespan, c.replicas),
            max_queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(arrival_rate: f64) -> EngineConfig {
        EngineConfig::basic(4, 0.010, arrival_rate, 20_000, 9)
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(matches!(
            ServingEngine::new(EngineConfig { requests: 0, ..base(100.0) }).unwrap_err(),
            ServingError::NoRequests
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig { replicas: 0, ..base(100.0) }).unwrap_err(),
            ServingError::NoReplicas
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig { queue_capacity: 0, ..base(100.0) }).unwrap_err(),
            ServingError::ZeroQueueCapacity
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig { classes: vec![], ..base(100.0) }).unwrap_err(),
            ServingError::NoClasses
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig { arrival_rate: 0.0, ..base(100.0) }).unwrap_err(),
            ServingError::InvalidArrivalRate(_)
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig::basic(4, 0.0, 100.0, 20_000, 9)).unwrap_err(),
            ServingError::InvalidServiceTime(_)
        ));
    }

    #[test]
    fn non_positive_deadline_is_a_typed_error() {
        assert!(matches!(
            ServingEngine::new(EngineConfig { deadline_s: Some(0.0), ..base(100.0) }).unwrap_err(),
            ServingError::InvalidDeadline(_)
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig { deadline_s: Some(-0.5), ..base(100.0) }).unwrap_err(),
            ServingError::InvalidDeadline(_)
        ));
        assert!(matches!(
            ServingEngine::new(EngineConfig {
                batch: BatchPolicy { max_batch: 0, max_wait_s: 0.0 },
                ..base(100.0)
            })
            .unwrap_err(),
            ServingError::ZeroBatch
        ));
    }

    /// Satellite of the node refactor: the global latency summary is the
    /// exact merge of per-replica histograms, and the per-replica
    /// summaries stay consistent with the work counters.
    #[test]
    fn replica_latency_shards_sum_to_global() {
        let rep = ServingEngine::new(base(300.0)).unwrap().run();
        assert_eq!(rep.replica_latency.len(), 4);
        let total: usize = rep.replica_latency.iter().map(|l| l.count).sum();
        assert_eq!(total, rep.completed);
        for (l, c) in rep.replica_latency.iter().zip(&rep.replica_counters) {
            assert_eq!(l.count as u64, c.requests);
        }
        assert!(rep.replica_latency.iter().all(|l| l.p99_s <= rep.latency.max_s));
    }

    #[test]
    fn underloaded_engine_matches_service_time() {
        let rep = ServingEngine::new(base(100.0)).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        assert!(rep.latency.p50_s < 0.015, "p50 {}", rep.latency.p50_s);
        assert!((rep.achieved_rps - 100.0).abs() / 100.0 < 0.05);
        assert!(rep.utilization < 0.5);
        assert!((rep.mean_batch_size - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_replicas_cut_p99_at_equal_load() {
        // 350 rps is 0.875x the capacity of 4 replicas but 0.44x of 8.
        let four = ServingEngine::new(base(350.0)).unwrap().run();
        let eight = ServingEngine::new(EngineConfig { replicas: 8, ..base(350.0) }).unwrap().run();
        assert!(
            eight.latency.p99_s < four.latency.p99_s,
            "8 replicas p99 {} vs 4 replicas p99 {}",
            eight.latency.p99_s,
            four.latency.p99_s
        );
    }

    #[test]
    fn bounded_queue_sheds_past_capacity() {
        // 10x overload with a small queue: most arrivals are rejected, but
        // completed requests see bounded waiting (<= capacity ahead of them).
        let cfg = EngineConfig { queue_capacity: 32, ..base(4000.0) };
        let rep = ServingEngine::new(cfg).unwrap().run();
        assert!(rep.drops.queue_full > 0, "must shed under overload");
        assert!(rep.drop_rate > 0.5, "drop rate {}", rep.drop_rate);
        // Worst case wait: 32 queued ahead / 4 replicas * 10ms + own 10ms.
        let bound = (32.0 / 4.0 + 2.0) * 0.010;
        assert!(rep.latency.p99_s <= bound, "p99 {} vs bound {bound}", rep.latency.p99_s);
        assert!(rep.utilization > 0.95);
        // Achieved throughput still saturates capacity (400 rps).
        assert!((rep.achieved_rps - 400.0).abs() / 400.0 < 0.05, "rps {}", rep.achieved_rps);
    }

    #[test]
    fn unbounded_queue_latency_grows_with_overload() {
        let bounded =
            ServingEngine::new(EngineConfig { queue_capacity: 32, ..base(4000.0) }).unwrap().run();
        let unbounded = ServingEngine::new(base(4000.0)).unwrap().run();
        assert_eq!(unbounded.drops.total(), 0);
        assert!(
            unbounded.latency.p99_s > 10.0 * bounded.latency.p99_s,
            "unbounded p99 {} should dwarf bounded {}",
            unbounded.latency.p99_s,
            bounded.latency.p99_s
        );
    }

    #[test]
    fn deadlines_shed_stale_work() {
        let cfg = EngineConfig { deadline_s: Some(0.050), ..base(1000.0) }; // 2.5x overload
        let rep = ServingEngine::new(cfg).unwrap().run();
        assert!(rep.drops.deadline_exceeded > 0);
        // Every completed request started within its deadline, so latency
        // is bounded by deadline + service time.
        assert!(rep.latency.max_s <= 0.050 + 0.010 + 1e-9, "max {}", rep.latency.max_s);
    }

    #[test]
    fn batching_raises_capacity_under_overload() {
        let overload = 4000.0;
        let solo = ServingEngine::new(EngineConfig { queue_capacity: 64, ..base(overload) })
            .unwrap()
            .run();
        let batched = ServingEngine::new(EngineConfig {
            queue_capacity: 64,
            batch: BatchPolicy::new(8, 0.002),
            batch_setup_frac: 0.5,
            ..base(overload)
        })
        .unwrap()
        .run();
        assert!(
            batched.mean_batch_size > 2.0,
            "batches form under load: {}",
            batched.mean_batch_size
        );
        assert!(
            batched.achieved_rps > 1.5 * solo.achieved_rps,
            "batched {} vs solo {}",
            batched.achieved_rps,
            solo.achieved_rps
        );
    }

    #[test]
    fn batching_under_light_load_times_out_quickly() {
        // Light traffic never fills a batch of 8; the time trigger must
        // cap the added latency at ~max_wait.
        let cfg =
            EngineConfig { batch: BatchPolicy::new(8, 0.005), batch_setup_frac: 0.5, ..base(50.0) };
        let rep = ServingEngine::new(cfg).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        assert!(rep.latency.p50_s >= 0.005, "waits for the batch window");
        assert!(rep.latency.p99_s < 0.005 + 0.010 * 3.0, "p99 {}", rep.latency.p99_s);
    }

    #[test]
    fn heterogeneous_classes_mix_costs() {
        let cfg = EngineConfig {
            classes: vec![
                RequestClass { name: "small".into(), unit_cost_s: 0.005, weight: 0.5 },
                RequestClass { name: "large".into(), unit_cost_s: 0.020, weight: 0.5 },
            ],
            ..base(100.0)
        };
        let rep = ServingEngine::new(cfg).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        // Mean latency sits between the two unit costs (low load).
        assert!(
            rep.latency.mean_s > 0.005 && rep.latency.mean_s < 0.030,
            "mean {}",
            rep.latency.mean_s
        );
    }

    #[test]
    fn series_and_counters_are_consistent() {
        let rep = ServingEngine::new(base(300.0)).unwrap().run();
        let counted: u64 = rep.replica_counters.iter().map(|r| r.requests).sum();
        assert_eq!(counted as usize, rep.completed);
        assert!(!rep.series.is_empty());
        for s in &rep.series {
            assert!((0.0..=1.0).contains(&s.utilization), "util {}", s.utilization);
            assert!(s.mean_queue_depth >= 0.0);
        }
    }

    /// The engine is a pure discrete-event simulation (no address-keyed
    /// state), so a traced run must reproduce the untraced report exactly,
    /// and the emitted lifecycle events must account for every arrival.
    #[test]
    fn traced_run_matches_untraced_and_events_balance() {
        use lv_trace::PointEvent;
        let cfg = EngineConfig {
            queue_capacity: 32,
            deadline_s: Some(0.015),
            batch: BatchPolicy::new(4, 0.002),
            batch_setup_frac: 0.5,
            ..base(1500.0)
        };
        let plain = ServingEngine::new(cfg.clone()).unwrap().run();
        let tracer = Tracer::enabled();
        let traced = ServingEngine::new(cfg).unwrap().run_traced(&tracer, 7);

        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.drops, traced.drops);
        assert_eq!(plain.latency.p50_s, traced.latency.p50_s);
        assert_eq!(plain.latency.p99_s, traced.latency.p99_s);
        assert_eq!(plain.max_queue_depth, traced.max_queue_depth);
        assert!(plain.drops.queue_full > 0, "config must exercise backpressure");
        assert!(plain.drops.deadline_exceeded > 0, "config must exercise shedding");

        // Every admitted request's phases balance; drops match the report.
        let mut begins = std::collections::HashMap::<(u64, String), u64>::new();
        let mut ends = std::collections::HashMap::<(u64, String), u64>::new();
        let (mut queue_full, mut deadline) = (0u64, 0u64);
        for p in tracer.snapshot_points() {
            match p {
                PointEvent::AsyncBegin { id, name, .. } => {
                    *begins.entry((id, name)).or_default() += 1;
                }
                PointEvent::AsyncEnd { id, name, .. } => {
                    *ends.entry((id, name)).or_default() += 1;
                }
                PointEvent::Instant { name, .. } if name == "drop:queue_full" => queue_full += 1,
                PointEvent::Instant { name, .. } if name == "drop:deadline" => deadline += 1,
                _ => {}
            }
        }
        assert_eq!(begins, ends, "every async phase must be closed");
        assert_eq!(queue_full, plain.drops.queue_full);
        assert_eq!(deadline, plain.drops.deadline_exceeded);
        let request_begins: u64 =
            begins.iter().filter(|((_, n), _)| n == "request").map(|(_, c)| c).sum();
        let execute_begins: u64 =
            begins.iter().filter(|((_, n), _)| n == "execute").map(|(_, c)| c).sum();
        assert_eq!(request_begins, plain.completed as u64 + deadline);
        assert_eq!(execute_begins, plain.completed as u64);

        // Batch spans on replica tracks account for every completion.
        let spans = tracer.snapshot_spans();
        let total_batched: f64 = spans
            .iter()
            .filter(|s| s.name.starts_with("batch x"))
            .map(|s| s.arg("batch_size").and_then(|v| v.as_f64()).expect("batch_size arg"))
            .sum();
        assert_eq!(total_batched as usize, plain.completed);
        for s in &spans {
            assert!(s.track.pid == 7 && s.track.tid >= 2, "batch spans live on replica tracks");
            assert!(s.dur_us() > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ServingEngine::new(base(350.0)).unwrap().run();
        let b = ServingEngine::new(base(350.0)).unwrap().run();
        assert_eq!(a.latency.p99_s, b.latency.p99_s);
        assert_eq!(a.completed, b.completed);
    }
}
