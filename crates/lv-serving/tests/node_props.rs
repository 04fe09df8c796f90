//! Property test of `EngineNode::next_dispatch_s`, the cached due time a
//! fleet scheduler uses to skip nodes. Over random sequences of every
//! mutator, with batching and deadlines on and off:
//!
//! * the due time and the wait estimate always equal the ones rebuilt
//!   independently out of what the node reported (each replica's free
//!   time, the queued requests);
//! * `advance(t)` returns no event iff the due time read just before is
//!   `None` or `>= t`, and otherwise its first event is at that time;
//! * every offered request is accounted for once the node drains.

use lv_serving::{BatchPolicy, EngineNode, NodeConfig, NodeEvent, QueuedRequest};
use proptest::prelude::*;

/// The dispatch rule restated over observable state: a replica's free
/// time comes from its last batch event (or a crash, restart or scale-up),
/// the queue from offers, cancels, sheds and batches.
struct Model {
    free_at: Vec<f64>,
    active: usize,
    queue: Vec<QueuedRequest>,
    up: bool,
    batch: BatchPolicy,
    slowdown: f64,
}

impl Model {
    fn free(&self) -> f64 {
        self.free_at[..self.active].iter().copied().min_by(f64::total_cmp).unwrap()
    }

    fn expected_wait_s(&self, now: f64) -> f64 {
        let queued: f64 = self.queue.iter().map(|r| r.unit_cost_s).sum();
        (self.free() - now).max(0.0) + self.slowdown * queued / self.active as f64
    }

    fn due(&self) -> Option<f64> {
        if !self.up || self.queue.is_empty() {
            return None;
        }
        let free = self.free();
        let trigger = if self.queue.len() >= self.batch.max_batch {
            self.queue[self.batch.max_batch - 1].arrival_s
        } else {
            self.queue[0].arrival_s + self.batch.max_wait_s
        };
        Some(free.max(trigger))
    }

    fn remove(&mut self, gone: &[QueuedRequest]) {
        self.queue.retain(|r| !gone.iter().any(|g| g.id == r.id));
    }

    fn apply(&mut self, events: &[NodeEvent]) {
        for e in events {
            match e {
                NodeEvent::Shed { shed, .. } => self.remove(shed),
                NodeEvent::Batch { replica, done_s, requests, .. } => {
                    self.free_at[*replica] = *done_s;
                    self.remove(requests);
                }
            }
        }
    }
}

fn at_s(e: &NodeEvent) -> f64 {
    match e {
        NodeEvent::Shed { at_s, .. } | NodeEvent::Batch { at_s, .. } => *at_s,
    }
}

/// Advance to `t`, checking the events against the due time read first.
fn advance_checked(n: &mut EngineNode, model: &mut Model, t: f64) {
    let due = n.next_dispatch_s();
    let events = n.advance(t);
    match due {
        Some(d) if d < t => {
            assert!(!events.is_empty(), "due at {d} before {t}, but no event");
            assert_eq!(
                at_s(&events[0]).to_bits(),
                d.to_bits(),
                "first event is not at the due time"
            );
        }
        _ => assert!(events.is_empty(), "not due before {t} ({due:?}), yet {events:?}"),
    }
    model.apply(&events);
}

/// The node's cached due time and wait estimate equal the model's. The
/// estimate for work arriving at time zero exposes the cached free time.
fn check_caches(n: &EngineNode, model: &Model, now: f64) {
    assert_eq!(n.next_dispatch_s().map(f64::to_bits), model.due().map(f64::to_bits), "due time");
    for t in [0.0, now] {
        assert_eq!(
            n.expected_wait_s(t).to_bits(),
            model.expected_wait_s(t).to_bits(),
            "wait estimate at {t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn next_dispatch_is_exact_and_advance_acts_only_when_due(
        ops in collection::vec((0usize..10, 0usize..64), 1..200),
        batching in any::<bool>(),
        deadline in 0usize..3,
        replicas in 1usize..4,
    ) {
        let batch = if batching { BatchPolicy::new(3, 0.02) } else { BatchPolicy::none() };
        let cfg = NodeConfig {
            batch,
            batch_setup_frac: if batching { 0.3 } else { 0.0 },
            deadline_s: (deadline > 0).then_some(0.15),
            strict_deadline: deadline == 2,
            ..NodeConfig::basic(replicas, 6)
        };
        let mut n = EngineNode::new(cfg).unwrap();
        let mut model = Model {
            free_at: vec![0.0; replicas],
            active: replicas,
            queue: Vec::new(),
            up: true,
            batch,
            slowdown: 1.0,
        };
        // Times sit on a 5 ms grid so dispatches, arrivals and deadlines tie.
        let mut now = 0.0;
        let (mut offered, mut cancelled) = (0u64, 0u64);
        for (op, arg) in ops {
            match op {
                0..=3 => {
                    let req = QueuedRequest {
                        id: offered,
                        arrival_s: now,
                        class: 0,
                        unit_cost_s: 0.005 * (1 + arg % 24) as f64,
                    };
                    offered += 1;
                    if n.offer(req) {
                        model.queue.push(req);
                    }
                }
                4 | 5 => {
                    now += 0.005 * (arg % 16) as f64;
                    advance_checked(&mut n, &mut model, now);
                }
                6 => {
                    let id = arg as u64 % offered.max(1);
                    if n.cancel(id) {
                        cancelled += 1;
                        model.queue.retain(|r| r.id != id);
                    }
                }
                7 if n.is_up() => {
                    n.crash(now);
                    model.free_at.iter_mut().for_each(|f| *f = now);
                    model.queue.clear();
                    model.up = false;
                }
                7 => {
                    n.restart(now);
                    model.free_at.iter_mut().for_each(|f| *f = f.max(now));
                    model.up = true;
                }
                8 => {
                    let to = 1 + arg % 4;
                    n.scale_to(to, now);
                    model.free_at.resize(model.free_at.len().max(to), now);
                    model.active = to;
                }
                _ => {
                    model.slowdown = [1.0, 2.0, 4.0][arg % 3];
                    n.set_slowdown(model.slowdown);
                }
            }
            check_caches(&n, &model, now);
        }
        advance_checked(&mut n, &mut model, f64::INFINITY);
        check_caches(&n, &model, now);
        prop_assert!(n.next_dispatch_s().is_none(), "a drained node is never due");
        prop_assert_eq!(n.completed() as u64 + n.drops().total() + cancelled, offered);
    }
}
