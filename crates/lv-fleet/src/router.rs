//! Pluggable load balancing over the fleet's nodes. The router is pure
//! state + a seeded RNG (power-of-two sampling), so routing decisions are
//! deterministic per seed and independent of host parallelism.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::sim::FleetNode;

/// A load-balancing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Cycle through the nodes regardless of state.
    RoundRobin,
    /// Send to the node with the fewest queued requests (ties to the
    /// lowest index). Classic JSQ — blind to chip heterogeneity.
    JoinShortestQueue,
    /// Sample two distinct nodes, send to the shorter queue. The
    /// d-choices trick: near-JSQ balance at O(1) state inspection.
    PowerOfTwoChoices,
    /// Prefer the chips that run this class fastest (within 25% of the
    /// fleet-best service time), pick by expected delay among them, and
    /// spill to the globally best expected delay when the preferred
    /// queues are full. Heterogeneity-aware.
    ModelAffinity,
}

/// Every policy, in report order.
pub const ALL_POLICIES: [Policy; 4] = [
    Policy::RoundRobin,
    Policy::JoinShortestQueue,
    Policy::PowerOfTwoChoices,
    Policy::ModelAffinity,
];

impl Policy {
    /// Short display name used in reports and CSV rows.
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::JoinShortestQueue => "jsq",
            Policy::PowerOfTwoChoices => "p2c",
            Policy::ModelAffinity => "affinity",
        }
    }
}

/// The router: picks a node index for each arrival.
#[derive(Debug)]
pub struct Router {
    policy: Policy,
    rr_next: usize,
    rng: StdRng,
}

impl Router {
    /// New router; `seed` drives only power-of-two sampling.
    pub fn new(policy: Policy, seed: u64) -> Self {
        Self { policy, rr_next: 0, rng: StdRng::seed_from_u64(seed) }
    }

    /// The policy this router runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Choose a node for a `class` request arriving at `now_s`, among the
    /// `eligible` node indices (health-aware callers pass the non-ejected
    /// live subset; passing every index reproduces the fault-oblivious
    /// behavior bit-for-bit, including the power-of-two RNG stream).
    pub fn pick(
        &mut self,
        nodes: &[FleetNode],
        eligible: &[usize],
        class: usize,
        now_s: f64,
    ) -> usize {
        debug_assert!(!eligible.is_empty());
        match self.policy {
            Policy::RoundRobin => {
                let i = eligible[self.rr_next % eligible.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                i
            }
            Policy::JoinShortestQueue => shortest_queue(nodes, eligible),
            Policy::PowerOfTwoChoices => {
                if eligible.len() == 1 {
                    return eligible[0];
                }
                let ai = self.rng.gen_range(0..eligible.len());
                let mut bi = self.rng.gen_range(0..eligible.len() - 1);
                if bi >= ai {
                    bi += 1;
                }
                let (a, b) = (eligible[ai], eligible[bi]);
                if nodes[b].queue_len() < nodes[a].queue_len() {
                    b
                } else {
                    a
                }
            }
            Policy::ModelAffinity => {
                // NaN-safe minimum over the per-class service times (the
                // PR 1 `total_cmp` convention; a float fold through
                // f64::min hid ties behind evaluation order).
                let best_svc = eligible
                    .iter()
                    .map(|&i| nodes[i].service_s(class))
                    .min_by(f64::total_cmp)
                    .expect("non-empty eligible set");
                let near_best = eligible
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].service_s(class) <= 1.25 * best_svc);
                let preferred = least_delay(nodes, near_best, class, now_s)
                    .expect("at least one node within 1.25x of the best");
                if nodes[preferred].queue_full() {
                    // Spill anywhere eligible: the least expected delay.
                    least_delay(nodes, eligible.iter().copied(), class, now_s)
                        .expect("non-empty eligible set")
                } else {
                    preferred
                }
            }
        }
    }
}

fn shortest_queue(nodes: &[FleetNode], eligible: &[usize]) -> usize {
    eligible.iter().copied().min_by_key(|&i| (nodes[i].queue_len(), i)).expect("non-empty fleet")
}

/// The candidate with the least expected delay for `class`, computing
/// each candidate's delay once. `min_by` keeps the first of equal minima,
/// so ties go to the earliest candidate.
fn least_delay(
    nodes: &[FleetNode],
    cands: impl Iterator<Item = usize>,
    class: usize,
    now_s: f64,
) -> Option<usize> {
    cands
        .map(|i| (i, nodes[i].expected_delay_s(class, now_s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipSpec;
    use lv_serving::NodeConfig;

    /// Identical chips: every service time and expected delay ties, so
    /// any ordering bug (or a NaN-hiding float fold) shows up as a
    /// nondeterministic or out-of-slice pick.
    fn tied_nodes(n: usize) -> Vec<FleetNode> {
        (0..n)
            .map(|i| {
                let spec = ChipSpec {
                    name: format!("n{i}"),
                    vlen_bits: 2048,
                    l2_mib: 4,
                    replicas: 1,
                    service_s: vec![0.020],
                    degraded_service_s: None,
                };
                FleetNode::new(spec, NodeConfig::basic(1, 8)).unwrap()
            })
            .collect()
    }

    #[test]
    fn ties_break_to_the_lowest_eligible_index() {
        let nodes = tied_nodes(3);
        let all = [0, 1, 2];
        let mut jsq = Router::new(Policy::JoinShortestQueue, 1);
        assert_eq!(jsq.pick(&nodes, &all, 0, 0.0), 0);
        assert_eq!(jsq.pick(&nodes, &[1, 2], 0, 0.0), 1);
        let mut aff = Router::new(Policy::ModelAffinity, 1);
        assert_eq!(aff.pick(&nodes, &all, 0, 0.0), 0, "identical chips tie to index 0");
        assert_eq!(aff.pick(&nodes, &[2], 0, 0.0), 2, "eligibility slice is respected");
    }

    #[test]
    fn round_robin_cycles_within_the_eligible_set() {
        let nodes = tied_nodes(3);
        let mut rr = Router::new(Policy::RoundRobin, 1);
        assert_eq!(rr.pick(&nodes, &[0, 2], 0, 0.0), 0);
        assert_eq!(rr.pick(&nodes, &[0, 2], 0, 0.0), 2);
        assert_eq!(rr.pick(&nodes, &[0, 2], 0, 0.0), 0);
    }

    #[test]
    fn power_of_two_only_picks_eligible_nodes() {
        let nodes = tied_nodes(4);
        let mut p2c = Router::new(Policy::PowerOfTwoChoices, 7);
        for _ in 0..200 {
            let i = p2c.pick(&nodes, &[1, 3], 0, 0.0);
            assert!(i == 1 || i == 3, "picked ineligible node {i}");
        }
        // A single eligible node is returned without touching the RNG
        // stream asymmetrically.
        assert_eq!(p2c.pick(&nodes, &[2], 0, 0.0), 2);
    }
}
