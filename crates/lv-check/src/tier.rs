//! Cross-tier differential check: the calibrated analytical fast tier
//! against the cycle-accurate machine, cell by cell.
//!
//! This is `repro check --backend fast`: the same structured shape grid
//! and machine points as the numerical conformance sweep, but the
//! quantity under test is *predicted cycles*, and the tolerance is the
//! per-regime error bound derived from calibration residuals
//! ([`lv_models::calib`]) — the timing analogue of the derived numerical
//! tolerances in [`crate::tolerance`]. A cell fails when the fast tier's
//! prediction leaves its committed error envelope; the report also
//! tracks whether both tiers rank algorithms identically per layer,
//! since algorithm selection is the fast tier's main consumer.

use lv_conv::ALL_ALGOS;
use lv_models::{calib, BackendKind};

use crate::diff::{machine_points, shape_label, structured_grid, CheckConfig};

/// One (machine, shape, algorithm) tier-comparison cell.
#[derive(Debug, Clone)]
pub struct TierCell {
    /// Machine identifier (e.g. `int1024`).
    pub machine: String,
    /// Human-readable shape.
    pub shape: String,
    /// Algorithm name.
    pub algo: &'static str,
    /// Cycle-accurate cycles.
    pub cycle: u64,
    /// Fast-tier predicted cycles.
    pub fast: u64,
    /// Relative residual `fast/cycle - 1`.
    pub rel: f64,
    /// The regime's committed error bound.
    pub bound: f64,
}

impl TierCell {
    /// Whether the prediction is inside its committed envelope.
    pub fn pass(&self) -> bool {
        self.rel.abs() <= self.bound
    }
}

/// Aggregated tier-check results.
#[derive(Debug)]
pub struct TierReport {
    /// All cells, in execution order.
    pub cells: Vec<TierCell>,
    /// (machine, shape) groups where both tiers pick the same fastest
    /// algorithm.
    pub rank_agree: usize,
    /// Groups ranked (>= 2 applicable algorithms).
    pub rank_groups: usize,
    /// Whether deep mode was on.
    pub deep: bool,
}

impl TierReport {
    /// Number of out-of-envelope cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| !c.pass()).count()
    }

    /// Whether every cell passed.
    pub fn pass(&self) -> bool {
        self.failures() == 0
    }

    /// Render the per-cell table plus a summary block; same RESULT
    /// grammar as the conformance sweep so CI can grep either.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tier check: backend=fast vs cycle, deep={} cells={}\n\n",
            self.deep,
            self.cells.len()
        ));
        out.push_str(&format!(
            "{:<10} {:<34} {:<10} {:>12} {:>12} {:>9} {:>8}  {}\n",
            "machine", "shape", "algo", "cycle", "fast", "rel", "bound", "status"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<34} {:<10} {:>12} {:>12} {:>8.2}% {:>7.2}%  {}\n",
                c.machine,
                c.shape,
                c.algo,
                c.cycle,
                c.fast,
                100.0 * c.rel,
                100.0 * c.bound,
                if c.pass() { "PASS" } else { "FAIL" }
            ));
        }
        out.push_str(&format!(
            "\nalgorithm-ranking agreement: {}/{} groups\n",
            self.rank_agree, self.rank_groups
        ));
        let fails = self.failures();
        if fails == 0 {
            out.push_str(&format!("\nRESULT: PASS ({} cells)\n", self.cells.len()));
        } else {
            out.push_str(&format!(
                "\nRESULT: FAIL ({fails} of {} cells outside the calibrated envelope)\n",
                self.cells.len()
            ));
        }
        out
    }
}

/// Run the cross-tier sweep: structured grid x machine points x every
/// applicable algorithm, both tiers per cell. Panics if the tiers
/// disagree on which algorithms apply to a cell. (The fuzz half of the
/// conformance sweep is left to `tests/` proptest coverage — tier cells
/// cost a cycle-accurate simulation each, and the seeded grid is what
/// the calibration envelope is defined over.)
pub fn run_tier_check(cfg: &CheckConfig) -> TierReport {
    let machines = machine_points(cfg.deep);
    let cycle = BackendKind::Cycle.backend();
    let fast = BackendKind::Fast.backend();
    let mut cells = Vec::new();
    let mut rank_agree = 0usize;
    let mut rank_groups = 0usize;
    for s in structured_grid(cfg.deep) {
        for (mname, mcfg) in &machines {
            let mut group: Vec<&TierCell> = Vec::new();
            let start = cells.len();
            for &algo in &ALL_ALGOS {
                let (c, f) = match (cycle.measure(mcfg, &s, algo), fast.measure(mcfg, &s, algo)) {
                    (Some(c), Some(f)) => (c, f),
                    (None, None) => continue,
                    _ => panic!("tiers disagree on applicability: {algo:?} {s:?}"),
                };
                let rel = f.cycles as f64 / c.cycles.max(1) as f64 - 1.0;
                cells.push(TierCell {
                    machine: mname.clone(),
                    shape: shape_label(&s),
                    algo: algo.name(),
                    cycle: c.cycles,
                    fast: f.cycles,
                    rel,
                    bound: calib::stored_for(algo, mcfg.vpu).bound,
                });
            }
            group.extend(cells[start..].iter());
            if group.len() >= 2 {
                rank_groups += 1;
                let cyc_best = group.iter().map(|c| c.cycle).min().expect("non-empty");
                let fast_pick = group.iter().min_by_key(|c| c.fast).expect("non-empty");
                if calib::ranking_agrees(fast_pick.cycle, cyc_best) {
                    rank_agree += 1;
                }
            }
        }
    }
    TierReport { cells, rank_agree, rank_groups, deep: cfg.deep }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_grammar_matches_conformance_sweep() {
        let rep = TierReport {
            cells: vec![TierCell {
                machine: "int256".into(),
                shape: "s".into(),
                algo: "direct",
                cycle: 1000,
                fast: 1100,
                rel: 0.1,
                bound: 0.2,
            }],
            rank_agree: 1,
            rank_groups: 1,
            deep: false,
        };
        let text = rep.render();
        assert!(text.starts_with("tier check: backend=fast"));
        assert!(text.contains("RESULT: PASS (1 cells)"));
        let bad = TierReport { cells: vec![TierCell { rel: 0.5, ..rep.cells[0].clone() }], ..rep };
        assert!(!bad.pass());
        assert!(bad.render().contains("RESULT: FAIL"));
    }
}
