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
//! since algorithm selection is the fast tier's main consumer. Both
//! tiers run, and are judged, by the calibration sweep itself
//! ([`calib::measure_point`], [`calib::summarize`]).

use lv_models::calib::{self, CalibCell, CalibPoint, CalibrationReport};

use crate::diff::{machine_points, shape_label, structured_grid, CheckConfig};

/// Aggregated tier-check results.
#[derive(Debug)]
pub struct TierReport {
    /// All cells, in execution order.
    pub cells: Vec<CalibCell>,
    /// Residual statistics and cross-tier ranking agreement.
    pub summary: CalibrationReport,
    /// Whether deep mode was on.
    pub deep: bool,
}

impl TierReport {
    /// Number of out-of-envelope cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| !c.within_envelope()).count()
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
            let stored = c.stored();
            out.push_str(&format!(
                "{:<10} {:<34} {:<10} {:>12} {:>12} {:>8.2}% {:>7.2}%  {}\n",
                c.machine,
                shape_label(&c.shape),
                c.algo.name(),
                c.cycle,
                c.predicted(stored.scale).round() as u64,
                100.0 * c.residual(stored.scale),
                100.0 * stored.bound,
                if c.within_envelope() { "PASS" } else { "FAIL" }
            ));
        }
        out.push_str(&format!(
            "\nalgorithm-ranking agreement: {}/{} groups\n",
            self.summary.rank_agree, self.summary.ranked_groups
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

/// Run the cross-tier sweep: structured grid x machine points (shape
/// major) x every applicable algorithm, both tiers per cell. Panics if
/// the tiers disagree on which algorithms apply to a cell. (The fuzz half
/// of the conformance sweep is left to `tests/` proptest coverage — tier
/// cells cost a cycle-accurate simulation each, and the seeded grid is
/// what the calibration envelope is defined over.)
pub fn run_tier_check(cfg: &CheckConfig) -> TierReport {
    let machines = machine_points(cfg.deep);
    let mut cells = Vec::new();
    for shape in structured_grid(cfg.deep) {
        for (machine, mcfg) in &machines {
            let p = CalibPoint { machine: machine.clone(), cfg: *mcfg, shape };
            cells.extend(calib::measure_point(&p));
        }
    }
    let summary = calib::summarize(&cells);
    TierReport { cells, summary, deep: cfg.deep }
}

#[cfg(test)]
mod tests {
    use lv_conv::Algo;
    use lv_sim::VpuStyle;
    use lv_tensor::ConvShape;

    use super::*;

    #[test]
    fn report_grammar_matches_conformance_sweep() {
        let scale = calib::stored_for(Algo::Direct, VpuStyle::Integrated).scale;
        let cell = CalibCell {
            machine: "int256".into(),
            vpu: VpuStyle::Integrated,
            shape: ConvShape::same_pad(3, 5, 12, 3, 1),
            algo: Algo::Direct,
            cycle: 1000,
            fast_raw: 1100.0 / scale,
            bw_floor: 0.0,
        };
        let cells = vec![cell.clone()];
        let rep = TierReport { summary: calib::summarize(&cells), cells, deep: false };
        let text = rep.render();
        assert!(text.starts_with("tier check: backend=fast"));
        assert!(text.contains(" 1000         1100    10.00% "), "{text}");
        assert!(text.contains("RESULT: PASS (1 cells)"));
        // Far outside the regime's committed bound.
        let cells = vec![CalibCell { fast_raw: 3000.0 / scale, ..cell }];
        let bad = TierReport { summary: calib::summarize(&cells), cells, deep: false };
        assert!(!bad.pass());
        assert!(bad.render().contains("RESULT: FAIL (1 of 1 cells"));
    }
}
