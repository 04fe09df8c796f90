//! The two-tier simulation seam: one [`SimBackend`] trait, two
//! implementations.
//!
//! * [`CycleBackend`] — the existing cycle-accurate [`lv_sim::Machine`],
//!   via [`measure_group`]. Ground truth; O(MACs) per kernel pass, and
//!   one pass prices every L2 size of a group.
//! * [`FastBackend`] — the analytical tier: `lv_conv::model` builds an
//!   event-count [`lv_sim::fastmodel::Workload`] mirroring the kernel's
//!   loop structure, `lv_sim::fastmodel::evaluate` prices it, and the
//!   per-regime scale from [`crate::calib`] maps model cycles onto
//!   machine cycles. O(1) per cell; its error envelope is measured and
//!   CI-enforced, not assumed.
//!
//! Both tiers speak [`CellMetrics`], so everything above the seam — the
//! `lv-bench` executor, the selector dataset, fleet capacity plans — is
//! tier-agnostic. Consumers choose with [`BackendKind`]; cell caches salt
//! keys with the tier (plus `FAST_MODEL_REV`) so results never mix.

use lv_conv::Algo;
use lv_sim::MachineConfig;
use lv_tensor::ConvShape;

use crate::calib;
use crate::measure::{measure_cell, measure_group, CellMetrics};

/// A simulation tier: anything that can price one (machine, layer,
/// algorithm) cell. `None` exactly when the algorithm does not apply to
/// the layer — both tiers must agree on which cells exist.
pub trait SimBackend: Sync {
    /// Tier name, used in cache-key salts and report lines.
    fn name(&self) -> &'static str;
    /// Price one cell; `None` when `algo` is inapplicable to `s`.
    fn measure(&self, cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<CellMetrics>;

    /// Price the cells of design points that differ only in their L2, in
    /// `cfgs` order. The default prices them cell by cell; a tier that
    /// can share work across the group overrides it.
    fn measure_group(
        &self,
        cfgs: &[MachineConfig],
        s: &ConvShape,
        algo: Algo,
    ) -> Option<Vec<CellMetrics>> {
        cfgs.iter().map(|cfg| self.measure(cfg, s, algo)).collect()
    }
}

/// The cycle-accurate tier: executes the real kernel on the simulated
/// machine (ground truth for figures and calibration).
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleBackend;

impl SimBackend for CycleBackend {
    fn name(&self) -> &'static str {
        "cycle"
    }

    fn measure(&self, cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<CellMetrics> {
        measure_cell(cfg, s, algo)
    }

    /// One kernel pass for the whole group (see [`measure_group`]).
    fn measure_group(
        &self,
        cfgs: &[MachineConfig],
        s: &ConvShape,
        algo: Algo,
    ) -> Option<Vec<CellMetrics>> {
        Some(measure_group(cfgs, s, algo)?.iter().map(CellMetrics::from).collect())
    }
}

/// The calibrated analytical tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastBackend;

impl SimBackend for FastBackend {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn measure(&self, cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<CellMetrics> {
        let w = lv_conv::model::workload(algo, s, cfg)?;
        let scale = calib::stored_for(algo, cfg.vpu).scale;
        let p = lv_sim::fastmodel::evaluate(cfg, &w, scale);
        Some(CellMetrics { cycles: p.cycles, avg_vl: p.avg_vl, l2_miss_rate: p.l2_miss_rate })
    }
}

static CYCLE: CycleBackend = CycleBackend;
static FAST: FastBackend = FastBackend;

/// Which tier to run a plan (or a whole `repro` invocation) on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Cycle-accurate (the default everywhere precision matters).
    #[default]
    Cycle,
    /// Calibrated analytical fast tier.
    Fast,
}

impl BackendKind {
    /// Parse a `--backend` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycle" => Some(BackendKind::Cycle),
            "fast" => Some(BackendKind::Fast),
            _ => None,
        }
    }

    /// Tier name ("cycle" / "fast").
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cycle => "cycle",
            BackendKind::Fast => "fast",
        }
    }

    /// The tier implementation.
    pub fn backend(self) -> &'static dyn SimBackend {
        match self {
            BackendKind::Cycle => &CYCLE,
            BackendKind::Fast => &FAST,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_and_dispatch() {
        assert_eq!(BackendKind::parse("cycle"), Some(BackendKind::Cycle));
        assert_eq!(BackendKind::parse("fast"), Some(BackendKind::Fast));
        assert_eq!(BackendKind::parse("warp"), None);
        for k in [BackendKind::Cycle, BackendKind::Fast] {
            assert_eq!(k.backend().name(), k.name());
        }
    }

    #[test]
    fn tiers_agree_on_applicability() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s1x1 = ConvShape::same_pad(4, 6, 8, 1, 1);
        for k in [BackendKind::Cycle, BackendKind::Fast] {
            let b = k.backend();
            assert!(b.measure(&cfg, &s1x1, Algo::Winograd).is_none(), "{}", b.name());
            assert!(b.measure(&cfg, &s1x1, Algo::Gemm3).is_some(), "{}", b.name());
        }
    }

    #[test]
    fn fast_tier_is_physical() {
        let cfg = MachineConfig::rvv_integrated(1024, 4);
        let s = ConvShape::same_pad(8, 16, 24, 3, 1);
        for a in lv_conv::ALL_ALGOS {
            let m = FastBackend.measure(&cfg, &s, a).unwrap();
            assert!(m.cycles >= 1);
            assert!((0.0..=1.0).contains(&m.l2_miss_rate));
            assert!(m.avg_vl > 0.0 && m.avg_vl <= cfg.vlen_elems() as f64);
        }
    }
}
