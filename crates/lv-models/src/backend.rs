//! The two-tier simulation seam: [`BackendKind`] names a tier and prices
//! cells on it.
//!
//! * [`BackendKind::Cycle`] — the existing cycle-accurate
//!   [`lv_sim::Machine`], via [`measure_group`]. Ground truth; O(MACs) per
//!   kernel pass, and one pass prices every L2 size of a group.
//! * [`BackendKind::Fast`] — the analytical tier: `lv_conv::model` builds
//!   an event-count [`lv_sim::fastmodel::Workload`] mirroring the kernel's
//!   loop structure, `lv_sim::fastmodel::evaluate` prices it, and the
//!   per-regime scale from [`crate::calib`] maps model cycles onto
//!   machine cycles. O(1) per cell; its error envelope is measured and
//!   CI-enforced by [`crate::calib`], not assumed.
//!
//! Both tiers speak [`CellMetrics`], so everything above the seam — the
//! `lv-bench` executor, the selector dataset, fleet capacity plans — is
//! tier-agnostic. Cell caches salt keys with the tier (plus
//! `FAST_MODEL_REV`) so results never mix.

use lv_conv::Algo;
use lv_sim::MachineConfig;
use lv_tensor::ConvShape;

use crate::calib;
use crate::measure::{measure_group, CellMetrics};

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

    /// Tier name ("cycle" / "fast"), used in cache-key salts and report
    /// lines.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cycle => "cycle",
            BackendKind::Fast => "fast",
        }
    }

    /// Price the cells of design points that differ only in their L2, in
    /// `cfgs` order. `None` exactly when `algo` does not apply to `s` —
    /// both tiers agree on which cells exist. The cycle tier runs one
    /// kernel pass for the whole group (see [`measure_group`]); the fast
    /// tier prices each config on its own.
    pub fn measure_group(
        self,
        cfgs: &[MachineConfig],
        s: &ConvShape,
        algo: Algo,
    ) -> Option<Vec<CellMetrics>> {
        match self {
            BackendKind::Cycle => {
                Some(measure_group(cfgs, s, algo)?.iter().map(CellMetrics::from).collect())
            }
            BackendKind::Fast => cfgs
                .iter()
                .map(|cfg| {
                    let w = lv_conv::model::workload(algo, s, cfg)?;
                    let scale = calib::stored_for(algo, cfg.vpu).scale;
                    let p = lv_sim::fastmodel::evaluate(cfg, &w, scale);
                    Some(CellMetrics {
                        cycles: p.cycles,
                        avg_vl: p.avg_vl,
                        l2_miss_rate: p.l2_miss_rate,
                    })
                })
                .collect(),
        }
    }

    /// Price one (machine, layer, algorithm) cell: [`Self::measure_group`]
    /// of one config.
    pub fn measure(self, cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<CellMetrics> {
        self.measure_group(std::slice::from_ref(cfg), s, algo)?.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_and_dispatch() {
        for k in [BackendKind::Cycle, BackendKind::Fast] {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("warp"), None);
        let cfg = MachineConfig::rvv_decoupled(1024, 4);
        let s = ConvShape::same_pad(4, 8, 12, 3, 1);
        // The fast tier is the model at the regime's committed scale.
        let w = lv_conv::model::workload(Algo::Gemm6, &s, &cfg).unwrap();
        let scale = calib::stored_for(Algo::Gemm6, cfg.vpu).scale;
        let fast = BackendKind::Fast.measure(&cfg, &s, Algo::Gemm6).unwrap();
        assert_eq!(fast.cycles, lv_sim::fastmodel::evaluate(&cfg, &w, scale).cycles);
        // The cycle tier runs the kernel (avg VL does not follow addresses).
        let cycle = BackendKind::Cycle.measure(&cfg, &s, Algo::Gemm6).unwrap();
        let layer = crate::measure_layer(&cfg, &s, Algo::Gemm6).unwrap();
        assert_eq!(cycle.avg_vl, layer.avg_vl);
    }

    #[test]
    fn tiers_agree_on_applicability() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s1x1 = ConvShape::same_pad(4, 6, 8, 1, 1);
        for k in [BackendKind::Cycle, BackendKind::Fast] {
            assert!(k.measure(&cfg, &s1x1, Algo::Winograd).is_none(), "{}", k.name());
            assert!(k.measure(&cfg, &s1x1, Algo::Gemm3).is_some(), "{}", k.name());
        }
    }

    #[test]
    fn fast_tier_is_physical() {
        let cfg = MachineConfig::rvv_integrated(1024, 4);
        let s = ConvShape::same_pad(8, 16, 24, 3, 1);
        for a in lv_conv::ALL_ALGOS {
            let m = BackendKind::Fast.measure(&cfg, &s, a).unwrap();
            assert!(m.cycles >= 1);
            assert!((0.0..=1.0).contains(&m.l2_miss_rate));
            assert!(m.avg_vl > 0.0 && m.avg_vl <= cfg.vlen_elems() as f64);
        }
    }
}
