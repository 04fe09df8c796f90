//! Single-layer measurement: the primitive behind every per-layer figure
//! in the paper (Figs. 1-8) and the classifier's training grid.

use lv_conv::{run_conv, Algo, PreparedWeights};
use lv_sim::{Machine, MachineConfig, Stats, CLOCK_HZ};
use lv_tensor::{AlignedVec, ConvShape};
use serde::{Deserialize, Serialize};

/// Result of measuring one (layer, hardware config, algorithm) point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LayerMeasurement {
    /// Layer geometry.
    pub shape: ConvShape,
    /// Vector length in bits.
    pub vlen_bits: usize,
    /// L2 size in MiB.
    pub l2_mib: usize,
    /// Algorithm measured.
    pub algo: Algo,
    /// Simulated cycles (cold caches, single inference — the paper's
    /// steady-state layer cost).
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
    /// Full counters.
    pub stats: Stats,
}

impl LayerMeasurement {
    /// Execution time in seconds at the simulated clock
    /// ([`lv_sim::CLOCK_HZ`]).
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ
    }
}

/// Measure one layer with one algorithm on a group of hardware design
/// points that differ only in their L2, in one kernel pass: the
/// measurements come back in `cfgs` order. Returns `None` when the
/// algorithm does not apply to the layer (the per-layer comparison figures
/// leave those bars out). Panics on a group [`Machine::new_group`]
/// rejects.
///
/// The outputs are discarded, so the layer runs on a
/// [timing-only](Machine::timing_only) machine over zeroed buffers of the
/// algorithm's layout lengths: dense-CNN cycle counts do not depend on the
/// data, and no data is generated, converted or computed. Each member's
/// L2 sees exactly the access stream a lone run over the same buffers
/// would; cycles and cache counters still follow the buffers' host
/// addresses, like any other run.
pub fn measure_group(
    cfgs: &[MachineConfig],
    s: &ConvShape,
    algo: Algo,
) -> Option<Vec<LayerMeasurement>> {
    if !algo.applicable(s) {
        return None;
    }
    let input = AlignedVec::zeroed(s.input_len());
    let prepared = PreparedWeights::zeroed(algo, s);
    let mut out = vec![0.0f32; s.output_len()];
    let mut m = Machine::new_group(cfgs).timing_only();
    run_conv(&mut m, algo, s, &input, &prepared, &mut out);
    let measured = cfgs.iter().zip(m.group_stats()).map(|(cfg, stats)| LayerMeasurement {
        shape: *s,
        vlen_bits: cfg.vlen_bits,
        l2_mib: cfg.l2.size_bytes / lv_sim::MIB,
        algo,
        cycles: stats.cycles,
        avg_vl: stats.avg_vl(),
        l2_miss_rate: stats.l2_miss_rate(),
        stats,
    });
    Some(measured.collect())
}

/// Measure one layer with one algorithm on one hardware design point:
/// [`measure_group`] of one config.
pub fn measure_layer(cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<LayerMeasurement> {
    measure_group(std::slice::from_ref(cfg), s, algo).and_then(|ms| ms.into_iter().next())
}

/// The metrics a sweep cell persists: exactly the values `lv-bench`'s
/// `GridRow` carries per point, and nothing machine-local (no `Stats`,
/// whose cache counters depend on host heap addresses). This is the
/// adapter the content-addressed cell cache serializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Simulated cycles.
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
}

impl From<&LayerMeasurement> for CellMetrics {
    fn from(m: &LayerMeasurement) -> Self {
        Self { cycles: m.cycles, avg_vl: m.avg_vl, l2_miss_rate: m.l2_miss_rate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_applicable_algorithms_only() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s1x1 = ConvShape::same_pad(8, 8, 16, 1, 1);
        for algo in lv_conv::ALL_ALGOS {
            let m = measure_layer(&cfg, &s1x1, algo);
            // Winograd is the one algorithm a 1x1 kernel rules out.
            assert_eq!(m.is_some(), algo != Algo::Winograd, "{algo:?}");
            assert!(m.is_none_or(|m| m.algo == algo && m.cycles > 0), "{algo:?}");
        }
    }

    #[test]
    fn measurement_is_repeatable() {
        // Simulated addresses come from real heap allocations, so exact
        // counts can drift by a handful of conflict misses when other
        // threads disturb the allocator; the model is repeatable well
        // under 1%.
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s = ConvShape::same_pad(4, 8, 16, 3, 1);
        let a = measure_layer(&cfg, &s, Algo::Gemm3).unwrap();
        let b = measure_layer(&cfg, &s, Algo::Gemm3).unwrap();
        let rel = (a.cycles as f64 - b.cycles as f64).abs() / a.cycles as f64;
        assert!(rel < 0.01, "{} vs {}", a.cycles, b.cycles);
    }
}
