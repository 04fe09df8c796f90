//! Analytical fast-path simulation tier.
//!
//! The cycle-accurate [`Machine`](crate::Machine) steps every vector
//! instruction of a kernel; this module instead *prices a summary* of the
//! kernel. A [`Workload`] describes, per kernel phase, how many events of
//! each class the kernel issues (vsetvls, arithmetic instructions and their
//! beat counts, memory instructions with their line footprints and reuse
//! working sets), and [`evaluate`] applies the same [`CostModel`] the
//! machine charges, a working-set cache model in place of the simulated
//! tag arrays, and a DRAM-bandwidth roofline floor. The result is a
//! prediction of the same three metrics the cell cache stores — cycles,
//! average consumed VL, L2 miss rate — in microseconds instead of
//! cycle-stepping milliseconds-to-seconds.
//!
//! The fast tier is *calibrated, not trusted*: `lv-models::calib` derives a
//! per-regime multiplicative scale and a relative error bound from
//! residuals against cycle-accurate runs on a structured grid, and the
//! bound is asserted continuously (`tests/backend_parity.rs`, the
//! `repro calibrate` artifact, CI). See `DESIGN.md` "Two-tier simulation".

use crate::config::{CostModel, MachineConfig, VpuStyle};
use crate::LINE_BYTES;

/// One class of memory traffic inside a [`Phase`]: a set of accesses that
/// share an instruction shape (unit-stride / strided / segment), a data
/// structure, and a reuse pattern.
#[derive(Debug, Clone, Default)]
pub struct MemClass {
    /// Human-readable label (diagnostics only; not priced).
    pub label: &'static str,
    /// Vector memory instructions issued (each pays issue + mem startup).
    pub instrs: u64,
    /// Total element beats, `sum(ceil(vl / elems_per_cycle))`; overlapped
    /// with line transfer cost via `max`, as in the machine.
    pub beats: u64,
    /// Total elements moved (contributes to average consumed VL).
    pub elems: u64,
    /// Compulsory line transfers: first touch of each distinct line, always
    /// served by main memory.
    pub cold_lines: u64,
    /// Repeat line touches, priced at the hit level the reuse working set
    /// fits in.
    pub reuse_lines: u64,
    /// Bytes that must stay resident between successive touches of the same
    /// line for `reuse_lines` to hit (the reuse-distance working set).
    pub resident_bytes: u64,
    /// Extra gather/segment sequencing cycles, `sum(ceil(vl / gather_epc))`.
    pub gather_cycles: u64,
    /// Scalar-side access: goes through L1 even on a decoupled VPU, and a
    /// hit is free (the machine's `scalar_load_hidden` contract).
    pub scalar: bool,
}

/// Event counts for one phase of a kernel (e.g. "pad", "im2col", "gemm").
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase label (diagnostics only).
    pub label: &'static str,
    /// `vsetvl` executions.
    pub vsetvls: u64,
    /// Scalar ALU operations charged (loop bookkeeping).
    pub scalar_ops: u64,
    /// Arithmetic vector instructions (each pays issue + arith startup).
    pub arith_instrs: u64,
    /// Total arithmetic beats, `sum(ceil(vl / elems_per_cycle))`.
    pub arith_beats: u64,
    /// Elements processed by arithmetic instructions.
    pub arith_elems: u64,
    /// Floating-point operations (FMA counts as 2 per element).
    pub flops: u64,
    /// Pre-priced cycles for irregular vector work (register transposes,
    /// reduction trees) — already includes their issue costs.
    pub extra_cycles: u64,
    /// Vector instructions hidden inside `extra_cycles` (permutes etc.),
    /// counted for average-VL purposes.
    pub extra_instrs: u64,
    /// Elements processed by `extra_instrs`.
    pub extra_elems: u64,
    /// Memory traffic classes.
    pub mem: Vec<MemClass>,
}

/// A full kernel invocation as seen by the fast tier.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Ordered phases; evaluation sums them.
    pub phases: Vec<Phase>,
}

/// What [`evaluate`] predicts for one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct FastPrediction {
    /// Predicted cycles after the calibration scale and the bandwidth
    /// floor; always at least 1.
    pub cycles: u64,
    /// Unscaled model cycles (sum of phase prices, before the floor).
    pub raw_cycles: f64,
    /// Predicted average consumed vector length in elements.
    pub avg_vl: f64,
    /// Predicted L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
    /// Bytes transferred from main memory.
    pub dram_bytes: u64,
    /// Achieved fraction of peak DRAM bandwidth in [0, 1]; 1.0 exactly when
    /// the roofline floor binds.
    pub bw_util: f64,
    /// Predicted floating-point operations.
    pub flops: u64,
}

/// Where a reuse working set is resident, mirroring the machine's
/// integrated (L1 -> L2 -> DRAM) and decoupled (L2 -> DRAM) hierarchies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    L1,
    L2,
    Dram,
}

fn reuse_level(cfg: &MachineConfig, class: &MemClass) -> Level {
    let through_l1 = class.scalar || cfg.vpu == VpuStyle::Integrated;
    if through_l1 && class.resident_bytes <= cfg.l1.size_bytes as u64 {
        Level::L1
    } else if class.resident_bytes <= cfg.l2.size_bytes as u64 {
        Level::L2
    } else {
        Level::Dram
    }
}

fn reuse_line_cost(c: &CostModel, class: &MemClass, level: Level) -> u64 {
    match level {
        // A scalar hit in L1 is free (`scalar_load_hidden`).
        Level::L1 => {
            if class.scalar {
                0
            } else {
                c.l1_line
            }
        }
        Level::L2 => c.l2_line,
        Level::Dram => c.mem_line,
    }
}

/// Raw model cycles under a calibration `scale`, floored by the DRAM
/// bandwidth roofline (`floor`, in cycles) and by one cycle. [`evaluate`]
/// rounds this; calibration re-prices stored raw cycles with it under
/// other scales.
pub fn scaled_cycles(raw: f64, floor: f64, scale: f64) -> f64 {
    (raw * scale).max(floor).max(1.0)
}

/// Price a [`Workload`] on a design point. `scale` is the calibration
/// factor for the (algorithm, VPU-style) regime — pass `1.0` for the raw
/// model. The bandwidth roofline is applied *after* scaling, so a scale
/// below one can never predict super-physical DRAM throughput and
/// `bw_util` stays inside [0, 1] by construction.
pub fn evaluate(cfg: &MachineConfig, w: &Workload, scale: f64) -> FastPrediction {
    let c = &cfg.cost;
    let mut cycles = 0u64;
    let mut vector_instrs = 0u64;
    let mut vector_elems = 0u64;
    let mut flops = 0u64;
    let mut l2_accesses = 0u64;
    let mut l2_misses = 0u64;
    let mut dram_lines = 0u64;

    for p in &w.phases {
        cycles += p.vsetvls * c.vsetvl
            + p.scalar_ops * c.scalar_op
            + p.arith_instrs * (c.issue + c.arith_startup)
            + p.arith_beats
            + p.extra_cycles;
        vector_instrs += p.arith_instrs + p.extra_instrs;
        vector_elems += p.arith_elems + p.extra_elems;
        flops += p.flops;
        for m in &p.mem {
            let level = reuse_level(cfg, m);
            let line_cost =
                m.cold_lines * c.mem_line + m.reuse_lines * reuse_line_cost(c, m, level);
            cycles +=
                m.instrs * (c.issue + c.mem_startup) + m.gather_cycles + line_cost.max(m.beats);
            vector_instrs += m.instrs;
            vector_elems += m.elems;
            let through_l1 = m.scalar || cfg.vpu == VpuStyle::Integrated;
            // Compulsory lines probe L2 and miss; reuse lines reach L2 only
            // when they missed L1 (or there is no L1 on the path).
            l2_accesses += m.cold_lines;
            l2_misses += m.cold_lines;
            dram_lines += m.cold_lines;
            match level {
                Level::L1 => {}
                Level::L2 => l2_accesses += m.reuse_lines,
                Level::Dram => {
                    l2_accesses += m.reuse_lines;
                    l2_misses += m.reuse_lines;
                    dram_lines += m.reuse_lines;
                }
            }
            // Decoupled vector traffic always probes L2; an L1-resident
            // class cannot exist on that path unless it is scalar.
            debug_assert!(level != Level::L1 || through_l1);
        }
    }

    let dram_bytes = dram_lines * LINE_BYTES;
    let raw_cycles = cycles as f64;
    let floor = dram_bytes as f64 / cfg.peak_dram_bytes_per_cycle();
    let cycles = scaled_cycles(raw_cycles, floor, scale).round() as u64;
    FastPrediction {
        cycles,
        raw_cycles,
        avg_vl: if vector_instrs == 0 { 0.0 } else { vector_elems as f64 / vector_instrs as f64 },
        l2_miss_rate: if l2_accesses == 0 { 0.0 } else { l2_misses as f64 / l2_accesses as f64 },
        dram_bytes,
        bw_util: if cycles == 0 {
            0.0
        } else {
            (dram_bytes as f64 / cfg.peak_dram_bytes_per_cycle()) / cycles as f64
        },
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_class(cold: u64) -> MemClass {
        MemClass {
            label: "stream",
            instrs: cold,
            beats: cold,
            elems: cold * 16,
            cold_lines: cold,
            ..Default::default()
        }
    }

    #[test]
    fn empty_workload_predicts_one_cycle() {
        let p = evaluate(&MachineConfig::default(), &Workload::default(), 1.0);
        assert_eq!(p.cycles, 1);
        assert_eq!(p.avg_vl, 0.0);
        assert_eq!(p.l2_miss_rate, 0.0);
        assert_eq!(p.bw_util, 0.0);
    }

    #[test]
    fn compute_phase_prices_cost_model() {
        let cfg = MachineConfig::default();
        let w = Workload {
            phases: vec![Phase {
                vsetvls: 2,
                scalar_ops: 3,
                arith_instrs: 4,
                arith_beats: 4,
                arith_elems: 64,
                flops: 128,
                ..Default::default()
            }],
        };
        let p = evaluate(&cfg, &w, 1.0);
        // 2*1 + 3*1 + 4*(1+2) + 4 beats = 21.
        assert_eq!(p.cycles, 21);
        assert_eq!(p.avg_vl, 16.0);
        assert_eq!(p.flops, 128);
    }

    #[test]
    fn bandwidth_floor_binds_and_caps_utilisation() {
        let cfg = MachineConfig::default();
        let w = Workload {
            phases: vec![Phase { mem: vec![stream_class(1000)], ..Default::default() }],
        };
        // Scale tiny: compute price collapses, but 64 KB of DRAM traffic
        // still cannot move faster than 6.4 B/cycle.
        let p = evaluate(&cfg, &w, 1e-6);
        let floor = (1000 * LINE_BYTES) as f64 / cfg.peak_dram_bytes_per_cycle();
        assert!(p.cycles as f64 >= floor);
        assert!(p.bw_util <= 1.0 + 1e-9, "bw_util = {}", p.bw_util);
        assert!(p.bw_util > 0.99, "floor should bind, bw_util = {}", p.bw_util);
    }

    #[test]
    fn reuse_levels_follow_working_set() {
        let cfg = MachineConfig::default(); // 64 KiB L1, 1 MiB L2, integrated
        let class = |resident: u64| MemClass {
            instrs: 10,
            beats: 10,
            reuse_lines: 100,
            resident_bytes: resident,
            ..Default::default()
        };
        let price = |resident: u64| {
            evaluate(
                &cfg,
                &Workload {
                    phases: vec![Phase { mem: vec![class(resident)], ..Default::default() }],
                },
                1.0,
            )
            .cycles
        };
        let l1 = price(1024);
        let l2 = price(256 * 1024);
        let dram = price(16 * 1024 * 1024);
        assert!(l1 < l2 && l2 < dram, "{l1} {l2} {dram}");
    }

    #[test]
    fn decoupled_vector_reuse_skips_l1_but_scalar_does_not() {
        let dec = MachineConfig::rvv_decoupled(512, 1);
        let mk = |scalar: bool| Workload {
            phases: vec![Phase {
                mem: vec![MemClass {
                    reuse_lines: 100,
                    resident_bytes: 1024,
                    scalar,
                    ..Default::default()
                }],
                ..Default::default()
            }],
        };
        let vec_cost = evaluate(&dec, &mk(false), 1.0).cycles;
        let scalar_cost = evaluate(&dec, &mk(true), 1.0).cycles;
        // Vector reuse pays L2 lines; the scalar path hits L1 for free.
        assert!(vec_cost > scalar_cost, "{vec_cost} vs {scalar_cost}");
        assert_eq!(scalar_cost, 1);
    }

    #[test]
    fn miss_rate_in_unit_interval() {
        let cfg = MachineConfig::default();
        let w = Workload {
            phases: vec![Phase {
                mem: vec![
                    stream_class(64),
                    MemClass { reuse_lines: 500, resident_bytes: 1 << 30, ..Default::default() },
                ],
                ..Default::default()
            }],
        };
        let p = evaluate(&cfg, &w, 1.0);
        assert!((0.0..=1.0).contains(&p.l2_miss_rate));
        assert!(p.l2_miss_rate > 0.9); // everything misses here
    }
}
