//! # lv-sim — a long-vector machine timing simulator
//!
//! This crate is the substrate that replaces the paper's gem5 + RVV setup
//! (see `DESIGN.md` §4). It models an in-order 2 GHz core ([`CLOCK_HZ`])
//! with a vector-length-agnostic (VLA) vector unit — either *tightly
//! integrated* (reads through L1, Paper II / ARM-SVE style) or *decoupled*
//! (attached to L2, Paper I RISC-VV style) — above a set-associative L1/L2
//! hierarchy and a bandwidth-limited DRAM.
//!
//! Kernels are written exactly like VLA intrinsics code:
//!
//! ```
//! use lv_sim::{Machine, MachineConfig, VReg};
//!
//! // y[i] += a * x[i], vector-length agnostic.
//! let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
//! let x = vec![1.0f32; 100];
//! let mut y = vec![2.0f32; 100];
//! let (vx, vy) = (VReg(0), VReg(1));
//! let mut i = 0;
//! while i < x.len() {
//!     let vl = m.vsetvl(x.len() - i);
//!     m.vle32(vx, &x[i..]);
//!     m.vle32(vy, &y[i..]);
//!     m.vfmacc_vf(vy, 3.0, vx);
//!     m.vse32(vy, &mut y[i..]);
//!     i += vl;
//! }
//! assert!(y.iter().all(|&v| v == 5.0));
//! assert!(m.cycles() > 0);
//! ```
//!
//! Every operation both computes real `f32` results and advances the cycle
//! model, so the same kernel code is unit-testable for correctness and
//! usable for the co-design sweeps. A [`Machine::timing_only`] machine
//! advances the cycle model alone, for sweep cells that discard outputs.

#![warn(missing_docs)]

mod cache;
mod config;
pub mod fastmodel;
pub mod lint;
mod machine;
mod stats;

pub use cache::Cache;
pub use config::{
    fnv1a, CacheGeometry, ConfigError, CostModel, MachineConfig, MachineConfigBuilder, VpuStyle,
    CLOCK_HZ, KIB, MIB,
};
pub use lint::LintState;
pub use machine::{Machine, VReg, LINE_BYTES, NUM_VREGS};
pub use stats::Stats;

/// Revision of the timing model. Bump whenever a change to this crate can
/// alter simulated cycle counts or counters (cost model, cache policy,
/// beat accounting): content-addressed result caches (`lv-bench::plan`)
/// salt their keys with it, so stale cells are invalidated instead of
/// silently reused.
pub const TIMING_REV: u32 = 1;

/// Revision of the analytical fast tier ([`fastmodel`]). Bump whenever a
/// change to the fast model (or to the calibration tables derived from it)
/// can alter fast-tier predictions: fast-tier cell-cache keys are salted
/// with it, separately from [`TIMING_REV`], so the two tiers never
/// cross-contaminate and stale fast cells are invalidated independently.
pub const FAST_MODEL_REV: u32 = 1;

// Re-exported so instrumented downstream crates name one tracing API.
pub use lv_trace::{Tracer, TrackId};
