//! # lv-check — differential conformance, tolerances and fuzzing
//!
//! The workspace's answer to "how do we know the kernels are *right*,
//! not just fast": a golden f64 oracle ([`oracle`]), a principled
//! per-algorithm tolerance model with derived — not guessed — Winograd
//! error bounds ([`tolerance`]), and a differential runner ([`diff`])
//! that sweeps every kernel variant against the oracle over a structured
//! shape grid plus a seeded shape fuzzer, on machines that have the
//! [`lv_sim`] invariant lint enabled.
//!
//! The `repro check [--seed N] [--deep]` artifact in `lv-bench` drives
//! [`run_check`] and writes the PASS/FAIL table to `results/check.txt`;
//! `repro check --backend fast` instead drives [`tier::run_tier_check`],
//! the differential sweep of the calibrated analytical simulation tier
//! against the cycle-accurate machine.

#![warn(missing_docs)]

pub mod diff;
pub mod oracle;
pub mod tier;
pub mod tolerance;

pub use diff::{
    check_conv_shape, check_depthwise, fuzz_shapes, machine_points, run_check, shape_label,
    structured_grid, CellResult, CheckConfig, CheckReport,
};
pub use oracle::{conv2d_f64, depthwise_f64, im2col_f64, ConvOracle};
pub use tier::{run_tier_check, TierReport};
pub use tolerance::{compare, gamma, Comparison, Violation};
