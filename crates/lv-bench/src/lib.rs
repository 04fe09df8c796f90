//! # lv-bench — the experiment harness
//!
//! One entry point per table/figure of the paper (see `DESIGN.md` for the
//! experiment index). Every artifact declares the slice of the
//! measurement grid it reads as a [`plan::SweepPlan`]; one
//! [`plan::Executor`] runs it through a content-addressed cell cache into
//! [`grid::GridRow`]s, which the figure generators aggregate into the
//! paper's tables and ASCII charts. Run via the `repro` binary:
//!
//! ```text
//! cargo run --release -p lv-bench --bin repro -- all --scale 1.0
//! cargo run --release -p lv-bench --bin repro -- fig9
//! ```

#![warn(missing_docs)]

pub mod calibrate;
pub mod chaos;
pub mod chart;
pub mod check;
pub mod cli;
pub mod error;
pub mod figures;
pub mod fleet;
pub mod grid;
pub mod plan;
pub mod selector;
pub mod serving;
pub mod trace;
pub mod verify;
