//! # lv-models — CNN models and the Darknet-like network runtime
//!
//! The two networks the paper evaluates — YOLOv3 (full graph, the
//! first-20-layer slice of Table 1, and the tiny variant) and VGG-16 —
//! plus a network runner that executes every layer type on the simulated
//! long-vector machine with a per-layer convolution-algorithm assignment
//! (including the paper's `Winograd*` fallback).
//!
//! ```
//! use lv_models::{measure_layer, zoo};
//! use lv_conv::Algo;
//! use lv_sim::MachineConfig;
//!
//! let vgg = zoo::vgg16();
//! let cfg = MachineConfig::rvv_integrated(512, 1);
//! let small = vgg.conv_shapes()[12].scaled(0.25); // quick-run
//! let m = measure_layer(&cfg, &small, Algo::Gemm6).unwrap();
//! assert!(m.cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod calib;
pub mod darknet;
mod measure;
mod model;
mod runner;
pub mod zoo;

pub use backend::BackendKind;
pub use measure::{measure_group, measure_layer, CellMetrics, LayerMeasurement};
pub use model::{Activation, Layer, LayerKind, Model, ModelBuilder};
pub use runner::{
    effective_algo, generate_weights, network_input, run_network, run_network_captured,
    LayerReport, NetWeights, NetworkReport,
};
