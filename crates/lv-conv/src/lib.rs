//! # lv-conv — vectorized convolution algorithms for long-vector machines
//!
//! The paper's core contribution: VLA-vectorized implementations of the
//! three convolution algorithm families it co-designs against hardware
//! parameters, all executing on the [`lv_sim`] machine so that one code
//! path yields both functional results and cycle counts:
//!
//! * [`Algo::Direct`] — NHWC direct convolution with pixel x channel
//!   fusion and OW unrolling (plus the naive and reordered ablation
//!   variants in [`direct`]),
//! * [`Algo::Gemm3`] / [`Algo::Gemm6`] — im2col lowering + the optimized
//!   3-loop and BLIS-like 6-loop GEMM kernels,
//! * [`Algo::Winograd`] — F(6x6, 3x3) with inter-tile parallelism across
//!   channels. [`winograd`] is one kernel for every tile size: the
//!   F(4x4, 3x3) and F(2x2, 3x3) plans of the tile-size ablation run the
//!   same code.
//!
//! ```
//! use lv_conv::{prepare_weights, run_conv, Algo};
//! use lv_sim::{Machine, MachineConfig};
//! use lv_tensor::{pseudo_buf, ConvShape};
//!
//! let s = ConvShape::same_pad(3, 8, 16, 3, 1);
//! let input = pseudo_buf(s.input_len(), 1);
//! let weights = pseudo_buf(s.weight_len(), 2);
//! let prepared = prepare_weights(Algo::Winograd, &s, &weights);
//! let mut out = vec![0.0; s.output_len()];
//! let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
//! run_conv(&mut m, Algo::Winograd, &s, &input, &prepared, &mut out);
//! println!("layer took {} simulated cycles", m.cycles());
//! ```

#![warn(missing_docs)]

mod algo;
pub mod depthwise;
pub mod direct;
pub mod fft;
pub mod gemm3;
pub mod gemm6;
pub mod im2col;
pub mod model;
pub mod winograd;

pub use algo::{prepare_weights, run_conv, run_conv_batch, Algo, PreparedWeights, ALL_ALGOS};
pub use direct::DirectVariant;
pub use gemm3::gemm3_kernel_unrolled;
pub use gemm6::Gemm6Blocking;

/// Revision of the kernel implementations. Bump whenever a change to this
/// crate can alter the cycles a kernel spends on a given machine (loop
/// order, blocking, instruction selection): content-addressed result
/// caches (`lv-bench::plan`) salt their keys with it, so every cached cell
/// is resimulated after a kernel change instead of silently reused.
pub const KERNEL_REV: u32 = 1;
