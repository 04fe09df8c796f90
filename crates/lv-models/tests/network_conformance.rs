//! Layer-by-layer conformance of full-network inference: every conv
//! layer's captured activation is checked against the f64 oracle applied
//! to the captured *previous* activation, so a divergence is pinned to
//! the first offending layer (index + max error) instead of compounding
//! through the network. VGG-16 and the YOLOv3 20-layer slice run through
//! `run_network_captured` once per algorithm, on a machine with the
//! simulator invariant lint enabled.

use lv_check::tolerance::{self, EPS32};
use lv_conv::{winograd::WinoPlan, Algo, ALL_ALGOS};
use lv_models::{
    generate_weights, network_input, run_network_captured, zoo, Activation, LayerKind, Model,
};
use lv_sim::{Machine, MachineConfig};

/// Per-element tolerance for one conv layer under `algo`, given the f32
/// activation feeding it: the kernel bound from `lv-check` plus slack for
/// the bias add and the (Lipschitz-1) activation, each one extra f32
/// rounding on a value of magnitude `|pre|`.
fn layer_bounds(
    algo: Algo,
    shape: &lv_tensor::ConvShape,
    prev: &[f32],
    w: &[f32],
    orc: &lv_check::ConvOracle,
    pre_abs: &[f64],
) -> Vec<f64> {
    let conv_bounds = if algo == Algo::Winograd {
        tolerance::winograd_bounds(&WinoPlan::F6X6, shape, prev, w)
    } else {
        tolerance::exact_algo_bounds(shape, orc)
    };
    conv_bounds
        .iter()
        .zip(pre_abs)
        .map(|(&cb, &pa)| {
            // Bias add + activation: two more roundings at magnitude |pre|.
            cb + 4.0 * EPS32 * (pa + cb)
        })
        .collect()
}

fn act_f64(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Linear => x,
        Activation::Relu => {
            if x > 0.0 {
                x
            } else {
                0.0
            }
        }
        // The kernel multiplies by the f32 constant 0.1; mirror it exactly.
        Activation::Leaky => {
            if x > 0.0 {
                x
            } else {
                x * (0.1f32 as f64)
            }
        }
    }
}

/// Run `model` with `algo` on every conv layer and verify each conv
/// activation against the oracle. Panics with the first divergent layer.
fn check_network(model: &Model, algo: Algo) {
    let weights = generate_weights(model);
    let assign = vec![algo; model.conv_count()];
    let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
    m.enable_lint();
    let (report, acts) = run_network_captured(&mut m, model, &assign, &weights);
    assert!(m.lint().map_or(0, |l| l.checks()) > 0, "lint must run inside the network");
    assert_eq!(acts.len(), model.layers.len());

    let input = network_input(model);
    let mut conv_i = 0usize;
    for (idx, layer) in model.layers.iter().enumerate() {
        let LayerKind::Conv { shape, activation } = &layer.kind else {
            continue;
        };
        let eff = report.layers[idx].algo.expect("conv layer reports its algorithm");
        let prev: &[f32] = if idx == 0 { &input } else { &acts[idx - 1] };
        let (w, b) = &weights.conv[conv_i];
        conv_i += 1;

        let orc = lv_check::conv2d_f64(shape, prev, w);
        let plane = shape.oh() * shape.ow();
        let mut want = vec![0.0f64; orc.out.len()];
        let mut pre_abs = vec![0.0f64; orc.out.len()];
        for (i, &acc) in orc.out.iter().enumerate() {
            let pre = acc + b[i / plane] as f64;
            pre_abs[i] = pre.abs();
            want[i] = act_f64(*activation, pre);
        }
        let bounds = layer_bounds(eff, shape, prev, w, &orc, &pre_abs);
        let cmp = tolerance::compare(&acts[idx], &want, &bounds);
        assert!(
            cmp.pass(),
            "{}/{algo}: first divergence at layer {idx} (conv #{}, {:?}, ran as {eff}): \
             max_abs_err {:.3e}, {} elements over tolerance, worst {:?}",
            model.name,
            conv_i - 1,
            shape,
            cmp.max_abs_err,
            cmp.violations,
            cmp.worst,
        );
    }
    assert!(conv_i > 0, "model has conv layers");
}

#[test]
fn vgg16_layers_match_oracle_under_every_algorithm() {
    // Scaled VGG-16: full channel widths (up to 512), 32x32 input.
    let model = zoo::vgg16().scaled(0.15);
    for algo in ALL_ALGOS {
        check_network(&model, algo);
    }
}

#[test]
fn yolov3_layers_match_oracle_under_every_algorithm() {
    // Scaled 20-layer YOLOv3 slice: strided convs, shortcuts, 1x1 layers.
    let model = zoo::yolov3_first20().scaled(0.05);
    for algo in ALL_ALGOS {
        check_network(&model, algo);
    }
}

#[test]
fn lint_does_not_change_instruction_accounting() {
    // The invariant checker is observation-only. The cache model keys on
    // host heap addresses, so cycle/hit/miss counts can legally shift
    // between two in-process runs (kernels allocate scratch buffers at
    // whatever pages the allocator hands out); strict cycle equality
    // under *identical* addresses is pinned by lv-sim's
    // `lint_accepts_clean_kernel_and_never_changes_cycles` unit test.
    // Here we assert the address-independent counters — instruction,
    // element, flop and vsetvl totals — are bit-identical between a
    // plain and a linted run of the same conv chain.
    let model = zoo::yolov3_first20().scaled(0.05);
    let weights = generate_weights(&model);
    let shapes = model.conv_shapes();

    // Pre-build every layer's input/weights/output once.
    let layers: Vec<_> = shapes
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, s)| {
            let algo = lv_models::effective_algo(Algo::Winograd, s);
            let prepared = lv_conv::prepare_weights(algo, s, &weights.conv[i].0);
            let input = lv_tensor::pseudo_buf(s.input_len(), 50 + i as u64);
            (algo, *s, input, prepared)
        })
        .collect();

    let mut out_bufs: Vec<lv_tensor::AlignedVec> =
        layers.iter().map(|(_, s, _, _)| lv_tensor::AlignedVec::zeroed(s.output_len())).collect();

    let run_chain = |lint: bool, out_bufs: &mut [lv_tensor::AlignedVec]| {
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        if lint {
            m.enable_lint();
        }
        for ((algo, s, input, prepared), out) in layers.iter().zip(out_bufs.iter_mut()) {
            lv_conv::run_conv(&mut m, *algo, s, input, prepared, out);
        }
        let checks = m.lint().map_or(0, |l| l.checks());
        (m.stats(), checks)
    };

    let (plain, _) = run_chain(false, &mut out_bufs);
    let (linted, checks) = run_chain(true, &mut out_bufs);
    assert!(checks > 0, "lint must actually observe the run");
    assert!(plain.cycles > 0 && plain.flops > 0);
    assert_eq!(plain.vector_instrs, linted.vector_instrs, "vector_instrs changed under lint");
    assert_eq!(plain.vector_elems, linted.vector_elems, "vector_elems changed under lint");
    assert_eq!(plain.flops, linted.flops, "flops changed under lint");
    assert_eq!(plain.vsetvls, linted.vsetvls, "vsetvls changed under lint");
    assert_eq!(plain.scalar_ops, linted.scalar_ops, "scalar_ops changed under lint");
}
