//! The `fleet` artifact: cluster-level serving over heterogeneous
//! Pareto-point chips.
//!
//! Paper II ends at one chip: Fig. 11 picks per-chip design points off
//! the performance-area frontier and Fig. 12 co-locates replicas on one
//! die. This artifact asks the next question — given a *menu* of those
//! design points, how should a cluster be composed and routed? Three
//! frontier chips (1024/2048/4096-bit vectors with CAT-partitioned L2)
//! are measured through the shared cell cache, their Optimal-policy
//! conv-stack times become per-class service times, and `lv-fleet`
//! simulates homogeneous and heterogeneous six-node fleets under a
//! diurnal + bursty open-loop VGG-16/YOLOv3 mix, comparing four routing
//! policies on capacity-under-SLO, tail latency, drop rate and
//! throughput-per-mm². A reactive-autoscaling ablation closes the loop
//! back to silicon: extra replicas are billed at peak area.
//!
//! Warm reruns simulate nothing: every fast-tier cell the chip menu
//! needs is content-addressed in the executor's cache.
//!
//! This module owns the fleet inputs the `chaos` artifact reuses: the
//! chip menu and its per-class service tables, the class mix, the
//! het-2+2+2 composition and the diurnal + burst arrival trace.

use std::fmt::Write as _;

use lv_conv::ALL_ALGOS;
use lv_fleet::{
    AutoscalePolicy, Bursts, ChipSpec, Diurnal, FleetConfig, FleetReport, FleetSim, Policy,
    WorkloadSpec, ALL_POLICIES,
};
use lv_serving::partition_l2;
use lv_sim::CLOCK_HZ;

use crate::chart::table;
use crate::error::BenchError;
use crate::figures::write_result;
use crate::grid::{policy_cycles, GridRow, P2_L2S};
use crate::plan::{Executor, Model, SweepPlan};
use crate::trace::{TraceCtx, PID_FLEET};

/// Arrivals simulated per (composition, load) sweep point.
const REQUESTS: usize = 6_000;
/// Request classes served by every fleet (class id = index).
const CLASSES: [&str; 2] = ["vgg16", "yolov3-20"];
/// Offered mix of the classes.
pub(crate) const WEIGHTS: [f64; 2] = [0.6, 0.4];
/// Offered load as fractions of the composition's nominal capacity.
const FRACS: [f64; 5] = [0.5, 0.7, 0.85, 1.0, 1.2];
/// SLO-attainment bar defining "capacity under SLO".
pub(crate) const ATTAIN_BAR: f64 = 0.95;
/// The chip menu: (name, vlen_bits, shared L2 MiB, replicas). All three
/// sit on the Paper II frontier; "knee" is the 2048-bit Pareto knee.
const MENU: [(&str, usize, usize, usize); 3] =
    [("small", 1024, 2, 2), ("knee", 2048, 2, 2), ("big", 4096, 32, 2)];

/// Per-replica L2 of a chip: its shared L2 CAT-split across `replicas`,
/// snapped down to a measured Paper II size.
pub(crate) fn replica_l2(shared_l2: usize, replicas: usize) -> usize {
    partition_l2(shared_l2, replicas, &P2_L2S)
        .expect("menu shared L2 / replicas lands on a measured partition")
}

/// Optimal-policy conv-stack seconds of `model` at (vlen, per-replica L2).
fn stack_seconds(rows: &[GridRow], model: &str, vlen: usize, l2: usize) -> f64 {
    let cycles: u64 = crate::grid::table1_layers(1.0)
        .iter()
        .filter(|(m, _, _)| m == model)
        .map(|(_, l, _)| policy_cycles(rows, model, *l, vlen, l2, None).unwrap_or(0))
        .sum();
    cycles as f64 / CLOCK_HZ
}

/// Per-class Optimal stack seconds at one (vlen, per-replica L2) point,
/// measured through the shared executor as plan `id`: a two-model,
/// one-config subset of the Paper II grid. Capacity planning only ranks
/// stacks, so these plans default to the calibrated fast tier
/// (`--backend cycle` still overrides via the executor).
pub(crate) fn class_service_s(
    exec: &Executor,
    ctx: &TraceCtx,
    id: &str,
    scale: f64,
    vlen: usize,
    l2: usize,
) -> Result<Vec<f64>, BenchError> {
    let plan = SweepPlan::new(id)
        .layers(Model::Vgg16)
        .layers(Model::Yolo20)
        .scale(scale)
        .vlens(&[vlen])
        .l2s(&[l2])
        .algos(&ALL_ALGOS)
        .backend(lv_models::BackendKind::Fast);
    let rows = exec.run(&plan, ctx)?.rows;
    Ok(CLASSES.iter().map(|m| stack_seconds(&rows, m, vlen, l2)).collect())
}

/// Measure the chip menu as plans `<artifact>-<chip>`: each chip's
/// Optimal stack times become its per-class service table.
pub(crate) fn chip_menu(
    exec: &Executor,
    ctx: &TraceCtx,
    artifact: &str,
    scale: f64,
) -> Result<Vec<ChipSpec>, BenchError> {
    MENU.iter()
        .map(|&(name, vlen, l2_mib, replicas)| {
            let id = format!("{artifact}-{name}");
            let l2 = replica_l2(l2_mib, replicas);
            Ok(ChipSpec {
                name: name.into(),
                vlen_bits: vlen,
                l2_mib,
                replicas,
                service_s: class_service_s(exec, ctx, &id, scale, vlen, l2)?,
                degraded_service_s: None,
            })
        })
        .collect()
}

/// Mean per-request service time of `chip` under the class mix.
pub(crate) fn mean_service(chip: &ChipSpec) -> f64 {
    chip.service_s.iter().zip(WEIGHTS).map(|(s, w)| s * w).sum::<f64>()
        / WEIGHTS.iter().sum::<f64>()
}

/// The heterogeneous six-node fleet: two of each menu chip, in menu order.
pub(crate) fn het_2_2_2(menu: &[ChipSpec]) -> Vec<ChipSpec> {
    menu.iter().flat_map(|c| [c.clone(), c.clone()]).collect()
}

/// The arrival trace for one sweep point: `requests` Poisson arrivals at
/// `rate`, modulated by a diurnal curve (mean-one, so offered load is
/// conserved) and flash bursts. Callers derive `seed` from the load
/// point but not from the policy or tolerance under comparison, so those
/// are compared on identical traces.
pub(crate) fn workload(requests: usize, rate: f64, seed: u64) -> WorkloadSpec {
    let duration = requests as f64 / rate;
    WorkloadSpec {
        rate_rps: rate,
        requests,
        class_weights: WEIGHTS.to_vec(),
        diurnal: Some(Diurnal { amplitude: 0.3, period_s: duration / 3.0 }),
        bursts: Some(Bursts {
            factor: 2.0,
            mean_interval_s: duration / 2.0,
            duration_s: duration / 15.0,
        }),
        seed,
    }
}

fn fleet_cfg(chips: Vec<ChipSpec>, policy: Policy, wl: WorkloadSpec, slo_s: f64) -> FleetConfig {
    FleetConfig { admission_control: true, ..FleetConfig::basic(chips, policy, wl, slo_s) }
}

fn run_fleet(cfg: FleetConfig) -> FleetReport {
    FleetSim::new(cfg).expect("fleet artifact config is valid").run()
}

/// Build the `fleet` report (and `results/fleet.csv`). When `ctx` is
/// recording, one extra short heterogeneous run emits router/node spans,
/// queue-depth counters and drop instants under [`PID_FLEET`]; the sweep
/// itself stays untraced so reported numbers are identical with and
/// without `--trace`. `seed` offsets every arrival trace.
pub fn fleet_report(
    scale: f64,
    exec: &Executor,
    ctx: &TraceCtx,
    seed: u64,
) -> Result<String, BenchError> {
    let menu = chip_menu(exec, ctx, "fleet", scale)?;
    let (small, knee, big) = (&menu[0], &menu[1], &menu[2]);
    // One SLO for every composition, anchored on the knee chip's mix so
    // capacity-under-SLO is comparable across fleets: generous enough
    // for moderate queueing, tight enough that saturation busts it.
    let slo_s = 8.0 * mean_service(knee);

    let compositions: Vec<(&str, Vec<ChipSpec>)> = vec![
        ("hom-small", vec![small.clone(); 6]),
        ("hom-knee", vec![knee.clone(); 6]),
        ("hom-big", vec![big.clone(); 6]),
        ("het-2+2+2", het_2_2_2(&menu)),
    ];

    let mut out = format!(
        "fleet: cluster serving over Pareto-point chips ({} requests/point, \
         {:.0}/{:.0} vgg16/yolo mix, diurnal + bursts)\n\
         SLO: {:.1} ms end-to-end, capacity = max achieved rps with >= {:.0}% of offered\n\
         requests served within it; SLO-aware admission control at the router\n\n\
         chip menu (per-class service = Optimal conv stack at the CAT partition):\n",
        REQUESTS,
        100.0 * WEIGHTS[0],
        100.0 * WEIGHTS[1],
        slo_s * 1e3,
        100.0 * ATTAIN_BAR,
    );
    let menu_rows: Vec<Vec<String>> = menu
        .iter()
        .map(|c| {
            let part = replica_l2(c.l2_mib, c.replicas);
            vec![
                c.name.clone(),
                format!("{}b", c.vlen_bits),
                format!("{}MB ({part}MB/rep)", c.l2_mib),
                c.replicas.to_string(),
                format!("{:.1}", c.service_s[0] * 1e3),
                format!("{:.1}", c.service_s[1] * 1e3),
                format!("{:.2}", c.area_mm2(c.replicas)),
                format!("{:.1}", c.capacity_rps(&WEIGHTS)),
            ]
        })
        .collect();
    out.push_str(&table(
        &["chip", "vlen", "L2", "reps", "vgg ms", "yolo ms", "mm2", "cap rps"],
        &menu_rows,
    ));

    let mut csv = String::from(
        "composition,policy,load_frac,offered_rps,achieved_rps,p99_ms,slo_attain,drop_rate,\
         area_mm2,rps_per_mm2\n",
    );
    let mut best_per_comp: Vec<(String, f64, f64, f64)> = Vec::new(); // (policy, cap, area, cap/mm2)
    for (ci, (comp_name, chips)) in compositions.iter().enumerate() {
        let capacity: f64 = chips.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum();
        let area: f64 = chips.iter().map(|c| c.area_mm2(c.replicas)).sum();
        let _ = writeln!(
            out,
            "\n{comp_name}: nominal capacity {capacity:.1} rps, {area:.1} mm2 \
             (loads in x of capacity):"
        );
        let mut trows = Vec::new();
        let mut comp_best: Option<(String, f64)> = None;
        for policy in ALL_POLICIES {
            let mut cap_under_slo = 0.0f64;
            let mut cells = vec![policy.name().to_string()];
            let mut by_frac = Vec::new();
            for (fi, &frac) in FRACS.iter().enumerate() {
                let wl = workload(REQUESTS, frac * capacity, seed + (ci * FRACS.len() + fi) as u64);
                let rep = run_fleet(fleet_cfg(chips.clone(), policy, wl, slo_s));
                if rep.slo_attainment >= ATTAIN_BAR {
                    cap_under_slo = cap_under_slo.max(rep.achieved_rps);
                }
                let _ = writeln!(
                    csv,
                    "{comp_name},{},{frac:.2},{:.3},{:.3},{:.3},{:.4},{:.4},{:.2},{:.4}",
                    policy.name(),
                    rep.offered_rps,
                    rep.achieved_rps,
                    rep.latency.p99_s * 1e3,
                    rep.slo_attainment,
                    rep.drop_rate,
                    rep.area_mm2,
                    rep.rps_per_mm2,
                );
                by_frac.push(rep);
            }
            // Summary columns: capacity under SLO, mid-load p99, attain
            // at nominal, drops past saturation, silicon efficiency.
            cells.push(if cap_under_slo > 0.0 {
                format!("{cap_under_slo:.1}")
            } else {
                "-".into()
            });
            cells.push(format!("{:.1}", by_frac[2].latency.p99_s * 1e3));
            cells.push(format!("{:.1}%", 100.0 * by_frac[3].slo_attainment));
            cells.push(format!("{:.1}%", 100.0 * by_frac[4].drop_rate));
            cells.push(format!("{:.3}", cap_under_slo / area));
            trows.push(cells);
            if comp_best.as_ref().is_none_or(|(_, c)| cap_under_slo > *c) {
                comp_best = Some((policy.name().to_string(), cap_under_slo));
            }
        }
        out.push_str(&table(
            &["policy", "cap@SLO", "p99@0.85x ms", "attain@1.0x", "drops@1.2x", "cap/mm2"],
            &trows,
        ));
        let (bp, bc) = comp_best.expect("at least one policy ran");
        let _ = writeln!(out, "  best: {bp} at {bc:.1} rps under SLO");
        best_per_comp.push((bp, bc, area, bc / area));
    }

    // The composition question: homogeneous vs heterogeneous silicon
    // efficiency at each fleet's best policy.
    out.push_str("\nthroughput-per-silicon at best policy:\n");
    for ((name, _), (bp, cap, area, eff)) in compositions.iter().zip(&best_per_comp) {
        let _ =
            writeln!(out, "  {name:10} {bp:12} {cap:7.1} rps / {area:6.1} mm2 = {eff:.3} rps/mm2");
    }

    // Autoscale ablation: the heterogeneous fleet at 1.2x capacity, with
    // a reactive scaler allowed to double each chip's replicas. Peak
    // replicas are billed as silicon, so the efficiency denominator
    // grows with the capacity.
    let (_, het_chips) = &compositions[3];
    let het_capacity: f64 = het_chips.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum();
    let scaler = AutoscalePolicy {
        breach_depth: 16,
        sustain_s: 20.0 * mean_service(knee),
        max_replicas: 4,
        cooldown_s: 40.0 * mean_service(knee),
        scale_down: None,
    };
    let overload = workload(REQUESTS, 1.2 * het_capacity, seed + 1000);
    let fixed =
        run_fleet(fleet_cfg(het_chips.clone(), Policy::ModelAffinity, overload.clone(), slo_s));
    let scaled = run_fleet(FleetConfig {
        autoscale: Some(scaler),
        ..fleet_cfg(het_chips.clone(), Policy::ModelAffinity, overload, slo_s)
    });
    let _ = writeln!(
        out,
        "\nautoscale ablation (het-2+2+2, affinity, 1.2x capacity, scale-out to 4 replicas\n\
         on sustained queue depth >= {}):\n\
         fixed : attain {:.1}%  p99 {:.1} ms  drops {:.1}%  {:.1} mm2  {:.3} rps/mm2\n\
         scaled: attain {:.1}%  p99 {:.1} ms  drops {:.1}%  {:.1} mm2  {:.3} rps/mm2  \
         ({} scale-ups)",
        scaler.breach_depth,
        100.0 * fixed.slo_attainment,
        fixed.latency.p99_s * 1e3,
        100.0 * fixed.drop_rate,
        fixed.area_mm2,
        fixed.rps_per_mm2,
        100.0 * scaled.slo_attainment,
        scaled.latency.p99_s * 1e3,
        100.0 * scaled.drop_rate,
        scaled.area_mm2,
        scaled.rps_per_mm2,
        scaled.scale_events.len(),
    );

    write_result("fleet.csv", &csv)?;

    // Traced showcase: short heterogeneous run, loaded enough to drop
    // and autoscale, emitting router/node events under PID_FLEET.
    if ctx.tracer.is_enabled() {
        let wl =
            WorkloadSpec { requests: 400, ..workload(REQUESTS, 1.3 * het_capacity, seed + 2000) };
        let cfg = FleetConfig {
            autoscale: Some(scaler),
            ..fleet_cfg(het_chips.clone(), Policy::ModelAffinity, wl, slo_s)
        };
        FleetSim::new(cfg)
            .expect("traced fleet config is valid")
            .run_traced(&ctx.tracer, PID_FLEET);
    }
    Ok(out)
}
