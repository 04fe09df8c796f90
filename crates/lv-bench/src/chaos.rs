//! The `chaos` artifact: fault-tolerant fleet serving under deterministic
//! fault injection.
//!
//! The `fleet` artifact asks how a cluster of Pareto-point chips should
//! be composed and routed; this one asks what happens when that cluster
//! *breaks*. Seeded fault plans (independent crash/restart cycles,
//! transient straggler slowdowns, a correlated rack outage) are swept
//! against three tolerance stacks on identical paired arrival traces:
//!
//! * `oblivious`   — the fault-blind PR 5 loop (routing can pick dead
//!   nodes; lost work is lost),
//! * `health+retry` — outlier ejection with backoff probation plus
//!   deadline-budgeted retries,
//! * `full`        — health + retries + p99-tracking tail hedging +
//!   graceful degradation to each chip's cheaper reduced-resolution
//!   service table.
//!
//! Reported per (fleet, scenario, tolerance): availability, capacity
//! under SLO retained vs the fault-free control, p99 inflation,
//! retry/hedge overhead, and time-to-recover (first SLO-attainment
//! breach to the first slice back above the bar). Everything is a pure
//! function of `--seed`, so two runs with the same seed produce
//! bit-identical `results/chaos.txt` and `results/chaos.csv`.

use std::fmt::Write as _;

use lv_fleet::{
    AttainSlice, ChipSpec, DegradePolicy, FaultScenario, FaultSpec, FaultTolerance, FleetConfig,
    FleetReport, FleetSim, HedgePolicy, Policy, WorkloadSpec, ALL_SCENARIOS,
};

use crate::chart::table;
use crate::error::BenchError;
use crate::figures::write_result;
use crate::fleet::{
    chip_menu, class_service_s, het_2_2_2, mean_service, replica_l2, workload, ATTAIN_BAR, WEIGHTS,
};
use crate::plan::Executor;
use crate::trace::{TraceCtx, PID_FLEET};

/// Arrivals simulated per sweep point.
const REQUESTS: usize = 3_000;
/// Offered load as fractions of nominal capacity. Deliberately below
/// saturation: the sweep isolates fault damage from queueing collapse.
const FRACS: [f64; 3] = [0.4, 0.6, 0.8];
/// Index into [`FRACS`] used for the headline per-scenario metrics.
const REF_FRAC: usize = 1;
/// Per-slice attainment bar for the time-to-recover measurement.
const RECOVER_BAR: f64 = 0.90;

/// The `fleet` artifact's chip menu, each chip with a degraded service
/// table: the same network at half the spatial resolution — a real
/// cheaper algorithm measured on the same silicon, not a fudge factor.
/// Both sweeps run the calibrated fast tier and land in the
/// content-addressed cell cache.
fn degradable_menu(
    exec: &Executor,
    ctx: &TraceCtx,
    scale: f64,
) -> Result<Vec<ChipSpec>, BenchError> {
    let mut menu = chip_menu(exec, ctx, "chaos", scale)?;
    for chip in &mut menu {
        let id = format!("chaos-{}-half", chip.name);
        let l2 = replica_l2(chip.l2_mib, chip.replicas);
        let half = class_service_s(exec, ctx, &id, scale * 0.5, chip.vlen_bits, l2)?;
        chip.degraded_service_s =
            Some(half.iter().zip(&chip.service_s).map(|(&h, &s)| h.min(s)).collect());
    }
    Ok(menu)
}

/// The three tolerance stacks under test, in report order.
fn tolerances() -> Vec<(&'static str, FaultTolerance)> {
    vec![
        ("oblivious", FaultTolerance::none()),
        ("health+retry", FaultTolerance::recovering()),
        (
            "full",
            FaultTolerance {
                hedge: Some(HedgePolicy::basic()),
                degrade: Some(DegradePolicy::basic()),
                ..FaultTolerance::recovering()
            },
        ),
    ]
}

/// Per-slice SLO attainment, counting empty slices as healthy.
fn slice_attain(s: &AttainSlice) -> f64 {
    if s.offered == 0 {
        1.0
    } else {
        s.within_slo as f64 / s.offered as f64
    }
}

/// Seconds from the first slice whose attainment drops below
/// [`RECOVER_BAR`] to the first later slice back at or above it. `0` when
/// attainment never breached; breach-to-horizon when it never recovered.
fn time_to_recover(series: &[AttainSlice], horizon_s: f64) -> f64 {
    let mut breach = None;
    for s in series {
        match breach {
            None if slice_attain(s) < RECOVER_BAR => breach = Some(s.t_s),
            Some(t0) if slice_attain(s) >= RECOVER_BAR => return s.t_s - t0,
            _ => {}
        }
    }
    breach.map_or(0.0, |t0| horizon_s - t0)
}

/// One (scenario, tolerance) sweep over the load fractions.
struct Cell {
    /// Reports per load fraction, [`FRACS`]-aligned.
    by_frac: Vec<FleetReport>,
    /// Max achieved rps with attainment >= [`ATTAIN_BAR`] (0 if none).
    cap_rps: f64,
    /// Time-to-recover of the reference-load run, seconds.
    ttr_s: f64,
}

/// Run one tolerance stack through every load fraction under `scenario`.
fn run_cell(
    chips: &[ChipSpec],
    capacity: f64,
    slo_s: f64,
    seed: u64,
    scenario: FaultScenario,
    tol: FaultTolerance,
) -> Cell {
    let mut by_frac = Vec::new();
    let mut cap_rps = 0.0f64;
    let mut ttr_s = 0.0;
    for (fi, &frac) in FRACS.iter().enumerate() {
        let rate = frac * capacity;
        let horizon = REQUESTS as f64 / rate;
        // Fault seed is load-independent so the same scenario stresses
        // every stack identically; the plan itself scales with horizon.
        let spec = (scenario != FaultScenario::None)
            .then(|| FaultSpec::scenario(scenario, seed + 7_000, horizon));
        let cfg = FleetConfig {
            admission_control: true,
            faults: spec,
            tolerance: tol,
            ..FleetConfig::basic(
                chips.to_vec(),
                Policy::ModelAffinity,
                workload(REQUESTS, rate, seed + fi as u64),
                slo_s,
            )
        };
        let rep = FleetSim::new(cfg).expect("chaos config is valid").run();
        if rep.slo_attainment >= ATTAIN_BAR {
            cap_rps = cap_rps.max(rep.achieved_rps);
        }
        if fi == REF_FRAC {
            ttr_s = time_to_recover(&rep.attain_series, horizon);
        }
        by_frac.push(rep);
    }
    Cell { by_frac, cap_rps, ttr_s }
}

fn emit_csv(csv: &mut String, fleet: &str, scenario: FaultScenario, capacity: f64, cells: &[Cell]) {
    for ((tol_name, _), cell) in tolerances().iter().zip(cells) {
        for (fi, rep) in cell.by_frac.iter().enumerate() {
            let horizon = REQUESTS as f64 / (FRACS[fi] * capacity);
            let r = &rep.resilience;
            let _ = writeln!(
                csv,
                "{fleet},{},{tol_name},{:.2},{:.3},{:.3},{:.4},{:.4},{:.3},{},{},{},{},{},{},{:.3}",
                scenario.name(),
                FRACS[fi],
                rep.offered_rps,
                rep.achieved_rps,
                rep.availability,
                rep.slo_attainment,
                rep.latency.p99_s * 1e3,
                r.retries,
                r.hedges,
                r.hedges_wasted,
                r.degraded,
                r.ejections,
                rep.drops.failed,
                time_to_recover(&rep.attain_series, horizon),
            );
        }
    }
}

/// Build the `chaos` report (and `results/chaos.csv`). `faults`
/// restricts the sweep to one scenario (the fault-free control always
/// runs — it is the denominator of every "retained"/"inflation" column);
/// `None` sweeps them all.
pub fn chaos_report(
    scale: f64,
    exec: &Executor,
    ctx: &TraceCtx,
    seed: u64,
    faults: Option<FaultScenario>,
) -> Result<String, BenchError> {
    let menu = degradable_menu(exec, ctx, scale)?;
    let knee = &menu[1];
    let slo_s = 8.0 * mean_service(knee);

    let scenarios: Vec<FaultScenario> = match faults {
        None => ALL_SCENARIOS.iter().copied().filter(|&s| s != FaultScenario::None).collect(),
        Some(FaultScenario::None) => vec![],
        Some(sc) => vec![sc],
    };
    let fleets: Vec<(&str, Vec<ChipSpec>)> =
        vec![("hom-knee", vec![knee.clone(); 6]), ("het-2+2+2", het_2_2_2(&menu))];

    let mut out = format!(
        "chaos: fault-tolerant fleet serving under deterministic fault injection\n\
         ({} requests/point at {:?} of nominal capacity, {:.0}/{:.0} vgg16/yolo mix,\n\
         diurnal + bursts; SLO {:.1} ms; seed {seed})\n\
         scenarios: none, {}  |  tolerance: oblivious, health+retry, full (+hedge+degrade)\n\
         headline columns are measured at the {:.1}x reference load; capacity retained and\n\
         p99 inflation are against the same stack's fault-free control on paired traces\n",
        REQUESTS,
        FRACS,
        100.0 * WEIGHTS[0],
        100.0 * WEIGHTS[1],
        slo_s * 1e3,
        scenarios.iter().map(|s| s.name()).collect::<Vec<_>>().join(", "),
        FRACS[REF_FRAC],
    );
    let mut csv = String::from(
        "fleet,scenario,tolerance,load_frac,offered_rps,achieved_rps,availability,slo_attain,\
         p99_ms,retries,hedges,hedges_wasted,degraded,ejections,failed_drops,ttr_s\n",
    );

    for (fleet_name, chips) in &fleets {
        let capacity: f64 = chips.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum();
        let _ = writeln!(out, "\n{fleet_name}: nominal capacity {capacity:.1} rps");

        // The fault-free control, once per tolerance stack: both a report
        // section of its own and the denominator for every faulted row.
        let controls: Vec<Cell> = tolerances()
            .iter()
            .map(|(_, tol)| run_cell(chips, capacity, slo_s, seed, FaultScenario::None, *tol))
            .collect();
        emit_csv(&mut csv, fleet_name, FaultScenario::None, capacity, &controls);
        let mut trows = Vec::new();
        for ((tol_name, _), cell) in tolerances().iter().zip(&controls) {
            let rep = &cell.by_frac[REF_FRAC];
            trows.push(vec![
                tol_name.to_string(),
                format!("{:.1}%", 100.0 * rep.availability),
                format!("{:.1}%", 100.0 * rep.slo_attainment),
                format!("{:.1}", rep.latency.p99_s * 1e3),
                if cell.cap_rps > 0.0 { format!("{:.1}", cell.cap_rps) } else { "-".into() },
            ]);
        }
        let _ = writeln!(out, " scenario none (control):");
        out.push_str(&table(&["tolerance", "avail", "attain", "p99 ms", "cap@SLO"], &trows));

        for &scenario in &scenarios {
            let cells: Vec<Cell> = tolerances()
                .iter()
                .map(|(_, tol)| run_cell(chips, capacity, slo_s, seed, scenario, *tol))
                .collect();
            emit_csv(&mut csv, fleet_name, scenario, capacity, &cells);
            let mut trows = Vec::new();
            for (((tol_name, _), cell), control) in tolerances().iter().zip(&cells).zip(&controls) {
                let rep = &cell.by_frac[REF_FRAC];
                let base = &control.by_frac[REF_FRAC];
                let r = &rep.resilience;
                let overhead = (r.retries + r.hedges) as f64 / rep.requests as f64;
                trows.push(vec![
                    tol_name.to_string(),
                    format!("{:.1}%", 100.0 * rep.availability),
                    format!("{:.1}%", 100.0 * rep.slo_attainment),
                    if control.cap_rps > 0.0 {
                        format!("{:.0}%", 100.0 * cell.cap_rps / control.cap_rps)
                    } else {
                        "-".into()
                    },
                    format!("{:.2}x", rep.latency.p99_s / base.latency.p99_s),
                    format!("{:.1}%", 100.0 * overhead),
                    r.ejections.to_string(),
                    format!("{:.1}", cell.ttr_s),
                ]);
            }
            let _ = writeln!(out, " scenario {}:", scenario.name());
            out.push_str(&table(
                &[
                    "tolerance",
                    "avail",
                    "attain",
                    "cap retained",
                    "p99 infl",
                    "overhead",
                    "ejections",
                    "TTR s",
                ],
                &trows,
            ));
        }
    }

    out.push_str(
        "\n(availability = requests eventually completed / offered; overhead = retry + hedge\n\
         dispatches / offered; TTR = first per-slice attainment breach below 90% to the first\n\
         slice back above it at the reference load; every number is a pure function of --seed)\n",
    );
    write_result("chaos.csv", &csv)?;

    // Traced showcase: one short all-faults run with the full stack so
    // fault:down/up, slow-start/end, retry and hedge instants land in the
    // trace under the fleet pid.
    if ctx.tracer.is_enabled() {
        let (_, het) = &fleets[1];
        let capacity: f64 = het.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum();
        let rate = 0.8 * capacity;
        let wl = WorkloadSpec { requests: 400, ..workload(REQUESTS, rate, seed + 11) };
        let cfg = FleetConfig {
            admission_control: true,
            faults: Some(FaultSpec::scenario(FaultScenario::All, seed + 7_000, 400.0 / rate)),
            tolerance: tolerances()[2].1,
            ..FleetConfig::basic(het.clone(), Policy::ModelAffinity, wl, slo_s)
        };
        FleetSim::new(cfg)
            .expect("traced chaos config is valid")
            .run_traced(&ctx.tracer, PID_FLEET);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(t_s: f64, offered: u64, within: u64) -> AttainSlice {
        AttainSlice { t_s, offered, within_slo: within }
    }

    #[test]
    fn recovery_time_spans_breach_to_first_healthy_slice() {
        let s = vec![
            slice(0.0, 10, 10),
            slice(1.0, 10, 5),  // breach
            slice(2.0, 10, 6),  // still degraded
            slice(3.0, 10, 10), // recovered
            slice(4.0, 10, 0),  // later outage is not re-counted
        ];
        assert!((time_to_recover(&s, 5.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_time_handles_the_edge_cases() {
        let healthy = vec![slice(0.0, 10, 10), slice(1.0, 0, 0), slice(2.0, 10, 10)];
        assert_eq!(time_to_recover(&healthy, 3.0), 0.0, "empty slices count as healthy");
        let never = vec![slice(0.0, 10, 10), slice(1.0, 10, 0), slice(2.0, 10, 1)];
        assert!((time_to_recover(&never, 3.0) - 2.0).abs() < 1e-12, "unrecovered runs to horizon");
        assert_eq!(time_to_recover(&[], 3.0), 0.0);
    }
}
