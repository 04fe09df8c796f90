//! The fleet discrete-event workloads, driven through `lv_fleet`.
//!
//! * `fleet` — the `fleet` artifact's traffic: four 6-node compositions
//!   × four routing policies × five load fractions plus the autoscale
//!   ablation; admission control on, faults and tolerance off.
//! * `chaos` — the `chaos` artifact's shape scaled to 48-node fleets with
//!   long traces: scenario `all`, three tolerance stacks × three loads.
//!
//! Chip menus come from fast-tier sweep plans at set-up, as the artifacts
//! derive them. Pass 0 always runs the reference seed, whose per-run
//! report digests (and, for `fleet`, the committed `results/fleet.csv`)
//! are checked; later passes run the artifact's seeds based at `--seed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use lv_bench::plan::{ExecOptions, Executor, Model, SweepPlan};
use lv_bench::trace::TraceCtx;
use lv_fleet::{
    AutoscalePolicy, Bursts, ChipSpec, DegradePolicy, Diurnal, FaultScenario, FaultSpec,
    FaultTolerance, FleetConfig, FleetReport, FleetSim, HedgePolicy, Policy, WorkloadSpec,
    ALL_POLICIES,
};
use lv_models::BackendKind;
use lv_sim::fnv1a;

use crate::common::{
    log_passes, median, throughput, time, timed_passes, Env, Outcome, Spans, Tally, SETUP_SAMPLES,
};
use crate::refs::DigestRef;

/// The artifacts' default seed; pass 0 of every run replays it.
pub const REF_SEED: u64 = 42;
/// The committed `fleet` artifact output the reference pass reproduces.
pub const COMMITTED_FLEET_CSV: &str = "results/fleet.csv";
/// Simulated clock of the grid measurements (2 GHz).
const CLOCK_HZ: f64 = 2e9;
/// Request classes (class id = index) and their offered mix.
const CLASSES: [&str; 2] = ["vgg16", "yolov3-20"];
const WEIGHTS: [f64; 2] = [0.6, 0.4];
/// The artifacts' chip menu: (name, vlen bits, shared L2 MiB, replicas,
/// per-replica L2 partition MiB — the share snapped down to the Paper II
/// L2 sweep {1, 4, 16, 64}).
const MENU: [(&str, usize, usize, usize, usize); 3] =
    [("small", 1024, 2, 2, 1), ("knee", 2048, 2, 2, 1), ("big", 4096, 32, 2, 16)];

/// One of the two DES workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Des {
    /// The `fleet` artifact's sweep.
    Fleet,
    /// The 48-node all-faults chaos sweep.
    Chaos,
}

impl Des {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Des::Fleet => "fleet",
            Des::Chaos => "chaos",
        }
    }

    /// Digest reference file, relative to the checkout root.
    pub fn ref_path(self) -> String {
        format!("perfbench/refs/{}.txt", self.name())
    }

    /// Arrivals per run.
    fn requests(self) -> usize {
        match self {
            Des::Fleet => 6_000,
            Des::Chaos => 30_000,
        }
    }
}

/// One fleet run of a sweep.
pub struct Run {
    /// Unique id within the sweep, e.g. `hom-knee/jsq/0.85`.
    pub id: String,
    /// Per-layer metric suffix: routing policy, `autoscale`, or tolerance stack.
    pub kind: &'static str,
    /// The run's configuration.
    pub cfg: FleetConfig,
}

/// Chip menu and SLO, derived once per set-up.
pub struct Menu {
    chips: [ChipSpec; 3],
    slo_s: f64,
    mean_svc_knee: f64,
}

/// Optimal-policy conv-stack seconds per class from a one-config plan's
/// rows `(model, layer, cycles)`: the fastest algorithm per layer, summed.
fn stack_seconds(rows: &[(String, usize, u64)], model: &str) -> f64 {
    let mut best: BTreeMap<usize, u64> = BTreeMap::new();
    for (m, layer, cycles) in rows {
        if m == model {
            let e = best.entry(*layer).or_insert(u64::MAX);
            *e = (*e).min(*cycles);
        }
    }
    best.values().sum::<u64>() as f64 / CLOCK_HZ
}

/// Derive the chip menu through the fast tier into a private cache, as
/// the artifacts do; `chaos` also measures the half-resolution degraded
/// service tables.
pub fn menu(des: Des, cache_dir: &Path, threads: usize) -> Result<Menu, String> {
    let exec = Executor::new(ExecOptions {
        jobs: Some(threads),
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ExecOptions::default()
    });
    let ctx = TraceCtx::disabled();
    let stacks = |name: &str, vlen: usize, part: usize, scale: f64, tag: &str| {
        let plan = SweepPlan::new(&format!("{}-{name}{tag}", des.name()))
            .layers(Model::Vgg16)
            .layers(Model::Yolo20)
            .scale(scale)
            .vlens(&[vlen])
            .l2s(&[part])
            .algos(&lv_conv::ALL_ALGOS)
            .backend(BackendKind::Fast);
        let out = exec.run(&plan, &ctx).map_err(|e| e.to_string())?;
        let rows: Vec<(String, usize, u64)> =
            out.rows.iter().map(|r| (r.model.clone(), r.layer, r.cycles)).collect();
        Ok::<Vec<f64>, String>(CLASSES.iter().map(|m| stack_seconds(&rows, m)).collect())
    };
    let mut chips = Vec::new();
    for (name, vlen, l2, replicas, part) in MENU {
        let service_s = stacks(name, vlen, part, 1.0, "")?;
        let degraded_service_s = match des {
            Des::Fleet => None,
            Des::Chaos => {
                let half = stacks(name, vlen, part, 0.5, "-half")?;
                Some(half.iter().zip(&service_s).map(|(h, s)| h.min(*s)).collect())
            }
        };
        chips.push(ChipSpec {
            name: name.into(),
            vlen_bits: vlen,
            l2_mib: l2,
            replicas,
            service_s,
            degraded_service_s,
        });
    }
    let chips: [ChipSpec; 3] = chips.try_into().map_err(|_| "menu has three chips")?;
    let mean_svc = |c: &ChipSpec| {
        c.service_s.iter().zip(WEIGHTS).map(|(s, w)| s * w).sum::<f64>()
            / WEIGHTS.iter().sum::<f64>()
    };
    let mean_svc_knee = mean_svc(&chips[1]);
    Ok(Menu { slo_s: 8.0 * mean_svc_knee, mean_svc_knee, chips })
}

/// The artifacts' arrival trace: Poisson at `rate`, diurnal + bursts.
fn workload(requests: usize, rate: f64, seed: u64) -> WorkloadSpec {
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

fn capacity(chips: &[ChipSpec]) -> f64 {
    chips.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum()
}

/// Fleet-artifact load fractions.
const FLEET_FRACS: [f64; 5] = [0.5, 0.7, 0.85, 1.0, 1.2];
/// Chaos-artifact load fractions.
const CHAOS_FRACS: [f64; 3] = [0.4, 0.6, 0.8];

/// Every run of one sweep at `seed`, in the artifact's order.
pub fn sweep(des: Des, menu: &Menu, seed: u64) -> Vec<Run> {
    let [small, knee, big] = &menu.chips;
    let n = des.requests();
    let mut runs = Vec::new();
    match des {
        Des::Fleet => {
            let het = vec![
                small.clone(),
                small.clone(),
                knee.clone(),
                knee.clone(),
                big.clone(),
                big.clone(),
            ];
            let comps = [
                ("hom-small", vec![small.clone(); 6]),
                ("hom-knee", vec![knee.clone(); 6]),
                ("hom-big", vec![big.clone(); 6]),
                ("het-2+2+2", het.clone()),
            ];
            let basic = |chips: &Vec<ChipSpec>, policy, wl| FleetConfig {
                admission_control: true,
                ..FleetConfig::basic(chips.clone(), policy, wl, menu.slo_s)
            };
            for (ci, (comp, chips)) in comps.iter().enumerate() {
                let cap = capacity(chips);
                for policy in ALL_POLICIES {
                    for (fi, frac) in FLEET_FRACS.iter().enumerate() {
                        let wl =
                            workload(n, frac * cap, seed + (ci * FLEET_FRACS.len() + fi) as u64);
                        runs.push(Run {
                            id: format!("{comp}/{}/{frac:.2}", policy.name()),
                            kind: policy.name(),
                            cfg: basic(chips, policy, wl),
                        });
                    }
                }
            }
            let overload = workload(n, 1.2 * capacity(&het), seed + 1000);
            let fixed = basic(&het, Policy::ModelAffinity, overload);
            let scaler = AutoscalePolicy {
                breach_depth: 16,
                sustain_s: 20.0 * menu.mean_svc_knee,
                max_replicas: 4,
                cooldown_s: 40.0 * menu.mean_svc_knee,
                scale_down: None,
            };
            let scaled = FleetConfig { autoscale: Some(scaler), ..fixed.clone() };
            runs.push(Run {
                id: "het-2+2+2/affinity/1.20/fixed".into(),
                kind: "affinity",
                cfg: fixed,
            });
            runs.push(Run {
                id: "het-2+2+2/affinity/1.20/autoscale".into(),
                kind: "autoscale",
                cfg: scaled,
            });
        }
        Des::Chaos => {
            let mut het = vec![small.clone(); 16];
            het.extend(vec![knee.clone(); 16]);
            het.extend(vec![big.clone(); 16]);
            let fleets = [("hom-knee-48", vec![knee.clone(); 48]), ("het-16+16+16", het)];
            let stacks = [
                ("oblivious", FaultTolerance::none()),
                ("health-retry", FaultTolerance::recovering()),
                (
                    "full",
                    FaultTolerance {
                        hedge: Some(HedgePolicy::basic()),
                        degrade: Some(DegradePolicy::basic()),
                        ..FaultTolerance::recovering()
                    },
                ),
            ];
            for (fleet, chips) in &fleets {
                let cap = capacity(chips);
                for (stack, tol) in stacks {
                    for (fi, frac) in CHAOS_FRACS.iter().enumerate() {
                        let rate = frac * cap;
                        let horizon = n as f64 / rate;
                        runs.push(Run {
                            id: format!("{fleet}/{stack}/{frac:.2}"),
                            kind: stack,
                            cfg: FleetConfig {
                                admission_control: true,
                                faults: Some(FaultSpec::scenario(
                                    FaultScenario::All,
                                    seed + 7_000,
                                    horizon,
                                )),
                                tolerance: tol,
                                ..FleetConfig::basic(
                                    chips.clone(),
                                    Policy::ModelAffinity,
                                    workload(n, rate, seed + fi as u64),
                                    menu.slo_s,
                                )
                            },
                        });
                    }
                }
            }
        }
    }
    runs
}

/// A stable digest of everything a fleet run reports.
pub fn digest(r: &FleetReport) -> u64 {
    let mut s = String::new();
    let (l, d, x) = (&r.latency, &r.drops, &r.resilience);
    let _ = write!(
        s,
        "{}|{}|{}|{:?}|{:?}|{:?},{:?},{:?},{:?},{:?},{}|{:?}|{:?}|{:?}|{},{},{},{}|{:?}|{:?}|{:?}|{},{},{},{},{}",
        r.policy,
        r.requests,
        r.completed,
        r.offered_rps,
        r.achieved_rps,
        l.mean_s,
        l.p50_s,
        l.p95_s,
        l.p99_s,
        l.max_s,
        l.count,
        r.slo_s,
        r.slo_attainment,
        r.availability,
        d.queue_full,
        d.deadline,
        d.admission,
        d.failed,
        r.drop_rate,
        r.area_mm2,
        r.rps_per_mm2,
        x.retries,
        x.hedges,
        x.hedges_wasted,
        x.degraded,
        x.ejections,
    );
    for n in &r.nodes {
        let _ = write!(
            s,
            "|{}:{}:{:?}:{:?}:{}:{}:{:?}",
            n.name,
            n.completed,
            n.p99_s,
            n.utilization,
            n.peak_replicas,
            n.max_queue_depth,
            n.area_mm2
        );
    }
    for e in &r.scale_events {
        let _ = write!(s, "|{}:{:?}:{}:{}", e.node, e.at_s, e.from, e.to);
    }
    for a in &r.attain_series {
        let _ = write!(s, "|{:?}:{}:{}", a.t_s, a.offered, a.within_slo);
    }
    fnv1a(s.as_bytes())
}

/// The `fleet` artifact's CSV line for one sweep run.
fn fleet_csv_line(run: &Run, r: &FleetReport) -> String {
    let mut parts = run.id.splitn(3, '/');
    let comp = parts.next().unwrap_or("");
    let frac: f64 = run.id.rsplit('/').next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    format!(
        "{comp},{},{frac:.2},{:.3},{:.3},{:.3},{:.4},{:.4},{:.2},{:.4}",
        r.policy,
        r.offered_rps,
        r.achieved_rps,
        r.latency.p99_s * 1e3,
        r.slo_attainment,
        r.drop_rate,
        r.area_mm2,
        r.rps_per_mm2,
    )
}

/// Check one pass: conservation on every run; at the reference seed,
/// every digest (and the committed fleet CSV) as well.
fn check(
    des: Des,
    env: &Env,
    refs: &DigestRef,
    runs: &[Run],
    reports: &[Option<FleetReport>],
    reference: bool,
) -> Tally {
    let csv: Option<Vec<String>> = (reference && des == Des::Fleet).then(|| {
        std::fs::read_to_string(env.input(COMMITTED_FLEET_CSV))
            .map(|t| t.lines().skip(1).map(str::to_string).collect())
            .unwrap_or_default()
    });
    let mut tally = Tally { attempted: runs.len() as u64, failed: 0 };
    for (i, (run, rep)) in runs.iter().zip(reports).enumerate() {
        let why = match rep {
            None => Some("no report".to_string()),
            Some(r) if r.completed as u64 + r.drops.total() != r.requests as u64 => Some(format!(
                "conservation: {} completed + {} dropped != {} offered",
                r.completed,
                r.drops.total(),
                r.requests
            )),
            Some(r) if reference && refs.map.get(&run.id) != Some(&digest(r)) => {
                Some("report digest differs from the reference".into())
            }
            Some(r) => match &csv {
                Some(lines) if run.kind != "autoscale" && !run.id.ends_with("/fixed") => {
                    let want = lines.get(i).map(String::as_str).unwrap_or("");
                    let got = fleet_csv_line(run, r);
                    (got != want).then(|| format!("fleet.csv line {}: {got:?} != {want:?}", i + 2))
                }
                _ => None,
            },
        };
        if let Some(why) = why {
            tally.failed += 1;
            eprintln!("[{}] {}: {why}", des.name(), run.id);
        }
    }
    tally
}

/// Run `run`, catching a panic as a missing report. Returns the report
/// and the seconds spent in `FleetSim::run`.
fn execute(run: &Run) -> (Option<FleetReport>, f64) {
    let sim = match FleetSim::new(run.cfg.clone()) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("{}: invalid config: {e}", run.id);
            return (None, 0.0);
        }
    };
    time(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())).ok())
}

/// Seed of pass `i`: the reference seed first, then `--seed` for every
/// later pass, so a run's passes repeat one traffic and their rates differ
/// only by host noise; seeds vary from run to run.
fn pass_seed(env: &Env, i: usize) -> u64 {
    if i == 0 {
        REF_SEED
    } else {
        env.seed
    }
}

/// Run one DES workload: timed passes, then (with `traced`) one traced
/// pass at the reference seed yielding the per-layer metrics.
pub fn run(env: &Env, des: Des, traced: bool) -> Result<Outcome, String> {
    let refs = DigestRef::load(&env.input(&des.ref_path()))?;
    let mut out = Outcome::default();
    // Set-up of one pass: the chip menu into a fresh private cache, then
    // the pass's configs. Timed once per pass, so the samples spread over
    // the run.
    let set_up = |seed: u64| -> Result<((Menu, Vec<Run>), f64), String> {
        let dir = env.fresh_dir("menu")?.join("cache");
        let (r, s) = time(|| menu(des, &dir, env.threads).map(|m| (sweep(des, &m, seed), m)));
        r.map(|(runs, m)| ((m, runs), s))
    };
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let (rates, rss) = timed_passes(env.seconds, 3, |i| {
        let ((_, runs), setup_s) = set_up(pass_seed(env, i))?;
        setups.push(setup_s);
        let mut reports = Vec::with_capacity(runs.len());
        let (mut busy, mut offered) = (0.0, 0usize);
        let t0 = std::time::Instant::now();
        for run in &runs {
            let (rep, s) = execute(run);
            busy += s;
            offered += run.cfg.workload.requests;
            reports.push(rep);
        }
        walls.push(t0.elapsed().as_secs_f64());
        out.tally.add(check(des, env, &refs, &runs, &reports, i == 0));
        Ok(offered as f64 / busy)
    })?;
    while setups.len() < SETUP_SAMPLES {
        setups.push(set_up(REF_SEED)?.1);
    }
    log_passes(des.name(), &rates, &walls);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("throughput_per_s", throughput(&rates));
    out.layers.insert("peak_rss_mb".into(), rss);
    if traced {
        let ((menu, _), _) = set_up(REF_SEED)?;
        traced_pass(env, des, &menu, &refs, median(&walls), &mut out)?;
    }
    Ok(out)
}

/// One traced pass at the reference seed: per run, spans around
/// `WorkloadSpec::generate`, `FaultSpec::plan` and `FleetSim::run`,
/// tagged with the run id.
fn traced_pass(
    env: &Env,
    des: Des,
    menu: &Menu,
    refs: &DigestRef,
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = Spans::new(des.name());
    let runs = sweep(des, menu, REF_SEED);
    let mut reports = Vec::new();
    let mut events = 0u64;
    let t0 = spans.now_us();
    for run in &runs {
        let args = || vec![("run".into(), run.id.clone().into())];
        spans
            .span(0, "lv-fleet.generate", args(), || {
                std::hint::black_box(run.cfg.workload.generate())
            })
            .map_err(|e| format!("{}: {e}", run.id))?;
        if let Some(f) = &run.cfg.faults {
            let plan = spans.span(0, "lv-fleet.fault_plan", args(), || f.plan(run.cfg.chips.len()));
            events += plan.events.len() as u64;
        }
        let sim = FleetSim::new(run.cfg.clone()).map_err(|e| format!("{}: {e}", run.id))?;
        let rep = spans.span(0, &format!("lv-fleet.run.{}", run.kind), args(), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())).ok()
        });
        reports.push(rep);
    }
    let wall_s = (spans.now_us() - t0) * 1e-6;
    spans.write(&env.root, des.name())?;
    out.tally.add(check(des, env, refs, &runs, &reports, true));

    let agg = spans.self_seconds();
    let self_s = |n: &str| agg.get(n).copied().unwrap_or(0.0);
    let l = &mut out.layers;
    l.insert("lv-fleet.generate_s".into(), self_s("lv-fleet.generate"));
    l.insert("lv-fleet.fault_plan_s".into(), self_s("lv-fleet.fault_plan"));
    let kinds: &[&str] = match des {
        Des::Fleet => &["round-robin", "jsq", "p2c", "affinity", "autoscale"],
        Des::Chaos => &["oblivious", "health-retry", "full"],
    };
    let mut run_s = 0.0;
    for k in kinds {
        let s = self_s(&format!("lv-fleet.run.{k}"));
        run_s += s;
        l.insert(format!("lv-fleet.run_s.{k}"), s);
    }
    let mut c = BTreeMap::<&str, u64>::new();
    for r in reports.iter().flatten() {
        let (res, d) = (&r.resilience, &r.drops);
        events += r.requests as u64
            + r.nodes.iter().map(|n| n.completed as u64).sum::<u64>()
            + res.retries
            + res.hedges;
        for (k, v) in [
            ("retries", res.retries),
            ("hedges", res.hedges),
            ("hedges_wasted", res.hedges_wasted),
            ("ejections", res.ejections),
            ("degraded", res.degraded),
            ("drops.admission", d.admission),
            ("drops.queue_full", d.queue_full),
            ("drops.deadline", d.deadline),
            ("drops.failed", d.failed),
        ] {
            *c.entry(k).or_default() += v;
        }
    }
    for (k, v) in &c {
        l.insert(format!("lv-fleet.{k}"), *v as f64);
    }
    let hedges = c.get("hedges").copied().unwrap_or(0);
    let useful = hedges.saturating_sub(c.get("hedges_wasted").copied().unwrap_or(0));
    l.insert(
        "lv-fleet.hedge_useful_ratio".into(),
        if hedges > 0 { useful as f64 / hedges as f64 } else { 0.0 },
    );
    l.insert("lv-fleet.events".into(), events as f64);
    l.insert(
        "lv-fleet.ns_per_event".into(),
        if events > 0 { run_s * 1e9 / events as f64 } else { 0.0 },
    );
    l.insert("trace.overhead".into(), wall_s / untraced_wall - 1.0);
    Ok(())
}

/// Digests of every run at the reference seed.
pub fn reference(env: &Env, des: Des) -> Result<DigestRef, String> {
    let dir = env.fresh_dir("refs-menu")?.join("cache");
    let menu = menu(des, &dir, env.threads)?;
    let mut r = DigestRef::default();
    for run in sweep(des, &menu, REF_SEED) {
        let rep = execute(&run).0.ok_or_else(|| format!("{} failed", run.id))?;
        r.map.insert(run.id, digest(&rep));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_env;

    #[test]
    fn a_perturbed_reference_fails_the_fleet_check() {
        let env = test_env();
        let refs = DigestRef::load(&env.input(&Des::Fleet.ref_path())).unwrap();
        let menu =
            menu(Des::Fleet, &env.fresh_dir("menu").unwrap().join("cache"), env.threads).unwrap();
        let runs = sweep(Des::Fleet, &menu, REF_SEED);
        let reports: Vec<_> = runs.iter().map(|r| execute(r).0).collect();
        let ok = check(Des::Fleet, &env, &refs, &runs, &reports, true);
        assert_eq!((ok.attempted, ok.failed), (82, 0), "digests and the committed fleet.csv match");

        let mut bad = refs.clone();
        *bad.map.get_mut("hom-knee/jsq/0.85").unwrap() ^= 1;
        assert_eq!(check(Des::Fleet, &env, &bad, &runs, &reports, true).failed, 1);

        // Conservation is checked at every seed, not only the reference one.
        let mut broken = reports.clone();
        broken[3].as_mut().unwrap().completed += 1;
        assert_eq!(check(Des::Fleet, &env, &refs, &runs, &broken, false).failed, 1);
    }
}
