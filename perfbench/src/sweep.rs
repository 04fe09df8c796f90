//! The sweep workloads: the paper's design-space grid (Paper II grid plus
//! every Paper I plan) driven through `lv_bench::plan`, in three phases:
//!
//! * [`Sweep::Cycle`] — cold, cycle tier, at [`CYCLE_SCALE`];
//! * [`Sweep::Fast`] — cold, fast tier, full scale (cell-cache writes);
//! * [`Sweep::Warm`] — warm, cycle tier, full scale, served from a copy
//!   of the committed cell cache (cell-cache reads).
//!
//! `sweep-cycle` runs the first phase, `sweep-fast` the other two.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use lv_bench::plan::{self, Cell, ExecOptions, Executor, SweepOutcome, SweepPlan};
use lv_bench::trace::TraceCtx;
use lv_models::BackendKind;
use lv_sim::{Machine, Stats, VpuStyle, MIB};

use crate::common::{
    log_passes, median, quantile, throughput, time, timed_passes, Env, Outcome, Spans, Tally,
    SETUP_SAMPLES,
};
use crate::refs::{Match, PlanRef, Row, SweepRef};

/// Spatial scale of the cold cycle-tier sweep.
pub const CYCLE_SCALE: f64 = 0.12;
/// The committed cell cache the warm sweep copies.
pub const COMMITTED_CACHE: &str = "results/cache/cells.jsonl";
/// Traced passes of the millisecond-scale sweeps repeat for this long.
const TRACED_SECONDS: f64 = 1.0;

/// One sweep phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Cold cycle-tier sweep at [`CYCLE_SCALE`].
    Cycle,
    /// Cold fast-tier sweep at full scale.
    Fast,
    /// Warm cycle-tier sweep at full scale from the committed cache.
    Warm,
}

impl Sweep {
    /// Phase name, used in logs, scratch dirs and reference file names.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Cycle => "sweep-cycle",
            Sweep::Fast => "sweep-fast",
            Sweep::Warm => "sweep-warm",
        }
    }

    /// Spatial scale of the Table-1 layers.
    pub fn scale(self) -> f64 {
        match self {
            Sweep::Cycle => CYCLE_SCALE,
            Sweep::Fast | Sweep::Warm => 1.0,
        }
    }

    /// How rows are checked against the reference.
    pub fn matching(self) -> Match {
        match self {
            Sweep::Cycle => Match::Envelope,
            Sweep::Fast | Sweep::Warm => Match::Exact,
        }
    }

    fn tier(self) -> BackendKind {
        match self {
            Sweep::Fast => BackendKind::Fast,
            Sweep::Cycle | Sweep::Warm => BackendKind::Cycle,
        }
    }

    /// Reference file, relative to the checkout root.
    pub fn ref_path(self) -> String {
        format!("perfbench/refs/{}.txt", self.name())
    }
}

/// The swept plans: the full Paper II grid plus every Paper I plan.
pub fn plans(scale: f64) -> Vec<SweepPlan> {
    let mut v = vec![plan::paper2_plan(scale)];
    v.extend(plan::p1_plans(scale));
    v
}

fn label(
    model: &str,
    layer: usize,
    vpu: VpuStyle,
    lanes: usize,
    vlen: usize,
    l2: usize,
    algo: lv_conv::Algo,
) -> String {
    format!("{model}:{layer}:{vpu:?}:{lanes}:{vlen}:{l2}:{}", algo.name())
}

fn cell_label(c: &Cell) -> String {
    label(
        &c.model,
        c.layer,
        c.cfg.vpu,
        c.cfg.lanes,
        c.cfg.vlen_bits,
        c.cfg.l2.size_bytes / MIB,
        c.algo,
    )
}

/// A plan outcome's rows, reduced to what the checks compare.
pub fn rows_of(out: &SweepOutcome) -> Vec<Row> {
    out.rows
        .iter()
        .map(|r| Row {
            label: label(&r.model, r.layer, r.vpu, r.lanes, r.vlen_bits, r.l2_mib, r.algo),
            cycles: r.cycles,
            avg_vl: r.avg_vl,
            l2_miss: r.l2_miss_rate,
        })
        .collect()
}

/// Executor options for `sweep` with its cache in `dir`.
fn options(sweep: Sweep, dir: &Path, threads: usize) -> ExecOptions {
    ExecOptions {
        jobs: Some(threads),
        cache_dir: Some(dir.to_path_buf()),
        backend: (sweep == Sweep::Fast).then_some(BackendKind::Fast),
        ..ExecOptions::default()
    }
}

/// A private cache directory `<scratch>/<name>/cache`. Its parent is
/// private too: `Executor::new` scans the cache dir's parent for legacy
/// grid CSVs whenever the cache file is missing.
fn private_cache(env: &Env, name: &str) -> Result<PathBuf, String> {
    let dir = env.fresh_dir(name)?.join("cache");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Copy the committed cell cache into `dir` (never opened for writing).
fn copy_committed(env: &Env, dir: &Path) -> Result<(), String> {
    let src = env.input(COMMITTED_CACHE);
    std::fs::copy(&src, dir.join("cells.jsonl"))
        .map(|_| ())
        .map_err(|e| format!("copy {}: {e}", src.display()))
}

/// Set up one pass: build and expand the plans, prepare the private cache
/// (a copy of the committed one for the warm sweep) and, for the cold
/// sweeps, construct the executor. The warm sweep's `Executor::new` is
/// its JSONL load and belongs to the timed work.
fn setup(
    env: &Env,
    sweep: Sweep,
    dir: &Path,
) -> Result<(Vec<SweepPlan>, Option<Executor>), String> {
    let plans = plans(sweep.scale());
    for p in &plans {
        black_box(p.expand());
    }
    if sweep == Sweep::Warm {
        copy_committed(env, dir)?;
        return Ok((plans, None));
    }
    Ok((plans, Some(Executor::new(options(sweep, dir, env.threads)))))
}

/// [`setup`] and its seconds.
fn timed_setup(
    env: &Env,
    sweep: Sweep,
    dir: &Path,
) -> Result<(Vec<SweepPlan>, Option<Executor>, f64), String> {
    let (prepared, seconds) = time(|| setup(env, sweep, dir));
    prepared.map(|(plans, exec)| (plans, exec, seconds))
}

/// One timed pass: cells simulated (cold) or rows served (warm), wall
/// and set-up seconds.
struct Pass {
    work: usize,
    wall_s: f64,
    setup_s: f64,
}

/// Run every plan of one pass; a plan error or panic leaves it out.
fn run_plans(
    exec: &Executor,
    plans: &[SweepPlan],
    skip: &HashSet<String>,
) -> Vec<Option<SweepOutcome>> {
    let ctx = TraceCtx::disabled();
    plans
        .iter()
        .map(|p| {
            if skip.contains(p.id()) {
                return None;
            }
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(p, &ctx)));
            match r {
                Ok(Ok(out)) => Some(out),
                Ok(Err(e)) => {
                    eprintln!("[{}] plan failed: {e}", p.id());
                    None
                }
                Err(_) => None,
            }
        })
        .collect()
}

/// Check a pass's outcomes against the reference; the warm sweep must
/// additionally simulate nothing.
fn check_pass(
    sweep: Sweep,
    refs: &SweepRef,
    plans: &[SweepPlan],
    outs: &[Option<SweepOutcome>],
) -> Tally {
    let mut tally = Tally::default();
    for (p, out) in plans.iter().zip(outs) {
        let Some(want) = refs.plan(p.id()) else {
            eprintln!("[{}] {}: no reference for this plan", sweep.name(), p.id());
            tally.add(Tally { attempted: 1, failed: 1 });
            continue;
        };
        let all = Tally { attempted: want.rows as u64, failed: want.rows as u64 };
        let Some(out) = out else {
            tally.add(all);
            continue;
        };
        if sweep == Sweep::Warm && out.report.simulated != 0 {
            eprintln!(
                "[{}] {}: warm pass simulated {} cells",
                sweep.name(),
                p.id(),
                out.report.simulated
            );
            tally.add(all);
            continue;
        }
        let (t, why) = want.check(&rows_of(out), sweep.matching());
        if let Some(why) = why {
            eprintln!(
                "[{}] {}: {} of {} rows fail: {why}",
                sweep.name(),
                p.id(),
                t.failed,
                t.attempted
            );
        }
        tally.add(t);
    }
    tally
}

/// Plans of the warm sweep that the committed cache does not fully
/// cover. They are never run: an uncovered cell would start a full-scale
/// cycle simulation instead of a cache read, so it counts as failed.
fn uncovered(env: &Env) -> Result<HashSet<String>, String> {
    let dir = private_cache(env, "coverage")?;
    copy_committed(env, &dir)?;
    let exec = Executor::new(options(Sweep::Warm, &dir, env.threads));
    let mut skip = HashSet::new();
    for p in plans(Sweep::Warm.scale()) {
        let (cached, unique) = exec.coverage(&p);
        if cached != unique {
            eprintln!("[sweep-warm] {}: committed cache covers {cached} of {unique} cells", p.id());
            skip.insert(p.id().to_string());
        }
    }
    Ok(skip)
}

/// The phases of one pass of the `sweep-cycle` workload.
pub const CYCLE_PHASES: [Sweep; 1] = [Sweep::Cycle];
/// The phases of one pass of the `sweep-fast` workload: cold fast-tier
/// writes, then warm reads of the committed cache.
pub const FAST_PHASES: [Sweep; 2] = [Sweep::Fast, Sweep::Warm];

/// Run one sweep workload made of `phases`: timed passes, then (with
/// `traced`) the traced run that yields the per-layer metrics. A pass's
/// work is the cells its cold phases simulate plus the rows its warm
/// phase serves; its wall and set-up times are summed over the phases.
pub fn run(env: &Env, name: &str, phases: &[Sweep], traced: bool) -> Result<Outcome, String> {
    let refs: Vec<SweepRef> = phases
        .iter()
        .map(|s| SweepRef::load(&env.input(&s.ref_path())))
        .collect::<Result<_, _>>()?;
    // Plans the warm phase leaves out; no other phase skips any.
    let skip = if phases.contains(&Sweep::Warm) { uncovered(env)? } else { HashSet::new() };
    let none = HashSet::new();
    let skipped = |phase: Sweep| if phase == Sweep::Warm { &skip } else { &none };
    let mut out = Outcome::default();
    let min_passes = if phases.contains(&Sweep::Cycle) { 2 } else { 3 };
    let mut last_rows: Vec<Row> = Vec::new();
    let (passes, rss) = timed_passes(env.seconds, min_passes, |_| {
        let mut pass = Pass { work: 0, wall_s: 0.0, setup_s: 0.0 };
        for (&phase, refs) in phases.iter().zip(&refs) {
            let dir = private_cache(env, phase.name())?;
            let (plans, exec, setup_s) = timed_setup(env, phase, &dir)?;
            let (outs, wall_s) = time(|| {
                let exec = exec.unwrap_or_else(|| Executor::new(options(phase, &dir, env.threads)));
                run_plans(&exec, &plans, skipped(phase))
            });
            out.tally.add(check_pass(phase, refs, &plans, &outs));
            pass.work += outs
                .iter()
                .flatten()
                .map(|o| if phase == Sweep::Warm { o.report.total } else { o.report.simulated })
                .sum::<usize>();
            pass.wall_s += wall_s;
            pass.setup_s += setup_s;
            if phase == Sweep::Cycle {
                last_rows = outs.iter().flatten().flat_map(rows_of).collect();
            }
        }
        Ok(pass)
    })?;
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        let mut s = 0.0;
        for &phase in phases {
            s += timed_setup(env, phase, &private_cache(env, phase.name())?)?.2;
        }
        setups.push(s);
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.work as f64 / p.wall_s).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    log_passes(name, &rates, &walls);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("throughput_per_s", throughput(&rates));
    out.layers.insert("peak_rss_mb".into(), rss);
    if traced {
        if phases.contains(&Sweep::Cycle) {
            traced_cycle(env, &last_rows, median(&walls), &mut out)?;
        } else {
            traced_cached(env, name, &refs, &skip, median(&walls), &mut out)?;
        }
    }
    Ok(out)
}

/// Unique applicable cells of `plans` in plan order, deduplicated by
/// content address across plans exactly as the executor's cache does.
fn unique_cells(plans: &[SweepPlan], tier: BackendKind) -> Vec<(u64, Cell)> {
    let salt = plan::default_salt();
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for p in plans {
        for c in p.expand() {
            if c.applicable() {
                let k = c.key_tiered(&salt, tier);
                if seen.insert(k) {
                    cells.push((k, c));
                }
            }
        }
    }
    cells
}

/// Wall-clock marks (µs) of one traced cell: start, datagen end, prepare
/// end, machine-new start and end, run end, cell end.
#[derive(Clone, Copy)]
struct CellMarks {
    idx: usize,
    t: [f64; 7],
    stats: Stats,
}

/// Short algorithm name used in metric names (`direct`, `gemm3`, ...).
fn algo_key(a: lv_conv::Algo) -> String {
    format!("{a:?}").to_lowercase()
}

/// Traced cold cycle sweep: every unique cell driven through the calls
/// `lv_models::measure_layer` composes, on the timed run's thread count.
/// Workers only record timestamps into pre-sized logs, so a cell's heap
/// layout (which the cache model sees through host addresses) is not
/// disturbed by the tracer; spans are emitted from the logs afterwards.
/// Results are checked against the executor's rows.
fn traced_cycle(
    env: &Env,
    executor_rows: &[Row],
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = Spans::new(Sweep::Cycle.name());
    let cells = unique_cells(&plans(CYCLE_SCALE), BackendKind::Cycle);
    let next = AtomicUsize::new(0);
    let logs: Vec<Vec<CellMarks>> =
        (0..env.threads).map(|_| Vec::with_capacity(cells.len())).collect();
    let t0 = spans.now_us();
    let logs: Vec<Vec<CellMarks>> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .into_iter()
            .map(|mut log| {
                let (spans, cells, next) = (&spans, &cells, &next);
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, c)) = cells.get(idx) else { return log };
                    let (t, stats) = measure_marked(spans, c);
                    log.push(CellMarks { idx, t, stats });
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
    });
    let wall_s = (spans.now_us() - t0) * 1e-6;
    for (w, log) in logs.iter().enumerate() {
        let tid = w as u64 + 1;
        for m in log {
            let (key, c) = &cells[m.idx];
            let cell = spans.tracer.begin_args(
                lv_trace::TrackId::new(0, tid),
                "lv-bench.plan.cell",
                m.t[0],
                vec![
                    ("key".into(), format!("{key:016x}").into()),
                    ("cell".into(), cell_label(c).into()),
                ],
            );
            spans.record(tid, "lv-tensor.datagen", m.t[0], m.t[1], Vec::new());
            spans.record(tid, "lv-conv.prepare", m.t[1], m.t[2], Vec::new());
            spans.record(tid, "lv-sim.machine_new", m.t[3], m.t[4], Vec::new());
            let st = &m.stats;
            let vpu = match c.cfg.vpu {
                VpuStyle::Integrated => "integrated",
                VpuStyle::Decoupled => "decoupled",
            };
            let args = vec![
                ("cycles".into(), st.cycles.into()),
                ("instrs".into(), (st.vector_instrs + st.scalar_ops + st.vsetvls).into()),
                ("cache_accesses".into(), (st.l1_accesses + st.l2_accesses).into()),
                ("vpu".into(), vpu.into()),
            ];
            spans.record(tid, &format!("lv-conv.run.{}", algo_key(c.algo)), m.t[4], m.t[5], args);
            spans.tracer.end(cell, m.t[6]);
        }
    }
    spans.write(&env.root, Sweep::Cycle.name())?;

    // Check the traced measurements against the executor's rows, with the
    // reference envelopes: per cell, and on the total cycles.
    let by_label: HashMap<&str, &Row> =
        executor_rows.iter().map(|r| (r.label.as_str(), r)).collect();
    let mut tally = Tally { attempted: cells.len() as u64, failed: 0 };
    let (mut measured, mut got_total, mut want_total) = (0, 0u64, 0u64);
    for m in logs.iter().flatten() {
        measured += 1;
        let (_, c) = &cells[m.idx];
        let st = &m.stats;
        let got = Row {
            label: cell_label(c),
            cycles: st.cycles,
            avg_vl: st.avg_vl(),
            l2_miss: st.l2_miss_rate(),
        };
        let want = by_label.get(got.label.as_str());
        got_total += got.cycles;
        want_total += want.map_or(0, |w| w.cycles);
        let ok = want.is_some_and(|want| {
            got.avg_vl == want.avg_vl
                && crate::refs::within_envelope(&got, want.cycles, want.l2_miss)
        });
        if !ok {
            tally.failed += 1;
            eprintln!("[sweep-cycle] traced {got:?} disagrees with the executor's {want:?}");
        }
    }
    tally.failed += (cells.len() - measured) as u64;
    if !crate::refs::within_sum_envelope(got_total, want_total) {
        eprintln!("[sweep-cycle] traced total {got_total} cycles vs the executor's {want_total}");
        tally.failed = tally.attempted;
    }
    out.tally.add(tally);

    // Per-layer metrics from the spans.
    let agg = spans.self_seconds();
    let self_s = |n: &str| agg.get(n).copied().unwrap_or(0.0);
    let l = &mut out.layers;
    let mut instrs: HashMap<String, f64> = HashMap::new();
    let mut cycles_by_vpu: HashMap<String, (f64, f64)> = HashMap::new();
    let (mut sim_instrs, mut cache_accesses) = (0.0, 0.0);
    let mut cell_ms = Vec::new();
    for s in spans.tracer.snapshot_spans() {
        if s.name == "lv-bench.plan.cell" {
            cell_ms.push(s.dur_us() * 1e-3);
        }
        let Some(algo) = s.name.strip_prefix("lv-conv.run.") else { continue };
        let num = |k: &str| s.arg(k).and_then(lv_trace::ArgValue::as_f64).unwrap_or(0.0);
        *instrs.entry(algo.to_string()).or_default() += num("instrs");
        sim_instrs += num("instrs");
        cache_accesses += num("cache_accesses");
        let vpu = s.arg("vpu").and_then(lv_trace::ArgValue::as_str).unwrap_or("?").to_string();
        let e = cycles_by_vpu.entry(vpu).or_default();
        e.0 += s.dur_us() * 1e3;
        e.1 += num("cycles");
    }
    for a in lv_conv::ALL_ALGOS {
        let k = algo_key(a);
        let run_s = self_s(&format!("lv-conv.run.{k}"));
        let mi = instrs.get(&k).copied().unwrap_or(0.0);
        l.insert(
            format!("lv-sim.minstr_per_s.{k}"),
            if run_s > 0.0 { mi / run_s / 1e6 } else { 0.0 },
        );
        l.insert(format!("lv-conv.run_s.{k}"), run_s);
    }
    for vpu in ["integrated", "decoupled"] {
        let (ns, cyc) = cycles_by_vpu.get(vpu).copied().unwrap_or_default();
        l.insert(format!("lv-sim.ns_per_cycle.{vpu}"), if cyc > 0.0 { ns / cyc } else { 0.0 });
    }
    l.insert("lv-sim.sim_instrs".into(), sim_instrs);
    l.insert("lv-sim.cache_accesses".into(), cache_accesses);
    l.insert("lv-sim.machine_new_s".into(), self_s("lv-sim.machine_new"));
    l.insert("lv-tensor.datagen_s".into(), self_s("lv-tensor.datagen"));
    l.insert("lv-conv.prepare_s".into(), self_s("lv-conv.prepare"));
    l.insert("lv-bench.plan.cell_ms.p50".into(), quantile(&cell_ms, 0.5));
    l.insert("lv-bench.plan.cell_ms.p99".into(), quantile(&cell_ms, 0.99));
    l.insert("lv-bench.plan.cell_ms.samples".into(), cell_ms.len() as f64);
    let busy_s = cell_ms.iter().sum::<f64>() * 1e-3;
    l.insert("lv-bench.plan.parallel_efficiency".into(), busy_s / (env.threads as f64 * wall_s));
    l.insert("trace.overhead".into(), wall_s / untraced_wall - 1.0);
    Ok(())
}

/// `lv_models::measure_layer`'s calls, with a timestamp between each.
fn measure_marked(spans: &Spans, c: &Cell) -> ([f64; 7], Stats) {
    let s = &c.shape;
    let mut t = [0.0; 7];
    t[0] = spans.now_us();
    let stats = {
        let input = lv_tensor::pseudo_buf(s.input_len(), 101);
        let w = lv_tensor::pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 102);
        t[1] = spans.now_us();
        let prepared = lv_conv::prepare_weights(c.algo, s, &w);
        t[2] = spans.now_us();
        let mut outbuf = vec![0.0f32; s.output_len()];
        t[3] = spans.now_us();
        let mut m = Machine::new(c.cfg);
        t[4] = spans.now_us();
        lv_conv::run_conv(&mut m, c.algo, s, &input, &prepared, &mut outbuf);
        t[5] = spans.now_us();
        m.stats()
    };
    t[6] = spans.now_us();
    (t, stats)
}

/// Traced `sweep-fast` passes (cold fast phase, then warm phase),
/// repeated for [`TRACED_SECONDS`]: the executor's work is split into
/// sibling spans of the public calls it composes (plan expansion, content
/// keying, the fast tier's workload and evaluate) next to the
/// `Executor::new` and `Executor::run` spans. Per-layer times are per
/// pass; the fast tier's error compares the two phases' rows.
fn traced_cached(
    env: &Env,
    name: &str,
    refs: &[SweepRef],
    skip: &HashSet<String>,
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = Spans::new(name);
    let salt = plan::default_salt();
    let none = HashSet::new();
    let mut walls = Vec::new();
    let mut append_bytes = 0.0;
    let mut cache_lines = 0.0;
    let (mut hit, mut unique, mut keyed) = (0usize, 0usize, 0usize);
    let (mut fast_rows, mut cycle_rows) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < TRACED_SECONDS {
        let mut wall = 0.0;
        keyed = 0;
        for (&sweep, refs) in FAST_PHASES.iter().zip(refs) {
            let dir = private_cache(env, sweep.name())?;
            // As in the timed passes: the cold executor is set-up, the warm
            // one's construction is the timed JSONL load.
            let (plans, cold) = setup(env, sweep, &dir)?;
            let t0 = spans.now_us();
            let span = spans.tracer.begin(lv_trace::TrackId::new(0, 0), sweep.name(), t0);
            let exec = match cold {
                Some(exec) => exec,
                None => spans.span(0, "lv-bench.plan.cache_load", Vec::new(), || {
                    Executor::new(options(sweep, &dir, env.threads))
                }),
            };
            let skip = if sweep == Sweep::Warm { skip } else { &none };
            let mut outs = Vec::new();
            for p in &plans {
                let args = || vec![("plan".into(), p.id().into())];
                let cells = spans.span(0, "lv-bench.plan.expand", args(), || p.expand());
                let cells: Vec<Cell> = cells.into_iter().filter(Cell::applicable).collect();
                let keys = spans.span(0, "lv-bench.plan.key", args(), || {
                    cells.iter().map(|c| c.key_tiered(&salt, sweep.tier())).collect::<Vec<u64>>()
                });
                keyed += keys.len();
                if sweep == Sweep::Fast {
                    let mut seen = HashSet::new();
                    let fresh: Vec<&Cell> = cells
                        .iter()
                        .zip(&keys)
                        .filter(|(_, k)| seen.insert(**k))
                        .map(|(c, _)| c)
                        .collect();
                    let ws = spans.span(0, "lv-conv.model.workload", args(), || {
                        fresh
                            .iter()
                            .map(|c| lv_conv::model::workload(c.algo, &c.shape, &c.cfg))
                            .collect::<Vec<_>>()
                    });
                    spans.span(0, "lv-sim.fastmodel.evaluate", args(), || {
                        for (c, w) in fresh.iter().zip(&ws) {
                            if let Some(w) = w {
                                let scale = lv_models::calib::stored_for(c.algo, c.cfg.vpu).scale;
                                black_box(lv_sim::fastmodel::evaluate(&c.cfg, w, scale));
                            }
                        }
                    });
                }
                let run_span = if sweep == Sweep::Fast {
                    "lv-bench.plan.run_cold"
                } else {
                    "lv-bench.plan.run_warm"
                };
                let r = spans
                    .span(0, run_span, args(), || run_plans(&exec, std::slice::from_ref(p), skip));
                outs.extend(r);
            }
            spans.tracer.end(span, spans.now_us());
            wall += (spans.now_us() - t0) * 1e-6;
            out.tally.add(check_pass(sweep, refs, &plans, &outs));
            let rows: Vec<Row> = outs.iter().flatten().flat_map(rows_of).collect();
            let file = dir.join("cells.jsonl");
            if sweep == Sweep::Fast {
                append_bytes = std::fs::metadata(&file).map_or(0, |m| m.len()) as f64;
                fast_rows = rows;
            } else {
                cache_lines =
                    std::fs::read_to_string(&file).map_or(0, |t| t.lines().count()) as f64;
                for o in outs.iter().flatten() {
                    hit += o.report.hit;
                    unique += o.report.unique;
                }
                cycle_rows = rows;
            }
        }
        walls.push(wall);
    }
    spans.write(&env.root, name)?;
    let passes = walls.len() as f64;
    let agg = spans.self_seconds();
    let per_pass = |n: &str| agg.get(n).copied().unwrap_or(0.0) / passes;
    let l = &mut out.layers;
    l.insert("lv-bench.plan.expand_s".into(), per_pass("lv-bench.plan.expand"));
    l.insert(
        "lv-bench.plan.key_ns".into(),
        per_pass("lv-bench.plan.key") * 1e9 / keyed.max(1) as f64,
    );
    l.insert("lv-conv.model.workload_s".into(), per_pass("lv-conv.model.workload"));
    l.insert("lv-sim.fastmodel.evaluate_s".into(), per_pass("lv-sim.fastmodel.evaluate"));
    l.insert("lv-bench.plan.run_cold_s".into(), per_pass("lv-bench.plan.run_cold"));
    l.insert("lv-bench.plan.append_bytes".into(), append_bytes);
    l.insert("lv-bench.plan.cache_load_s".into(), per_pass("lv-bench.plan.cache_load"));
    l.insert("lv-bench.plan.run_warm_s".into(), per_pass("lv-bench.plan.run_warm"));
    l.insert("lv-bench.plan.cache_lines".into(), cache_lines);
    let hit_ratio = if unique > 0 { hit as f64 / unique as f64 } else { 0.0 };
    l.insert("lv-bench.plan.hit_ratio".into(), hit_ratio);
    let (mean, max) = fast_error(&fast_rows, &cycle_rows);
    l.insert("lv-models.fast_err.mean".into(), mean);
    l.insert("lv-models.fast_err.max".into(), max);
    l.insert("trace.overhead".into(), median(&walls) / untraced_wall - 1.0);
    Ok(())
}

/// Mean and max of |fast ÷ cycle − 1| over rows present in both tiers.
fn fast_error(fast: &[Row], cycle: &[Row]) -> (f64, f64) {
    let cycle: HashMap<&str, u64> = cycle.iter().map(|r| (r.label.as_str(), r.cycles)).collect();
    let errs: Vec<f64> = fast
        .iter()
        .filter_map(|r| {
            cycle.get(r.label.as_str()).map(|&c| (r.cycles as f64 / c as f64 - 1.0).abs())
        })
        .collect();
    if errs.is_empty() {
        return (0.0, 0.0);
    }
    (errs.iter().sum::<f64>() / errs.len() as f64, errs.iter().copied().fold(0.0, f64::max))
}

/// The reference of one sweep, computed from one pass (the cycle tier's
/// values are one sample inside the allocator-noise envelope).
pub fn reference(env: &Env, sweep: Sweep) -> Result<SweepRef, String> {
    let dir = private_cache(env, "refs")?;
    if sweep == Sweep::Warm {
        if !uncovered(env)?.is_empty() {
            return Err("the committed cell cache does not cover the warm sweep".into());
        }
        copy_committed(env, &dir)?;
    }
    let exec = Executor::new(options(sweep, &dir, env.threads));
    let plans = plans(sweep.scale());
    let mut r = SweepRef::default();
    for (p, o) in plans.iter().zip(run_plans(&exec, &plans, &HashSet::new())) {
        let o = o.ok_or_else(|| format!("plan {} failed", p.id()))?;
        r.plans.push((p.id().to_string(), PlanRef::of(&rows_of(&o), sweep.matching())));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_env;

    /// One untimed pass of `sweep` (not the cycle tier: too slow for a test).
    fn pass(env: &Env, sweep: Sweep) -> (Vec<SweepPlan>, Vec<Option<SweepOutcome>>) {
        let dir = private_cache(env, "test-pass").unwrap();
        let (plans, exec) = setup(env, sweep, &dir).unwrap();
        let exec = exec.unwrap_or_else(|| Executor::new(options(sweep, &dir, env.threads)));
        let outs = run_plans(&exec, &plans, &HashSet::new());
        (plans, outs)
    }

    #[test]
    fn a_perturbed_reference_fails_the_fast_and_warm_checks() {
        let env = test_env();
        for sweep in [Sweep::Fast, Sweep::Warm] {
            let refs = SweepRef::load(&env.input(&sweep.ref_path())).unwrap();
            let (plans, outs) = pass(&env, sweep);
            let ok = check_pass(sweep, &refs, &plans, &outs);
            assert_eq!((ok.attempted, ok.failed), (refs.total_rows(), 0), "{}", sweep.name());
            let mut bad = refs.clone();
            bad.plans[2].1.values ^= 1;
            let t = check_pass(sweep, &bad, &plans, &outs);
            assert_eq!(t.failed, bad.plans[2].1.rows as u64, "{}", sweep.name());
        }
    }

    #[test]
    fn the_committed_cache_covers_the_warm_sweep() {
        assert!(uncovered(&test_env()).unwrap().is_empty());
    }
}
