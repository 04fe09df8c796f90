//! # Sweep plans and the content-addressed cell executor
//!
//! Every `repro` artifact is a slice of one factored experiment space —
//! `(layer × vector length × L2 size × lanes × algorithm)` — re-sliced per
//! figure, exactly the access pattern of the paper's own methodology.
//! This module makes that space a first-class API instead of a per-figure
//! hand-rolled loop:
//!
//! * [`SweepPlan`] — a declarative grid builder
//!   (`SweepPlan::new("fig5").layers(Model::Vgg16).vlens(&P2_VLENS)…`)
//!   that expands to typed [`Cell`]s in a deterministic order;
//! * [`Executor`] — runs plans through rayon fan-out, one task per kernel
//!   pass, with a persistent **content-addressed cell cache**: the key is
//!   a stable FNV-1a hash of `MachineConfig` + `ConvShape` + `Algo` plus
//!   a kernel-version salt ([`lv_conv::KERNEL_REV`] /
//!   [`lv_sim::TIMING_REV`]), stored as JSONL under `results/cache/`.
//!   Overlapping artifacts reuse each other's cells (fig3 and fig5 share
//!   the 512-bit/1-MiB VGG column), so regenerating the full figure set
//!   performs each simulation exactly once and a warm second run performs
//!   zero. On the cycle tier, missing cells that differ only in their L2
//!   share one pass, and each is still cached on its own;
//! * deterministic ordered reduction into [`GridRow`]s — row order equals
//!   plan expansion order regardless of worker count — plus `lv-trace`
//!   span and cells-total/hit/simulated counter instrumentation.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lv_conv::{Algo, ALL_ALGOS};
use lv_models::{BackendKind, CellMetrics};
use lv_sim::{MachineConfig, TrackId, VpuStyle, MIB};
use lv_tensor::ConvShape;
use rayon::prelude::*;

use crate::error::BenchError;
use crate::grid::{results_dir, table1_layers, GridRow, P1_L2S, P1_VLENS, P2_L2S, P2_VLENS};
use crate::trace::{TraceCtx, PID_HARNESS};

/// The models whose Table-1 conv stacks the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// VGG-16 (13 conv layers).
    Vgg16,
    /// YOLOv3, first 20 layers (15 conv layers).
    Yolo20,
}

impl Model {
    /// Grid-row model name (paper naming).
    pub fn name(self) -> &'static str {
        match self {
            Model::Vgg16 => "vgg16",
            Model::Yolo20 => "yolov3-20",
        }
    }
}

/// How a plan picks the algorithm(s) per layer.
#[derive(Debug, Clone)]
enum AlgoSpec {
    /// A fixed list, inapplicable (layer, algorithm) pairs skipped.
    List(Vec<Algo>),
    /// The paper's `Winograd*` policy: Winograd where it applies, the
    /// 6-loop GEMM elsewhere (Paper I Figs. 9-10).
    WinogradOrGemm6,
}

impl AlgoSpec {
    fn for_shape(&self, s: &ConvShape) -> Vec<Algo> {
        match self {
            AlgoSpec::List(v) => v.clone(),
            AlgoSpec::WinogradOrGemm6 => {
                vec![if s.winograd_applicable() { Algo::Winograd } else { Algo::Gemm6 }]
            }
        }
    }
}

/// One expanded grid point: the typed unit of work an [`Executor`] runs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display model name including any plan suffix ("vgg16", "yolov3-20/dec/l4").
    pub model: String,
    /// 1-based conv-layer ordinal (paper numbering).
    pub layer: usize,
    /// Layer geometry.
    pub shape: ConvShape,
    /// Hardware design point.
    pub cfg: MachineConfig,
    /// Algorithm.
    pub algo: Algo,
}

impl Cell {
    /// Content address of this cell on one simulation tier: a stable hash
    /// of everything that determines its simulated metrics — the machine
    /// design point, the layer geometry and the algorithm, salted with the
    /// kernel/timing revisions. Deliberately independent of `model`/`layer`
    /// labels, so identically-shaped layers (and identical cells across
    /// figures) share one simulation. Cycle-tier keys are the historical
    /// addresses (existing caches stay warm); fast-tier keys additionally
    /// fold in the tier name and [`lv_sim::FAST_MODEL_REV`], so the two
    /// tiers can never serve each other's cells and a fast-model (or
    /// calibration-table) change invalidates only fast cells.
    ///
    /// The key is [`lv_sim::fnv1a`] of the canonical text
    /// `{stable_key}|shape={ic},{ih},{iw},{oc},{kh},{kw},{stride},{pad}|algo={name}|salt={salt}`,
    /// plus `|backend=fast|f{FAST_MODEL_REV}` on the fast tier, hashed as
    /// it is formatted; the text itself is never built.
    pub fn key_tiered(&self, salt: &str, backend: BackendKind) -> u64 {
        self.key_after(Fnv1a::after_config(&self.cfg), salt, backend)
    }

    /// [`Self::key_tiered`], continued from `h`: the hash state after this
    /// cell's `stable_key()`.
    fn key_after(&self, mut h: Fnv1a, salt: &str, backend: BackendKind) -> u64 {
        let s = &self.shape;
        // Hashing never fails.
        let _ = write!(
            h,
            "|shape={},{},{},{},{},{},{},{}|algo={}|salt={salt}",
            s.ic,
            s.ih,
            s.iw,
            s.oc,
            s.kh,
            s.kw,
            s.stride,
            s.pad,
            self.algo.name(),
        );
        match backend {
            BackendKind::Cycle => {}
            BackendKind::Fast => {
                let _ = write!(h, "|backend=fast|f{}", lv_sim::FAST_MODEL_REV);
            }
        }
        h.0
    }

    /// Whether the algorithm applies to the layer at all.
    pub fn applicable(&self) -> bool {
        self.algo.applicable(&self.shape)
    }
}

/// [`lv_sim::fnv1a`] as a [`fmt::Write`] sink: the hash of every byte
/// written so far, so a key is hashed from its canonical text while the
/// text is formatted, and the text is never stored. FNV-1a folds one byte
/// at a time into this one word, so the state after a shared prefix is an
/// exact starting point for every text that begins with it.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    /// The state after `cfg.stable_key()`, the prefix of every cell key on
    /// that design point.
    fn after_config(cfg: &MachineConfig) -> Self {
        // The FNV-1a offset basis: the hash of no bytes.
        let mut h = Self(0xcbf2_9ce4_8422_2325);
        let _ = h.write_str(&cfg.stable_key());
        h
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The content address of each of `cells` on `backend`, `None` where the
/// algorithm does not apply. The hash state after a design point's
/// `stable_key()` is computed once per distinct config and each cell
/// hashes only the rest of its text; a plan holds a few dozen configs at
/// most, so a linear scan finds them.
fn cell_keys(cells: &[Cell], salt: &str, backend: BackendKind) -> Vec<Option<u64>> {
    let mut prefixes: Vec<(MachineConfig, Fnv1a)> = Vec::new();
    cells
        .iter()
        .map(|c| {
            if !c.applicable() {
                return None;
            }
            let h = match prefixes.iter().find(|(cfg, _)| *cfg == c.cfg) {
                Some(&(_, h)) => h,
                None => {
                    let h = Fnv1a::after_config(&c.cfg);
                    prefixes.push((c.cfg, h));
                    h
                }
            };
            Some(c.key_after(h, salt, backend))
        })
        .collect()
}

/// Default cache salt: the kernel + timing revisions. Bumping either
/// constant invalidates every cached cell.
pub fn default_salt() -> String {
    format!("k{}t{}", lv_conv::KERNEL_REV, lv_sim::TIMING_REV)
}

// ----------------------------------------------------------------- plan

/// A declarative experiment grid: models (or explicit layers) × vector
/// lengths × L2 sizes × lanes × algorithms. `expand` produces [`Cell`]s in
/// a fixed nesting order (layer → vlen → l2 → lane → algo), which is also
/// the row order of the executor's reduction.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    id: String,
    scale: f64,
    models: Vec<Model>,
    extra_layers: Vec<(String, usize, ConvShape)>,
    suffix: String,
    vlens: Vec<usize>,
    l2s: Vec<usize>,
    lanes: Vec<usize>,
    tag_lanes: bool,
    decoupled: bool,
    algos: AlgoSpec,
    backend: BackendKind,
}

impl SweepPlan {
    /// Start a plan named `id` (used for progress lines and trace spans).
    /// Defaults: the 512-bit / 1-MiB integrated baseline, all algorithms,
    /// scale 1.0, no layers — add them with [`Self::layers`].
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_string(),
            scale: 1.0,
            models: Vec::new(),
            extra_layers: Vec::new(),
            suffix: String::new(),
            vlens: vec![512],
            l2s: vec![1],
            lanes: Vec::new(),
            tag_lanes: false,
            decoupled: false,
            algos: AlgoSpec::List(ALL_ALGOS.to_vec()),
            backend: BackendKind::Cycle,
        }
    }

    /// The plan's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Simulation tier this plan runs on by default (figures stay
    /// cycle-accurate; coarse consumers opt into the fast tier). The
    /// `--backend` CLI flag overrides it per invocation.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The plan's default tier.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// Add every Table-1 conv layer of `model` (repeatable).
    pub fn layers(mut self, model: Model) -> Self {
        self.models.push(model);
        self
    }

    /// Add one explicit layer (tests and ad-hoc sweeps).
    pub fn layer(mut self, model: &str, ordinal: usize, shape: ConvShape) -> Self {
        self.extra_layers.push((model.to_string(), ordinal, shape));
        self
    }

    /// Spatially scale the Table-1 layers (1.0 = the paper's dimensions).
    /// Explicit [`Self::layer`] shapes are used as given.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Vector-length sweep (bits).
    pub fn vlens(mut self, vlens: &[usize]) -> Self {
        self.vlens = vlens.to_vec();
        self
    }

    /// L2-size sweep (MiB).
    pub fn l2s(mut self, l2s: &[usize]) -> Self {
        self.l2s = l2s.to_vec();
        self
    }

    /// Lane sweep; each lane count is tagged into the model name
    /// (`…/l4`) so rows stay distinguishable, matching the Paper I
    /// lane-scaling artifact.
    pub fn lanes_tagged(mut self, lanes: &[usize]) -> Self {
        self.lanes = lanes.to_vec();
        self.tag_lanes = true;
        self
    }

    /// Algorithm sweep.
    pub fn algos(mut self, algos: &[Algo]) -> Self {
        self.algos = AlgoSpec::List(algos.to_vec());
        self
    }

    /// Single fixed algorithm.
    pub fn algo(self, algo: Algo) -> Self {
        self.algos(&[algo])
    }

    /// The `Winograd*` policy: Winograd with 6-loop-GEMM fallback.
    pub fn winograd_or_gemm6(mut self) -> Self {
        self.algos = AlgoSpec::WinogradOrGemm6;
        self
    }

    /// Use the Paper-I decoupled VPU instead of the integrated one.
    pub fn decoupled(mut self) -> Self {
        self.decoupled = true;
        self
    }

    /// Suffix appended to every row's model name ("/dec", "/wino") so
    /// sweeps on different machine styles stay distinguishable.
    pub fn suffix(mut self, suffix: &str) -> Self {
        self.suffix = suffix.to_string();
        self
    }

    /// Expand to cells in deterministic order. Panics on a design point
    /// [`MachineConfig::validate`] rejects — plans are built from code
    /// literals, so that is a programming error, not an input error.
    pub fn expand(&self) -> Vec<Cell> {
        let mut layer_list: Vec<(String, usize, ConvShape)> = Vec::new();
        if !self.models.is_empty() {
            let table = table1_layers(self.scale);
            for model in &self.models {
                layer_list.extend(table.iter().filter(|(m, _, _)| m == model.name()).cloned());
            }
        }
        layer_list.extend(self.extra_layers.iter().cloned());
        let lanes: Vec<Option<usize>> = if self.lanes.is_empty() {
            vec![None]
        } else {
            self.lanes.iter().map(|&n| Some(n)).collect()
        };
        let vpu = if self.decoupled { VpuStyle::Decoupled } else { VpuStyle::Integrated };
        let mut cells = Vec::new();
        for (model, layer, shape) in &layer_list {
            for &vlen in &self.vlens {
                for &l2 in &self.l2s {
                    for &lane in &lanes {
                        let mut cfg =
                            MachineConfig { vpu, ..MachineConfig::rvv_integrated(vlen, l2) };
                        if let Some(n) = lane {
                            cfg.lanes = n;
                        }
                        if let Err(e) = cfg.validate() {
                            panic!("plan {}: invalid design point: {e}", self.id);
                        }
                        let mut name = format!("{model}{}", self.suffix);
                        if self.tag_lanes {
                            if let Some(n) = lane {
                                name.push_str(&format!("/l{n}"));
                            }
                        }
                        for algo in self.algos.for_shape(shape) {
                            cells.push(Cell {
                                model: name.clone(),
                                layer: *layer,
                                shape: *shape,
                                cfg,
                                algo,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

// -------------------------------------------------------------- catalog

/// The full Paper II measurement grid: both Table-1 conv stacks × 16
/// hardware configs × every algorithm on the integrated machine. The
/// union every Paper II figure slices from. Its expansion order (layer →
/// vlen → L2 → algorithm) is the selector dataset's row order.
pub fn paper2_plan(scale: f64) -> SweepPlan {
    SweepPlan::new("grid")
        .layers(Model::Vgg16)
        .layers(Model::Yolo20)
        .scale(scale)
        .vlens(&P2_VLENS)
        .l2s(&P2_L2S)
        .algos(&ALL_ALGOS)
}

/// Paper I long-VL / large-L2 sweep: YOLOv3(20) on the decoupled machine
/// with the 3-loop GEMM (its best kernel there).
pub fn p1_dec_plan(scale: f64) -> SweepPlan {
    SweepPlan::new("p1-dec")
        .layers(Model::Yolo20)
        .scale(scale)
        .suffix("/dec")
        .decoupled()
        .vlens(&P1_VLENS)
        .l2s(&P1_L2S)
        .algo(Algo::Gemm3)
}

/// Paper I lane-scaling sweep at 1 MiB (VI-B.c).
pub fn p1_lanes_plan(scale: f64) -> SweepPlan {
    SweepPlan::new("p1-lanes")
        .layers(Model::Yolo20)
        .scale(scale)
        .suffix("/dec")
        .decoupled()
        .vlens(&[512, 2048, 8192])
        .l2s(&[1])
        .lanes_tagged(&[2, 4, 8])
        .algo(Algo::Gemm3)
}

/// Paper I Winograd VL × L2 sweep on the integrated machine (Figs. 9-10),
/// with the 6-loop GEMM fallback where Winograd does not apply.
pub fn p1_wino_plan(scale: f64) -> SweepPlan {
    SweepPlan::new("p1-wino")
        .layers(Model::Yolo20)
        .layers(Model::Vgg16)
        .scale(scale)
        .suffix("/wino")
        .vlens(&[512, 1024, 2048])
        .l2s(&P1_L2S)
        .winograd_or_gemm6()
}

/// Every Paper I plan (the historical `p1grid`).
pub fn p1_plans(scale: f64) -> Vec<SweepPlan> {
    vec![p1_dec_plan(scale), p1_lanes_plan(scale), p1_wino_plan(scale)]
}

// ------------------------------------------------------------- executor

/// Knobs of one executor instance, mostly surfaced as `repro` flags.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads for the fan-out (`--jobs N`); `None` = host default.
    pub jobs: Option<usize>,
    /// Bypass the persistent cache entirely — neither read nor write
    /// (`--no-cache`).
    pub no_cache: bool,
    /// Ignore cached values and resimulate, overwriting the cache
    /// (`--force`).
    pub force: bool,
    /// Print progress and per-plan counters.
    pub verbose: bool,
    /// Cache directory override; default `results/cache`.
    pub cache_dir: Option<PathBuf>,
    /// Cache-key salt override (tests); default [`default_salt`].
    pub salt: Option<String>,
    /// Simulation-tier override (`--backend {cycle,fast}`); `None` = each
    /// plan's own default tier.
    pub backend: Option<BackendKind>,
}

/// Per-plan execution counters, printed as one line and attached to the
/// plan's trace span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Applicable cells in the plan (== rows produced).
    pub total: usize,
    /// Distinct content addresses among them.
    pub unique: usize,
    /// Unique cells served from the persistent cache.
    pub hit: usize,
    /// Unique cells simulated this run.
    pub simulated: usize,
    /// Expanded cells whose algorithm does not apply to the layer.
    pub skipped: usize,
    /// Kernel passes that simulated them: one per L2 group on the cycle
    /// tier, one per cell on the fast tier.
    pub passes: usize,
}

impl ExecReport {
    /// The one-line counter summary (`grep simulated=0` in CI).
    pub fn line(&self, id: &str) -> String {
        format!(
            "[plan {id}] cells: total={} unique={} hit={} simulated={} skipped={} passes={}",
            self.total, self.unique, self.hit, self.simulated, self.skipped, self.passes
        )
    }
}

/// A plan's rows plus its execution counters.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Reduced grid rows, in plan expansion order.
    pub rows: Vec<GridRow>,
    /// Execution counters.
    pub report: ExecReport,
}

struct CellCacheState {
    map: HashMap<u64, CellMetrics>,
    corrupt: usize,
}

/// Runs [`SweepPlan`]s: rayon fan-out over unique uncached cells, a
/// persistent JSONL cell cache, and a deterministic ordered reduction.
/// One executor is shared across every artifact of a `repro` invocation
/// so the cache is loaded once.
pub struct Executor {
    opts: ExecOptions,
    salt: String,
    cache_path: PathBuf,
    cache: Mutex<CellCacheState>,
    /// Keys already resimulated this process under `--force`, so one
    /// `repro all --force` refreshes each shared cell exactly once.
    refreshed: Mutex<HashSet<u64>>,
}

impl Executor {
    /// Build an executor: installs the `--jobs` worker count and loads the
    /// persistent cache (absent or corrupt lines are tolerated — a missing
    /// cache is cold, a corrupt line is skipped and resimulated).
    pub fn new(opts: ExecOptions) -> Self {
        if let Some(n) = opts.jobs {
            let _ = rayon::ThreadPoolBuilder::new().num_threads(n).build_global();
        }
        let dir = opts.cache_dir.clone().unwrap_or_else(|| results_dir().join("cache"));
        let cache_path = dir.join("cells.jsonl");
        let salt = opts.salt.clone().unwrap_or_else(default_salt);
        let mut state = CellCacheState { map: HashMap::new(), corrupt: 0 };
        // An absent cache is cold; `--no-cache` never reads it.
        let text = if opts.no_cache { None } else { std::fs::read_to_string(&cache_path).ok() };
        if let Some(text) = text {
            state.map.reserve(text.lines().count());
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_cache_line(line) {
                    // Later lines win: `--force` reruns append fresh
                    // values for existing keys.
                    Some((k, m)) => {
                        state.map.insert(k, m);
                    }
                    None => state.corrupt += 1,
                }
            }
            if state.corrupt > 0 && opts.verbose {
                eprintln!(
                    "[cache] skipped {} corrupt line(s) in {} (will resimulate)",
                    state.corrupt,
                    cache_path.display()
                );
            }
        }
        Self {
            opts,
            salt,
            cache_path,
            cache: Mutex::new(state),
            refreshed: Mutex::new(HashSet::new()),
        }
    }

    /// The salt in effect (kernel/timing revisions unless overridden).
    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// Corrupt cache lines skipped at load.
    pub fn corrupt_lines(&self) -> usize {
        self.cache.lock().unwrap().corrupt
    }

    /// The tier a plan resolves to under this executor's options.
    pub fn backend_for(&self, plan: &SweepPlan) -> BackendKind {
        self.opts.backend.unwrap_or(plan.backend)
    }

    /// How much of `plan` the cache already covers, without simulating:
    /// `(cached unique cells, total unique cells)`.
    pub fn coverage(&self, plan: &SweepPlan) -> (usize, usize) {
        let keys = cell_keys(&plan.expand(), &self.salt, self.backend_for(plan));
        let unique: HashSet<u64> = keys.into_iter().flatten().collect();
        let cache = self.cache.lock().unwrap();
        let cached = unique.iter().filter(|k| cache.map.contains_key(k)).count();
        (cached, unique.len())
    }

    /// Run one plan to completion: fan out the unique uncached cells,
    /// persist their metrics, and reduce every applicable cell — cached or
    /// fresh — into [`GridRow`]s in plan expansion order (worker count
    /// never changes row order).
    pub fn run(&self, plan: &SweepPlan, ctx: &TraceCtx) -> Result<SweepOutcome, BenchError> {
        let span = ctx.tracer.begin(
            TrackId::new(PID_HARNESS, 0),
            &format!("plan:{}", plan.id()),
            ctx.now_us(),
        );
        let backend = self.backend_for(plan);
        let cells = plan.expand();
        // Each cell is keyed once: for the partition and the reduction.
        let keys = cell_keys(&cells, &self.salt, backend);
        let mut report = ExecReport::default();
        // Partition into unique missing work under one cache lock.
        let mut missing: Vec<(u64, &Cell)> = Vec::new();
        let mut unique = HashSet::new();
        {
            let cache = self.cache.lock().unwrap();
            let refreshed = self.refreshed.lock().unwrap();
            for (c, &k) in cells.iter().zip(&keys) {
                let Some(k) = k else {
                    report.skipped += 1;
                    continue;
                };
                report.total += 1;
                if !unique.insert(k) {
                    continue;
                }
                let stale = self.opts.force && !refreshed.contains(&k);
                if stale || !cache.map.contains_key(&k) {
                    missing.push((k, c));
                } else {
                    report.hit += 1;
                }
            }
        }
        report.unique = unique.len();
        report.simulated = missing.len();
        let passes = kernel_passes(&missing, backend);
        report.passes = passes.len();

        // Fan out one task per pass; the rayon shim work-steals from an
        // indexed worklist and re-sorts, and the cells are put back in
        // `missing` order, so `fresh` is in `missing` order.
        if !missing.is_empty() {
            if self.opts.verbose {
                eprintln!(
                    "[plan {}] simulating {} unique cells in {} passes ({} tier) ...",
                    plan.id(),
                    missing.len(),
                    passes.len(),
                    backend.name()
                );
            }
            let done = AtomicUsize::new(0);
            let total = missing.len();
            let verbose = self.opts.verbose;
            let id = plan.id().to_string();
            let priced: Vec<Vec<(usize, CellMetrics)>> = passes
                .into_par_iter()
                .map(|members| {
                    let c = &missing[members[0]].1;
                    let cfgs: Vec<MachineConfig> =
                        members.iter().map(|&i| missing[i].1.cfg).collect();
                    let ms = backend.measure_group(&cfgs, &c.shape, c.algo).unwrap_or_default();
                    let n = done.fetch_add(ms.len(), Ordering::Relaxed) + ms.len();
                    if verbose && n / 32 > (n - ms.len()) / 32 {
                        eprintln!("[plan {id}] {n}/{total} cells simulated");
                    }
                    members.into_iter().zip(ms).collect()
                })
                .collect();
            let mut priced: Vec<(usize, CellMetrics)> = priced.into_iter().flatten().collect();
            priced.sort_unstable_by_key(|&(i, _)| i);
            let fresh: Vec<(u64, CellMetrics)> =
                priced.into_iter().map(|(i, m)| (missing[i].0, m)).collect();
            if self.opts.force {
                self.refreshed.lock().unwrap().extend(fresh.iter().map(|(k, _)| *k));
            }
            self.insert_and_persist(&fresh)?;
        }

        // Ordered reduction: every applicable cell resolves from the map.
        let cache = self.cache.lock().unwrap();
        let mut rows = Vec::with_capacity(report.total);
        for (c, k) in cells.into_iter().zip(keys) {
            // Inapplicable, or the tier declined (applicability raced): no row.
            let Some(m) = k.and_then(|k| cache.map.get(&k)) else {
                continue;
            };
            rows.push(GridRow {
                model: c.model,
                layer: c.layer,
                shape: c.shape,
                vpu: c.cfg.vpu,
                lanes: c.cfg.lanes,
                vlen_bits: c.cfg.vlen_bits,
                l2_mib: c.cfg.l2.size_bytes / MIB,
                algo: c.algo,
                cycles: m.cycles,
                avg_vl: m.avg_vl,
                l2_miss_rate: m.l2_miss_rate,
            });
        }
        drop(cache);

        if self.opts.verbose {
            println!("{}", report.line(plan.id()));
        }
        let now = ctx.now_us();
        let harness = TrackId::new(PID_HARNESS, 0);
        ctx.tracer.counter(harness, "cells_total", now, report.total as f64);
        ctx.tracer.counter(harness, "cells_hit", now, report.hit as f64);
        ctx.tracer.counter(harness, "cells_simulated", now, report.simulated as f64);
        ctx.tracer.end_args(
            span,
            now,
            vec![
                ("total".to_string(), report.total.into()),
                ("unique".to_string(), report.unique.into()),
                ("hit".to_string(), report.hit.into()),
                ("simulated".to_string(), report.simulated.into()),
                ("skipped".to_string(), report.skipped.into()),
                ("passes".to_string(), report.passes.into()),
            ],
        );
        Ok(SweepOutcome { rows, report })
    }

    /// Merge fresh metrics into the in-memory map and append them to the
    /// JSONL cache (unless `--no-cache`). Appends are a single write so a
    /// crash can corrupt at most the final line — which the loader skips.
    fn insert_and_persist(&self, fresh: &[(u64, CellMetrics)]) -> Result<(), BenchError> {
        let mut cache = self.cache.lock().unwrap();
        let mut buf = String::with_capacity(fresh.len() * 64);
        for (k, m) in fresh {
            cache.map.insert(*k, *m);
            buf.push_str(&cache_line(*k, m));
            buf.push('\n');
        }
        drop(cache);
        if self.opts.no_cache {
            return Ok(());
        }
        let dir = self.cache_path.parent().expect("cache path has a parent");
        std::fs::create_dir_all(dir).map_err(BenchError::io("create cache dir", dir))?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.cache_path)
            .map_err(BenchError::io("open cell cache", &self.cache_path))?;
        f.write_all(buf.as_bytes())
            .map_err(BenchError::io("append to cell cache", &self.cache_path))?;
        Ok(())
    }
}

/// Split `missing` into kernel passes, as indices in `missing` order. On
/// the cycle tier, cells that differ only in their L2 share one pass (one
/// [`lv_sim::Machine::new_group`]) unless they prefetch, which makes L2
/// residency steer the L1. The fast tier prices a cell in O(1), so each
/// cell is its own pass there.
fn kernel_passes(missing: &[(u64, &Cell)], backend: BackendKind) -> Vec<Vec<usize>> {
    if backend != BackendKind::Cycle {
        return (0..missing.len()).map(|i| vec![i]).collect();
    }
    let mut passes: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(MachineConfig, ConvShape, Algo), usize> = HashMap::new();
    for (i, (_, c)) in missing.iter().enumerate() {
        if c.cfg.sw_prefetch {
            passes.push(vec![i]);
            continue;
        }
        // Everything but the L2 picks the pass.
        let sans_l2 = MachineConfig { l2: MachineConfig::default().l2, ..c.cfg };
        match by_key.entry((sans_l2, c.shape, c.algo)) {
            Entry::Occupied(e) => passes[*e.get()].push(i),
            Entry::Vacant(e) => {
                e.insert(passes.len());
                passes.push(vec![i]);
            }
        }
    }
    passes
}

// ------------------------------------------------------- cache encoding

/// One JSONL cache line for `key` / `metrics`. Floats use Rust's
/// shortest-roundtrip formatting, so a warm read reproduces the cold
/// run's values bit for bit.
fn cache_line(key: u64, m: &CellMetrics) -> String {
    format!(
        "{{\"k\":\"{key:016x}\",\"cycles\":{},\"avg_vl\":{},\"l2_miss\":{}}}",
        m.cycles, m.avg_vl, m.l2_miss_rate
    )
}

/// Parse one line in the shape [`cache_line`] writes: its four fields in
/// its order, no spaces, a 16-digit lower-case hex key, an integer
/// `cycles` and unsigned decimal metrics. Any other line is `None` — torn
/// or garbled, reordered or spaced fields, `"cycles":1.9` or `1e8`, a
/// negative or non-finite metric, a short key, bytes after the `}` — and
/// the caller counts it as corrupt, skips it and resimulates its cell; it
/// is never misread.
fn parse_cache_line(line: &str) -> Option<(u64, CellMetrics)> {
    let (key, rest) = line.strip_prefix("{\"k\":\"")?.split_at_checked(16)?;
    if !key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let (cycles, rest) = number(rest.strip_prefix("\",\"cycles\":")?)?;
    let (avg_vl, rest) = number(rest.strip_prefix(",\"avg_vl\":")?)?;
    let (l2_miss, rest) = number(rest.strip_prefix(",\"l2_miss\":")?)?;
    if rest != "}" {
        return None;
    }
    let m = CellMetrics {
        cycles: cycles.parse().ok()?,
        avg_vl: avg_vl.parse().ok()?,
        l2_miss_rate: l2_miss.parse().ok()?,
    };
    let key = u64::from_str_radix(key, 16).ok()?;
    (m.avg_vl.is_finite() && m.l2_miss_rate.is_finite()).then_some((key, m))
}

/// Split an unsigned decimal — digits, then optionally `.` and more
/// digits — off the front of `s`.
fn number(s: &str) -> Option<(&str, &str)> {
    let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
    let int = digits(s);
    let end = match s[int..].strip_prefix('.').map(digits) {
        Some(0) => return None,
        Some(frac) => int + 1 + frac,
        None => int,
    };
    (int > 0).then(|| s.split_at(end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_shape() -> ConvShape {
        ConvShape::same_pad(2, 4, 8, 3, 1)
    }

    #[test]
    fn expansion_order_is_deterministic_and_nested() {
        let plan = SweepPlan::new("t")
            .layer("m", 1, tiny_shape())
            .vlens(&[512, 1024])
            .l2s(&[1, 4])
            .algos(&[Algo::Gemm3, Algo::Direct]);
        let cells = plan.expand();
        assert_eq!(cells.len(), 2 * 2 * 2);
        let sig: Vec<(usize, usize, Algo)> =
            cells.iter().map(|c| (c.cfg.vlen_bits, c.cfg.l2.size_bytes / MIB, c.algo)).collect();
        assert_eq!(
            sig,
            vec![
                (512, 1, Algo::Gemm3),
                (512, 1, Algo::Direct),
                (512, 4, Algo::Gemm3),
                (512, 4, Algo::Direct),
                (1024, 1, Algo::Gemm3),
                (1024, 1, Algo::Direct),
                (1024, 4, Algo::Gemm3),
                (1024, 4, Algo::Direct),
            ]
        );
        assert_eq!(
            sig,
            plan.expand()
                .iter()
                .map(|c| (c.cfg.vlen_bits, c.cfg.l2.size_bytes / MIB, c.algo))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper2_plan_matches_legacy_grid_shape() {
        // 28 layers x 16 configs x 4 algos, in the historical nesting.
        let cells = paper2_plan(0.25).expand();
        assert_eq!(cells.len(), 28 * 16 * 4);
        assert_eq!(cells[0].model, "vgg16");
        assert_eq!(cells[0].cfg.vlen_bits, 512);
        assert_eq!(cells[0].algo, ALL_ALGOS[0]);
    }

    #[test]
    fn content_address_ignores_labels_but_not_hardware() {
        let s = tiny_shape();
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let a = Cell { model: "a".into(), layer: 1, shape: s, cfg, algo: Algo::Gemm3 };
        let b = Cell { model: "b/dec".into(), layer: 7, shape: s, cfg, algo: Algo::Gemm3 };
        let key = |c: &Cell, salt| c.key_tiered(salt, BackendKind::Cycle);
        assert_eq!(key(&a, "s"), key(&b, "s"), "labels must not affect the content address");
        let c = Cell { cfg: MachineConfig::rvv_integrated(1024, 1), ..a.clone() };
        assert_ne!(key(&a, "s"), key(&c, "s"));
        let d = Cell { algo: Algo::Direct, ..a.clone() };
        assert_ne!(key(&a, "s"), key(&d, "s"));
        assert_ne!(key(&a, "s"), key(&a, "s2"), "salt bump must change the address");
    }

    #[test]
    fn tiers_never_share_content_addresses() {
        let c = Cell {
            model: "m".into(),
            layer: 1,
            shape: tiny_shape(),
            cfg: MachineConfig::rvv_integrated(512, 1),
            algo: Algo::Gemm3,
        };
        // The cycle tier keeps the historical address (warm caches stay
        // warm); the fast tier gets a disjoint, FAST_MODEL_REV-salted one.
        let canon = format!(
            "{}|shape=2,8,8,4,3,3,1,1|algo=im2col+GEMM-3loops|salt=s",
            MachineConfig::rvv_integrated(512, 1).stable_key()
        );
        assert_eq!(c.key_tiered("s", BackendKind::Cycle), lv_sim::fnv1a(canon.as_bytes()));
        assert_ne!(c.key_tiered("s", BackendKind::Cycle), c.key_tiered("s", BackendKind::Fast));
    }

    /// The text a cell's content address is the FNV-1a hash of: the key's
    /// definition, kept as the oracle for the streamed hash.
    fn canon(c: &Cell, salt: &str, backend: BackendKind) -> String {
        let s = &c.shape;
        let tier = match backend {
            BackendKind::Cycle => String::new(),
            BackendKind::Fast => format!("|backend=fast|f{}", lv_sim::FAST_MODEL_REV),
        };
        format!(
            "{}|shape={},{},{},{},{},{},{},{}|algo={}|salt={salt}{tier}",
            c.cfg.stable_key(),
            s.ic,
            s.ih,
            s.iw,
            s.oc,
            s.kh,
            s.kw,
            s.stride,
            s.pad,
            c.algo.name(),
        )
    }

    #[test]
    fn streamed_keys_hash_the_canonical_text() {
        let mut sets: Vec<Vec<Cell>> = Vec::new();
        for scale in [1.0, 0.12] {
            sets.push(paper2_plan(scale).expand());
            sets.extend(p1_plans(scale).iter().map(SweepPlan::expand));
        }
        // Design points no plan sweeps: software prefetch, and a 4-lane
        // decoupled machine.
        let mut odd = Vec::new();
        for cfg in [
            MachineConfig::a64fx_like(),
            MachineConfig { lanes: 4, ..MachineConfig::rvv_decoupled(2048, 1) },
        ] {
            for shape in [tiny_shape(), ConvShape::same_pad(3, 4, 6, 1, 2)] {
                for algo in ALL_ALGOS {
                    odd.push(Cell { model: "m".into(), layer: 1, shape, cfg, algo });
                }
            }
        }
        sets.push(odd);
        let salt = default_salt();
        let mut checked = 0;
        for cells in &sets {
            for backend in [BackendKind::Cycle, BackendKind::Fast] {
                let keys = cell_keys(cells, &salt, backend);
                for (c, k) in cells.iter().zip(keys) {
                    let want = lv_sim::fnv1a(canon(c, &salt, backend).as_bytes());
                    assert_eq!(c.key_tiered(&salt, backend), want, "{c:?}");
                    assert_eq!(k, c.applicable().then_some(want), "{c:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    /// No simulation: the committed cell cache read through the loader.
    #[test]
    fn the_committed_cache_loads_whole_and_covers_the_warm_plans() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache");
        let text = std::fs::read_to_string(dir.join("cells.jsonl")).unwrap();
        for line in text.lines() {
            let (k, m) = parse_cache_line(line).unwrap_or_else(|| panic!("corrupt: {line}"));
            assert_eq!(cache_line(k, &m), line);
        }
        // `coverage` only reads the cache; nothing is written to `dir`.
        let exec = Executor::new(ExecOptions { cache_dir: Some(dir), ..Default::default() });
        assert_eq!(exec.corrupt_lines(), 0);
        let mut plans = vec![paper2_plan(1.0)];
        plans.extend(p1_plans(1.0));
        for plan in &plans {
            let (cached, unique) = exec.coverage(plan);
            assert!(unique > 0);
            assert_eq!(cached, unique, "{}", plan.id());
        }
    }

    #[test]
    fn plan_backend_defaults_to_cycle_and_is_overridable() {
        let p = SweepPlan::new("t");
        assert_eq!(p.backend_kind(), BackendKind::Cycle);
        assert_eq!(p.backend(BackendKind::Fast).backend_kind(), BackendKind::Fast);
    }

    #[test]
    fn winograd_fallback_resolves_per_shape() {
        let plan = SweepPlan::new("w")
            .layer("m", 1, ConvShape::same_pad(2, 4, 8, 3, 1))
            .layer("m", 2, ConvShape::same_pad(2, 4, 8, 1, 1))
            .winograd_or_gemm6();
        let cells = plan.expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].algo, Algo::Winograd);
        assert_eq!(cells[1].algo, Algo::Gemm6);
    }

    /// The cold cycle-tier sweep at the benchmark's scale: plans run in
    /// order through one cache, so p1-wino only misses its 256 MiB cells
    /// (the grid plan already holds their 1/16/64 MiB partners).
    #[test]
    fn sweep_plans_share_one_pass_per_l2_group() {
        let mut plans = vec![paper2_plan(0.12)];
        plans.extend(p1_plans(0.12));
        let mut cached = HashSet::new();
        let mut got = Vec::new();
        for plan in &plans {
            let cells = plan.expand();
            let missing: Vec<(u64, &Cell)> = cells
                .iter()
                .zip(cell_keys(&cells, "s", BackendKind::Cycle))
                .filter_map(|(c, k)| k.filter(|&k| cached.insert(k)).map(|k| (k, c)))
                .collect();
            let passes = kernel_passes(&missing, BackendKind::Cycle);
            // Members of a pass differ only in the L2, in `missing` order.
            for p in &passes {
                let first = &missing[p[0]].1;
                assert!(p.windows(2).all(|w| w[0] < w[1]));
                for &i in p {
                    let c = &missing[i].1;
                    assert_eq!((c.shape, c.algo), (first.shape, first.algo));
                    assert_eq!(MachineConfig { l2: first.cfg.l2, ..c.cfg }, first.cfg);
                }
            }
            let mut members: Vec<usize> = passes.concat();
            members.sort_unstable();
            assert_eq!(members, (0..missing.len()).collect::<Vec<_>>(), "{}", plan.id());
            assert_eq!(kernel_passes(&missing, BackendKind::Fast).len(), missing.len());
            got.push((plan.id().to_string(), missing.len(), passes.len()));
        }
        let want =
            [("grid", 1056, 264), ("p1-dec", 240, 60), ("p1-lanes", 60, 60), ("p1-wino", 54, 54)];
        let want: Vec<_> = want.iter().map(|&(id, c, p)| (id.to_string(), c, p)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_line_roundtrip() {
        let m = CellMetrics {
            cycles: 123456789,
            avg_vl: 12.345678901234567,
            l2_miss_rate: 0.987654321,
        };
        let (k, back) = parse_cache_line(&cache_line(0xdeadbeef, &m)).unwrap();
        assert_eq!(k, 0xdeadbeef);
        assert_eq!(back, m, "shortest-roundtrip floats must survive the cache");
        assert!(
            parse_cache_line("{\"k\":\"zz\",\"cycles\":1,\"avg_vl\":1,\"l2_miss\":0}").is_none()
        );
        assert!(parse_cache_line("not json at all").is_none());
        assert!(parse_cache_line("{\"cycles\":1}").is_none());
    }
}
