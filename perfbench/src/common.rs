//! Plumbing shared by every workload: the run environment (private
//! scratch space, thread cap), the timed pass loop, statistics, peak RSS,
//! provenance, and the span recorder of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lv_trace::{Args, Tracer, TrackId, WallClock};

/// Directory under the checkout root that holds everything a run writes:
/// per-process scratch (removed on exit) and the traced run's outputs.
pub const OUT_DIR: &str = ".perfbench";

/// Set-up is timed at least this often per run; `setup_s` is the median.
pub const SETUP_SAMPLES: usize = 15;

/// What one benchmark invocation works with.
pub struct Env {
    /// Checkout root (the working directory); read-only inputs live here.
    pub root: PathBuf,
    /// Private scratch directory, removed when the run ends.
    pub tmp: ScratchDir,
    /// Worker threads: the host's parallelism.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes run, seconds.
    pub seconds: f64,
}

impl Env {
    /// A fresh, empty directory `name` inside the private scratch space.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Path of a committed input file under the checkout root.
    pub fn input(&self, rel: &str) -> PathBuf {
        self.root.join(rel)
    }
}

/// A directory removed (with its contents) when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<root>/.perfbench/tmp-<pid>-<n>`, unique within the process.
    pub fn create(root: &Path) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(OUT_DIR).join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed, feeding `error_rate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (sweep cells or fleet runs).
    pub attempted: u64,
    /// Operations with a missing result, a panic or a failed output check.
    pub failed: u64,
}

impl Tally {
    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload's result: the tally plus named metrics. `e2e` is reported
/// untraced, `layers` by the traced run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations over every pass, traced or not.
    pub tally: Tally,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<String, f64>,
}

/// Run `pass` repeatedly until `seconds` have elapsed, at least
/// `min_passes` times. Returns every pass's result in order, and the peak
/// RSS (MB) at the end of the first pass: later passes would add memory
/// the allocator retained from earlier ones, which varies run to run.
pub fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut rss = 0.0;
    while out.len() < min_passes.max(1) || start.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len())?);
        if out.len() == 1 {
            rss = peak_rss_mb()?;
        }
    }
    Ok((out, rss))
}

/// Quantile of the per-pass rates reported as `throughput_per_s`.
///
/// Co-tenants on a shared host only ever slow a pass down, and they do so
/// in phases of seconds to minutes (a fixed CPU-bound loop measured 1.7×
/// swings between 3 s windows on the 2-core host this benchmark was tuned
/// on). The median pass then depends on how much of a run fell into slow
/// phases; a high quantile tracks the program's uncontended speed and
/// stays steady from run to run. The median is logged next to it.
pub const RATE_QUANTILE: f64 = 0.9;

/// The reported throughput of a run's per-pass rates.
pub fn throughput(rates: &[f64]) -> f64 {
    quantile(rates, RATE_QUANTILE)
}

/// Summarise a run's passes on stderr: count, wall and rate quantiles.
pub fn log_passes(workload: &str, rates: &[f64], walls: &[f64]) {
    eprintln!(
        "[{workload}] {} passes of {:.1} ms median; rate q1/median/q3/p90 {:.1}/{:.1}/{:.1}/{:.1} per s",
        rates.len(),
        1e3 * median(walls),
        quantile(rates, 0.25),
        median(rates),
        quantile(rates, 0.75),
        throughput(rates),
    );
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Elapsed seconds of `f`, with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Every fact needed to decide whether two results are comparable: host,
/// toolchain, source revision, simulator salts and the run's settings.
pub fn provenance(env: &Env, workload: &str, scale: Option<f64>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line(
        std::env::var("RUSTC").as_deref().unwrap_or("rustc"),
        &["--version"],
        &env.root,
    );
    let (commit, dirty) = if env.root.join(".git").exists() {
        let commit = command_line("git", &["rev-parse", "HEAD"], &env.root);
        let dirty = std::process::Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .current_dir(&env.root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| (!o.stdout.is_empty()).to_string());
        (commit, dirty)
    } else {
        ("unknown".into(), "unknown".into())
    };
    let mut s = String::from("{");
    let mut field = |k: &str, v: String| {
        if s.len() > 1 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{k}\": {v}");
    };
    field("workload", json_str(workload));
    field("seed", env.seed.to_string());
    field("threads", env.threads.to_string());
    field("scale", scale.map_or("null".into(), |v| v.to_string()));
    field("seconds", env.seconds.to_string());
    field("nproc", host_threads().to_string());
    field("cpu", json_str(&cpu));
    field("rustc", json_str(&rustc));
    field("commit", json_str(&commit));
    field("dirty", json_str(&dirty));
    field("kernel_rev", lv_conv::KERNEL_REV.to_string());
    field("timing_rev", lv_sim::TIMING_REV.to_string());
    field("fast_model_rev", lv_sim::FAST_MODEL_REV.to_string());
    s.push('}');
    s
}

/// The host's available parallelism (1 when unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, or "unknown" if it fails.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The traced run's span recorder: one `lv_trace::Tracer` stamped by one
/// `WallClock`, all on process id 0.
pub struct Spans {
    /// The recording tracer.
    pub tracer: Tracer,
    clock: WallClock,
}

impl Spans {
    /// A recording tracer whose clock starts now.
    pub fn new(workload: &str) -> Self {
        let tracer = Tracer::enabled();
        tracer.name_process(0, &format!("perfbench {workload}"));
        Self { tracer, clock: WallClock::start() }
    }

    /// Wall-clock microseconds since [`Spans::new`].
    pub fn now_us(&self) -> f64 {
        self.clock.now_us()
    }

    /// Run `f` inside a span `name` on thread track `tid`, tagged `args`.
    pub fn span<R>(&self, tid: u64, name: &str, args: Args, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.begin_args(TrackId::new(0, tid), name, self.now_us(), args);
        let r = f();
        self.tracer.end(id, self.now_us());
        r
    }

    /// Record a finished span `name` from `start_us` to `end_us` on thread
    /// track `tid` (timestamps taken earlier with [`Spans::now_us`]).
    pub fn record(&self, tid: u64, name: &str, start_us: f64, end_us: f64, args: Args) {
        let id = self.tracer.begin_args(TrackId::new(0, tid), name, start_us, args);
        self.tracer.end(id, end_us);
    }

    /// Self seconds summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        lv_trace::report::aggregate(&self.tracer)
            .into_iter()
            .map(|a| (a.name, a.self_us * 1e-6))
            .collect()
    }

    /// Write the Chrome trace and the self-time table under
    /// `<root>/.perfbench/`, and echo the table to stderr.
    pub fn write(&self, root: &Path, workload: &str) -> Result<(), String> {
        let dir = root.join(OUT_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let trace = dir.join(format!("trace-{workload}.json"));
        self.tracer.write_chrome(&trace).map_err(|e| format!("write {}: {e}", trace.display()))?;
        let table = lv_trace::report::self_time(&self.tracer, 40);
        let path = dir.join(format!("selftime-{workload}.txt"));
        std::fs::write(&path, &table).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("[trace written to {} and {}]\n{table}", trace.display(), path.display());
        Ok(())
    }
}

/// An environment rooted at this repository, for tests.
#[cfg(test)]
pub fn test_env() -> Env {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root").to_path_buf();
    let tmp = ScratchDir::create(&root).expect("scratch dir");
    Env { root, tmp, threads: host_threads(), seed: 42, seconds: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn timed_passes_runs_at_least_the_minimum() {
        let (v, rss) = timed_passes(0.0, 3, Ok).unwrap();
        assert_eq!(v, vec![0, 1, 2]);
        assert!(rss > 0.0);
    }
}
