//! Typed command line for the `repro` binary: one [`CliSpec`] registry of
//! artifacts and per-artifact flags replaces the hand-rolled argv loop.
//! Parsing never exits or prints — it returns an [`Invocation`] or a
//! [`CliError`] the binary renders (exit 2 plus the full artifact list),
//! so the behaviour is unit-testable and `trace.rs`/`check.rs` no longer
//! reimplement pieces of it.

use std::fmt;
use std::path::PathBuf;

use lv_fleet::FaultScenario;
use lv_models::BackendKind;

/// Every artifact id `repro` accepts: `check` runs in the binary itself,
/// every other id through `figures::run_experiment_traced`. `repro`
/// prints this list when given an unknown id or flag.
pub const ARTIFACTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "dataset",
    "selector",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "serve",
    "fleet",
    "chaos",
    "p1-vl",
    "p1-cache",
    "p1-lanes",
    "p1-winograd",
    "p1-pareto",
    "p1-blocks",
    "p1-naive",
    "p1-roofline",
    "ablation-tiles",
    "ablation-energy",
    "ablation-fft",
    "ablation-unroll",
    "ablation-contention",
    "calibrate",
    "verify",
    "check",
    "all",
    "p1-all",
    "ablations",
];

/// Cache-warming commands handled by the binary itself (not figure
/// artifacts, but accepted in the same position).
pub const GRID_COMMANDS: &[&str] = &["grid", "p1grid"];

/// A flag the registry knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--scale S` — spatially scale the Table-1 layers.
    Scale,
    /// `--force` — resimulate even when the cell cache has the point.
    Force,
    /// `--trace FILE` — record a Chrome trace.
    Trace,
    /// `--no-cache` — bypass the persistent cell cache entirely.
    NoCache,
    /// `--jobs N` — worker threads for the sweep executor.
    Jobs,
    /// `--seed N` — RNG seed: the conformance sweep (`check`) and the
    /// serving artifacts' arrival processes (`serve`, `fleet`).
    Seed,
    /// `--deep` — larger conformance sweep (`check` only).
    Deep,
    /// `--backend {cycle,fast}` — simulation tier override: `cycle` is
    /// the cycle-accurate machine, `fast` the calibrated analytical
    /// model. Per-plan defaults apply when absent.
    Backend,
    /// `--faults {none,crash,straggler,rack,all}` — restrict the `chaos`
    /// sweep to one fault scenario (default: all of them).
    Faults,
}

impl Flag {
    fn as_str(self) -> &'static str {
        match self {
            Flag::Scale => "--scale",
            Flag::Force => "--force",
            Flag::Trace => "--trace",
            Flag::NoCache => "--no-cache",
            Flag::Jobs => "--jobs",
            Flag::Seed => "--seed",
            Flag::Deep => "--deep",
            Flag::Backend => "--backend",
            Flag::Faults => "--faults",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "--scale" => Flag::Scale,
            "--force" => Flag::Force,
            "--trace" => Flag::Trace,
            "--no-cache" => Flag::NoCache,
            "--jobs" => Flag::Jobs,
            "--seed" => Flag::Seed,
            "--deep" => Flag::Deep,
            "--backend" => Flag::Backend,
            "--faults" => Flag::Faults,
            _ => return None,
        })
    }
}

/// The flag registry: which flags each artifact accepts.
pub struct CliSpec;

impl CliSpec {
    /// Flags valid for `artifact`. The conformance sweep takes its own
    /// knobs; every sweep-backed artifact takes the executor knobs.
    pub fn allowed_flags(artifact: &str) -> &'static [Flag] {
        match artifact {
            "check" => &[Flag::Seed, Flag::Deep, Flag::Trace, Flag::Backend],
            "serve" | "fleet" => &[
                Flag::Scale,
                Flag::Force,
                Flag::Trace,
                Flag::NoCache,
                Flag::Jobs,
                Flag::Seed,
                Flag::Backend,
            ],
            "chaos" => &[
                Flag::Scale,
                Flag::Force,
                Flag::Trace,
                Flag::NoCache,
                Flag::Jobs,
                Flag::Seed,
                Flag::Backend,
                Flag::Faults,
            ],
            _ => &[Flag::Scale, Flag::Force, Flag::Trace, Flag::NoCache, Flag::Jobs, Flag::Backend],
        }
    }

    /// Whether `id` is a runnable command (artifact or grid command).
    pub fn is_known(id: &str) -> bool {
        ARTIFACTS.contains(&id) || GRID_COMMANDS.contains(&id)
    }

    /// The `valid artifacts: ...` listing printed with every exit-2 error.
    pub fn listing() -> String {
        format!("valid artifacts: {} {}", GRID_COMMANDS.join(" "), ARTIFACTS.join(" "))
    }

    /// One-line usage string.
    pub fn usage() -> &'static str {
        "usage: repro <experiment|all|grid|p1grid> [--scale S] [--force] [--no-cache] \
         [--jobs N] [--trace FILE] [--backend cycle|fast]   \
         (check: [--seed N] [--deep]; serve/fleet: [--seed N]; \
         chaos: [--seed N] [--faults none|crash|straggler|rack|all])"
    }
}

/// A fully parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The artifact or grid command to run.
    pub artifact: String,
    /// `--scale` (default 1.0).
    pub scale: f64,
    /// `--force`.
    pub force: bool,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--jobs` override.
    pub jobs: Option<usize>,
    /// `--seed` (default 42; `check` only).
    pub seed: u64,
    /// `--deep` (`check` only).
    pub deep: bool,
    /// `--trace` output path.
    pub trace: Option<PathBuf>,
    /// `--backend` simulation-tier override (`None` = per-plan default).
    pub backend: Option<BackendKind>,
    /// `--faults` scenario restriction (`None` = sweep all; `chaos` only).
    pub faults: Option<FaultScenario>,
}

/// Why an argv could not be parsed. The binary prints this and the
/// artifact listing, then exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No command given at all.
    Empty,
    /// First positional is not a known artifact.
    UnknownArtifact(String),
    /// A flag the registry has never heard of.
    UnknownFlag(String),
    /// A known flag that this artifact does not take.
    FlagNotApplicable {
        /// The flag.
        flag: &'static str,
        /// The artifact it was given to.
        artifact: String,
    },
    /// A flag that needs a value got none or an unparsable one.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What a good value looks like.
        expected: &'static str,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Empty => f.write_str(CliSpec::usage()),
            CliError::UnknownArtifact(a) => write!(f, "unknown experiment: {a}"),
            CliError::UnknownFlag(x) => write!(f, "unknown flag {x}"),
            CliError::FlagNotApplicable { flag, artifact } => {
                write!(f, "flag {flag} does not apply to {artifact}")
            }
            CliError::BadValue { flag, expected } => write!(f, "{flag} requires {expected}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parse an argv (without the program name) against the registry.
pub fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let Some(artifact) = args.first() else {
        return Err(CliError::Empty);
    };
    if !CliSpec::is_known(artifact) {
        return Err(CliError::UnknownArtifact(artifact.clone()));
    }
    let allowed = CliSpec::allowed_flags(artifact);
    let mut inv = Invocation {
        artifact: artifact.clone(),
        scale: 1.0,
        force: false,
        no_cache: false,
        jobs: None,
        seed: 42,
        deep: false,
        trace: None,
        backend: None,
        faults: None,
    };
    let mut i = 1;
    while i < args.len() {
        let Some(flag) = Flag::from_str(&args[i]) else {
            return Err(CliError::UnknownFlag(args[i].clone()));
        };
        if !allowed.contains(&flag) {
            return Err(CliError::FlagNotApplicable {
                flag: flag.as_str(),
                artifact: artifact.clone(),
            });
        }
        let bad = |expected: &'static str| CliError::BadValue { flag: flag.as_str(), expected };
        let value = args.get(i + 1);
        match flag {
            Flag::Force => inv.force = true,
            Flag::NoCache => inv.no_cache = true,
            Flag::Deep => inv.deep = true,
            Flag::Scale => {
                const E: &str = "a positive number";
                inv.scale = value
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(E))?;
                i += 1;
            }
            Flag::Jobs => {
                const E: &str = "a worker count >= 1";
                inv.jobs = Some(
                    value
                        .and_then(|v| v.parse().ok())
                        .filter(|n: &usize| *n >= 1)
                        .ok_or_else(|| bad(E))?,
                );
                i += 1;
            }
            Flag::Seed => {
                const E: &str = "an unsigned integer";
                inv.seed = value.and_then(|v| v.parse().ok()).ok_or_else(|| bad(E))?;
                i += 1;
            }
            Flag::Trace => {
                inv.trace = Some(PathBuf::from(value.ok_or_else(|| bad("an output file path"))?));
                i += 1;
            }
            Flag::Backend => {
                const E: &str = "cycle or fast";
                inv.backend =
                    Some(value.and_then(|v| BackendKind::parse(v)).ok_or_else(|| bad(E))?);
                i += 1;
            }
            Flag::Faults => {
                const E: &str = "none, crash, straggler, rack or all";
                inv.faults =
                    Some(value.and_then(|v| FaultScenario::parse(v)).ok_or_else(|| bad(E))?);
                i += 1;
            }
        }
        i += 1;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_executor_flags() {
        let inv = parse(&argv(&["fig3", "--scale", "0.25", "--no-cache", "--jobs", "4"])).unwrap();
        assert_eq!(inv.artifact, "fig3");
        assert_eq!(inv.scale, 0.25);
        assert!(inv.no_cache);
        assert_eq!(inv.jobs, Some(4));
        assert!(!inv.force);
    }

    #[test]
    fn check_takes_its_own_flags_only() {
        let inv = parse(&argv(&["check", "--seed", "7", "--deep"])).unwrap();
        assert_eq!(inv.seed, 7);
        assert!(inv.deep);
        assert_eq!(
            parse(&argv(&["check", "--scale", "0.5"])),
            Err(CliError::FlagNotApplicable { flag: "--scale", artifact: "check".into() })
        );
        assert_eq!(
            parse(&argv(&["fig1", "--seed", "7"])),
            Err(CliError::FlagNotApplicable { flag: "--seed", artifact: "fig1".into() })
        );
    }

    #[test]
    fn serving_artifacts_take_a_seed() {
        for artifact in ["serve", "fleet"] {
            let inv = parse(&argv(&[artifact, "--seed", "9", "--scale", "0.5"])).unwrap();
            assert_eq!(inv.seed, 9);
            assert_eq!(inv.scale, 0.5);
        }
        assert_eq!(parse(&argv(&["fleet"])).unwrap().seed, 42);
    }

    #[test]
    fn rejects_unknowns_with_exit2_worthy_errors() {
        assert_eq!(parse(&argv(&["nonesuch"])), Err(CliError::UnknownArtifact("nonesuch".into())));
        assert_eq!(
            parse(&argv(&["fig1", "--bogus"])),
            Err(CliError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(parse(&argv(&[])), Err(CliError::Empty));
        assert!(CliError::UnknownFlag("--bogus".into()).to_string().contains("unknown flag"));
    }

    #[test]
    fn flags_with_values_validate() {
        assert_eq!(
            parse(&argv(&["fig1", "--scale"])),
            Err(CliError::BadValue { flag: "--scale", expected: "a positive number" })
        );
        assert_eq!(
            parse(&argv(&["fig1", "--scale", "-1"])),
            Err(CliError::BadValue { flag: "--scale", expected: "a positive number" })
        );
        assert_eq!(
            parse(&argv(&["fig1", "--jobs", "0"])),
            Err(CliError::BadValue { flag: "--jobs", expected: "a worker count >= 1" })
        );
        let inv = parse(&argv(&["grid", "--trace", "t.json"])).unwrap();
        assert_eq!(inv.trace, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn listing_mentions_grid_commands_and_artifacts() {
        let l = CliSpec::listing();
        for id in [
            "grid",
            "p1grid",
            "table1",
            "serve",
            "fleet",
            "verify",
            "check",
            "p1-roofline",
            "calibrate",
        ] {
            assert!(l.contains(id), "{l}");
        }
    }

    #[test]
    fn chaos_takes_a_fault_scenario() {
        assert_eq!(parse(&argv(&["chaos"])).unwrap().faults, None);
        let inv = parse(&argv(&["chaos", "--faults", "crash", "--seed", "3"])).unwrap();
        assert_eq!(inv.faults, Some(FaultScenario::Crash));
        assert_eq!(inv.seed, 3);
        // Unknown scenario and missing value are exit-2 errors naming the
        // valid set; the flag belongs to chaos alone.
        for args in [vec!["chaos", "--faults", "nope"], vec!["chaos", "--faults"]] {
            assert_eq!(
                parse(&argv(&args)),
                Err(CliError::BadValue {
                    flag: "--faults",
                    expected: "none, crash, straggler, rack or all"
                })
            );
        }
        assert_eq!(
            parse(&argv(&["fleet", "--faults", "crash"])),
            Err(CliError::FlagNotApplicable { flag: "--faults", artifact: "fleet".into() })
        );
    }

    #[test]
    fn backend_flag_parses_and_validates() {
        assert_eq!(parse(&argv(&["dataset"])).unwrap().backend, None);
        assert_eq!(
            parse(&argv(&["dataset", "--backend", "fast"])).unwrap().backend,
            Some(BackendKind::Fast)
        );
        assert_eq!(
            parse(&argv(&["grid", "--backend", "cycle"])).unwrap().backend,
            Some(BackendKind::Cycle)
        );
        assert_eq!(
            parse(&argv(&["check", "--backend", "fast", "--seed", "7"])).unwrap().backend,
            Some(BackendKind::Fast)
        );
        // Unknown tier and missing value are exit-2 errors carrying the
        // expected-value text.
        for args in [vec!["fig3", "--backend", "warp"], vec!["fig3", "--backend"]] {
            assert_eq!(
                parse(&argv(&args)),
                Err(CliError::BadValue { flag: "--backend", expected: "cycle or fast" })
            );
        }
    }
}
