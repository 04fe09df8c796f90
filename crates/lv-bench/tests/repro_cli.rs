//! End-to-end tests of the `repro` binary: CLI error behavior and the
//! `--trace` pipeline — Chrome JSON well-formedness, span nesting across
//! clock domains, and exact reconciliation of layer spans against the
//! derived roofline CSV.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

use lv_trace::json::{parse, Value};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Fresh per-test results dir so cached grids don't leak between tests.
fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lvbench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp results dir");
    d
}

fn load_events(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let v = parse(&text).expect("trace must be valid JSON");
    v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array").to_vec()
}

fn str_field<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
    e.get(key).and_then(Value::as_str)
}

#[test]
fn unknown_artifact_lists_valid_ids_and_exits_nonzero() {
    let out = repro().arg("nonesuch").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment: nonesuch"), "stderr: {err}");
    for id in ["table1", "fig1", "serve", "p1-roofline", "verify", "grid"] {
        assert!(err.contains(id), "artifact list must mention {id}: {err}");
    }

    let out = repro().args(["fig1", "--bogus"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bogus"), "stderr: {err}");
    assert!(err.contains("valid artifacts"), "stderr: {err}");
}

#[test]
fn traced_table1_emits_parseable_chrome_json() {
    let dir = temp_dir("table1");
    let trace = dir.join("t.json");
    let out = repro()
        .env("LVCONV_RESULTS", &dir)
        .args(["table1", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let events = load_events(&trace);
    assert!(events
        .iter()
        .any(|e| str_field(e, "ph") == Some("M") && str_field(e, "name") == Some("process_name")));
    // The artifact itself appears as a complete wall-clock span.
    assert!(
        events
            .iter()
            .any(|e| str_field(e, "ph") == Some("X") && str_field(e, "name") == Some("table1")),
        "harness artifact span missing"
    );
}

/// `repro fig1 --trace`: the figure still renders, the trace parses, the
/// per-layer simulated-cycle spans tile the network span exactly, and the
/// derived roofline CSV agrees with the spans cycle-for-cycle.
#[test]
fn traced_fig1_layer_spans_reconcile_with_roofline_csv() {
    let dir = temp_dir("fig1");
    let trace = dir.join("t.json");
    let out = repro()
        .env("LVCONV_RESULTS", &dir)
        .args(["fig1", "--scale", "0.02", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("fig1.csv").exists(), "figure CSV still produced under --trace");

    let events = load_events(&trace);
    let mut network_dur = None;
    let mut layer_durs: HashMap<String, f64> = HashMap::new();
    let mut kernel_spans = 0usize;
    for e in &events {
        if str_field(e, "ph") != Some("X") || e.get("pid").and_then(Value::as_f64) != Some(1.0) {
            continue;
        }
        let name = str_field(e, "name").expect("X event name").to_string();
        let dur = e.get("dur").and_then(Value::as_f64).expect("X event dur");
        if name.starts_with("network:") {
            network_dur = Some(dur);
        } else if e.get("args").and_then(|a| a.get("layer")).is_some() {
            layer_durs.insert(name, dur);
        } else {
            kernel_spans += 1;
        }
    }
    let network_dur = network_dur.expect("network span present on the machine pid");
    assert!(!layer_durs.is_empty(), "layer spans present");
    assert!(kernel_spans > 0, "kernel sub-spans nested under conv layers");
    // Simulated-cycle clock: layer cycles are integers, so f64 sums are
    // exact and the layers must tile the network span with no gap.
    let layer_sum: f64 = layer_durs.values().sum();
    assert_eq!(layer_sum, network_dur, "layer spans must tile the network span");

    // Roofline rows are derived from the same spans: cycle-for-cycle match.
    let csv = std::fs::read_to_string(dir.join("roofline-vgg16.csv")).expect("roofline csv");
    let mut rows = 0usize;
    for line in csv.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let (name, cycles) = (f[0], f[5].parse::<f64>().expect("cycles column"));
        assert_eq!(
            layer_durs.get(name).copied(),
            Some(cycles),
            "span duration must equal roofline cycles for {name}"
        );
        rows += 1;
    }
    assert!(rows > 0, "roofline CSV has rows");

    // Re-use the cached grid for the serve artifact: its trace must carry
    // balanced async request-lifecycle events and replica batch spans.
    let serve_trace = dir.join("serve.json");
    let out = repro()
        .env("LVCONV_RESULTS", &dir)
        .args(["serve", "--scale", "0.02", "--trace", serve_trace.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let events = load_events(&serve_trace);
    let begins = events.iter().filter(|e| str_field(e, "ph") == Some("b")).count();
    let ends = events.iter().filter(|e| str_field(e, "ph") == Some("e")).count();
    assert!(begins > 0, "request lifecycle begins present");
    assert_eq!(begins, ends, "async lifecycle events balance");
    for phase in ["request", "queue", "execute"] {
        assert!(
            events
                .iter()
                .any(|e| str_field(e, "ph") == Some("b") && str_field(e, "name") == Some(phase)),
            "missing lifecycle phase {phase}"
        );
    }
    assert!(
        events.iter().any(|e| str_field(e, "ph") == Some("X")
            && str_field(e, "name").is_some_and(|n| n.starts_with("batch x"))),
        "replica batch spans present"
    );
    assert!(
        events.iter().any(
            |e| str_field(e, "ph") == Some("C") && str_field(e, "name") == Some("queue_depth")
        ),
        "queue-depth counter present"
    );
}

/// `--faults` validation: an unknown scenario exits 2 naming the flag and
/// the accepted values, and the flag is rejected on artifacts that don't
/// take it.
#[test]
fn faults_flag_validates_scenario_names() {
    let out = repro().args(["chaos", "--faults", "nope"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--faults"), "stderr must name the flag: {err}");
    assert!(
        err.contains("none, crash, straggler, rack or all"),
        "stderr must list valid scenarios: {err}"
    );
    assert!(err.contains("valid artifacts"), "usage listing follows: {err}");

    let out = repro().args(["fleet", "--faults", "crash"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--faults"), "stderr: {err}");
}

/// The chaos artifact is a pure function of `--seed`: two runs with the
/// same seed (the second fully warm-cached) produce byte-identical CSVs,
/// and a different seed produces a different one.
#[test]
fn chaos_is_bit_identical_per_seed() {
    let dir = temp_dir("chaos");
    let run = |seed: &str| {
        let out = repro()
            .env("LVCONV_RESULTS", &dir)
            .args(["chaos", "--scale", "0.25", "--seed", seed, "--faults", "crash"])
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(dir.join("chaos.csv")).expect("chaos.csv written")
    };
    let first = run("1");
    let second = run("1");
    assert_eq!(first, second, "same seed must reproduce chaos.csv byte-for-byte");
    let other = run("2");
    assert_ne!(first, other, "a different seed must resample the fault plan");
}

/// `--backend` validation and the fast-tier pipeline end to end: an
/// unknown tier exits 2 with the flag named, a fast-tier grid run
/// completes quickly, and a warm rerun is served entirely from the
/// (tier-salted) cell cache.
#[test]
fn backend_flag_validates_and_fast_tier_caches() {
    let out = repro().args(["grid", "--backend", "warp"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--backend"), "stderr must name the flag: {err}");
    assert!(err.contains("cycle or fast"), "stderr must list valid tiers: {err}");
    assert!(err.contains("valid artifacts"), "usage listing follows: {err}");

    let dir = temp_dir("fastgrid");
    let run = || {
        repro()
            .env("LVCONV_RESULTS", &dir)
            .args(["grid", "--scale", "0.05", "--backend", "fast"])
            .output()
            .expect("spawn repro")
    };
    let cold = run();
    assert!(cold.status.success(), "stderr: {}", String::from_utf8_lossy(&cold.stderr));
    let cold_out = String::from_utf8_lossy(&cold.stdout);
    assert!(!cold_out.contains("simulated=0"), "cold fast run must simulate: {cold_out}");
    let warm = run();
    assert!(warm.status.success(), "stderr: {}", String::from_utf8_lossy(&warm.stderr));
    let warm_out = String::from_utf8_lossy(&warm.stdout);
    assert!(
        warm_out.contains("simulated=0"),
        "warm fast-tier rerun must be fully cached: {warm_out}"
    );
}

/// Result CSVs go through the same checked writer as every report: with
/// `--no-cache` nothing else creates the results dir first, and a CSV
/// write into a dir that does not exist yet must create it, not be
/// silently dropped.
#[test]
fn result_csvs_land_in_a_results_dir_that_does_not_exist_yet() {
    let root = temp_dir("fresh");
    for (args, csv) in [
        (&["fleet", "--scale", "0.25", "--no-cache"][..], "fleet.csv"),
        (&["serve", "--scale", "0.12", "--no-cache", "--backend", "fast"][..], "serve.csv"),
    ] {
        let dir = root.join(args[0]);
        let out = repro().env("LVCONV_RESULTS", &dir).args(args).output().expect("spawn repro");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let len = std::fs::metadata(dir.join(csv)).map_or(0, |m| m.len());
        assert!(len > 0, "{args:?} must write a non-empty {csv}");
    }
}
