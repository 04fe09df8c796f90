//! The benchmark's contract: `BENCHMARK.json` names exactly the metrics
//! and workloads the program emits, every workload passes its output
//! checks while leaving the repository's `results/` byte-identical, and a
//! run outside a checkout fails without printing a result.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lv_trace::json::{self, Value};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root").to_path_buf()
}

fn run(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn perfbench")
}

fn entries(v: &Value, key: &str, field: &str) -> Vec<(String, String)> {
    let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| (text(m, "name"), text(m, field)))
        .collect()
}

#[test]
fn benchmark_json_matches_the_emitted_metrics_and_workloads() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let v = json::parse(&text).unwrap();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(entries(&v, "end_to_end", "unit"), own(&perfbench::END_TO_END));
    assert_eq!(entries(&v, "per_layer", "unit"), own(&perfbench::PER_LAYER));
    let workloads: Vec<String> =
        entries(&v, "workloads", "why").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}

/// Every file under `dir` with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let bytes = std::fs::read(&p).unwrap();
                out.push((p, bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn every_workload_passes_its_checks_and_leaves_results_untouched() {
    let root = root();
    let before = snapshot(&root.join("results"));
    for w in perfbench::WORKLOADS {
        // One pass each; the cheap workloads also take the traced path.
        let trace = if w == "sweep-cycle" || w == "chaos" { "0" } else { "1" };
        let out = run(&["--workload", w, "--seed", "7", "--seconds", "0", "--trace", trace], &root);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{w}: {}", String::from_utf8_lossy(&out.stderr));
        let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{w}: {stdout}");
        assert!(matches!(result.get("correct"), Some(Value::Bool(true))), "{w}: {stdout}");
        assert!(stdout.lines().any(|l| l.starts_with("provenance {")), "{w}: no provenance");
    }
    assert!(snapshot(&root.join("results")) == before, "a benchmark run changed results/");
}

#[test]
fn outside_a_checkout_it_fails_without_a_result() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("not-a-checkout");
    std::fs::create_dir_all(&dir).unwrap();
    let out = run(&["--workload", "fleet", "--seconds", "0"], &dir);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    let bad = run(&["--workload", "nope"], &root());
    assert_eq!(bad.status.code(), Some(2), "an unknown workload is a usage error");
}
