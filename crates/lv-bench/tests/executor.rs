//! Integration tests for the sweep executor and its persistent
//! content-addressed cell cache: hit/miss accounting, salt invalidation,
//! bit-identical warm reruns, worker-count determinism, recovery from
//! corrupted cache lines, and one kernel pass per L2 group.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use lv_bench::grid::{GridRow, P2_L2S};
use lv_bench::plan::{ExecOptions, Executor, SweepPlan};
use lv_bench::trace::TraceCtx;
use lv_conv::Algo;
use lv_models::BackendKind;
use lv_tensor::ConvShape;

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "lvbench-exec-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A plan small enough to simulate in milliseconds but with overlapping
/// content: layers 1 and 3 share a shape, so their cells collapse onto
/// one content address per hardware/algo point.
fn tiny_plan() -> SweepPlan {
    let a = ConvShape::same_pad(2, 6, 8, 3, 1);
    let b = ConvShape::same_pad(3, 4, 6, 1, 1);
    SweepPlan::new("tiny")
        .layer("m", 1, a)
        .layer("m", 2, b)
        .layer("m", 3, a)
        .vlens(&[512, 1024])
        .algos(&[Algo::Gemm3, Algo::Gemm6])
}

fn opts(dir: &std::path::Path) -> ExecOptions {
    ExecOptions { cache_dir: Some(dir.to_path_buf()), ..Default::default() }
}

fn run(exec: &Executor, plan: &SweepPlan) -> (Vec<GridRow>, lv_bench::plan::ExecReport) {
    let out = exec.run(plan, &TraceCtx::disabled()).expect("executor run");
    (out.rows, out.report)
}

#[test]
fn cold_miss_then_warm_hit_with_shared_cells() {
    let dir = temp_cache_dir("hit");
    let plan = tiny_plan();

    let exec = Executor::new(opts(&dir));
    let (rows, cold) = run(&exec, &plan);
    // 3 layers x 2 vlens x 2 algos expanded, but layers 1 and 3 share a
    // shape: only 2 x 2 x 2 = 8 unique simulations for 12 rows.
    assert_eq!(cold.total, 12);
    assert_eq!(cold.unique, 8);
    assert_eq!(cold.simulated, 8);
    assert_eq!(cold.hit, 0);
    assert_eq!(rows.len(), 12);
    // The shared-shape layers got identical metrics from one simulation.
    assert_eq!(rows[0].cycles, rows[8].cycles, "layer 1 and 3 share cells");

    // A fresh executor re-reads the JSONL cache: zero simulations.
    let exec2 = Executor::new(opts(&dir));
    let (rows2, warm) = run(&exec2, &plan);
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.hit, 8);
    assert_eq!(rows2.len(), rows.len());
}

#[test]
fn salt_bump_invalidates_and_regenerates() {
    let dir = temp_cache_dir("salt");
    let plan = tiny_plan();

    let exec = Executor::new(ExecOptions { salt: Some("rev1".into()), ..opts(&dir) });
    let (_, cold) = run(&exec, &plan);
    assert_eq!(cold.simulated, cold.unique);

    // Same salt, fresh executor: fully warm.
    let same = Executor::new(ExecOptions { salt: Some("rev1".into()), ..opts(&dir) });
    let (_, warm) = run(&same, &plan);
    assert_eq!(warm.simulated, 0);

    // Bumped salt (a kernel/timing revision change): everything stale,
    // the whole plan regenerates.
    let bumped = Executor::new(ExecOptions { salt: Some("rev2".into()), ..opts(&dir) });
    let (rows, stale) = run(&bumped, &plan);
    assert_eq!(stale.hit, 0);
    assert_eq!(stale.simulated, stale.unique);
    assert_eq!(rows.len(), 12);
}

#[test]
fn warm_rerun_reproduces_csv_bit_for_bit() {
    let dir = temp_cache_dir("csv");
    let plan = tiny_plan();

    let (rows_cold, _) = run(&Executor::new(opts(&dir)), &plan);
    let (rows_warm, warm) = run(&Executor::new(opts(&dir)), &plan);
    assert_eq!(warm.simulated, 0);
    assert_eq!(
        rows_cold, rows_warm,
        "warm rerun through the JSONL cache must reproduce every row a CSV is written from"
    );
}

#[test]
fn row_order_is_independent_of_worker_count() {
    let plan = tiny_plan();
    let sig = |rows: &[GridRow]| {
        rows.iter()
            .map(|r| (r.model.clone(), r.layer, r.vlen_bits, r.l2_mib, r.algo))
            .collect::<Vec<_>>()
    };

    let d1 = temp_cache_dir("j1");
    let exec1 = Executor::new(ExecOptions { jobs: Some(1), ..opts(&d1) });
    let (rows1, _) = run(&exec1, &plan);

    let d4 = temp_cache_dir("j4");
    let exec4 = Executor::new(ExecOptions { jobs: Some(4), ..opts(&d4) });
    let (rows4, _) = run(&exec4, &plan);

    // Identical row identity and order; cycle counts agree closely (the
    // cache simulation is heap-address sensitive, so cold runs may drift
    // a fraction of a percent between processes/pools).
    assert_eq!(sig(&rows1), sig(&rows4), "row order must not depend on --jobs");
    for (a, b) in rows1.iter().zip(&rows4) {
        let (x, y) = (a.cycles as f64, b.cycles as f64);
        assert!((x - y).abs() / x.max(y) < 0.02, "cycles diverged: {x} vs {y}");
    }
}

#[test]
fn corrupted_cache_lines_are_skipped_and_resimulated() {
    let dir = temp_cache_dir("corrupt");
    let plan = l2_plan();
    let (rows, cold) = run(&Executor::new(opts(&dir)), &plan);

    // Vandalise the first lines, one way each: a torn write, a garbled
    // key, then spellings the executor never writes (most of them valid
    // JSON with sane values); then append pure noise.
    let path = dir.join("cells.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cold.simulated);
    let cell = |k: &str, c: &str, a: &str, l: &str| {
        format!("{{\"k\":\"{k}\",\"cycles\":{c},\"avg_vl\":{a},\"l2_miss\":{l}}}")
    };
    let vandalise = |i: usize, line: &str| {
        let f: Vec<&str> =
            line[1..line.len() - 1].split(',').map(|f| f.split(':').nth(1).unwrap()).collect();
        let (k, c, a, l) = (f[0].trim_matches('"'), f[1], f[2], f[3]);
        Some(match i {
            0 => line[..line.len() / 2].to_string(),
            1 => cell("zz-not-hex", "1", "1", "0"),
            2 => format!("{{\"k\": \"{k}\",\"cycles\": {c},\"avg_vl\": {a},\"l2_miss\": {l}}}"),
            3 => format!("{{\"cycles\":{c},\"k\":\"{k}\",\"avg_vl\":{a},\"l2_miss\":{l}}}"),
            4 => cell(k, "1.9", a, l),
            5 => cell(k, "1e8", a, l),
            6 => cell(k, c, &format!("-{a}"), l),
            7 => cell(k, c, a, "1e999"),
            8 => cell(&k[1..], c, a, l),
            9 => format!("{line} "),
            10 => format!("{line}{{}}"),
            _ => return None,
        })
    };
    let mut vandalised = String::new();
    let mut destroyed = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match vandalise(i, line) {
            Some(bad) => {
                vandalised.push_str(&bad);
                destroyed.push(&line[6..22]);
            }
            None => vandalised.push_str(line),
        }
        vandalised.push('\n');
    }
    vandalised.push_str("complete nonsense\n");
    std::fs::write(&path, vandalised).unwrap();

    let exec = Executor::new(opts(&dir));
    assert_eq!(exec.corrupt_lines(), destroyed.len() + 1, "every vandalised line and the noise");
    let (rows2, rep) = run(&exec, &plan);
    assert_eq!(rep.simulated, destroyed.len(), "only the destroyed cells resimulate");
    assert_eq!(rep.hit, rep.unique - destroyed.len());
    assert_eq!(rows2.len(), rows.len());
    // Each destroyed cell, and no other, was appended again.
    let file = std::fs::read_to_string(&path).unwrap();
    let appended: Vec<&str> = file.lines().skip(lines.len() + 1).map(|l| &l[6..22]).collect();
    assert_eq!(appended, destroyed);

    // And the repair was persisted: next executor is fully warm again.
    let (_, healed) = run(&Executor::new(opts(&dir)), &plan);
    assert_eq!(healed.simulated, 0);
}

#[test]
fn no_cache_never_touches_disk() {
    let dir = temp_cache_dir("nocache");
    let plan = tiny_plan();
    let exec = Executor::new(ExecOptions { no_cache: true, ..opts(&dir) });
    let (rows, rep) = run(&exec, &plan);
    assert_eq!(rep.simulated, rep.unique);
    assert!(!rows.is_empty());
    assert!(!dir.join("cells.jsonl").exists(), "--no-cache must not write the cache");

    // Within one process the in-memory map still dedupes: a second run on
    // the same executor re-simulates nothing.
    let (_, again) = run(&exec, &plan);
    assert_eq!(again.simulated, 0);
}

#[test]
fn force_resimulates_each_unique_cell_once_per_process() {
    let dir = temp_cache_dir("force");
    let plan = tiny_plan();
    run(&Executor::new(opts(&dir)), &plan);

    let forced = Executor::new(ExecOptions { force: true, ..opts(&dir) });
    let (_, first) = run(&forced, &plan);
    assert_eq!(first.simulated, first.unique, "--force ignores the warm cache");
    // The same executor (one `repro all --force` invocation) does not
    // re-refresh shared cells on the next artifact.
    let (_, second) = run(&forced, &plan);
    assert_eq!(second.simulated, 0);
    assert_eq!(second.hit, second.unique);
}

/// [`tiny_plan`] over the four Paper II L2 sizes: every cell has three
/// partners that differ only in the L2.
fn l2_plan() -> SweepPlan {
    tiny_plan().l2s(&P2_L2S)
}

/// The content addresses in a cache file, in file order.
fn cached_keys(dir: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join("cells.jsonl")).unwrap();
    text.lines().map(|l| l[6..22].to_string()).collect()
}

#[test]
fn cycle_tier_runs_one_pass_per_l2_group() {
    let dir = temp_cache_dir("groups");
    let plan = l2_plan();
    let exec = Executor::new(opts(&dir));
    let (rows, cold) = run(&exec, &plan);
    // 8 unique cells per L2 size (see the hit test), one pass for all four.
    assert_eq!(cold.simulated, 4 * 8);
    assert_eq!(cold.passes, 8);
    assert_eq!(rows.len(), 4 * 12);
    assert!(cold.line("l2").ends_with("simulated=32 skipped=0 passes=8"), "{}", cold.line("l2"));

    // Each cell is still cached on its own, in the expansion order of the
    // missing cells.
    let mut want = Vec::new();
    for c in plan.expand() {
        let k = format!("{:016x}", c.key_tiered(exec.salt(), BackendKind::Cycle));
        if !want.contains(&k) {
            want.push(k);
        }
    }
    assert_eq!(cached_keys(&dir), want);

    let (rows2, warm) = run(&Executor::new(opts(&dir)), &plan);
    assert_eq!((warm.simulated, warm.passes, warm.hit), (0, 0, 32));
    assert_eq!(rows, rows2);
}

#[test]
fn l2_groups_only_cover_the_missing_cells() {
    let dir = temp_cache_dir("partial");
    // Warm the 1 MiB column first: the groups then hold three members.
    run(&Executor::new(opts(&dir)), &tiny_plan());
    let (_, rep) = run(&Executor::new(opts(&dir)), &l2_plan());
    assert_eq!((rep.hit, rep.simulated, rep.passes), (8, 24, 8));
}

#[test]
fn fast_tier_runs_one_pass_per_cell() {
    let dir = temp_cache_dir("fast");
    let exec = Executor::new(ExecOptions { backend: Some(BackendKind::Fast), ..opts(&dir) });
    let (_, rep) = run(&exec, &l2_plan());
    assert_eq!(rep.simulated, 32);
    assert_eq!(rep.passes, rep.simulated);
}
