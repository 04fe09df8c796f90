//! Stored reference outputs and the output checks that feed `error_rate`.
//!
//! A sweep reference file holds, per plan, the row count plus FNV-1a
//! digests of the row labels (which cells exist: applicability) and of
//! the exact values. Fast- and warm-tier rows must match bit for bit.
//!
//! Cycle-tier references additionally list every row's cycles and L2
//! miss rate, because the cycle tier feeds host heap addresses into its
//! cache model and those values move with the allocator's layout. The
//! average vector length is address-independent and must match exactly.
//! At the benchmark's reduced scale the layout noise of single rows is
//! far wider than the 1% that `golden_cells.rs` documents for its larger
//! pinned cells: across five processes single rows moved by up to 7.5%
//! in cycles and 0.14 in L2 miss rate, while a plan's total cycles moved
//! by at most 0.52%. So the 1% envelope is held on each plan's total
//! cycles, and single rows get a gross envelope that only catches
//! breakage.
//!
//! ```text
//! plan grid rows=1600 labels=9a3c… avg_vl=51e0… values=77b2…
//! 371244 0.0123
//! …
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use lv_sim::fnv1a;

use crate::common::Tally;

/// Relative envelope of a plan's total cycles (allocator noise).
pub const SUM_NOISE: f64 = 0.01;
/// Relative envelope of one row's cycles.
pub const ROW_CYCLES_NOISE: f64 = 0.2;
/// Absolute envelope of one row's L2 miss rate.
pub const ROW_L2_NOISE: f64 = 0.3;

/// One sweep row, reduced to what is checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `model:layer:vpu:lanes:vlen:l2:algo`.
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Average consumed vector length.
    pub avg_vl: f64,
    /// L2 miss rate.
    pub l2_miss: f64,
}

/// How strictly rows must match their reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match {
    /// Every value bit-identical.
    Exact,
    /// Labels and `avg_vl` exact, total cycles within [`SUM_NOISE`], each
    /// row's cycles and L2 miss rate within the row envelopes.
    Envelope,
}

/// The reference of one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRef {
    /// Rows the plan produces.
    pub rows: usize,
    /// Digest of the row labels, in order.
    pub labels: u64,
    /// Digest of every `avg_vl`, in order.
    pub avg_vl: u64,
    /// Digest of every value (cycles, `avg_vl`, L2 miss rate), in order.
    pub values: u64,
    /// Per-row (cycles, L2 miss rate), present for [`Match::Envelope`].
    pub per_row: Vec<(u64, f64)>,
}

/// A sweep reference: plan id → reference, in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepRef {
    /// Plans in file order.
    pub plans: Vec<(String, PlanRef)>,
}

fn digest_labels(rows: &[Row]) -> u64 {
    let mut s = String::new();
    for r in rows {
        s.push_str(&r.label);
        s.push('\n');
    }
    fnv1a(s.as_bytes())
}

fn digest_avg_vl(rows: &[Row]) -> u64 {
    let mut s = String::new();
    for r in rows {
        let _ = writeln!(s, "{:016x}", r.avg_vl.to_bits());
    }
    fnv1a(s.as_bytes())
}

fn digest_values(rows: &[Row]) -> u64 {
    let mut s = String::new();
    for r in rows {
        let _ =
            writeln!(s, "{} {:016x} {:016x}", r.cycles, r.avg_vl.to_bits(), r.l2_miss.to_bits());
    }
    fnv1a(s.as_bytes())
}

impl PlanRef {
    /// The reference that `rows` would produce.
    pub fn of(rows: &[Row], m: Match) -> Self {
        Self {
            rows: rows.len(),
            labels: digest_labels(rows),
            avg_vl: digest_avg_vl(rows),
            values: digest_values(rows),
            per_row: match m {
                Match::Exact => Vec::new(),
                Match::Envelope => rows.iter().map(|r| (r.cycles, r.l2_miss)).collect(),
            },
        }
    }

    /// Check `rows` against this reference. Every expected row is one
    /// attempted operation; a changed cell set or a changed exact digest
    /// fails every row of the plan, an envelope miss fails that row.
    /// Returns the tally and a description of the first failure.
    pub fn check(&self, rows: &[Row], m: Match) -> (Tally, Option<String>) {
        let attempted = self.rows as u64;
        let all_failed = |why: String| (Tally { attempted, failed: attempted }, Some(why));
        if rows.len() != self.rows || digest_labels(rows) != self.labels {
            return all_failed(format!(
                "cell set changed: {} rows, {} expected",
                rows.len(),
                self.rows
            ));
        }
        match m {
            Match::Exact => {
                if digest_values(rows) != self.values {
                    return all_failed("values differ from the reference".into());
                }
                (Tally { attempted, failed: 0 }, None)
            }
            Match::Envelope => {
                if digest_avg_vl(rows) != self.avg_vl {
                    return all_failed("avg_vl differs from the reference".into());
                }
                if self.per_row.len() != rows.len() {
                    return all_failed("reference lacks per-row values".into());
                }
                let got: u64 = rows.iter().map(|r| r.cycles).sum();
                let want: u64 = self.per_row.iter().map(|(c, _)| c).sum();
                if !within_sum_envelope(got, want) {
                    return all_failed(format!("total cycles {got} vs reference {want}"));
                }
                let mut failed = 0;
                let mut first = None;
                for (r, &(cycles, l2)) in rows.iter().zip(&self.per_row) {
                    if !within_envelope(r, cycles, l2) {
                        failed += 1;
                        first.get_or_insert_with(|| {
                            format!(
                                "{}: {} cycles / L2 miss {} vs reference {cycles} / {l2}",
                                r.label, r.cycles, r.l2_miss
                            )
                        });
                    }
                }
                (Tally { attempted, failed }, first)
            }
        }
    }
}

/// Whether a row lies inside the row envelopes of a reference.
pub fn within_envelope(r: &Row, cycles: u64, l2_miss: f64) -> bool {
    rel_diff(r.cycles, cycles) <= ROW_CYCLES_NOISE && (r.l2_miss - l2_miss).abs() <= ROW_L2_NOISE
}

/// Whether a total of cycles lies inside [`SUM_NOISE`] of its reference.
pub fn within_sum_envelope(got: u64, want: u64) -> bool {
    rel_diff(got, want) <= SUM_NOISE
}

fn rel_diff(got: u64, want: u64) -> f64 {
    (got as f64 - want as f64).abs() / (want as f64).max(1.0)
}

impl SweepRef {
    /// Parse the text format above.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = SweepRef::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let mut f = line.split_whitespace();
            if line.starts_with("plan ") {
                f.next();
                let id = f.next().ok_or_else(bad)?.to_string();
                let mut kv = BTreeMap::new();
                for p in f {
                    let (k, v) = p.split_once('=').ok_or_else(bad)?;
                    kv.insert(k, v);
                }
                let hex = |k: &str| {
                    kv.get(k).and_then(|v| u64::from_str_radix(v, 16).ok()).ok_or_else(bad)
                };
                let rows = kv.get("rows").and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                let plan = PlanRef {
                    rows,
                    labels: hex("labels")?,
                    avg_vl: hex("avg_vl")?,
                    values: hex("values")?,
                    per_row: Vec::new(),
                };
                out.plans.push((id, plan));
            } else {
                let (_, plan) = out.plans.last_mut().ok_or_else(bad)?;
                let cycles = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                let l2 = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                plan.per_row.push((cycles, l2));
            }
        }
        Ok(out)
    }

    /// Load and parse a reference file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read reference {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Render in the text format, under a `#` header line.
    pub fn render(&self, header: &str) -> String {
        let mut s = format!("# {header}\n");
        for (id, p) in &self.plans {
            let _ = writeln!(
                s,
                "plan {id} rows={} labels={:016x} avg_vl={:016x} values={:016x}",
                p.rows, p.labels, p.avg_vl, p.values
            );
            for (c, l2) in &p.per_row {
                let _ = writeln!(s, "{c} {l2:.6}");
            }
        }
        s
    }

    /// The reference of plan `id`.
    pub fn plan(&self, id: &str) -> Option<&PlanRef> {
        self.plans.iter().find(|(p, _)| p == id).map(|(_, r)| r)
    }

    /// Rows over every plan.
    pub fn total_rows(&self) -> u64 {
        self.plans.iter().map(|(_, p)| p.rows as u64).sum()
    }
}

/// Named digests (one fleet run each): `id digest` lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DigestRef {
    /// Run id → digest.
    pub map: BTreeMap<String, u64>,
}

impl DigestRef {
    /// Parse `id hex` lines (`#` comments allowed).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (id, hex) = line
                .rsplit_once(' ')
                .and_then(|(id, h)| Some((id, u64::from_str_radix(h, 16).ok()?)))
                .ok_or_else(|| format!("digest line {}: {line:?}", n + 1))?;
            map.insert(id.to_string(), hex);
        }
        Ok(Self { map })
    }

    /// Load and parse a digest file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read reference {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Render under a `#` header line, in id order.
    pub fn render(&self, header: &str) -> String {
        let mut s = format!("# {header}\n");
        for (id, d) in &self.map {
            let _ = writeln!(s, "{id} {d:016x}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        (0..4)
            .map(|i| Row {
                label: format!("m:{i}:Integrated:8:512:1:gemm3"),
                cycles: 1000 + i,
                avg_vl: 15.5 + i as f64,
                l2_miss: 0.25,
            })
            .collect()
    }

    #[test]
    fn references_roundtrip_through_text() {
        let mut r = SweepRef::default();
        r.plans.push(("a".into(), PlanRef::of(&rows(), Match::Envelope)));
        r.plans.push(("b".into(), PlanRef::of(&rows()[..2], Match::Exact)));
        assert_eq!(SweepRef::parse(&r.render("t")).unwrap(), r);
        let mut d = DigestRef::default();
        d.map.insert("hom-knee/full/0.40".into(), 0xdead_beef);
        assert_eq!(DigestRef::parse(&d.render("t")).unwrap(), d);
    }

    #[test]
    fn envelope_tolerates_noise_but_not_drift() {
        let want = PlanRef::of(&rows(), Match::Envelope);
        let mut got = rows();
        got[1].cycles += 30; // 3% on one row, 0.7% in total: allocator noise
        got[1].l2_miss += 0.1;
        assert_eq!(want.check(&got, Match::Envelope).0.failed, 0);
        got[2].l2_miss = 0.9; // a broken cache model
        let (t, why) = want.check(&got, Match::Envelope);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert!(why.unwrap().contains("m:2:"));
        let mut drift = rows();
        drift.iter_mut().for_each(|r| r.cycles += r.cycles / 50); // 2% everywhere
        assert_eq!(
            want.check(&drift, Match::Envelope).0.failed,
            4,
            "systematic drift fails the plan"
        );
        got[3].avg_vl += 1e-9; // avg_vl is exact
        assert_eq!(want.check(&got, Match::Envelope).0.failed, 4);
    }

    #[test]
    fn exact_match_rejects_any_bit() {
        let want = PlanRef::of(&rows(), Match::Exact);
        assert_eq!(want.check(&rows(), Match::Exact).0.failed, 0);
        let mut got = rows();
        got[0].l2_miss = f64::from_bits(got[0].l2_miss.to_bits() + 1);
        assert_eq!(want.check(&got, Match::Exact).0.failed, 4);
        assert_eq!(want.check(&rows()[..3], Match::Exact).0.failed, 4, "a missing row fails");
    }
}
