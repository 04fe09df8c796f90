//! Derived per-layer roofline view: arithmetic intensity (FLOPs per DRAM
//! byte) against achieved FLOPs/cycle, computed from the `Stats` deltas
//! producers attach to layer spans under the well-known [`crate::keys`].

use std::fmt::Write as _;

use crate::{keys, ArgValue, FinishedSpan, Tracer, TrackId};

/// One roofline point, derived from a layer span.
#[derive(Debug, Clone)]
pub struct RooflineRow {
    /// Span name (e.g. `L3:conv`).
    pub name: String,
    /// Layer index within the network.
    pub layer: u64,
    /// Algorithm name, if the span carried one.
    pub algo: String,
    /// FLOPs attributed to the span.
    pub flops: u64,
    /// DRAM bytes moved (demand + prefetch lines).
    pub dram_bytes: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// FLOPs per DRAM byte.
    pub arith_intensity: f64,
    /// Achieved FLOPs per cycle.
    pub flops_per_cycle: f64,
    /// Average consumed vector length, elements.
    pub avg_vl: f64,
    /// L1 miss rate in [0, 1].
    pub l1_miss_rate: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
}

fn num(span: &FinishedSpan, key: &str) -> Option<f64> {
    span.arg(key).and_then(ArgValue::as_f64)
}

/// Derive roofline rows from every span on `track` (one machine's timeline
/// when several traced runs share a tracer) that carries a layer index and
/// a non-zero FLOP count (i.e. compute layers; pooling/reshape layers and
/// kernel sub-spans are skipped). Rows come back in span-begin order.
pub fn rows_on(tracer: &Tracer, track: TrackId) -> Vec<RooflineRow> {
    tracer
        .snapshot_spans()
        .iter()
        .filter(|s| s.track == track)
        .filter_map(|s| {
            let layer = num(s, keys::LAYER)?;
            let flops = num(s, keys::FLOPS)?;
            if flops <= 0.0 {
                return None;
            }
            let cycles = num(s, keys::CYCLES).unwrap_or(0.0);
            let dram = num(s, keys::DRAM_BYTES).unwrap_or(0.0);
            Some(RooflineRow {
                name: s.name.clone(),
                layer: layer as u64,
                algo: s.arg(keys::ALGO).and_then(ArgValue::as_str).unwrap_or("").to_string(),
                flops: flops as u64,
                dram_bytes: dram as u64,
                cycles: cycles as u64,
                arith_intensity: if dram > 0.0 { flops / dram } else { 0.0 },
                flops_per_cycle: if cycles > 0.0 { flops / cycles } else { 0.0 },
                avg_vl: num(s, keys::AVG_VL).unwrap_or(0.0),
                l1_miss_rate: num(s, keys::L1_MISS_RATE).unwrap_or(0.0),
                l2_miss_rate: num(s, keys::L2_MISS_RATE).unwrap_or(0.0),
            })
        })
        .collect()
}

/// CSV header of [`to_csv`].
pub const CSV_HEADER: &str = "name,layer,algo,flops,dram_bytes,cycles,arith_intensity,\
                              flops_per_cycle,avg_vl,l1_miss_rate,l2_miss_rate";

/// Render roofline rows as CSV (header + one line per row).
pub fn to_csv(rows: &[RooflineRow]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.4},{:.4},{:.1},{:.4},{:.4}",
            r.name,
            r.layer,
            r.algo,
            r.flops,
            r.dram_bytes,
            r.cycles,
            r.arith_intensity,
            r.flops_per_cycle,
            r.avg_vl,
            r.l1_miss_rate,
            r.l2_miss_rate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, TrackId};

    #[test]
    fn layer_spans_with_flops_become_rows() {
        let t = Tracer::enabled();
        let track = TrackId::new(0, 0);
        // A conv layer span with stats attached.
        let a = t.begin(track, "L0:conv", 0.0);
        t.end_args(
            a,
            100.0,
            vec![
                (keys::LAYER.into(), 0u64.into()),
                (keys::FLOPS.into(), 1000u64.into()),
                (keys::DRAM_BYTES.into(), 250u64.into()),
                (keys::CYCLES.into(), 100u64.into()),
                (keys::ALGO.into(), "direct".into()),
                (keys::AVG_VL.into(), 16.0f64.into()),
            ],
        );
        // A pooling layer: no FLOPs, skipped.
        let b = t.begin(track, "L1:maxpool", 100.0);
        t.end_args(
            b,
            110.0,
            vec![(keys::LAYER.into(), 1u64.into()), (keys::FLOPS.into(), 0u64.into())],
        );
        // A kernel sub-span: no layer key, skipped.
        let c = t.begin(track, "direct", 120.0);
        t.end_args(c, 130.0, vec![(keys::FLOPS.into(), 10u64.into())]);

        let rows = rows_on(&t, track);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.layer, 0);
        assert_eq!(r.algo, "direct");
        assert!((r.arith_intensity - 4.0).abs() < 1e-12);
        assert!((r.flops_per_cycle - 10.0).abs() < 1e-12);

        let csv = to_csv(&rows);
        assert!(csv.starts_with("name,layer,algo"));
        assert!(csv.contains("L0:conv,0,direct,1000,250,100,4.0000,10.0000,16.0"));

        assert!(rows_on(&t, TrackId::new(9, 9)).is_empty());
    }
}
