//! Observability for the serving engine: exact-rank latency statistics,
//! per-replica counters, drop accounting, and time-sliced utilization /
//! queue-depth series.
//!
//! All percentiles use the nearest-rank definition (`ceil(n·p)`-th order
//! statistic), which never reports a value below the true percentile on
//! small samples — unlike truncating the rank index, which biases p99 low.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(n * p)`, clamped to `[1, n]`. Panics on an empty
/// slice — callers report zero-sample runs separately.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile p out of [0,1]: {p}");
    let n = sorted.len();
    let rank = (n as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Summary statistics of a latency sample.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Arithmetic mean in seconds.
    pub mean_s: f64,
    /// Median (nearest-rank p50) in seconds.
    pub p50_s: f64,
    /// Nearest-rank p95 in seconds.
    pub p95_s: f64,
    /// Nearest-rank p99 in seconds.
    pub p99_s: f64,
    /// Maximum observed in seconds.
    pub max_s: f64,
    /// Number of samples.
    pub count: usize,
}

/// Accumulates end-to-end latencies and produces exact-rank summaries.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples: Vec<f64>,
}

impl LatencyHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency in seconds.
    pub fn record(&mut self, latency_s: f64) {
        self.samples.push(latency_s);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fold another histogram's samples into this one, as if every latency
    /// in `other` had been recorded here directly. Exact: because the
    /// histogram keeps raw samples, merged percentiles equal the
    /// percentiles of one globally-recorded histogram — per-replica
    /// histograms combine without re-recording.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Summarise. Zero samples yield an all-zero summary instead of
    /// panicking (an overloaded run can drop every request).
    pub fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        LatencySummary {
            mean_s: sorted.iter().sum::<f64>() / n as f64,
            p50_s: percentile(&sorted, 0.50),
            p95_s: percentile(&sorted, 0.95),
            p99_s: percentile(&sorted, 0.99),
            max_s: sorted[n - 1],
            count: n,
        }
    }
}

/// Why a request was dropped instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The bounded admission queue was full on arrival (backpressure).
    QueueFull,
    /// The request's deadline expired before service could start.
    DeadlineExceeded,
    /// The node crashed while the request was queued or in flight.
    NodeFailed,
}

/// Drop accounting by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropStats {
    /// Requests rejected at admission because the queue was full.
    pub queue_full: u64,
    /// Requests shed because their deadline passed while queued.
    pub deadline_exceeded: u64,
    /// Requests lost to a node crash (queued or in flight at the time).
    #[serde(default)]
    pub failed: u64,
}

impl DropStats {
    /// Record one drop.
    pub fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueFull => self.queue_full += 1,
            DropReason::DeadlineExceeded => self.deadline_exceeded += 1,
            DropReason::NodeFailed => self.failed += 1,
        }
    }

    /// Total drops across reasons.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_exceeded + self.failed
    }
}

/// Per-replica work counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ReplicaCounters {
    /// Batches executed.
    pub batches: u64,
    /// Requests completed (sum of batch sizes).
    pub requests: u64,
    /// Total busy time in seconds.
    pub busy_s: f64,
}

/// One time slice of the utilization / queue-depth series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SliceStat {
    /// Slice start time in seconds.
    pub t_start_s: f64,
    /// Fraction of replica-seconds spent busy in this slice, in [0, 1].
    pub utilization: f64,
    /// Time-weighted mean queue depth over the slice.
    pub mean_queue_depth: f64,
}

/// Builds time-sliced utilization and queue-depth series from engine
/// events: `add_busy` contributes replica busy intervals, `note_depth`
/// records queue-depth transitions (integrated time-weighted per slice).
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    width_s: f64,
    busy: Vec<f64>,     // busy replica-seconds per slice
    depth_dt: Vec<f64>, // integral of queue depth over time per slice
    last_depth_t: f64,
    last_depth: usize,
    max_depth: usize,
}

impl SeriesRecorder {
    /// New recorder with the given slice width (seconds).
    pub fn new(width_s: f64) -> Self {
        assert!(width_s > 0.0, "slice width must be positive");
        Self {
            width_s,
            busy: Vec::new(),
            depth_dt: Vec::new(),
            last_depth_t: 0.0,
            last_depth: 0,
            max_depth: 0,
        }
    }

    fn slice_of(&self, t: f64) -> usize {
        (t / self.width_s) as usize
    }

    fn ensure(&mut self, idx: usize) {
        if self.busy.len() <= idx {
            self.busy.resize(idx + 1, 0.0);
            self.depth_dt.resize(idx + 1, 0.0);
        }
    }

    /// Spread `weight`-scaled time over `[t0, t1)` into `acc` slices.
    /// Index-stepped rather than time-stepped: advancing a float clock to
    /// each slice boundary can stall when rounding makes the boundary
    /// land at or below the current time.
    fn spread(width_s: f64, acc: &mut [f64], t0: f64, t1: f64, weight: f64) {
        let i0 = (t0 / width_s) as usize;
        let i1 = ((t1 / width_s) as usize).min(acc.len().saturating_sub(1));
        for (idx, slot) in acc.iter_mut().enumerate().take(i1 + 1).skip(i0) {
            let lo = idx as f64 * width_s;
            let hi = lo + width_s;
            let seg = (t1.min(hi) - t0.max(lo)).max(0.0);
            *slot += seg * weight;
        }
    }

    /// Add one replica's busy interval `[start, end)`.
    pub fn add_busy(&mut self, start_s: f64, end_s: f64) {
        if end_s <= start_s {
            return;
        }
        let last = self.slice_of(end_s);
        self.ensure(last);
        Self::spread(self.width_s, &mut self.busy, start_s, end_s, 1.0);
    }

    /// Record that the queue depth became `depth` at time `t`.
    pub fn note_depth(&mut self, t_s: f64, depth: usize) {
        if t_s > self.last_depth_t && self.last_depth > 0 {
            let last = self.slice_of(t_s);
            self.ensure(last);
            Self::spread(
                self.width_s,
                &mut self.depth_dt,
                self.last_depth_t,
                t_s,
                self.last_depth as f64,
            );
        }
        self.last_depth_t = self.last_depth_t.max(t_s);
        self.last_depth = depth;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Maximum queue depth ever observed.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Close the series at `end_s` and emit per-slice stats for a system
    /// of `replicas` servers.
    pub fn finalize(mut self, end_s: f64, replicas: usize) -> Vec<SliceStat> {
        self.note_depth(end_s, 0); // flush the trailing depth segment
        let n = self.slice_of(end_s.max(0.0)).min(self.busy.len().max(1) - 1);
        self.ensure(n);
        (0..=n)
            .map(|i| {
                let width = self.width_s;
                SliceStat {
                    t_start_s: i as f64 * width,
                    utilization: (self.busy[i] / (width * replicas as f64)).min(1.0),
                    mean_queue_depth: self.depth_dt[i] / width,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the rank-truncation bug: nearest-rank p99 of the
    /// 100-sample distribution 1..=100 is exactly 99, and tail percentiles
    /// that the old `((n-1) as f64 * p) as usize` formula under-reported
    /// now hit the correct order statistic.
    #[test]
    fn nearest_rank_pins_known_distribution() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        // p99.5 of 100 samples: rank ceil(99.5) = 100 -> the max. The old
        // truncating formula returned index 98 (the 99th sample).
        assert_eq!(percentile(&sorted, 0.995), 100.0);
        // Small-sample tail: p99 of 10 samples is the max (rank ceil(9.9)
        // = 10); the old formula truncated to index 8.
        let ten: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.90), 9.0);
    }

    #[test]
    fn histogram_summary_is_exact() {
        let mut h = LatencyHistogram::new();
        for i in (1..=100).rev() {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    /// Sharding latencies across per-replica histograms and merging must
    /// reproduce the globally-recorded summary exactly — percentiles are
    /// order statistics of the union, not an approximation.
    #[test]
    fn merged_shards_match_global_percentiles() {
        let mut global = LatencyHistogram::new();
        let mut shards = vec![LatencyHistogram::new(); 4];
        // Deterministic but scrambled sample stream (multiplicative hash).
        for i in 0..1000u64 {
            let v = ((i * 2654435761) % 997) as f64 * 1e-3;
            global.record(v);
            shards[(i % 4) as usize].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for s in &shards {
            merged.merge(s);
        }
        let (g, m) = (global.summary(), merged.summary());
        assert_eq!(m.count, g.count);
        assert_eq!(m.p50_s, g.p50_s);
        assert_eq!(m.p95_s, g.p95_s);
        assert_eq!(m.p99_s, g.p99_s);
        assert_eq!(m.max_s, g.max_s);
        assert!((m.mean_s - g.mean_s).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        assert_eq!(LatencyHistogram::new().summary().count, 0);
        assert_eq!(LatencyHistogram::new().summary().p99_s, 0.0);
    }

    #[test]
    fn drop_stats_accumulate() {
        let mut d = DropStats::default();
        d.record(DropReason::QueueFull);
        d.record(DropReason::QueueFull);
        d.record(DropReason::DeadlineExceeded);
        assert_eq!(d.queue_full, 2);
        assert_eq!(d.deadline_exceeded, 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn series_tracks_busy_and_depth() {
        let mut s = SeriesRecorder::new(1.0);
        // One replica busy 0.0..1.5 -> slice0 util 1.0, slice1 util 0.5.
        s.add_busy(0.0, 1.5);
        // Depth 2 during 0.5..1.0 -> slice0 mean depth 1.0.
        s.note_depth(0.5, 2);
        s.note_depth(1.0, 0);
        let slices = s.finalize(2.0, 1);
        assert!(slices.len() >= 2);
        assert!((slices[0].utilization - 1.0).abs() < 1e-9);
        assert!((slices[1].utilization - 0.5).abs() < 1e-9);
        assert!((slices[0].mean_queue_depth - 1.0).abs() < 1e-9);
        assert!((slices[1].mean_queue_depth - 0.0).abs() < 1e-9);
    }

    #[test]
    fn series_records_max_depth() {
        let mut s = SeriesRecorder::new(0.5);
        s.note_depth(0.1, 3);
        s.note_depth(0.2, 7);
        s.note_depth(0.3, 1);
        assert_eq!(s.max_depth(), 7);
    }
}
