//! # lv-trace — hierarchical tracing & profiling for the lvconv workspace
//!
//! A dependency-light, thread-safe tracer that every runtime crate can
//! carry without pulling anything else in. Producers open **spans**
//! (hierarchical, per track), emit **instant events**, **counters** and
//! **async request phases**, and attach typed key/value arguments (e.g. a
//! simulated-machine `Stats` delta) to any of them. Consumers export the
//! collected trace as
//!
//! * Chrome trace-event JSON ([`Tracer::chrome_json`]) — loadable in
//!   Perfetto / `chrome://tracing`,
//! * an ASCII self-time "top spans" report ([`report::self_time`]),
//! * a derived per-layer roofline view ([`roofline::rows_on`]).
//!
//! ## Clock domains
//!
//! Timestamps are caller-supplied `f64` microseconds. The simulated
//! machine traces with **1 trace-µs ≡ 1 simulated cycle**, so span
//! durations are exact cycle counts; the serving engine traces simulated
//! seconds × 10⁶; the benchmark harness traces wall-clock microseconds on
//! its own process id. Keep unrelated clock domains on distinct `pid`s.
//!
//! ## Zero cost when disabled
//!
//! [`Tracer::disabled`] is a `None` behind the same API: every call
//! early-returns without locking or allocating, so instrumented code paths
//! produce bit-identical results (and near-identical speed) with tracing
//! off.
//!
//! ## Well-formedness by construction
//!
//! Spans on one track form a stack, and every span begin/end timestamp is
//! clamped to be monotonically non-decreasing per track (a no-op for real
//! producers, whose clocks only move forward). Ending a span auto-closes
//! any children still open above it at the same timestamp; snapshotting
//! auto-closes leftovers at the latest timestamp seen. Arbitrary begin/end
//! sequences therefore always export balanced, properly nested Chrome
//! trace output — a property pinned by proptest.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub mod chrome;
pub mod json;
pub mod report;
pub mod roofline;

/// Well-known argument keys shared between producers (the simulated
/// machine, the network runner) and consumers (the roofline derivation).
pub mod keys {
    /// Simulated cycles attributed to the span (`u64`).
    pub const CYCLES: &str = "cycles";
    /// Floating-point operations performed in the span (`u64`).
    pub const FLOPS: &str = "flops";
    /// Bytes transferred from DRAM (demand + prefetch lines) (`u64`).
    pub const DRAM_BYTES: &str = "dram_bytes";
    /// Average consumed vector length in elements (`f64`).
    pub const AVG_VL: &str = "avg_vl";
    /// L1 miss rate in [0, 1] (`f64`).
    pub const L1_MISS_RATE: &str = "l1_miss_rate";
    /// L2 miss rate in [0, 1] (`f64`).
    pub const L2_MISS_RATE: &str = "l2_miss_rate";
    /// Vector instructions issued (`u64`).
    pub const VECTOR_INSTRS: &str = "vector_instrs";
    /// DRAM bandwidth utilisation in [0, 1] (`f64`).
    pub const BW_UTIL: &str = "bw_util";
    /// Algorithm name (`str`), conv layers only.
    pub const ALGO: &str = "algo";
    /// Layer index within the network (`u64`).
    pub const LAYER: &str = "layer";
    /// Layer kind ("conv", "maxpool", ...) (`str`).
    pub const KIND: &str = "kind";
}

/// A typed argument value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counters, cycle counts).
    U64(u64),
    /// Floating point (rates, utilisations).
    F64(f64),
    /// String (names, labels).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl ArgValue {
    /// Numeric view of the value (strings yield `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ArgValue::U64(v) => Some(*v as f64),
            ArgValue::F64(v) => Some(*v),
            ArgValue::Str(_) => None,
        }
    }

    /// String view of the value (numbers yield `None`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Key/value argument list.
pub type Args = Vec<(String, ArgValue)>;

/// Process-name metadata pairs from [`Tracer::snapshot_names`].
pub type ProcessNames = Vec<(u64, String)>;

/// Track-name metadata pairs from [`Tracer::snapshot_names`].
pub type TrackNames = Vec<(TrackId, String)>;

/// A timeline: one `(pid, tid)` pair in the Chrome trace model. Spans nest
/// per track; unrelated clock domains should live on different `pid`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId {
    /// Process id (groups tracks in the viewer).
    pub pid: u64,
    /// Thread id (one stack of spans).
    pub tid: u64,
}

impl TrackId {
    /// Shorthand constructor.
    pub fn new(pid: u64, tid: u64) -> Self {
        Self { pid, tid }
    }
}

/// Handle to an open span, returned by [`Tracer::begin`]. Passing it to
/// [`Tracer::end`] closes the span (and any children still open above it).
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    track: TrackId,
    idx: usize,
}

const DEAD_SPAN: usize = usize::MAX;

/// One completed span in a trace snapshot.
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Track the span lives on.
    pub track: TrackId,
    /// Span name.
    pub name: String,
    /// Start timestamp in trace-µs.
    pub start_us: f64,
    /// End timestamp in trace-µs (`>= start_us`).
    pub end_us: f64,
    /// Nesting depth on its track (0 = top level).
    pub depth: usize,
    /// Total trace-µs spent in direct children.
    pub child_us: f64,
    /// Attached arguments.
    pub args: Args,
}

impl FinishedSpan {
    /// Span duration in trace-µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// Duration minus time spent in direct children.
    pub fn self_us(&self) -> f64 {
        (self.dur_us() - self.child_us).max(0.0)
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A point event (instant, counter, or async request phase).
#[derive(Debug, Clone)]
pub enum PointEvent {
    /// A zero-duration marker on a track.
    Instant {
        /// Track the marker lives on.
        track: TrackId,
        /// Marker name.
        name: String,
        /// Timestamp in trace-µs.
        ts_us: f64,
        /// Attached arguments.
        args: Args,
    },
    /// A sampled counter value (rendered as a graph track).
    Counter {
        /// Track the counter lives on.
        track: TrackId,
        /// Counter name.
        name: String,
        /// Timestamp in trace-µs.
        ts_us: f64,
        /// Sampled value.
        value: f64,
    },
    /// Start of an async phase (request lifecycle); phases with the same
    /// `id` nest by begin/end order.
    AsyncBegin {
        /// Process the phase is attributed to.
        pid: u64,
        /// Correlation id (e.g. request number).
        id: u64,
        /// Phase name.
        name: String,
        /// Timestamp in trace-µs.
        ts_us: f64,
        /// Attached arguments.
        args: Args,
    },
    /// End of an async phase.
    AsyncEnd {
        /// Process the phase is attributed to.
        pid: u64,
        /// Correlation id matching the begin.
        id: u64,
        /// Phase name matching the begin.
        name: String,
        /// Timestamp in trace-µs.
        ts_us: f64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRec>,
    open: HashMap<TrackId, Vec<usize>>,
    /// Latest span begin/end timestamp per track; later timestamps are
    /// clamped up to this so per-track span edges never move backwards.
    last_ts: HashMap<TrackId, f64>,
    points: Vec<PointEvent>,
    process_names: Vec<(u64, String)>,
    track_names: Vec<(TrackId, String)>,
    max_ts: f64,
}

#[derive(Debug, Clone)]
struct SpanRec {
    track: TrackId,
    name: String,
    start_us: f64,
    end_us: Option<f64>,
    depth: usize,
    child_us: f64,
    args: Args,
}

/// The tracer. Cheap to clone (shared state behind an `Arc`); a
/// [`Tracer::disabled`] tracer is a no-op behind the identical API.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(Mutex::new(Inner::default()))) }
    }

    /// A no-op tracer: every call returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Name a process (Chrome `process_name` metadata).
    pub fn name_process(&self, pid: u64, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        g.process_names.retain(|(p, _)| *p != pid);
        g.process_names.push((pid, name.to_string()));
    }

    /// Name a track (Chrome `thread_name` metadata).
    pub fn name_track(&self, track: TrackId, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        g.track_names.retain(|(t, _)| *t != track);
        g.track_names.push((track, name.to_string()));
    }

    /// Open a span on `track` at `ts_us`. The start is clamped to the
    /// track's latest span timestamp so per-track edges never go backwards
    /// (and children therefore never leak out of their parent).
    pub fn begin(&self, track: TrackId, name: &str, ts_us: f64) -> SpanId {
        self.begin_args(track, name, ts_us, Vec::new())
    }

    /// [`Tracer::begin`] with arguments attached up front.
    pub fn begin_args(&self, track: TrackId, name: &str, ts_us: f64, args: Args) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId { track, idx: DEAD_SPAN };
        };
        let mut g = inner.lock().expect("tracer lock");
        let last = g.last_ts.get(&track).copied().unwrap_or(f64::NEG_INFINITY);
        let start_us = sane_ts(ts_us).max(last);
        let depth = g.open.get(&track).map_or(0, Vec::len);
        let idx = g.spans.len();
        g.spans.push(SpanRec {
            track,
            name: name.to_string(),
            start_us,
            end_us: None,
            depth,
            child_us: 0.0,
            args,
        });
        g.open.entry(track).or_default().push(idx);
        g.last_ts.insert(track, start_us);
        g.max_ts = g.max_ts.max(start_us);
        SpanId { track, idx }
    }

    /// Close `span` at `ts_us`. Children still open above it are closed at
    /// the same (clamped) timestamp; closing an already-closed span is a
    /// no-op. `args` are appended to the span's argument list.
    pub fn end_args(&self, span: SpanId, ts_us: f64, args: Args) {
        let Some(inner) = &self.inner else { return };
        if span.idx == DEAD_SPAN {
            return;
        }
        let mut g = inner.lock().expect("tracer lock");
        let is_open = g.open.get(&span.track).is_some_and(|s| s.contains(&span.idx));
        if !is_open {
            return; // already closed (or auto-closed by an ancestor)
        }
        // Monotonic clamp: last_ts >= every open span's start on this track,
        // so a single clamped end timestamp closes the whole popped chain.
        let last = g.last_ts.get(&span.track).copied().unwrap_or(f64::NEG_INFINITY);
        let end = sane_ts(ts_us).max(last);
        loop {
            let top = {
                let stack = g.open.get_mut(&span.track).expect("stack exists");
                stack.pop().expect("span was found open")
            };
            g.spans[top].end_us = Some(end);
            let dur = end - g.spans[top].start_us;
            if let Some(&parent) = g.open.get(&span.track).and_then(|s| s.last()) {
                g.spans[parent].child_us += dur;
            }
            if top == span.idx {
                g.spans[top].args.extend(args);
                break;
            }
        }
        g.last_ts.insert(span.track, end);
        g.max_ts = g.max_ts.max(end);
    }

    /// Close `span` at `ts_us` without extra arguments.
    pub fn end(&self, span: SpanId, ts_us: f64) {
        self.end_args(span, ts_us, Vec::new());
    }

    /// Emit a zero-duration marker.
    pub fn instant(&self, track: TrackId, name: &str, ts_us: f64, args: Args) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        let ts = sane_ts(ts_us);
        g.points.push(PointEvent::Instant { track, name: name.to_string(), ts_us: ts, args });
        g.max_ts = g.max_ts.max(ts);
    }

    /// Sample a counter value.
    pub fn counter(&self, track: TrackId, name: &str, ts_us: f64, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        let ts = sane_ts(ts_us);
        g.points.push(PointEvent::Counter { track, name: name.to_string(), ts_us: ts, value });
        g.max_ts = g.max_ts.max(ts);
    }

    /// Begin an async phase correlated by `id` (e.g. one serving request).
    pub fn async_begin(&self, pid: u64, id: u64, name: &str, ts_us: f64, args: Args) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        let ts = sane_ts(ts_us);
        g.points.push(PointEvent::AsyncBegin { pid, id, name: name.to_string(), ts_us: ts, args });
        g.max_ts = g.max_ts.max(ts);
    }

    /// End an async phase; `name` must match the corresponding begin.
    pub fn async_end(&self, pid: u64, id: u64, name: &str, ts_us: f64) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer lock");
        let ts = sane_ts(ts_us);
        g.points.push(PointEvent::AsyncEnd { pid, id, name: name.to_string(), ts_us: ts });
        g.max_ts = g.max_ts.max(ts);
    }

    /// Snapshot every span, auto-closing any still open at the latest
    /// timestamp seen (the recorded state is not mutated). Returns spans in
    /// begin order. Disabled tracers return an empty list.
    pub fn snapshot_spans(&self) -> Vec<FinishedSpan> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let g = inner.lock().expect("tracer lock");
        let mut spans: Vec<SpanRec> = g.spans.clone();
        // Auto-close leftovers: deepest first so parents end >= children.
        for stack in g.open.values() {
            let mut end = g.max_ts;
            for &i in stack.iter().rev() {
                if spans[i].end_us.is_none() {
                    end = end.max(spans[i].start_us);
                    spans[i].end_us = Some(end);
                    let dur = end - spans[i].start_us;
                    if let Some(&parent) = stack.iter().take_while(|&&p| p != i).last() {
                        spans[parent].child_us += dur;
                    }
                }
            }
        }
        spans
            .into_iter()
            .map(|s| FinishedSpan {
                track: s.track,
                name: s.name,
                start_us: s.start_us,
                end_us: s.end_us.expect("all spans closed above"),
                depth: s.depth,
                child_us: s.child_us,
                args: s.args,
            })
            .collect()
    }

    /// Snapshot every point event (instants, counters, async phases).
    pub fn snapshot_points(&self) -> Vec<PointEvent> {
        let Some(inner) = &self.inner else { return Vec::new() };
        inner.lock().expect("tracer lock").points.clone()
    }

    /// Snapshot the process/track name metadata.
    pub fn snapshot_names(&self) -> (ProcessNames, TrackNames) {
        let Some(inner) = &self.inner else { return (Vec::new(), Vec::new()) };
        let g = inner.lock().expect("tracer lock");
        (g.process_names.clone(), g.track_names.clone())
    }

    /// Export the trace as Chrome trace-event JSON (see [`chrome`]).
    pub fn chrome_json(&self) -> String {
        chrome::export(self)
    }

    /// Write [`Tracer::chrome_json`] to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }
}

/// Replace NaN/infinite timestamps with 0 so exports stay valid JSON.
fn sane_ts(ts: f64) -> f64 {
    if ts.is_finite() {
        ts
    } else {
        0.0
    }
}

/// A wall-clock microsecond source for harness-side (non-simulated) spans.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// Start the clock at "now".
    pub fn start() -> Self {
        Self { epoch: std::time::Instant::now() }
    }

    /// Microseconds elapsed since [`WallClock::start`].
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TrackId = TrackId { pid: 0, tid: 0 };

    #[test]
    fn disabled_tracer_is_a_noop() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let s = t.begin(T, "a", 0.0);
        t.end(s, 10.0);
        t.instant(T, "i", 1.0, vec![]);
        t.counter(T, "c", 2.0, 3.0);
        assert!(t.snapshot_spans().is_empty());
        assert!(t.snapshot_points().is_empty());
        assert_eq!(t.chrome_json(), chrome::export(&Tracer::disabled()));
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let t = Tracer::enabled();
        let a = t.begin(T, "a", 0.0);
        let b = t.begin(T, "b", 2.0);
        t.end(b, 5.0);
        t.end(a, 10.0);
        let spans = t.snapshot_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].dur_us(), 3.0);
        assert_eq!(spans[0].self_us(), 7.0);
    }

    #[test]
    fn ending_parent_auto_closes_children() {
        let t = Tracer::enabled();
        let a = t.begin(T, "a", 0.0);
        let _b = t.begin(T, "b", 2.0);
        let _c = t.begin(T, "c", 3.0);
        t.end(a, 8.0); // b and c never explicitly ended
        let spans = t.snapshot_spans();
        assert!(spans.iter().all(|s| s.end_us == 8.0));
        // And a double-end of b is a silent no-op.
        t.end(_b, 99.0);
        assert_eq!(t.snapshot_spans()[1].end_us, 8.0);
    }

    #[test]
    fn child_intervals_stay_inside_parents() {
        let t = Tracer::enabled();
        let a = t.begin(T, "a", 10.0);
        let b = t.begin(T, "b", 5.0); // starts "before" its parent: clamped
        t.end(b, 3.0); // ends before it starts: clamped
        t.end(a, 2.0); // parent ends before child end: propagated
        let spans = t.snapshot_spans();
        let (pa, pb) = (&spans[0], &spans[1]);
        assert!(pb.start_us >= pa.start_us);
        assert!(pb.end_us <= pa.end_us);
        assert!(pb.end_us >= pb.start_us);
    }

    #[test]
    fn snapshot_closes_open_spans_at_max_ts() {
        let t = Tracer::enabled();
        let _a = t.begin(T, "a", 0.0);
        t.instant(T, "later", 42.0, vec![]);
        let spans = t.snapshot_spans();
        assert_eq!(spans[0].end_us, 42.0);
        // The recorded state was not mutated: a second snapshot agrees.
        assert_eq!(t.snapshot_spans()[0].end_us, 42.0);
    }

    #[test]
    fn args_attach_at_begin_and_end() {
        let t = Tracer::enabled();
        let a = t.begin_args(T, "a", 0.0, vec![("x".into(), 1u64.into())]);
        t.end_args(a, 5.0, vec![("y".into(), 2.5f64.into())]);
        let s = &t.snapshot_spans()[0];
        assert_eq!(s.arg("x").and_then(ArgValue::as_f64), Some(1.0));
        assert_eq!(s.arg("y").and_then(ArgValue::as_f64), Some(2.5));
        assert!(s.arg("z").is_none());
    }

    #[test]
    fn tracks_are_independent_stacks() {
        let t = Tracer::enabled();
        let t2 = TrackId::new(0, 1);
        let a = t.begin(T, "a", 0.0);
        let b = t.begin(t2, "b", 1.0);
        t.end(a, 2.0); // must not close b
        let spans = t.snapshot_spans();
        assert_eq!(spans[1].depth, 0);
        t.end(b, 3.0);
        assert_eq!(t.snapshot_spans()[1].end_us, 3.0);
    }

    #[test]
    fn wall_clock_advances() {
        let c = WallClock::start();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a && a >= 0.0);
    }
}
