//! Deterministic, virtual-time query tracing.
//!
//! Every query carries a [`Trace`]: a tree of [`Span`]s (query → stage →
//! task/split → operator) stamped exclusively from the shared virtual
//! [`SimClock`]. Because clippy.toml bans reading the wall clock, two runs
//! with the same seed produce the same span tree with the same timestamps,
//! so [`Trace::digest`] is bit-identical across runs — the chaos suite
//! diffs digests to prove deterministic recovery, and `EXPLAIN ANALYZE`
//! renders the operator spans as per-node runtime stats.
//!
//! Span timestamps are [`Duration`]s since virtual time zero. Children are
//! canonicalized by `(start, name)` rather than creation order, so task
//! spans opened concurrently by worker threads hash identically regardless
//! of thread interleaving.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Mutex, Rank};

use crate::clock::SimClock;

/// Identifier of a span within one [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Raw index of the span in its trace.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What level of the execution hierarchy a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One end-to-end query.
    Query,
    /// One plan fragment scheduled on the cluster.
    Stage,
    /// One task (split attempt) on a worker.
    Task,
    /// One operator of the local executor.
    Operator,
    /// One speculative-execution decision: a duplicate attempt launched for
    /// a straggling split.
    Speculate,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Stage => "stage",
            SpanKind::Task => "task",
            SpanKind::Operator => "operator",
            SpanKind::Speculate => "speculate",
        }
    }
}

/// One timed node in the trace tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Parent span, `None` for the root query span.
    pub parent: Option<SpanId>,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Human-readable name (operator label, `split[3]`, …).
    pub name: String,
    /// Virtual time the span opened.
    pub start: Duration,
    /// Virtual time the span closed; `None` while still open.
    pub end: Option<Duration>,
    /// Numeric attributes (rows_out, spill_bytes, …), sorted by key.
    pub attrs: BTreeMap<String, u64>,
}

impl Span {
    /// Span duration; zero while still open.
    pub fn duration(&self) -> Duration {
        self.end.map(|e| e.saturating_sub(self.start)).unwrap_or(Duration::ZERO)
    }

    /// Attribute value, 0 when absent.
    pub fn attr(&self, key: &str) -> u64 {
        self.attrs.get(key).copied().unwrap_or(0)
    }
}

/// Runtime statistics of one executed operator, extracted from its span.
///
/// This lives in `presto-common` (not the exec crate) so the planner's
/// `EXPLAIN ANALYZE` renderer can consume it without violating the crate
/// layering DAG.
#[derive(Debug, Clone)]
pub struct OperatorStats {
    /// Operator label as produced by the plan node (e.g. `InnerJoin[keys=1]`).
    pub name: String,
    /// Rows consumed from children (sum of their output rows).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Bytes produced (in-memory page size).
    pub bytes_out: u64,
    /// Pages produced.
    pub pages_out: u64,
    /// Virtual time spent in this operator, excluding child operators.
    pub busy: Duration,
    /// Growth of the query's peak memory reservation while this operator ran.
    pub peak_memory: u64,
    /// Spill bytes written while this operator ran.
    pub spill_bytes: u64,
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Vec<Span>,
}

/// A shared, append-only collection of spans for one query.
///
/// Cloning shares the underlying spans; worker threads clone the trace and
/// record task spans concurrently.
#[derive(Debug, Clone)]
pub struct Trace {
    clock: SimClock,
    inner: Arc<Mutex<TraceInner>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new(SimClock::new())
    }
}

impl Trace {
    /// New trace stamping spans from `clock`.
    pub fn new(clock: SimClock) -> Trace {
        Trace { clock, inner: Arc::new(Mutex::new(Rank::Trace, TraceInner::default())) }
    }

    /// The virtual clock this trace stamps spans from.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Open a span; returns its id for [`Trace::end`] and attribute calls.
    pub fn begin(&self, kind: SpanKind, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start = self.clock.now();
        let mut inner = self.inner.lock();
        let id = SpanId(inner.spans.len() as u64);
        inner.spans.push(Span {
            id,
            parent,
            kind,
            name: name.into(),
            start,
            end: None,
            attrs: BTreeMap::new(),
        });
        id
    }

    /// Close a span at the current virtual time.
    pub fn end(&self, id: SpanId) {
        let now = self.clock.now();
        if let Some(span) = self.inner.lock().spans.get_mut(id.index()) {
            span.end = Some(now);
        }
    }

    /// Set attribute `key` on span `id` (overwrites).
    pub fn set_attr(&self, id: SpanId, key: &str, value: u64) {
        if let Some(span) = self.inner.lock().spans.get_mut(id.index()) {
            span.attrs.insert(key.to_string(), value);
        }
    }

    /// Attribute `key` of span `id`, if set.
    pub fn attr(&self, id: SpanId, key: &str) -> Option<u64> {
        self.inner.lock().spans.get(id.index()).and_then(|s| s.attrs.get(key).copied())
    }

    /// Sum of attribute `key` over the direct children of `parent`.
    pub fn child_attr_sum(&self, parent: SpanId, key: &str) -> u64 {
        self.inner
            .lock()
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.attrs.get(key).copied().unwrap_or(0))
            .sum()
    }

    /// Snapshot of all spans in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().spans.clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().spans.is_empty()
    }

    /// Operator spans in creation order, summarized as [`OperatorStats`].
    ///
    /// The local executor runs single-threaded, so creation order is the
    /// depth-first pre-order of the plan tree — the same order a plan walk
    /// visits nodes. Busy time is the span's duration minus the durations
    /// of its direct operator children.
    pub fn operator_stats(&self) -> Vec<OperatorStats> {
        let spans = self.spans();
        let mut child_time: BTreeMap<SpanId, Duration> = BTreeMap::new();
        for span in &spans {
            if span.kind != SpanKind::Operator {
                continue;
            }
            if let Some(parent) = span.parent {
                *child_time.entry(parent).or_default() += span.duration();
            }
        }
        spans
            .iter()
            .filter(|s| s.kind == SpanKind::Operator)
            .map(|s| {
                let nested = child_time.get(&s.id).copied().unwrap_or(Duration::ZERO);
                OperatorStats {
                    name: s.name.clone(),
                    rows_in: s.attr("rows_in"),
                    rows_out: s.attr("rows_out"),
                    bytes_out: s.attr("bytes_out"),
                    pages_out: s.attr("pages_out"),
                    busy: s.duration().saturating_sub(nested),
                    peak_memory: s.attr("peak_memory"),
                    spill_bytes: s.attr("spill_bytes"),
                }
            })
            .collect()
    }

    /// Children of each span, canonically ordered by `(start, name)`.
    ///
    /// Creation order is thread-interleaving dependent for concurrently
    /// opened task spans; `(start, name)` is not, because virtual timestamps
    /// and names are both seed-deterministic.
    fn canonical_children(spans: &[Span]) -> BTreeMap<Option<SpanId>, Vec<usize>> {
        let mut children: BTreeMap<Option<SpanId>, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            children.entry(span.parent).or_default().push(i);
        }
        for list in children.values_mut() {
            list.sort_by(|&a, &b| {
                (spans[a].start, &spans[a].name).cmp(&(spans[b].start, &spans[b].name))
            });
        }
        children
    }

    fn canonical_lines(&self) -> Vec<String> {
        let spans = self.spans();
        let children = Trace::canonical_children(&spans);
        let mut lines = Vec::with_capacity(spans.len());
        let mut stack: Vec<(usize, usize)> = children
            .get(&None)
            .map(|roots| roots.iter().rev().map(|&i| (i, 0)).collect())
            .unwrap_or_default();
        while let Some((i, depth)) = stack.pop() {
            let span = &spans[i];
            let mut line = format!(
                "{depth}|{}|{}|{}|{}",
                span.kind.label(),
                span.name,
                span.start.as_nanos(),
                span.duration().as_nanos()
            );
            for (k, v) in &span.attrs {
                let _ = write!(line, "|{k}={v}");
            }
            lines.push(line);
            if let Some(kids) = children.get(&Some(span.id)) {
                for &k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
        lines
    }

    /// Deterministic digest of the canonical span tree (FNV-1a).
    ///
    /// Same seed ⇒ same spans ⇒ same digest, independent of thread timing.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for line in self.canonical_lines() {
            for byte in line.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            hash ^= u64::from(b'\n');
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// Human-readable indented rendering of the span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.canonical_lines() {
            let mut parts = line.splitn(2, '|');
            let depth: usize = parts.next().and_then(|d| d.parse().ok()).unwrap_or(0);
            let rest = parts.next().unwrap_or("");
            let mut fields = rest.split('|');
            let kind = fields.next().unwrap_or("");
            let name = fields.next().unwrap_or("");
            let start: u128 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let dur: u128 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let _ = write!(out, "{:indent$}{kind} {name}", "", indent = depth * 2);
            let _ = write!(out, "  [start={}µs, {}µs", start / 1000, dur / 1000);
            for attr in fields {
                let _ = write!(out, ", {attr}");
            }
            out.push_str("]\n");
        }
        out
    }

    /// Machine-readable JSON event log: an array of span objects in
    /// canonical order. Hand-rolled (no serde in this workspace).
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let children = Trace::canonical_children(&spans);
        let mut order = Vec::with_capacity(spans.len());
        let mut stack: Vec<usize> =
            children.get(&None).map(|r| r.iter().rev().copied().collect()).unwrap_or_default();
        while let Some(i) = stack.pop() {
            order.push(i);
            if let Some(kids) = children.get(&Some(spans[i].id)) {
                stack.extend(kids.iter().rev());
            }
        }
        let mut out = String::from("[");
        for (n, &i) in order.iter().enumerate() {
            let span = &spans[i];
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"duration_ns\":{},\"attrs\":{{",
                span.kind.label(),
                json_escape(&span.name),
                span.parent.map(|p| p.0 as i64).unwrap_or(-1),
                span.start.as_nanos(),
                span.duration().as_nanos()
            );
            for (k, (key, value)) in span.attrs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(key), value);
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let clock = SimClock::new();
        let trace = Trace::new(clock.clone());
        let q = trace.begin(SpanKind::Query, "q1", None);
        clock.advance_micros(10);
        let op = trace.begin(SpanKind::Operator, "TableScan[t]", Some(q));
        clock.advance_micros(40);
        trace.set_attr(op, "rows_out", 100);
        trace.end(op);
        clock.advance_micros(5);
        trace.end(q);
        trace
    }

    #[test]
    fn spans_nest_and_time_with_virtual_clock() {
        let trace = sample_trace();
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Query);
        assert_eq!(spans[0].duration(), Duration::from_micros(55));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].attr("rows_out"), 100);
    }

    #[test]
    fn same_construction_same_digest() {
        assert_eq!(sample_trace().digest(), sample_trace().digest());
    }

    #[test]
    fn digest_ignores_creation_order_of_simultaneous_children() {
        let build = |flip: bool| {
            let clock = SimClock::new();
            let trace = Trace::new(clock.clone());
            let q = trace.begin(SpanKind::Query, "q", None);
            clock.advance_micros(1);
            // Two task spans at the same virtual instant, created in
            // opposite orders — models worker-thread interleaving.
            let names = if flip { ["split[1]", "split[0]"] } else { ["split[0]", "split[1]"] };
            for name in names {
                let t = trace.begin(SpanKind::Task, name, Some(q));
                trace.end(t);
            }
            trace.end(q);
            trace.digest()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn digest_sees_attribute_changes() {
        let a = sample_trace();
        let b = sample_trace();
        let op = b.spans()[1].id;
        b.set_attr(op, "rows_out", 101);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn operator_stats_subtract_child_busy_time() {
        let clock = SimClock::new();
        let trace = Trace::new(clock.clone());
        let parent = trace.begin(SpanKind::Operator, "Filter", None);
        clock.advance_micros(10);
        let child = trace.begin(SpanKind::Operator, "TableScan", Some(parent));
        clock.advance_micros(30);
        trace.end(child);
        clock.advance_micros(5);
        trace.end(parent);
        let stats = trace.operator_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "Filter");
        assert_eq!(stats[0].busy, Duration::from_micros(15));
        assert_eq!(stats[1].busy, Duration::from_micros(30));
    }

    #[test]
    fn render_and_json_contain_span_names() {
        let trace = sample_trace();
        let rendered = trace.render();
        assert!(rendered.contains("TableScan[t]"));
        let json = trace.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"rows_out\":100"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
