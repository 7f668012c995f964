//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name (`layer.operation`), start and end (ns since
//! the tracer's epoch), its parent and the request it belongs to. Spans
//! are kept in memory while the traced phase runs and written out as JSON
//! lines afterwards, so recording costs two clock reads and a push.
//!
//! Self time is a span's duration minus its children's durations. A child
//! need not nest in time: a *mirror* span (the same call replayed through
//! the core API after the request returned) is parented to the request
//! span whose core work it reproduces, so the request's self time is the
//! round trip minus the core time of the same call.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled tracer records nothing and
/// returns a dummy id, so untraced code paths pay one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

pub type SpanId = usize;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured span (used when the timed call ran on a
    /// path that could not hold the tracer, e.g. across a socket).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: at(start), end_ns: at(end), parent, req });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span (ns): duration minus the summed durations of
/// its children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                child_sum[p] += s.duration_ns();
            }
        }
    }
    spans.iter().zip(&child_sum).map(|(s, c)| s.duration_ns().saturating_sub(*c)).collect()
}

/// Per-request self time by layer (µs), for spans whose name is in
/// `names`: one sample per request that touched the layer.
pub fn layer_self_us(spans: &[Span], names: &[&str]) -> BTreeMap<&'static str, Samples> {
    let selfs = self_times(spans);
    let mut per_req: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        if names.contains(&s.name) {
            *per_req.entry((s.layer(), s.req)).or_default() += own;
        }
    }
    let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for ((layer, _), ns) in per_req {
        out.entry(layer).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Per-request sum of self times (µs) over spans named in `names`.
pub fn path_self_us(spans: &[Span], names: &[&str]) -> Samples {
    let selfs = self_times(spans);
    let mut per_req: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        if names.contains(&s.name) {
            *per_req.entry(s.req).or_default() += own;
        }
    }
    let mut out = Samples::new();
    for ns in per_req.values() {
        out.push(*ns as f64 / 1e3);
    }
    out
}

/// Durations (µs) of every span with this name.
pub fn durations_us(spans: &[Span], name: &str) -> Samples {
    let mut out = Samples::new();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(s.duration_ns() as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, req: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, req }
    }

    /// A synthetic request: a 100 µs server round trip whose core work
    /// (dispatch 30 µs, of which lowering 10 µs; scene sync 40 µs; encode
    /// 20 µs) is mirrored as its children.
    fn synthetic() -> Vec<Span> {
        vec![
            span("server.gesture", 0, 100_000, None, 1),
            span("session.dispatch", 200_000, 230_000, Some(0), 1),
            span("difftree.lower", 205_000, 215_000, Some(1), 1),
            span("scene.sync", 230_000, 270_000, Some(0), 1),
            span("scene.encode", 270_000, 290_000, Some(0), 1),
            // A second request with no children.
            span("server.gesture", 300_000, 350_000, None, 2),
        ]
    }

    #[test]
    fn self_time_subtracts_children_even_when_mirrored() {
        let spans = synthetic();
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10_000, 20_000, 10_000, 40_000, 20_000, 50_000]);
        // Self times along the request add back up to its round trip.
        let path =
            ["server.gesture", "session.dispatch", "difftree.lower", "scene.sync", "scene.encode"];
        let mut per_req = path_self_us(&spans, &path);
        assert_eq!(per_req.len(), 2);
        assert_eq!(per_req.percentile(0.0), 50.0);
        assert_eq!(per_req.percentile(1.0), 100.0);
    }

    #[test]
    fn layer_self_times_group_by_layer_and_request() {
        let spans = synthetic();
        let names =
            ["server.gesture", "session.dispatch", "difftree.lower", "scene.sync", "scene.encode"];
        let mut by_layer = layer_self_us(&spans, &names);
        assert_eq!(by_layer["server"].len(), 2);
        assert_eq!(by_layer.get_mut("server").unwrap().percentile(1.0), 50.0);
        // scene.sync and scene.encode are one layer: 40 + 20 µs self.
        assert_eq!(by_layer.get_mut("scene").unwrap().percentile(1.0), 60.0);
        assert_eq!(by_layer.get_mut("session").unwrap().percentile(1.0), 20.0);
        assert_eq!(by_layer.get_mut("difftree").unwrap().percentile(1.0), 10.0);
    }

    #[test]
    fn children_longer_than_parent_floor_at_zero() {
        let spans = vec![span("a.x", 0, 10, None, 0), span("b.y", 0, 50, Some(0), 0)];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a.b", None, 0);
        t.end(id);
        assert_eq!(t.span("c.d", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.begin("a.b", None, 3);
        on.span("c.d", Some(root), 3, || ());
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
    }
}
