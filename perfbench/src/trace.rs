//! Spans the benchmark records around every call it makes into a layer.
//!
//! Spans are kept in memory and written once, as JSON lines, when the
//! run ends. A span covers one timed call, or one timed batch of `calls`
//! identical calls where a single call is too short to time on its own.
//! Spans nest: the span open when another begins is its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    session: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    calls: u64,
}

/// The in-memory span store; records nothing when tracing is off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::end`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span of `name` in `layer` for benchmark session `session`.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, session: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            session,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which covered `calls` calls into its layer.
    pub fn end(&mut self, span: SpanId, calls: u64) {
        let Some(id) = span.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
            s.calls = calls;
        }
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span covering `calls` calls.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        session: u32,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, name, session);
        let out = f();
        self.end(id, calls);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Calls recorded per layer.
    pub fn layer_calls(&self) -> BTreeMap<&'static str, u64> {
        let mut calls = BTreeMap::new();
        for s in &self.spans {
            *calls.entry(s.layer).or_insert(0) += s.calls;
        }
        calls
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"session\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.session, s.layer, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        std::fs::write(path, out)
    }
}
