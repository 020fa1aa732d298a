//! In-memory spans around the calls into each layer, self time per
//! layer, and the span dump written when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, after the module that owns the call.
    pub layer: &'static str,
    /// Request the call served (the request's position in the unique list).
    pub request: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, `span` runs the call and
/// records nothing, so an untraced pass executes the same code.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `on` decides whether spans are kept.
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer` for `request`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans, in ns: inclusive duration and
/// self time (duration minus the part covered by direct children).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// Inclusive and self time per layer. Spans are indexed within one
/// recorder; recorders are summed separately and merged.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.layer).or_default();
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Write spans as JSON lines: one object per span with its recorder
/// (`thread`), index, parent, layer, request, start and end.
pub fn write_spans(path: &std::path::Path, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in recorders.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.request, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
