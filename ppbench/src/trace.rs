//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, op): `op` groups the spans of one
//! operation. Spans stay in memory and are written out once, at the end
//! of the traced run. A disabled tracer records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);

    fn get(self) -> Option<usize> {
        (self.0 != usize::MAX).then_some(self.0)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-name (sum, samples) of counts recorded at span boundaries.
    counts: BTreeMap<&'static str, (f64, u64)>,
    op: u64,
}

/// Per-name aggregate over a finished trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new(), counts: BTreeMap::new(), op: 0 }
    }

    /// An empty tracer for another thread, on the same clock. `lane`
    /// keeps its operation ids apart from this tracer's.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer { op: lane << 40, ..Tracer::new(self.enabled, self.epoch) }
    }

    /// Starts a new operation: later root spans belong to it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = parent.and_then(SpanId::get);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.get() {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records one sample of a count measured where the work happens.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let e = self.counts.entry(name).or_default();
            e.0 += value;
            e.1 += 1;
        }
    }

    /// Mean of a recorded count, if any sample was taken.
    pub fn count_mean(&self, name: &str) -> Option<f64> {
        self.counts.get(name).map(|(sum, n)| sum / *n as f64)
    }

    /// Moves another thread's spans and counts into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, (sum, n)) in other.counts {
            let e = self.counts.entry(name).or_default();
            e.0 += sum;
            e.1 += n;
        }
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the part its child spans cover (children of one
    /// span run one after another, so their durations add up).
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `op id parent name start_ns end_ns` (`parent` is `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{}\t{i}\t{parent}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
