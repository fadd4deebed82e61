//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library's
//! public functions; nothing inside the library is instrumented.  Each span
//! carries its name, start, end, parent span and request id.  Spans stay in
//! memory until the run ends, when [`Tracer::write_jsonl`] writes them out
//! and [`Tracer::layer_times`] charges every span its *self* time: its
//! duration minus the part of it that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `engine.score.score`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Span id, unique within the tracer.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The client request this span belongs to.
    pub request: u64,
}

thread_local! {
    /// Open spans of this thread: `(span id, request id)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed span durations, in milliseconds.
    pub total_ms: f64,
    /// Summed self times, in milliseconds.
    pub self_ms: f64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as the root span of client request `request`.
    pub fn request<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(request), f)
    }

    /// Runs `f` inside a span nested in this thread's innermost open span
    /// (and sharing its request id).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, f)
    }

    fn record<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let open = open.borrow();
            let parent = open.last().copied();
            (
                parent.map(|(pid, _)| pid),
                request.or(parent.map(|(_, rid)| rid)).unwrap_or(0),
            )
        });
        OPEN.with(|open| open.borrow_mut().push((id, request)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking client")
            .push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                request,
            });
        out
    }

    /// The spans recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking client")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, parent, s.request
            )?;
        }
        out.flush()
    }

    /// Per-name span count, total time and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans())
    }
}

/// Self time of every span, summed per name: a span's duration minus the
/// length of the union of its children's intervals (clipped to the span).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ms += duration as f64 / 1e6;
        entry.self_ms += duration.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, None, 0, 1_000_000),
            // Two overlapping children cover 200..700 µs: 500 µs in all.
            span("child", 2, Some(1), 200_000, 500_000),
            span("child", 3, Some(1), 400_000, 700_000),
            span("grandchild", 4, Some(2), 250_000, 300_000),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].count, 1);
        assert!((t["root"].self_ms - 0.5).abs() < 1e-12);
        assert!((t["child"].total_ms - 0.6).abs() < 1e-12);
        assert!((t["child"].self_ms - 0.55).abs() < 1e-12);
        assert!((t["grandchild"].self_ms - 0.05).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_inherit_parent_and_request() {
        let tracer = Tracer::new(true);
        tracer.request("root", 42, || tracer.span("inner", || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").expect("root span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(root.parent, None);
        assert_eq!(inner.parent, Some(root.id));
        assert_eq!(inner.request, 42);
        assert!(root.start_ns <= inner.start_ns && inner.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.request("root", 1, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
