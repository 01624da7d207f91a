//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the first
//! tracer of the process was made), the span that caused it, and the request it belongs to (one
//! update, commit or read). Spans stay in memory until the run ends. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The common time origin of every tracer in the process.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id, unique within its tracer.
    pub id: u32,
    /// Id of the enclosing span, 0 for a top-level span.
    pub parent: u32,
    /// The request (update, commit or read index) the span serves.
    pub request: u64,
    /// Layer-qualified name, e.g. `core.apply_batch`.
    pub name: &'static str,
    /// Start, in ns since the process's first tracer.
    pub start_ns: u64,
    /// End, in ns since the process's first tracer.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            let mut state = self.tracer.state.borrow_mut();
            state.spans[index].end_ns = end;
            state.open.pop();
        }
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the time child spans cover).
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: *ORIGIN.get_or_init(Instant::now),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span, closed when the guard drops. Spans opened while it is
    /// open become its children.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let id = state.spans.len() as u32 + 1;
        let parent = state.open.last().copied().unwrap_or(0);
        state.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        state.open.push(id);
        SpanGuard {
            tracer: self,
            index: Some(id as usize - 1),
        }
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.state.borrow_mut().spans)
    }
}

/// Append the spans one tracer recorded to `dst`, renumbering their ids so
/// that ids stay unique (1..=len) and parent links stay within `src`.
pub fn append(dst: &mut Vec<Span>, src: &[Span]) {
    let offset = dst.len() as u32;
    dst.extend(src.iter().map(|s| Span {
        id: s.id + offset,
        parent: if s.parent == 0 { 0 } else { s.parent + offset },
        ..s.clone()
    }));
}

/// Per-name totals of `spans`, whose ids must be 1..=len (one tracer's
/// spans, or several joined with [`append`]).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// Render spans as JSON lines (one object per span).
pub fn render_jsonl(spans: &[Span], thread: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"thread\":\"{thread}\",\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 1);
            let _inner = t.span("inner", 1);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        let totals = totals(&spans);
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);

        // Joining two tracers' spans keeps ids unique and parents linked.
        let mut joined = Vec::new();
        append(&mut joined, &spans);
        append(&mut joined, &spans);
        assert_eq!(joined[3].id, 4);
        assert_eq!(joined[3].parent, 3);
        let twice = super::totals(&joined);
        assert_eq!(twice["outer"].self_ns, 2 * outer.self_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", 0));
        assert!(t.take().is_empty());
    }
}
