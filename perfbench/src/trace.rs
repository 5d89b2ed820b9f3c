//! In-memory span tracing for the traced (`--trace 1`) run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer of the program: name, start, end, parent span and request id.
//! They live in a thread-local buffer while the run goes on and are
//! written out once at exit. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.
//!
//! With tracing off, [`begin`] returns [`NONE`] after one flag test and
//! [`end`] ignores it, so the untraced run pays nothing measurable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the buffer; [`NONE`] when tracing is off.
pub type SpanId = u32;

/// The "no span" id (tracing off, or a root span's parent).
pub const NONE: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `render.run_for`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was enabled.
    pub end_ns: u64,
    /// Enclosing span, or [`NONE`].
    pub parent: SpanId,
    /// Request / cell identifier shared by the spans of one unit of work.
    pub req: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns span recording on or off for this thread. Span times keep one
/// origin (the thread's first use of the tracer) across toggles.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// True while spans are being recorded on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().on)
}

/// Opens a span named `name` for request `req`, nested under the
/// innermost open span.
pub fn begin(name: &'static str, req: u64) -> SpanId {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return NONE;
        }
        let id = t.spans.len() as SpanId;
        let parent = t.stack.last().copied().unwrap_or(NONE);
        let now = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        t.stack.push(id);
        id
    })
}

/// Closes span `id` (a no-op for [`NONE`]). Spans close innermost first.
pub fn end(id: SpanId) {
    if id == NONE {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.origin.elapsed().as_nanos() as u64;
        t.spans[id as usize].end_ns = now;
        let top = t.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    });
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    timed(name, req, f).0
}

/// Runs `f` inside a span (when recording) and returns its result with its
/// wall time in nanoseconds, which the benchmark samples whether or not
/// spans are recorded.
pub fn timed<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let id = begin(name, req);
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    end(id);
    (out, ns)
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Sums count, duration and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Writes spans as tab-separated `id name start_ns end_ns parent req`
/// rows (parent `-` for a root).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_synthetic_tree() {
        // cell [0,100)
        //   run_for [10,90)
        //     decide [20,30)  decide [50,65)
        //       detect [52,60)
        //   drain [90,98)
        let spans = vec![
            sp("cell", 0, 100, NONE),
            sp("run_for", 10, 90, 0),
            sp("decide", 20, 30, 1),
            sp("decide", 50, 65, 1),
            sp("detect", 52, 60, 3),
            sp("drain", 90, 98, 0),
        ];
        assert_eq!(self_times(&spans), vec![12, 55, 10, 7, 8, 8]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let t = totals(&spans);
        assert_eq!(
            t["decide"],
            LayerTotals {
                count: 2,
                total_ns: 25,
                self_ns: 17
            }
        );
        assert_eq!(t["run_for"].self_ns, 55);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            sp("p", 10, 50, NONE),
            sp("a", 5, 20, 0),  // overhangs the parent's start
            sp("b", 15, 30, 0), // overlaps a
            sp("c", 45, 70, 0), // overhangs the parent's end
        ];
        // Covered: [10,30) + [45,50) = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        set_enabled(false);
        assert_eq!(begin("x", 1), NONE);
        end(NONE);
        assert!(take().is_empty());
        set_enabled(true);
        let v = span("outer", 7, || span("inner", 7, || 42));
        assert_eq!(v, 42);
        let spans = take();
        set_enabled(false);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NONE);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
