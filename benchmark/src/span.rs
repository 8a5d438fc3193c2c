//! Spans recorded from outside the crates under test: the harness wraps the
//! calls it makes into each layer's public functions.
//!
//! One thread-local recorder, three modes. `Off` costs a branch and no clock
//! read, so the untraced pipeline run measures the code as the daemon runs
//! it. `Record` keeps every span (name, start, end, enclosing span, causing
//! span) in memory for the JSONL dump and the self-time table. `Aggregate`
//! keeps only a per-name sum and count — the 100k-node simulator run makes
//! tens of millions of node steps, too many to store.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

use dpq_core::NodeId;
use dpq_sim::{Ctx, Protocol};

/// Span ids are indices + 1 into the recorder; 0 means "none".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span this one is nested in (0 for a root).
    pub parent: SpanId,
    /// The span that caused this one: the enclosing span if nested, else the
    /// span that emitted the input being processed (0 for a ctl op or tick).
    pub cause: SpanId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Record,
    Aggregate,
}

struct Recorder {
    mode: Mode,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// Cause given to the next root span.
    next_cause: SpanId,
    /// Aggregate mode: `(name, total ns, count)`.
    totals: Vec<(&'static str, u64, u64)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        mode: Mode::Off,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        next_cause: 0,
        totals: Vec::new(),
    });
}

fn start(mode: Mode) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.mode = mode;
        r.epoch = Instant::now();
        r.spans.clear();
        r.stack.clear();
        r.next_cause = 0;
        r.totals.clear();
    });
}

/// Start keeping every span.
pub fn start_recording() {
    start(Mode::Record);
}

/// Start keeping per-name sums only.
pub fn start_aggregating() {
    start(Mode::Aggregate);
}

/// Stop and take what `Record` mode kept.
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.mode = Mode::Off;
        std::mem::take(&mut r.spans)
    })
}

/// Stop and take what `Aggregate` mode kept: `(name, total ns, count)`.
pub fn take_totals() -> Vec<(&'static str, u64, u64)> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.mode = Mode::Off;
        std::mem::take(&mut r.totals)
    })
}

/// The root span about to be entered was caused by `cause` (the span that
/// emitted the message being delivered). Ignored for nested spans.
pub fn set_cause(cause: SpanId) {
    REC.with(|r| r.borrow_mut().next_cause = cause);
}

/// The innermost open span (0 when none, or when not recording).
pub fn current() -> SpanId {
    REC.with(|r| r.borrow().stack.last().copied().unwrap_or(0))
}

/// Closes its span when dropped.
pub struct Guard {
    name: &'static str,
    open: Open,
}

enum Open {
    /// Recorder off: nothing to close.
    Nothing,
    /// Aggregate mode carries its own start, so no vector slot is needed.
    Summing(Instant),
    /// Record mode: the span's id.
    Recording(SpanId),
}

/// Open a span; it closes when the guard drops.
#[inline]
pub fn enter(name: &'static str) -> Guard {
    let open = REC.with(|r| {
        let mut r = r.borrow_mut();
        match r.mode {
            Mode::Off => Open::Nothing,
            Mode::Aggregate => Open::Summing(Instant::now()),
            Mode::Record => {
                let parent = r.stack.last().copied().unwrap_or(0);
                let cause = if parent != 0 {
                    parent
                } else {
                    std::mem::take(&mut r.next_cause)
                };
                let id = r.spans.len() as SpanId + 1;
                r.stack.push(id);
                let start_ns = r.epoch.elapsed().as_nanos() as u64;
                r.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    cause,
                });
                Open::Recording(id)
            }
        }
    });
    Guard { name, open }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        match self.open {
            Open::Nothing => {}
            Open::Summing(t0) => {
                let ns = t0.elapsed().as_nanos() as u64;
                REC.with(|r| {
                    let mut r = r.borrow_mut();
                    match r.totals.iter_mut().find(|t| t.0 == self.name) {
                        Some(t) => {
                            t.1 += ns;
                            t.2 += 1;
                        }
                        None => r.totals.push((self.name, ns, 1)),
                    }
                });
            }
            Open::Recording(id) => REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_nanos() as u64;
                r.spans[id as usize - 1].end_ns = end;
                let top = r.stack.pop();
                debug_assert_eq!(top, Some(id), "spans must close innermost first");
            }),
        }
    }
}

/// A span's self time is its duration minus what its direct children cover.
/// Returns one entry per span, same order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-name rollup of a span list: `(name, self ns, total ns, count)`, in
/// order of first appearance.
pub fn rollup(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let dur = s.end_ns - s.start_ns;
        match out.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += own;
                r.2 += dur;
                r.3 += 1;
            }
            None => out.push((s.name, own, dur, 1)),
        }
    }
    out
}

/// The layer a span name belongs to: everything before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Most spans one file holds; a Seap replica records millions, and a third
/// of a gigabyte of JSONL helps nobody. The rollup uses every span.
pub const JSONL_CAP: usize = 250_000;

/// Write the first [`JSONL_CAP`] spans as JSONL, one object per span, ids as
/// in [`Span`].
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate().take(JSONL_CAP) {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cause\":{}}}",
            i + 1,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.cause
        )?;
    }
    w.flush()
}

/// Cost of the clock reads themselves, for correcting aggregate sums over
/// tens of millions of tiny spans: `(ns counted inside an empty span,
/// wall ns one empty span costs)`.
pub fn calibrate() -> (f64, f64) {
    const N: u64 = 1_000_000;
    start_aggregating();
    let t0 = Instant::now();
    for _ in 0..N {
        let _g = enter("calibrate.empty");
    }
    let wall = t0.elapsed().as_nanos() as f64;
    let inside = take_totals().first().map_or(0, |t| t.1) as f64;
    (inside / N as f64, wall / N as f64)
}

/// Span names of a protocol's two entry points.
pub trait LayerNames {
    /// Name of the span around `on_activate`.
    const ACTIVATE: &'static str;
    /// Name of the span around `on_message`.
    const MESSAGE: &'static str;
}

impl LayerNames for skeap::SkeapNode {
    const ACTIVATE: &'static str = "skeap.on_activate";
    const MESSAGE: &'static str = "skeap.on_message";
}

impl LayerNames for seap::SeapNode {
    const ACTIVATE: &'static str = "seap.on_activate";
    const MESSAGE: &'static str = "seap.on_message";
}

/// A protocol node with a span around each entry point. Transparent in
/// memory and, with the recorder off, in time.
pub struct Spanned<P>(pub P);

impl<P: Protocol + LayerNames> Protocol for Spanned<P> {
    type Msg = P::Msg;

    fn on_activate(&mut self, ctx: &mut Ctx<P::Msg>) {
        let _g = enter(P::ACTIVATE);
        self.0.on_activate(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Ctx<P::Msg>) {
        let _g = enter(P::MESSAGE);
        self.0.on_message(from, msg, ctx);
    }

    fn done(&self) -> bool {
        self.0.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cause: parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 20..30 }, c 50..70 }
        let spans = vec![
            span("pipeline.tick", 0, 100, 0),
            span("reliable.on_activate", 10, 40, 1),
            span("skeap.on_activate", 20, 30, 2),
            span("codec.encode", 50, 70, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let roll = rollup(&spans);
        assert_eq!(roll[0], ("pipeline.tick", 50, 100, 1));
        assert_eq!(roll[1], ("reliable.on_activate", 20, 30, 1));
        assert_eq!(layer_of("reliable.on_activate"), "reliable");
    }

    #[test]
    fn recorder_nests_and_threads_causes() {
        start_recording();
        let first_write;
        {
            let _root = enter("pipeline.tick");
            let _inner = enter("frame.write");
            first_write = current();
        }
        set_cause(first_write);
        {
            let _root = enter("pipeline.deliver");
            let _inner = enter("codec.decode");
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[0].cause), (0, 0));
        assert_eq!((spans[1].parent, spans[1].cause), (1, 1));
        assert_eq!((spans[2].parent, spans[2].cause), (0, 2));
        assert_eq!((spans[3].parent, spans[3].cause), (3, 3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Off again: nothing is kept.
        drop(enter("x.y"));
        assert!(take_spans().is_empty());
    }

    #[test]
    fn aggregate_mode_sums_by_name() {
        start_aggregating();
        for _ in 0..3 {
            let _g = enter("skeap.on_message");
        }
        drop(enter("skeap.on_activate"));
        let totals = take_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!((totals[0].0, totals[0].2), ("skeap.on_message", 3));
        assert_eq!((totals[1].0, totals[1].2), ("skeap.on_activate", 1));
    }
}
