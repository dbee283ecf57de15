//! Spans recorded by the benchmark *around* its calls into each layer's
//! public functions. They are kept in memory and written out once, when the
//! run ends; nothing inside the program is instrumented.
//!
//! A span has a name (`layer.operation`), a start and an end in nanoseconds
//! since the tracer was made, the span that was open on the same thread when
//! it started (`parent`, 0 for none) and a request identifier that every
//! span of one unit of work shares (one scenario of a decomposed pass, one
//! job of the service loop). Counts are recorded at the same boundaries.

use crate::stats;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u32> = const { Cell::new(0) };
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    next_request: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            next_request: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Open a span; it is recorded when the guard drops. A disabled tracer
    /// hands out an inert guard, which is what an untraced pass pays.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                name,
                id: 0,
                parent: 0,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: Some(self),
            name,
            id,
            parent,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` under a span and also hand back how long it took, for the
    /// subtractions that give a layer's self time.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let guard = self.span(name);
        let value = f();
        drop(guard);
        (value, t.elapsed().as_secs_f64() * 1e3)
    }

    /// Start a new unit of work on this thread: spans opened from now on
    /// share its identifier.
    pub fn begin_request(&self) {
        if self.enabled {
            REQUEST.with(|r| r.set(self.next_request.fetch_add(1, Ordering::Relaxed)));
        }
    }

    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("count lock")
                .entry(name)
                .or_insert(0) += n;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total milliseconds spent under spans of this name.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Median milliseconds of one span of this name.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        assert!(!d.is_empty(), "no span named {name} was recorded");
        stats::median(&d)
    }

    pub fn span_count(&self, name: &str) -> usize {
        self.durations_ms(name).len()
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("count lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Write every span and count as one JSON document. Names are this
    /// benchmark's own identifiers, so no escaping is needed.
    pub fn write_to(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header},\n\"counts\": {{")?;
        let counts = self.counts.lock().expect("count lock");
        for (i, (name, n)) in counts.iter().enumerate() {
            let comma = if i + 1 < counts.len() { "," } else { "" };
            writeln!(out, "  \"{name}\": {n}{comma}")?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        let spans = self.spans.lock().expect("span lock");
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    id: u32,
    parent: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            request: REQUEST.with(Cell::get),
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned lock means another thread already panicked; the run
        // is failing anyway and Drop must not add a second panic.
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_a_request() {
        let tr = Tracer::new(true);
        tr.begin_request();
        {
            let _outer = tr.span("outer");
            let _inner = tr.span("inner");
        }
        tr.count("things", 2);
        tr.count("things", 3);
        let spans = tr.spans.lock().unwrap();
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.request, outer.request);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        drop(spans);
        assert_eq!(tr.counted("things"), 5);
        assert_eq!(tr.span_count("inner"), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let ((), ms) = tr.timed("x", || ());
        tr.count("things", 1);
        assert!(ms >= 0.0);
        assert_eq!(tr.span_count("x"), 0);
        assert_eq!(tr.counted("things"), 0);
    }
}
