//! Benchmark-side spans around calls into each crate.
//!
//! Spans are recorded on the driver thread only, kept in memory, and
//! written out at the end of the run. Each span names the layer
//! (crate) it calls into; a layer's *self time* is its spans' duration
//! minus the part covered by their child spans. Layer `bench` is the
//! benchmark's own work (input generation, output checks, glue), so
//! the self times of all layers add up to the root span's wall time.

use std::cell::RefCell;
use std::time::Instant;

/// The layers spans are attributed to, in report order.
pub const LAYERS: [&str; 8] = [
    "bench",
    "kdr-sparse",
    "kdr-index",
    "kdr-runtime",
    "kdr-core",
    "kdr-service",
    "kdr-service::sharded",
    "kdr-store",
];

#[derive(Clone, Debug)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Workload-defined request id (job number), `u64::MAX` for none.
    id: u64,
}

/// Span recorder. When constructed disabled, [`Tracer::span`] is a
/// plain call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_id(layer, name, u64::MAX, f)
    }

    /// [`Tracer::span`] tagged with a request id.
    pub fn span_id<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Self time per layer, ns, in [`LAYERS`] order, over the closed
    /// spans recorded so far.
    pub fn self_times_ns(&self) -> [u64; LAYERS.len()] {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = [0u64; LAYERS.len()];
        for (i, s) in spans.iter().enumerate() {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child_ns[i]);
            let slot = LAYERS.iter().position(|&l| l == s.layer).unwrap_or(0);
            out[slot] += own;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Chrome `trace_event` JSON: one complete event per span on the
    /// driver thread, with the layer as category and the request id
    /// and parent span as arguments.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = if s.id == u64::MAX {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {id}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_root() {
        let t = Tracer::new(true);
        t.span("bench", "root", || {
            t.span("kdr-core", "outer", || {
                t.span("kdr-sparse", "inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        let spans = t.spans.borrow();
        let root = spans[0].end_ns - spans[0].start_ns;
        let sum: u64 = t.self_times_ns().iter().sum();
        assert_eq!(sum, root);
        assert!(t.self_times_ns()[1] >= 2_000_000);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("bench", "x", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
