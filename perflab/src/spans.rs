//! In-memory span recorder for the benchmark's own layer boundaries: one
//! span per run, per rep and per layer timer, written out as JSON when the
//! benchmark ends. Spans inside the simulator are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Crate the timed call belongs to, or `"perflab"` for harness spans.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span nested under the innermost open one.
    pub fn scope<R>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `{"spans":[{"id":0,"name":..,"layer":..,"start_ns":..,"end_ns":..,"parent":null},..]}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent}}}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
