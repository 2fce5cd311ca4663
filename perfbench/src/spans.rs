//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent span, cell id), kept in memory, and written
//! out once when the run ends.

use spt_util::Json;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ooo.construct`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into [`Spans::cells`] of the cell the call served.
    pub cell: usize,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
    /// Cell names, indexed by [`Span::cell`]; entry 0 is the whole run.
    cells: Vec<String>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            cells: vec!["run".to_string()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Makes `name` the current cell for the spans that follow.
    pub fn set_cell(&mut self, name: &str) {
        self.cell = match self.cells.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                self.cells.push(name.to_string());
                self.cells.len() - 1
            }
        };
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, cell: self.cell });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Total milliseconds and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + (s.end_ns - s.start_ns) as f64 / 1e6, n + 1))
    }

    /// The recorded spans as a JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                    ("cell", Json::U64(s.cell as u64)),
                ])
            })
            .collect();
        let cells = self.cells.iter().map(|c| Json::Str(c.clone())).collect();
        Json::obj([("cells", Json::Arr(cells)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_cell() {
        let mut s = Spans::new();
        s.set_cell("gcc/UnsafeBaseline");
        s.enter("outer");
        s.time("inner", || ());
        s.exit();
        s.set_cell("run");
        s.time("inner", || ());
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].cell, 1);
        assert_eq!(s.spans[2].cell, 0);
        assert_eq!(s.total("inner").1, 2);
        assert!(s.spans.iter().all(|x| x.end_ns >= x.start_ns));
        let doc = s.to_json().to_string();
        assert!(Json::parse(&doc).is_ok());
    }
}
