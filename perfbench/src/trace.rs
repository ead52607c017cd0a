//! Spans recorded around the benchmark's own calls into each layer: name,
//! start, end and parent. They stay in memory during the run and are
//! written out as JSON lines when it ends. Nothing is traced inside the
//! program.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start_s, end_s: start_s, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_s).sum();
        self.spans[id].duration_s() - children
    }

    /// Self times of every span named `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time_s(i))
            .collect()
    }

    /// For each span named `root`: its duration and the summed durations
    /// of its direct children, the part of it the layer calls account for.
    /// The layer spans have no children of their own, so these durations
    /// are also their self times.
    pub fn coverage(&self, root: &str) -> Vec<(f64, f64)> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .map(|i| {
                let covered: f64 =
                    self.spans.iter().filter(|s| s.parent == Some(i)).map(Span::duration_s).sum();
                (self.spans[i].duration_s(), covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"self_s\":{}}}",
                s.name,
                s.start_s,
                s.end_s,
                self.self_time_s(id)
            )?;
        }
        out.flush()
    }
}
