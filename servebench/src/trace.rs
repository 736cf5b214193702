//! In-memory spans, recorded by the benchmark's own code around its
//! calls into each layer and written out when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's clock origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request id the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder with an explicit parent stack.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let end = self.now();
        self.spans[idx].end = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in stack order");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, req);
        let r = f();
        self.exit(idx);
        r
    }
}

/// Self time of every span: its duration minus the part of it covered
/// by its children (children never overlap each other: one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.dur().saturating_sub(c))
        .collect()
}

/// Writes spans as JSON lines: name, start, end, parent, request id.
pub fn write_spans(path: &std::path::Path, groups: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (source, spans) in groups {
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"source\":\"{source}\",\"index\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                start: 0,
                end: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "a",
                start: 10,
                end: 30,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "b",
                start: 40,
                end: 90,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "b.inner",
                start: 50,
                end: 60,
                parent: Some(2),
                req: 1,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 7);
        let v = t.span("inner", 7, || 5);
        t.exit(outer);
        assert_eq!(v, 5);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
    }
}
