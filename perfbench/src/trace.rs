//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self time of each span.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// The public function called (see [`layer`]).
    pub name: &'static str,
    /// The point this span belongs to; `None` for set-up spans.
    pub point: Option<u32>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records nested spans. Single-threaded: a span's parent is whichever span
/// was open when it started.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), point: None }
    }

    /// Tags the spans started from now on with `point`.
    pub fn set_point(&mut self, point: Option<u32>) {
        self.point = point;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Ends the spans a panic left open.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes every span as one JSON object per line; a span's index is
    /// its line number, counted from 0.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"point\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.point.map(u64::from)),
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span's function belongs to; `None` for the benchmark's own
/// grouping spans (`point`, `compile`, `run`).
pub fn layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "models" => "models",
        "fuse_region" => "fusion",
        "globalize_region" | "lower_region" => "lower",
        "verify_graph" => "verify",
        "estimate" => "heuristic",
        "permute" => "tensor",
        "simulate" => "sim",
        "interpret" => "interp",
        "check" => "check",
        _ => return None,
    })
}

/// Each span's duration minus the part of it covered by its direct
/// children. Children may overlap each other or stick out of the parent;
/// only the union of their intervals inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", point: Some(0), parent, start_ns, end_ns }
    }

    #[test]
    fn nested_children_count_only_against_their_parent() {
        let spans = [span(None, 0, 100), span(Some(0), 10, 50), span(Some(1), 20, 30)];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [span(None, 0, 100), span(Some(0), 10, 40), span(Some(0), 30, 60)];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
        // A child contained in an earlier sibling adds nothing.
        let spans = [span(None, 0, 100), span(Some(0), 10, 60), span(Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(None, 0, 100), span(Some(0), 90, 120), span(Some(0), 0, 0)];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn tracer_links_parents_and_points() {
        let mut t = Tracer::new();
        t.set_point(Some(7));
        t.span("compile", |t| {
            t.span("fuse_region", |_| ());
            t.span("lower_region", |_| ());
        });
        t.set_point(None);
        t.span("models", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert_eq!(s[2].point, Some(7));
        assert_eq!(s[3].point, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"name\":\"fuse_region\",\"point\":7,\"parent\":0"));
    }
}
