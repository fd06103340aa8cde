//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API; nothing inside the program is instrumented. Spans
//! of one batch share the batch index as their request id. Probe spans —
//! calls on in-memory twins, never on the measured service's critical
//! path — are flagged and kept out of the self-time sums.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Opened span handle; `None` when tracing is off.
pub type Token = Option<usize>;

/// The recorder. With `on == false` every call is a no-op.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, id: u64, probe: bool) -> Token {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            probe,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `token` opened (spans close innermost first).
    pub fn end(&mut self, token: Token) {
        if let Some(idx) = token {
            self.spans[idx].end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        }
    }

    /// Per span: the part of its interval its children cover. Children of
    /// one span run one after another, so their durations add.
    fn child_cover(&self) -> Vec<u64> {
        let mut cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                cover[p] += s.dur_ns();
            }
        }
        cover
    }

    /// Share of the summed duration of spans named `name` that their
    /// children cover; `None` when no such span exists.
    pub fn coverage(&self, name: &str) -> Option<f64> {
        let cover = self.child_cover();
        let (mut total, mut covered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.dur_ns();
                covered += cover[i].min(s.dur_ns());
            }
        }
        (total > 0).then(|| covered as f64 / total as f64)
    }

    /// Self time per span name (duration minus child coverage), summed
    /// over non-probe spans, with the span count: `name → (count, ns)`.
    pub fn self_times(&self) -> BTreeMap<String, (usize, u64)> {
        let cover = self.child_cover();
        let mut out: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.probe {
                continue;
            }
            let entry = out.entry(s.name.clone()).or_default();
            entry.0 += 1;
            entry.1 += s.dur_ns().saturating_sub(cover[i]);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as CSV: `index,id,name,parent,start_ns,end_ns,probe`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,id,name,parent,start_ns,end_ns,probe")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{parent},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns, s.probe as u8
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes() {
        let mut t = Tracer::new(true);
        let root = t.begin("tick", 0, false);
        let child = t.begin("refresh", 0, false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let probe = t.begin("probe", 0, true);
        t.end(probe);
        let st = t.self_times();
        assert!(!st.contains_key("probe"));
        assert!(st["refresh"].1 >= 2_000_000);
        assert!(st["tick"].1 < st["refresh"].1);
        assert!(t.coverage("tick").unwrap() > 0.5);
        assert_eq!(Tracer::new(false).begin("x", 0, false), None);
    }
}
