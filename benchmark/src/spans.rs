//! In-memory spans for the traced run, written out when it ends.
//!
//! A span is `{id, parent, name, rep, start_ns, end_ns}`. One root span per
//! repetition, children per phase, grandchildren per per-process call.
//! A span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of repetition `rep`.
    pub fn open_rep(&mut self, rep: u32) {
        assert!(self.stack.is_empty(), "repetition opened inside a span");
        self.rep = rep;
        self.open("rep");
    }

    /// Open a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            rep: self.rep,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span; returns its duration.
    pub fn close(&mut self) -> u64 {
        let id = self.stack.pop().expect("close without an open span");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.rep, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus its children's,
/// summed over every span of that name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rep: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_once() {
        // rep [0,100] > lgc [10,50] > lgc.proc [10,30], [30,45]; scan [60,90]
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "lgc", 10, 50),
            span(2, Some(1), "lgc.proc", 10, 30),
            span(3, Some(1), "lgc.proc", 30, 45),
            span(4, Some(0), "scan", 60, 90),
        ];
        let own = self_time_by_name(&spans);
        assert_eq!(own["rep"], 100 - 40 - 30);
        assert_eq!(own["lgc"], 40 - 20 - 15);
        assert_eq!(own["lgc.proc"], 35);
        assert_eq!(own["scan"], 30);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn log_nests_and_stamps_repetitions() {
        let mut log = SpanLog::new();
        log.open_rep(3);
        log.open("lgc");
        log.open("lgc.proc");
        log.close();
        log.close();
        log.close();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert!(s.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[2].end_ns);
    }
}
