//! In-memory span recording around the benchmark's calls into each
//! crate's public functions. Nothing is traced inside the program under
//! test: a span covers exactly one public call made from these files.
//!
//! Each worker thread owns a [`Recorder`]; recorders are merged when the
//! run ends and written out as JSON lines. With tracing off a recorder
//! still runs the closures it is handed but keeps nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Free span slots guaranteed when a root span opens: more than the
/// children of any session or job (an `ingest` session has ~4100).
const ROOT_HEADROOM: usize = 8192;

/// One timed call. `parent` indexes the parent span in the same
/// recorder; `id` is the session or job the span belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span and count sink.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`Recorder::close`]; used
    /// for the session and job roots that parent the per-call spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if parent.is_none() && self.spans.capacity() - self.spans.len() < ROOT_HEADROOM {
            // Grow before a root starts, so no reallocation of the span
            // log lands between a root's children.
            self.spans.reserve(ROOT_HEADROOM.max(self.spans.len()));
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Total nanoseconds and number of spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Folds `other` into `self`, re-basing its parent indices.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// The client-side sum check: for every root span called `root`,
    /// the share of its wall time covered by its direct children.
    /// Returns the lowest coverage, how many roots were checked, and how
    /// many left more than `tolerance` of their time (or, for short
    /// roots, more than `floor_ns`) uncovered.
    pub fn coverage(&self, root: &str, tolerance: f64, floor_ns: u64) -> (f64, usize, usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let (mut worst, mut roots, mut failing) = (1.0f64, 0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.ns() > 0 {
                roots += 1;
                worst = worst.min(child_ns[i] as f64 / s.ns() as f64);
                let uncovered = s.ns().saturating_sub(child_ns[i]);
                if uncovered as f64 > tolerance * s.ns() as f64 && uncovered > floor_ns {
                    failing += 1;
                }
            }
        }
        (worst, roots, failing)
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_sums_direct_children() {
        let mut r = Recorder::new(true, Instant::now());
        r.spans.push(Span {
            name: "session",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            id: 1,
        });
        r.spans.push(Span {
            name: "a",
            start_ns: 0,
            end_ns: 40,
            parent: Some(0),
            id: 1,
        });
        r.spans.push(Span {
            name: "b",
            start_ns: 50,
            end_ns: 100,
            parent: Some(0),
            id: 1,
        });
        r.spans.push(Span {
            name: "grandchild",
            start_ns: 50,
            end_ns: 60,
            parent: Some(2),
            id: 1,
        });
        assert_eq!(r.coverage("session", 0.05, 0), (0.9, 1, 1));
        assert_eq!(r.coverage("session", 0.10, 0), (0.9, 1, 0));
        assert_eq!(r.coverage("session", 0.05, 10), (0.9, 1, 0));
        let mut other = Recorder::new(true, Instant::now());
        other.spans.push(Span {
            name: "session",
            start_ns: 0,
            end_ns: 10,
            parent: None,
            id: 2,
        });
        other.spans.push(Span {
            name: "a",
            start_ns: 0,
            end_ns: 5,
            parent: Some(0),
            id: 2,
        });
        r.merge(other);
        assert_eq!(r.spans[5].parent, Some(4));
        assert_eq!(r.coverage("session", 0.05, 0), (0.5, 2, 2));
    }

    #[test]
    fn a_disabled_recorder_runs_the_call_and_keeps_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        assert_eq!(r.time("x", None, 0, || 7), 7);
        r.count("n", 3);
        assert!(r.spans.is_empty() && r.counts.is_empty());
    }
}
