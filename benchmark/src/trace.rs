//! The benchmark's own span recorder: spans are taken around calls into
//! each crate, kept in memory, and written out as a Chrome trace when
//! the run ends. Nothing here reaches into the program's `obs` spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Recorder::spans`]; a span
/// without one is the root of an op (`op`, `probes` or `job`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The op (or served job) this span belongs to.
    pub op: u32,
    /// Chrome-trace lane: 0 for direct ops, 1 + client for served jobs.
    pub lane: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans of the calling thread, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span that is a child of the innermost open one
    /// (a root when none is open; `op` is inherited from the parent).
    pub fn scope<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.stack.last().copied();
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            op: parent.map_or(op, |p| self.spans[p].op),
            lane: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// A leaf span around one call.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.scope(name, 0, |_| f())
    }

    /// Add a span timed elsewhere (a client thread); returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// Per root span, the summed self time (µs) of every span named
    /// `name` below it — one sample per op that entered that code.
    pub fn self_us_per_root(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_us();
        let mut per_root: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *per_root.entry(self.root_of(i)).or_insert(0.0) += own[i];
            }
        }
        per_root.into_values().collect()
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Span-tree health: every child has a parent in the same op and lies
    /// inside it, and no span ends before it starts.
    pub fn check_well_formed(&self) -> Result<(), String> {
        // Client threads stamp spans with their own clock reads; allow
        // for the float rounding of those conversions.
        const SLACK_US: f64 = 1.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_us < s.start_us {
                return Err(format!("span {i} `{}` ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let Some(parent) = self.spans.get(p) else {
                return Err(format!("span {i} `{}` has no parent {p}", s.name));
            };
            if parent.op != s.op {
                return Err(format!(
                    "span {i} `{}` (op {}) has a parent in op {}",
                    s.name, s.op, parent.op
                ));
            }
            if s.start_us + SLACK_US < parent.start_us || s.end_us > parent.end_us + SLACK_US {
                return Err(format!(
                    "span {i} `{}` is not inside its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
        Ok(())
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
                s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_root() {
        let mut r = Recorder::new();
        for op in 0..2 {
            r.scope("op", op, |r| {
                r.call("a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                r.call("a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        }
        r.check_well_formed().unwrap();
        let a = r.self_us_per_root("a");
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&us| us >= 4000.0));
        let op = r.self_us_per_root("op");
        assert!(op.iter().zip(&a).all(|(o, a)| o < a), "{op:?} {a:?}");
        assert_eq!(r.spans()[1].op, 0);
        assert_eq!(r.spans()[4].op, 1);
    }

    #[test]
    fn detects_a_child_outside_its_parent() {
        let mut r = Recorder::new();
        let root = r.push(Span {
            name: "job",
            start_us: 0.0,
            end_us: 10.0,
            parent: None,
            op: 0,
            lane: 1,
        });
        r.push(Span {
            name: "late",
            start_us: 5.0,
            end_us: 50.0,
            parent: Some(root),
            op: 0,
            lane: 1,
        });
        assert!(r.check_well_formed().is_err());
    }
}
