//! The diagnostics framework: stable codes, severities, source anchors,
//! deterministic ordering, and text/JSON rendering.
//!
//! Diagnostics are *data*, not log lines: analyzers return a
//! [`Diagnostics`] collection and callers decide how to surface it — the
//! engine embeds it in `PerFlowError::Rejected`, the CLI renders text or
//! JSON, tests match on codes. Two runs of any analyzer over the same
//! input produce byte-identical renderings: collections sort by
//! `(code, anchor, message)` before emission.

use std::fmt;

use obs::json::{obj, Json};

/// How serious a diagnostic is.
///
/// Severity policy: **error** means the artifact is structurally broken —
/// executing the graph would fail, or the PAG violates an invariant the
/// pass library relies on; the pre-flight gate rejects on errors.
/// **warning** means the artifact is suspicious but executable (duplicate
/// names, unreachable passes, uncacheable passes, degraded metrics).
/// **info** is advisory (an unused output may be intentional).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but executable.
    Warn,
    /// Structurally broken; the pre-flight gate rejects on these.
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON renderings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// What a diagnostic points at.
///
/// The variant order defines the sort precedence within one code:
/// whole-graph diagnostics first, then nodes, vertices, edges, functions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Anchor {
    /// The whole analyzed artifact.
    Graph,
    /// One PerFlowGraph node (pass), by id and display name.
    Node {
        /// Node index within the graph.
        id: usize,
        /// The pass's display name.
        name: String,
    },
    /// One PAG vertex, by id and snippet name.
    Vertex {
        /// Vertex id.
        id: u32,
        /// Snippet name.
        name: String,
    },
    /// One PAG edge, by id.
    Edge {
        /// Edge id.
        id: u32,
    },
    /// One program-model function, by id and name.
    Func {
        /// Function id.
        id: u32,
        /// Function name.
        name: String,
    },
    /// One query pipeline stage, by position and keyword.
    Stage {
        /// Zero-based stage index within the pipeline.
        index: usize,
        /// The stage keyword (`filter`, `sort`, ...).
        op: &'static str,
    },
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Graph => write!(f, "graph"),
            Anchor::Node { id, name } => write!(f, "node {id} (`{name}`)"),
            Anchor::Vertex { id, name } => write!(f, "vertex {id} (`{name}`)"),
            Anchor::Edge { id } => write!(f, "edge {id}"),
            Anchor::Func { id, name } => write!(f, "function {id} (`{name}`)"),
            Anchor::Stage { index, op } => write!(f, "stage {index} (`{op}`)"),
        }
    }
}

/// One finding of a static analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (see [`crate::codes`]).
    pub code: &'static str,
    /// Severity under the policy documented on [`Severity`].
    pub severity: Severity,
    /// What the finding points at.
    pub anchor: Anchor,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Render as one text line:
    /// `error[PF0001] node 0 (`a`): data-flow cycle …`.
    pub fn render_text(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity.name(),
            self.code,
            self.anchor,
            self.message
        )
    }

    /// One JSON object with a structured anchor.
    pub fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind", Json::Str(k.into()));
        let named = |k: &str, id: f64, name: &str| {
            obj(vec![
                kind(k),
                ("id", Json::Num(id)),
                ("name", Json::Str(name.into())),
            ])
        };
        let anchor = match &self.anchor {
            Anchor::Graph => obj(vec![kind("graph")]),
            Anchor::Node { id, name } => named("node", *id as f64, name),
            Anchor::Vertex { id, name } => named("vertex", (*id).into(), name),
            Anchor::Edge { id } => obj(vec![kind("edge"), ("id", Json::Num((*id).into()))]),
            Anchor::Func { id, name } => named("function", (*id).into(), name),
            Anchor::Stage { index, op } => obj(vec![
                kind("stage"),
                ("index", Json::Num(*index as f64)),
                ("op", Json::Str((*op).into())),
            ]),
        };
        obj(vec![
            ("code", Json::Str(self.code.into())),
            ("severity", Json::Str(self.severity.name().into())),
            ("anchor", anchor),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    fn sort_key(&self) -> (&'static str, &Anchor, &str) {
        (self.code, &self.anchor, &self.message)
    }
}

/// An ordered collection of diagnostics.
///
/// `push` may happen in any analyzer-internal order; the collection sorts
/// itself on [`Diagnostics::finish`] (and defensively before rendering),
/// so emission order is independent of analysis order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a finding.
    pub fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        anchor: Anchor,
        message: impl Into<String>,
    ) {
        self.items.push(Diagnostic {
            code,
            severity,
            anchor,
            message: message.into(),
        });
    }

    /// Absorb another collection.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Sort into canonical `(code, anchor, message)` order and return
    /// self — analyzers call this before handing the collection out.
    pub fn finish(mut self) -> Self {
        self.items.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self
    }

    /// All findings in canonical order.
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// True when at least one finding is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// True when nothing at warning level or above was found — the bar
    /// the built-in paradigms and examples hold themselves to.
    pub fn is_clean(&self) -> bool {
        !self.items.iter().any(|d| d.severity >= Severity::Warn)
    }

    /// First error in canonical order, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Short counter summary, e.g. `2 errors, 1 warning, 0 infos`.
    pub fn summary(&self) -> String {
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        format!(
            "{e} error{}, {w} warning{}, {i} info{}",
            plural(e),
            plural(w),
            plural(i)
        )
    }

    /// Render as text, one line per finding (empty string when clean).
    pub fn render_text(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.items.iter().collect();
        sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out
    }

    /// A JSON array of diagnostic objects in canonical order.
    pub fn to_json(&self) -> Json {
        let mut sorted: Vec<&Diagnostic> = self.items.iter().collect();
        sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Json::Arr(sorted.into_iter().map(Diagnostic::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostics {
        let mut d = Diagnostics::new();
        d.push(
            "PF0010",
            Severity::Warn,
            Anchor::Node {
                id: 3,
                name: "b".into(),
            },
            "later",
        );
        d.push("PF0001", Severity::Error, Anchor::Graph, "first");
        d.push(
            "PF0010",
            Severity::Warn,
            Anchor::Node {
                id: 1,
                name: "a".into(),
            },
            "earlier",
        );
        d
    }

    #[test]
    fn emission_is_sorted_by_code_then_anchor() {
        let d = sample().finish();
        let codes: Vec<&str> = d.items().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["PF0001", "PF0010", "PF0010"]);
        // Within PF0010, node 1 before node 3.
        assert!(matches!(d.items()[1].anchor, Anchor::Node { id: 1, .. }));
        let text = d.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("error[PF0001] graph: first"));
        assert!(lines[1].contains("node 1 (`a`)"));
    }

    #[test]
    fn rendering_is_deterministic_regardless_of_push_order() {
        let a = sample().finish();
        let mut b = Diagnostics::new();
        // Same findings, reversed push order.
        for d in sample().items().iter().rev() {
            b.push(d.code, d.severity, d.anchor.clone(), d.message.clone());
        }
        let b = b.finish();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert_eq!(a, b);
    }

    #[test]
    fn counters_and_summary() {
        let d = sample().finish();
        assert_eq!(d.count(Severity::Error), 1);
        assert_eq!(d.count(Severity::Warn), 2);
        assert!(d.has_errors());
        assert!(!d.is_clean());
        assert_eq!(d.summary(), "1 error, 2 warnings, 0 infos");
        assert_eq!(d.first_error().unwrap().code, "PF0001");
        assert!(Diagnostics::new().is_clean());
        assert!(!Diagnostics::new().has_errors());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut d = Diagnostics::new();
        d.push(
            "PF0001",
            Severity::Error,
            Anchor::Node {
                id: 0,
                name: "evil \"node\"\n".into(),
            },
            "msg with \\ and \"quotes\"",
        );
        let json = d.finish().to_json().render();
        assert!(json.contains("evil \\\"node\\\"\\n"), "{json}");
        assert!(json.contains("msg with \\\\ and \\\"quotes\\\""), "{json}");
        // No raw control characters survive.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn merge_combines_collections() {
        let mut a = sample();
        let mut b = Diagnostics::new();
        b.push("PF0002", Severity::Error, Anchor::Graph, "merged");
        a.merge(b);
        let a = a.finish();
        assert_eq!(a.len(), 4);
        assert_eq!(a.items()[1].code, "PF0002");
    }

    #[test]
    fn json_rendering_is_pinned() {
        let mut d = Diagnostics::new();
        d.push(
            "PF0001",
            Severity::Error,
            Anchor::Graph,
            "ring \"a\"\n\u{1}😀",
        );
        d.push(
            "PF0002",
            Severity::Warn,
            Anchor::Node {
                id: 3,
                name: "n\\1".into(),
            },
            "m",
        );
        d.push(
            "PF0101",
            Severity::Info,
            Anchor::Vertex {
                id: 7,
                name: "v\t".into(),
            },
            "m",
        );
        d.push("PF0102", Severity::Warn, Anchor::Edge { id: 9 }, "m");
        d.push(
            "PF0201",
            Severity::Warn,
            Anchor::Func {
                id: 2,
                name: "f".into(),
            },
            "m",
        );
        d.push(
            "PF0301",
            Severity::Error,
            Anchor::Stage {
                index: 1,
                op: "filter",
            },
            "m",
        );
        let d = d.finish();
        assert_eq!(d.to_json().render(), "[{\"code\":\"PF0001\",\"severity\":\"error\",\"anchor\":{\"kind\":\"graph\"},\"message\":\"ring \\\"a\\\"\\n\\u0001😀\"},{\"code\":\"PF0002\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"node\",\"id\":3,\"name\":\"n\\\\1\"},\"message\":\"m\"},{\"code\":\"PF0101\",\"severity\":\"info\",\"anchor\":{\"kind\":\"vertex\",\"id\":7,\"name\":\"v\\t\"},\"message\":\"m\"},{\"code\":\"PF0102\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"edge\",\"id\":9},\"message\":\"m\"},{\"code\":\"PF0201\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"function\",\"id\":2,\"name\":\"f\"},\"message\":\"m\"},{\"code\":\"PF0301\",\"severity\":\"error\",\"anchor\":{\"kind\":\"stage\",\"index\":1,\"op\":\"filter\"},\"message\":\"m\"}]");
        assert_eq!(d.items()[0].to_json().render(), "{\"code\":\"PF0001\",\"severity\":\"error\",\"anchor\":{\"kind\":\"graph\"},\"message\":\"ring \\\"a\\\"\\n\\u0001😀\"}");
    }
}
