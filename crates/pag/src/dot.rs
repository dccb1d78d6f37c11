//! Graphviz DOT export of a PAG.
//!
//! The paper's report module "provides both human-readable texts and
//! visualized graphs" (§2.2); DOT output is the visualization half. Vertex
//! fill saturation encodes hotspot severity exactly as in Figures 4, 5, 7,
//! 9 and 15 ("the color saturation of vertices represents the severity of
//! hotspots").

use std::fmt::Write as _;

use crate::graph::Pag;
use crate::ids::VertexId;
use crate::label::EdgeLabel;
use crate::props::keys;

/// Options controlling DOT rendering.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Include property tables in vertex labels.
    pub show_props: bool,
    /// Color vertices by relative `time` (hotspot saturation).
    pub heat_by_time: bool,
    /// Only emit vertices from this set (and edges between them); `None`
    /// renders the full graph.
    pub restrict_to: Option<Vec<VertexId>>,
    /// Maximum number of vertices to emit (guards against huge parallel
    /// views); further vertices are elided with a note.
    pub max_vertices: usize,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            show_props: false,
            heat_by_time: true,
            restrict_to: None,
            max_vertices: 2000,
        }
    }
}

/// Render a PAG to DOT.
pub fn to_dot(pag: &Pag, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape_dot(pag.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=box, style=filled, fontname=\"Helvetica\"];"
    );

    let max_time = if opts.heat_by_time {
        pag.vertex_ids()
            .map(|v| pag.vertex_time(v))
            .fold(0.0f64, f64::max)
    } else {
        0.0
    };

    let selected: Vec<VertexId> = match &opts.restrict_to {
        Some(set) => set.clone(),
        None => pag.vertex_ids().collect(),
    };
    let mut in_set = vec![false; pag.num_vertices()];
    let emitted = selected.len().min(opts.max_vertices);
    for &v in selected.iter().take(opts.max_vertices) {
        in_set[v.index()] = true;
    }

    for &v in selected.iter().take(opts.max_vertices) {
        let data = pag.vertex(v);
        let mut label = format!("{}\\n[{}]", escape_dot(&data.name), data.label.name());
        if opts.show_props {
            for (k, val) in pag.prop_entries(v) {
                if k.as_ref() == keys::NAME {
                    continue;
                }
                let _ = write!(label, "\\n{k}={val}");
            }
        }
        let fill = if opts.heat_by_time && max_time > 0.0 {
            heat_color(pag.vertex_time(v) / max_time)
        } else {
            "\"#eeeeee\"".to_string()
        };
        let _ = writeln!(out, "  {} [label=\"{}\", fillcolor={}];", v.0, label, fill);
    }
    if selected.len() > opts.max_vertices {
        let _ = writeln!(
            out,
            "  elided [label=\"… {} more vertices elided\", fillcolor=\"#ffffff\"];",
            selected.len() - emitted
        );
    }

    for e in pag.edge_ids() {
        let ed = pag.edge(e);
        if !in_set[ed.src.index()] || !in_set[ed.dst.index()] {
            continue;
        }
        let style = match ed.label {
            EdgeLabel::IntraProc => "[color=black]",
            EdgeLabel::InterProc => "[color=gray50, style=dashed]",
            EdgeLabel::InterThread => "[color=blue, style=dotted, constraint=false]",
            EdgeLabel::InterProcess(_) => "[color=red, penwidth=1.5, constraint=false]",
        };
        let _ = writeln!(out, "  {} -> {} {};", ed.src.0, ed.dst.0, style);
    }
    out.push_str("}\n");
    out
}

/// Map a `[0,1]` heat value to an HSV saturation ramp (white → deep red).
fn heat_color(h: f64) -> String {
    let h = h.clamp(0.0, 1.0);
    // Keep hue at red, scale saturation; DOT accepts "H,S,V" strings.
    format!("\"0.0,{:.3},1.0\"", h)
}

/// Escape a string for use inside a DOT double-quoted string: backslashes
/// and quotes are escaped, newlines become literal `\n` line breaks. The
/// content round-trips — unlike a lossy replacement, a name containing
/// `"` or `\` renders exactly as written. Shared by every DOT emitter in
/// the workspace (re-exported as `pag::escape_dot`).
pub fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{CallKind, CommKind, VertexLabel};
    use crate::{mkeys, ViewKind};

    fn sample() -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "dot-sample");
        let a = g.add_vertex(VertexLabel::Function, "main");
        let b = g.add_vertex(VertexLabel::Loop, "loop_1");
        let c = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Allreduce");
        g.add_edge(a, b, EdgeLabel::IntraProc);
        g.add_edge(b, c, EdgeLabel::IntraProc);
        g.add_edge(c, c, EdgeLabel::InterProcess(CommKind::Collective));
        g.set_metric(a, mkeys::TIME, 10.0);
        g.set_metric(c, mkeys::TIME, 4.0);
        g
    }

    #[test]
    fn dot_contains_all_parts() {
        let g = sample();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("main"));
        assert!(dot.contains("MPI_Allreduce"));
        assert!(dot.contains("->"));
        assert!(dot.contains("color=red")); // inter-process edge styling
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn restriction_drops_vertices_and_their_edges() {
        let g = sample();
        let opts = DotOptions {
            restrict_to: Some(vec![crate::VertexId(0), crate::VertexId(1)]),
            ..DotOptions::default()
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("main"));
        assert!(!dot.contains("MPI_Allreduce"));
        assert!(!dot.contains("color=red"));
    }

    #[test]
    fn max_vertices_elides() {
        let mut g = Pag::new(ViewKind::TopDown, "big");
        for i in 0..10 {
            g.add_vertex(VertexLabel::Compute, format!("v{i}").as_str());
        }
        let opts = DotOptions {
            max_vertices: 3,
            ..DotOptions::default()
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("7 more vertices elided"));
    }

    #[test]
    fn props_shown_when_requested() {
        let g = sample();
        let opts = DotOptions {
            show_props: true,
            ..DotOptions::default()
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("time="));
    }

    #[test]
    fn heat_color_bounds() {
        assert_eq!(heat_color(-1.0), "\"0.0,0.000,1.0\"");
        assert_eq!(heat_color(2.0), "\"0.0,1.000,1.0\"");
    }

    #[test]
    fn escape_preserves_content() {
        assert_eq!(escape_dot(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_dot("x\ny"), "x\\ny");
        assert_eq!(escape_dot("plain"), "plain");
    }

    #[test]
    fn dot_escapes_quotes_backslashes_newlines() {
        let mut g = Pag::new(ViewKind::TopDown, "ti\"tle\\x");
        g.add_vertex(VertexLabel::Compute, "evil \"name\"\nwith\\slash");
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("digraph \"ti\\\"tle\\\\x\""), "{dot}");
        assert!(dot.contains("evil \\\"name\\\"\\nwith\\\\slash"), "{dot}");
        // The old lossy mangling ("→', \→/) must be gone.
        assert!(!dot.contains("evil 'name'"));
        assert!(!dot.contains("with/slash"));
        // No raw newline survives inside any emitted line.
        for line in dot.lines() {
            assert!(!line.contains("evil \"name\""), "unescaped: {line}");
        }
    }
}
