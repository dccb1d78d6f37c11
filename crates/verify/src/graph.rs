//! Static lint of PerFlowGraph structure — executed *without* running the
//! graph.
//!
//! The engine hands the linter a plain structural snapshot
//! ([`GraphShape`]: node names, arities, fingerprint availability, and
//! wires), so this crate needs no dependency on the dataflow engine and
//! the engine can gate execution on the lint result.
//!
//! Error-level findings (`PF0001`–`PF0006`) are exactly the structural
//! conditions under which execution would fail — a graph with no lint
//! errors cannot hit the scheduler's cycle-stall or wiring errors.
//! Warning/info findings catch likely authoring mistakes (unreachable
//! passes, duplicate names, uncacheable passes, unconsumed outputs).

use crate::codes;
use crate::diag::{Anchor, Diagnostics, Severity};

/// Structural description of one node: everything the linter may inspect.
#[derive(Debug, Clone)]
pub struct NodeShape {
    /// The pass's display name.
    pub name: String,
    /// Declared number of required input ports.
    pub arity: usize,
    /// Whether the pass publishes a content fingerprint (affects
    /// pass-result cache keying, not correctness).
    pub has_fingerprint: bool,
}

/// One wire: `(from, out_port) → (to, in_port)`.
#[derive(Debug, Clone, Copy)]
pub struct WireShape {
    /// Producing node index.
    pub from: usize,
    /// Producer output port.
    pub out_port: usize,
    /// Consuming node index.
    pub to: usize,
    /// Consumer input port.
    pub in_port: usize,
}

/// Structural snapshot of a PerFlowGraph.
#[derive(Debug, Clone, Default)]
pub struct GraphShape {
    /// All nodes, indexed by id.
    pub nodes: Vec<NodeShape>,
    /// All wires.
    pub wires: Vec<WireShape>,
}

fn node_anchor(g: &GraphShape, id: usize) -> Anchor {
    Anchor::Node {
        id,
        name: g.nodes[id].name.clone(),
    }
}

/// Lint a PerFlowGraph structure. See the module docs for the severity
/// contract; the result is sorted and deterministic.
pub fn lint_graph(g: &GraphShape) -> Diagnostics {
    let mut d = Diagnostics::new();
    let n = g.nodes.len();

    // PF0005 — wires referencing unknown nodes. Such wires are excluded
    // from every later analysis.
    let mut wires: Vec<WireShape> = Vec::with_capacity(g.wires.len());
    for (i, w) in g.wires.iter().enumerate() {
        if w.from >= n || w.to >= n {
            let bad = if w.from >= n { w.from } else { w.to };
            d.push(
                codes::BAD_NODE_REF,
                Severity::Error,
                Anchor::Graph,
                format!("wire #{i} references unknown node {bad} (graph has {n} nodes)"),
            );
        } else {
            wires.push(*w);
        }
    }

    // Per-node input wiring.
    let mut in_wires: Vec<Vec<&WireShape>> = vec![Vec::new(); n];
    let mut out_deg: Vec<usize> = vec![0; n];
    for w in &wires {
        in_wires[w.to].push(w);
        out_deg[w.from] += 1;
    }

    for (i, node) in g.nodes.iter().enumerate() {
        let mut ports: Vec<usize> = in_wires[i].iter().map(|w| w.in_port).collect();
        ports.sort_unstable();
        // PF0004 — duplicate producers for one port.
        let mut dups: Vec<usize> = ports
            .windows(2)
            .filter(|p| p[0] == p[1])
            .map(|p| p[0])
            .collect();
        dups.dedup();
        for p in dups {
            d.push(
                codes::DUPLICATE_INPUT,
                Severity::Error,
                node_anchor(g, i),
                format!(
                    "input port {p} of `{}` has more than one producer",
                    node.name
                ),
            );
        }
        ports.dedup();
        // PF0002 — ports below the arity with no producer.
        for p in 0..node.arity {
            if ports.binary_search(&p).is_err() {
                d.push(
                    codes::MISSING_INPUT,
                    Severity::Error,
                    node_anchor(g, i),
                    format!(
                        "`{}` declares arity {} but input port {p} has no producer",
                        node.name, node.arity
                    ),
                );
            }
        }
        // PF0003 — wired ports beyond the arity that leave a gap: the
        // engine requires input ports contiguous from 0.
        for (rank, &p) in ports.iter().enumerate() {
            if p != rank && p >= node.arity {
                d.push(
                    codes::PORT_GAP,
                    Severity::Error,
                    node_anchor(g, i),
                    format!(
                        "input ports of `{}` are not contiguous: port {p} is wired but port {rank} is empty",
                        node.name
                    ),
                );
            }
        }
    }

    // Adjacency (deduplicated) for cycle and reachability analysis.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for w in &wires {
        succ[w.from].push(w.to);
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }

    // PF0001 — cycle localization via Tarjan SCC: every SCC with more
    // than one member (or a self-loop) is reported as one named ring.
    let mut in_cycle = vec![false; n];
    for scc in graphalgo::tarjan_sccs(&succ) {
        let cyclic = scc.len() > 1 || succ[scc[0]].contains(&scc[0]);
        if !cyclic {
            continue;
        }
        for &m in &scc {
            in_cycle[m] = true;
        }
        let mut ring: Vec<usize> = scc.clone();
        ring.sort_unstable();
        let names: Vec<String> = ring
            .iter()
            .map(|&m| format!("`{}` (#{m})", g.nodes[m].name))
            .collect();
        let first = format!("`{}` (#{})", g.nodes[ring[0]].name, ring[0]);
        d.push(
            codes::CYCLE,
            Severity::Error,
            node_anchor(g, ring[0]),
            format!(
                "data-flow cycle through {} node(s): {} → back to {first}",
                ring.len(),
                names.join(" → "),
            ),
        );
    }

    // PF0006 — no entry node at all (every node consumes some input).
    let entries: Vec<usize> = (0..n).filter(|&i| in_wires[i].is_empty()).collect();
    if n > 0 && entries.is_empty() {
        d.push(
            codes::NO_ENTRY,
            Severity::Error,
            Anchor::Graph,
            "graph has no entry node: every node waits on some input, so nothing can start"
                .to_string(),
        );
    }

    // PF0007 — nodes unreachable from every entry. Cycle members are
    // already reported by PF0001 and are skipped here.
    let mut reach = vec![false; n];
    let mut stack = entries.clone();
    for &e in &entries {
        reach[e] = true;
    }
    while let Some(i) = stack.pop() {
        for &j in &succ[i] {
            if !reach[j] {
                reach[j] = true;
                stack.push(j);
            }
        }
    }
    for i in 0..n {
        if !reach[i] && !in_cycle[i] {
            d.push(
                codes::UNREACHABLE,
                Severity::Warn,
                node_anchor(g, i),
                format!(
                    "`{}` can never run: no path from any entry node reaches it",
                    g.nodes[i].name
                ),
            );
        }
    }

    // PF0008 — duplicate display names among non-source nodes (several
    // sources per graph are normal; two `hotspot_detection` nodes usually
    // mean a copy-paste slip and make trails/reports ambiguous).
    let mut by_name: Vec<(&str, usize)> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.name != "source")
        .map(|(i, node)| (node.name.as_str(), i))
        .collect();
    by_name.sort_unstable();
    let mut k = 0;
    while k < by_name.len() {
        let mut j = k + 1;
        while j < by_name.len() && by_name[j].0 == by_name[k].0 {
            j += 1;
        }
        if j - k > 1 {
            let ids: Vec<String> = by_name[k..j].iter().map(|(_, i)| format!("#{i}")).collect();
            d.push(
                codes::DUPLICATE_NAME,
                Severity::Warn,
                node_anchor(g, by_name[k].1),
                format!(
                    "{} nodes share the name `{}`: {}",
                    j - k,
                    by_name[k].0,
                    ids.join(", ")
                ),
            );
        }
        k = j;
    }

    // PF0009 — sinks that are not reports: their outputs vanish. A
    // single-node graph is its own consumer story and is left alone.
    if n > 1 {
        for (i, deg) in out_deg.iter().enumerate() {
            if *deg == 0 && g.nodes[i].name != "report" {
                d.push(
                    codes::UNUSED_OUTPUT,
                    Severity::Info,
                    node_anchor(g, i),
                    format!("outputs of `{}` are never consumed", g.nodes[i].name),
                );
            }
        }
    }

    // PF0010 — no content fingerprint: the node has no content key, so
    // it runs on every execution and its results are never cached.
    for (i, node) in g.nodes.iter().enumerate() {
        if !node.has_fingerprint {
            d.push(
                codes::NO_FINGERPRINT,
                Severity::Warn,
                node_anchor(g, i),
                format!(
                    "`{}` has no content fingerprint; its results are never cached",
                    node.name
                ),
            );
        }
    }

    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, arity: usize) -> NodeShape {
        NodeShape {
            name: name.into(),
            arity,
            has_fingerprint: true,
        }
    }

    fn wire(from: usize, to: usize, in_port: usize) -> WireShape {
        WireShape {
            from,
            out_port: 0,
            to,
            in_port,
        }
    }

    fn codes_of(d: &Diagnostics) -> Vec<&'static str> {
        d.items().iter().map(|x| x.code).collect()
    }

    #[test]
    fn pf0001_cycle_names_the_ring() {
        let g = GraphShape {
            nodes: vec![node("id1", 1), node("id2", 1)],
            wires: vec![wire(0, 1, 0), wire(1, 0, 0)],
        };
        let d = lint_graph(&g);
        assert!(codes_of(&d).contains(&codes::CYCLE));
        let cyc = d.items().iter().find(|x| x.code == codes::CYCLE).unwrap();
        assert!(cyc.message.contains("`id1` (#0)"), "{}", cyc.message);
        assert!(cyc.message.contains("`id2` (#1)"), "{}", cyc.message);
        assert!(cyc.message.contains("back to `id1`"), "{}", cyc.message);
        // The all-cyclic graph also has no entry.
        assert!(codes_of(&d).contains(&codes::NO_ENTRY));
        // Cycle members are not double-reported as unreachable.
        assert!(!codes_of(&d).contains(&codes::UNREACHABLE));
    }

    #[test]
    fn pf0001_self_loop_detected() {
        let g = GraphShape {
            nodes: vec![node("selfie", 1)],
            wires: vec![wire(0, 0, 0)],
        };
        let d = lint_graph(&g);
        let cyc = d.items().iter().find(|x| x.code == codes::CYCLE).unwrap();
        assert!(cyc.message.contains("1 node(s)"), "{}", cyc.message);
    }

    #[test]
    fn pf0002_missing_input_names_node_and_port() {
        let g = GraphShape {
            nodes: vec![node("source", 0), node("add", 2)],
            wires: vec![wire(0, 1, 0)], // port 1 never wired
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::MISSING_INPUT)
            .unwrap();
        assert_eq!(m.severity, Severity::Error);
        assert!(m.message.contains("`add`"), "{}", m.message);
        assert!(m.message.contains("port 1"), "{}", m.message);
        assert!(m.message.contains("arity 2"), "{}", m.message);
    }

    #[test]
    fn pf0003_gap_beyond_arity() {
        // Arity satisfied on port 0, but port 2 wired with port 1 empty.
        let g = GraphShape {
            nodes: vec![node("source", 0), node("flex", 1)],
            wires: vec![wire(0, 1, 0), wire(0, 1, 2)],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::PORT_GAP)
            .unwrap();
        assert!(m.message.contains("port 2 is wired"), "{}", m.message);
        assert!(m.message.contains("port 1 is empty"), "{}", m.message);
        assert!(!codes_of(&d).contains(&codes::MISSING_INPUT));
    }

    #[test]
    fn pf0004_duplicate_input_port() {
        let g = GraphShape {
            nodes: vec![node("source", 0), node("source", 0), node("sink", 1)],
            wires: vec![wire(0, 2, 0), wire(1, 2, 0)],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::DUPLICATE_INPUT)
            .unwrap();
        assert!(m.message.contains("port 0"), "{}", m.message);
        assert!(m.message.contains("`sink`"), "{}", m.message);
    }

    #[test]
    fn pf0005_bad_node_reference() {
        let g = GraphShape {
            nodes: vec![node("source", 0)],
            wires: vec![wire(0, 7, 0)],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::BAD_NODE_REF)
            .unwrap();
        assert!(m.message.contains("unknown node 7"), "{}", m.message);
        assert!(m.message.contains("1 nodes"), "{}", m.message);
    }

    #[test]
    fn pf0006_no_entry_node() {
        // Two mutually-feeding nodes: no entry anywhere.
        let g = GraphShape {
            nodes: vec![node("a", 1), node("b", 1)],
            wires: vec![wire(0, 1, 0), wire(1, 0, 0)],
        };
        let d = lint_graph(&g);
        assert!(codes_of(&d).contains(&codes::NO_ENTRY));
    }

    #[test]
    fn pf0007_unreachable_pass_downstream_of_cycle() {
        // 0↔1 cycle feeding 2: node 2 is not in the cycle but can never
        // run.
        let g = GraphShape {
            nodes: vec![
                node("a", 1),
                node("b", 1),
                node("sinkhole", 1),
                node("source", 0),
            ],
            wires: vec![wire(0, 1, 0), wire(1, 0, 0), wire(1, 2, 0)],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::UNREACHABLE)
            .unwrap();
        assert!(m.message.contains("`sinkhole`"), "{}", m.message);
        // a and b are cycle members, not "unreachable".
        assert_eq!(
            d.items()
                .iter()
                .filter(|x| x.code == codes::UNREACHABLE)
                .count(),
            1
        );
    }

    #[test]
    fn pf0008_duplicate_names_warn_but_sources_exempt() {
        let g = GraphShape {
            nodes: vec![
                node("source", 0),
                node("source", 0),
                node("hotspot_detection", 1),
                node("hotspot_detection", 1),
                node("report", 2),
            ],
            wires: vec![wire(0, 2, 0), wire(1, 3, 0), wire(2, 4, 0), wire(3, 4, 1)],
        };
        let d = lint_graph(&g);
        let dups: Vec<_> = d
            .items()
            .iter()
            .filter(|x| x.code == codes::DUPLICATE_NAME)
            .collect();
        assert_eq!(dups.len(), 1, "sources must not be flagged");
        assert!(dups[0].message.contains("`hotspot_detection`"));
        assert!(dups[0].message.contains("#2, #3"));
    }

    #[test]
    fn pf0009_unused_output_info_excludes_report() {
        let g = GraphShape {
            nodes: vec![
                node("source", 0),
                node("hotspot_detection", 1),
                node("report", 1),
            ],
            wires: vec![wire(0, 1, 0), wire(0, 2, 0)],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::UNUSED_OUTPUT)
            .unwrap();
        assert_eq!(m.severity, Severity::Info);
        assert!(m.message.contains("`hotspot_detection`"));
        // The report sink is not flagged.
        assert_eq!(
            d.items()
                .iter()
                .filter(|x| x.code == codes::UNUSED_OUTPUT)
                .count(),
            1
        );
    }

    #[test]
    fn pf0010_missing_fingerprint_warns() {
        let mut closure = node("my_closure", 0);
        closure.has_fingerprint = false;
        let g = GraphShape {
            nodes: vec![closure],
            wires: vec![],
        };
        let d = lint_graph(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::NO_FINGERPRINT)
            .unwrap();
        assert!(m.message.contains("`my_closure`"));
        assert!(m.message.contains("never cached"));
    }

    #[test]
    fn checkpoint_lint_flags_unresumable_passes() {
        let mut opaque = node("my_closure", 1);
        opaque.has_fingerprint = false;
        let g = GraphShape {
            nodes: vec![node("source", 0), opaque, node("report", 1)],
            wires: vec![wire(0, 1, 0), wire(1, 2, 0)],
        };
        let d = lint_graph(&g);
        assert!(!d.has_errors(), "PF0010 findings are warnings only");
        let items: Vec<_> = d
            .items()
            .iter()
            .filter(|x| x.code == codes::NO_FINGERPRINT)
            .collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].severity, Severity::Warn);
        assert!(items[0].message.contains("`my_closure`"));
        // A fully fingerprinted graph has no PF0010 finding.
        let clean = GraphShape {
            nodes: vec![node("source", 0), node("hotspot", 1)],
            wires: vec![wire(0, 1, 0)],
        };
        assert!(lint_graph(&clean)
            .items()
            .iter()
            .all(|x| x.code != codes::NO_FINGERPRINT));
    }

    #[test]
    fn clean_pipeline_lints_clean() {
        // source → filter → hotspot → report: nothing at all to report.
        let g = GraphShape {
            nodes: vec![
                node("source", 0),
                node("filter", 1),
                node("hotspot_detection", 1),
                node("report", 1),
            ],
            wires: vec![wire(0, 1, 0), wire(1, 2, 0), wire(2, 3, 0)],
        };
        let d = lint_graph(&g);
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn empty_graph_is_clean() {
        assert!(lint_graph(&GraphShape::default()).is_empty());
    }
}
