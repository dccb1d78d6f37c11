//! Framework errors.

/// Errors raised by passes and the dataflow executor.
#[derive(Debug, Clone)]
pub enum PerFlowError {
    /// Two sets from different graphs were combined.
    GraphMismatch,
    /// A pass received a value of the wrong type.
    WrongValueType {
        /// Pass that rejected the input.
        pass: String,
        /// Input port.
        port: usize,
        /// What the pass expected.
        expected: &'static str,
    },
    /// A pass received fewer inputs than it declares.
    MissingInput {
        /// Pass with the missing input.
        pass: String,
        /// Missing port index.
        port: usize,
    },
    /// The pre-flight static lint rejected the graph before execution:
    /// at least one diagnostic at error severity (cycle, missing input,
    /// non-contiguous ports, …). The full sorted findings ride along.
    Rejected {
        /// Lint findings; [`verify::Diagnostics::has_errors`] is true.
        diagnostics: verify::Diagnostics,
    },
    /// An input port received more than one incoming edge.
    PortConflict {
        /// Node whose port is multiply connected.
        node: usize,
        /// The port.
        port: usize,
    },
    /// A referenced node id does not exist.
    BadNode {
        /// The offending id.
        node: usize,
    },
    /// A pass panicked during execution. The scheduler catches the
    /// unwind and converts it into this structured error, so one bad
    /// pass cannot take the whole run down with it.
    PassPanicked {
        /// Display name of the panicking pass.
        pass: String,
        /// The panic payload rendered as text (`String`/`&str` payloads
        /// verbatim, anything else a placeholder).
        payload: String,
    },
    /// The simulated run failed.
    Sim(simrt::SimError),
    /// Graph-difference failure (skeleton mismatch).
    Diff(String),
    /// Analysis-specific failure with a message.
    Analysis(String),
    /// The run's data is too degraded for the requested analysis (for
    /// example every rank crashed, so there is nothing to attribute).
    /// Partial-but-usable data does *not* raise this — passes down-weight
    /// incomplete vertices and reports carry data-quality warnings
    /// instead.
    DegradedData {
        /// What was missing and which analysis gave up.
        detail: String,
    },
}

impl std::fmt::Display for PerFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerFlowError::GraphMismatch => write!(f, "sets belong to different graphs"),
            PerFlowError::WrongValueType {
                pass,
                port,
                expected,
            } => write!(f, "pass {pass}: input {port} must be {expected}"),
            PerFlowError::MissingInput { pass, port } => {
                write!(f, "pass {pass}: missing input on port {port}")
            }
            PerFlowError::Rejected { diagnostics } => {
                write!(
                    f,
                    "graph rejected by pre-flight lint ({})",
                    diagnostics.summary()
                )?;
                if let Some(first) = diagnostics.first_error() {
                    write!(f, ": {}", first.render_text())?;
                }
                Ok(())
            }
            PerFlowError::PortConflict { node, port } => {
                write!(f, "node {node} port {port} has multiple producers")
            }
            PerFlowError::BadNode { node } => write!(f, "unknown node id {node}"),
            PerFlowError::PassPanicked { pass, payload } => {
                write!(f, "pass {pass} panicked: {payload}")
            }
            PerFlowError::Sim(e) => write!(f, "simulation failed: {e}"),
            PerFlowError::Diff(m) => write!(f, "graph difference failed: {m}"),
            PerFlowError::Analysis(m) => write!(f, "analysis failed: {m}"),
            PerFlowError::DegradedData { detail } => {
                write!(f, "data too degraded to analyze: {detail}")
            }
        }
    }
}

impl std::error::Error for PerFlowError {}

impl From<simrt::SimError> for PerFlowError {
    fn from(e: simrt::SimError) -> Self {
        PerFlowError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant renders a non-empty, variant-specific message that
    /// mentions its payload — the Display impl is part of the API because
    /// reports and CLI output surface these verbatim.
    #[test]
    fn display_round_trips_every_variant() {
        let cases: Vec<(PerFlowError, &[&str])> = vec![
            (PerFlowError::GraphMismatch, &["different graphs"]),
            (
                PerFlowError::WrongValueType {
                    pass: "hotspot_detection".into(),
                    port: 2,
                    expected: "vertex set",
                },
                &["hotspot_detection", "2", "vertex set"],
            ),
            (
                PerFlowError::MissingInput {
                    pass: "imbalance_analysis".into(),
                    port: 1,
                },
                &["imbalance_analysis", "port 1"],
            ),
            (
                {
                    let mut d = verify::Diagnostics::new();
                    d.push(
                        verify::codes::CYCLE,
                        verify::Severity::Error,
                        verify::Anchor::Node {
                            id: 0,
                            name: "id1".into(),
                        },
                        "data-flow cycle through 2 node(s)",
                    );
                    PerFlowError::Rejected {
                        diagnostics: d.finish(),
                    }
                },
                &["pre-flight lint", "1 error", "PF0001", "id1"],
            ),
            (
                PerFlowError::PortConflict { node: 3, port: 0 },
                &["node 3", "port 0"],
            ),
            (PerFlowError::BadNode { node: 9 }, &["node id 9"]),
            (
                PerFlowError::PassPanicked {
                    pass: "breakdown_analysis".into(),
                    payload: "index out of bounds".into(),
                },
                &["breakdown_analysis", "panicked", "index out of bounds"],
            ),
            (
                PerFlowError::Sim(simrt::SimError::Deadlock { blocked: vec![] }),
                &["simulation failed", "deadlock"],
            ),
            (
                PerFlowError::Diff("skeletons differ".into()),
                &["graph difference", "skeletons differ"],
            ),
            (
                PerFlowError::Analysis("no comm vertices".into()),
                &["analysis failed", "no comm vertices"],
            ),
            (
                PerFlowError::DegradedData {
                    detail: "all 8 ranks crashed".into(),
                },
                &["degraded", "all 8 ranks crashed"],
            ),
        ];
        let mut rendered: Vec<String> = Vec::new();
        for (err, fragments) in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            for frag in fragments {
                assert!(msg.contains(frag), "{msg:?} missing {frag:?}");
            }
            assert!(!rendered.contains(&msg), "duplicate message {msg:?}");
            rendered.push(msg);
        }
    }

    #[test]
    fn sim_errors_convert() {
        let e: PerFlowError = simrt::SimError::Deadlock { blocked: vec![] }.into();
        assert!(matches!(e, PerFlowError::Sim(_)));
    }
}
