//! The pass abstraction (§4.2): "a performance analysis pass takes sets
//! as input. After performing its analysis sub-task, it also outputs sets
//! as the input of the next pass."

use crate::error::PerFlowError;
use crate::value::Value;

/// Execution context handed to passes. Currently carries nothing mutable
/// — the PAG environment travels inside the sets — but keeps the
/// signature stable for future extensions (progress reporting, caches).
#[derive(Debug, Default)]
pub struct PassCx {
    /// Human-readable trail of executed passes (useful for debugging
    /// PerFlowGraphs).
    pub trail: Vec<String>,
}

impl PassCx {
    /// Fresh context.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A performance-analysis pass: one vertex of a PerFlowGraph.
pub trait Pass: Send + Sync {
    /// Display name (shown in errors and progress trails).
    fn name(&self) -> &str;

    /// Number of input ports the pass expects.
    fn arity(&self) -> usize;

    /// Run the sub-task: consume `arity()` input values, produce outputs.
    fn run(&self, inputs: &[Value], cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError>;

    /// Content fingerprint of the pass *configuration* (name, thresholds,
    /// parameters — everything that determines the output besides the
    /// inputs). With the inputs' content fingerprints it forms the key
    /// the pass-result cache stores results under, so equally-configured
    /// passes share results across graph instances. `None` (the default,
    /// and what closures give) leaves the node unkeyed: it runs on every
    /// execution and is never cached.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// A pass shown as a stage name of its own, so that trails, drawings and
/// the linter's duplicate-name check (PF0008) tell apart the stages of a
/// graph that runs one kind of pass several times.
pub(crate) struct Named<P>(&'static str, P);

/// `pass`, shown as `name`.
pub(crate) fn named<P: Pass>(name: &'static str, pass: P) -> Named<P> {
    Named(name, pass)
}

impl<P: Pass> Pass for Named<P> {
    fn name(&self) -> &str {
        self.0
    }
    fn arity(&self) -> usize {
        self.1.arity()
    }
    fn run(&self, inputs: &[Value], cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        self.1.run(inputs, cx)
    }
    fn fingerprint(&self) -> Option<u64> {
        self.1.fingerprint()
    }
}

/// A pass configuration's content fingerprint: FNV over `strs` (the
/// pass name first), then `words` (counts, flags, thresholds as bits).
pub(crate) fn config_fingerprint(strs: &[&str], words: &[u64]) -> Option<u64> {
    let mut h = obs::Fnv::new();
    strs.iter().for_each(|s| h.str(s));
    words.iter().for_each(|&w| h.u64(w));
    Some(h.finish())
}

/// Helper: extract the vertex-set input on `port` or fail with a typed
/// error.
pub fn expect_vertices<'a>(
    pass: &dyn Pass,
    inputs: &'a [Value],
    port: usize,
) -> Result<&'a crate::set::VertexSet, PerFlowError> {
    let v = inputs.get(port).ok_or(PerFlowError::MissingInput {
        pass: pass.name().to_string(),
        port,
    })?;
    v.as_vertices().ok_or(PerFlowError::WrongValueType {
        pass: pass.name().to_string(),
        port,
        expected: "Vertices",
    })
}

/// A source node: emits a fixed value (the way initial sets enter a
/// PerFlowGraph).
pub struct SourcePass {
    value: Value,
}

impl SourcePass {
    /// Create a source emitting `value`.
    pub fn new(value: impl Into<Value>) -> Self {
        SourcePass {
            value: value.into(),
        }
    }
}

impl Pass for SourcePass {
    fn name(&self) -> &str {
        "source"
    }
    fn arity(&self) -> usize {
        0
    }
    fn run(&self, _inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        Ok(vec![self.value.clone()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&["source"], &[self.value.fingerprint()?])
    }
}

/// A user-defined pass built from a closure — the quickest way to write
/// custom analysis steps (§4.5 "developers need to write their own
/// passes").
pub struct FnPass<F> {
    name: String,
    arity: usize,
    f: F,
}

impl<F> FnPass<F>
where
    F: Fn(&[Value]) -> Result<Vec<Value>, PerFlowError> + Send + Sync,
{
    /// Wrap a closure as a pass.
    pub fn new(name: impl Into<String>, arity: usize, f: F) -> Self {
        FnPass {
            name: name.into(),
            arity,
            f,
        }
    }
}

impl<F> Pass for FnPass<F>
where
    F: Fn(&[Value]) -> Result<Vec<Value>, PerFlowError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn run(&self, inputs: &[Value], cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        cx.trail.push(self.name.clone());
        (self.f)(inputs)
    }
}
