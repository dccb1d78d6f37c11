//! Execution policies of the scheduler.
//!
//! One panicking or failing pass must not take the whole analysis down
//! with it. This module defines how the scheduler in [`crate::dataflow`]
//! reacts to a failing pass:
//!
//! * [`ExecPolicy`] — what happens to the *rest of the graph* when one
//!   node fails: abort everything ([`ExecPolicy::FailFast`]) or skip the
//!   transitive downstream of the failed node and return a partial,
//!   degraded result ([`ExecPolicy::Isolate`]).
//! * [`ExecOptions`] — the full per-execution configuration: policy,
//!   cache and observability handle.
//! * [`PassFailure`] — the post-mortem record of one failed node that a
//!   degraded run carries in [`crate::dataflow::Outputs`].

use crate::cache::PassCache;
use crate::error::PerFlowError;
use obs::Obs;

/// What the scheduler does with the rest of the graph when a pass fails
/// (returns an error or panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Abort the run on the first failure and return the error; no
    /// further pass runs.
    #[default]
    FailFast,
    /// Contain the failure: record it, skip every pass transitively
    /// downstream of the failed node, and keep executing independent
    /// branches. The run returns `Ok` with partial outputs, the failure
    /// records, and degraded-data warnings.
    Isolate,
}

impl ExecPolicy {
    /// Parse a CLI-style policy name (`failfast` / `fail-fast` /
    /// `isolate`, case-insensitive).
    pub fn parse(s: &str) -> Option<ExecPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "failfast" | "fail-fast" | "fail_fast" => Some(ExecPolicy::FailFast),
            "isolate" => Some(ExecPolicy::Isolate),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::FailFast => write!(f, "failfast"),
            ExecPolicy::Isolate => write!(f, "isolate"),
        }
    }
}

/// Post-mortem record of one failed node in a degraded
/// ([`ExecPolicy::Isolate`]) run.
#[derive(Debug, Clone)]
pub struct PassFailure {
    /// Node id within the executed graph.
    pub node: usize,
    /// Display name of the failing pass.
    pub pass: String,
    /// The error the pass returned, or its caught panic.
    pub error: PerFlowError,
}

impl std::fmt::Display for PassFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass `{}` (node {}) failed: {}",
            self.pass, self.node, self.error
        )
    }
}

/// Full configuration of one scheduler execution, taken by
/// [`crate::dataflow::PerFlowGraph::execute_with`];
/// [`crate::dataflow::PerFlowGraph::execute`] runs with the defaults.
#[derive(Default)]
pub struct ExecOptions<'a> {
    /// Failure policy (default [`ExecPolicy::FailFast`]).
    pub policy: ExecPolicy,
    /// Pass-result cache to look up and fill.
    pub cache: Option<&'a PassCache>,
    /// Observability handle (disabled by default).
    pub obs: Obs,
}

impl<'a> ExecOptions<'a> {
    /// Defaults: fail-fast, no cache, disabled observability.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the failure policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a pass-result cache.
    pub fn with_cache(mut self, cache: &'a PassCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach an observability handle.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_round_trips() {
        assert_eq!(ExecPolicy::parse("failfast"), Some(ExecPolicy::FailFast));
        assert_eq!(ExecPolicy::parse("Fail-Fast"), Some(ExecPolicy::FailFast));
        assert_eq!(ExecPolicy::parse("isolate"), Some(ExecPolicy::Isolate));
        assert_eq!(ExecPolicy::parse("ISOLATE"), Some(ExecPolicy::Isolate));
        assert_eq!(ExecPolicy::parse("other"), None);
        assert_eq!(ExecPolicy::FailFast.to_string(), "failfast");
        assert_eq!(ExecPolicy::Isolate.to_string(), "isolate");
        assert_eq!(ExecPolicy::default(), ExecPolicy::FailFast);
    }

    #[test]
    fn failure_display_names_everything() {
        let f = PassFailure {
            node: 3,
            pass: "hotspot_detection".into(),
            error: PerFlowError::Analysis("boom".into()),
        };
        let s = f.to_string();
        assert!(s.contains("hotspot_detection"), "{s}");
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }
}
