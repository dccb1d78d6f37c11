//! Execution policies for the resilient scheduler.
//!
//! The scheduler in [`crate::dataflow`] is a shared engine: one stalled
//! or panicking pass must not take the whole analysis down with it. This
//! module defines the knobs that govern how the scheduler reacts to
//! failing passes:
//!
//! * [`ExecPolicy`] — what happens to the *rest of the graph* when one
//!   node fails: abort everything ([`ExecPolicy::FailFast`]) or skip the
//!   transitive downstream of the failed node and return a partial,
//!   degraded result ([`ExecPolicy::Isolate`]).
//! * [`RetryPolicy`] — bounded deterministic re-execution of every
//!   failing pass of a run, with capped exponential backoff.
//! * [`ExecOptions`] — the full per-execution configuration: policy,
//!   per-pass wall-clock deadline, retries, cache, observability handle,
//!   and checkpoint/resume handles.
//! * [`PassFailure`] — the post-mortem record of one failed node that a
//!   degraded run carries in [`crate::dataflow::Outputs`].

use crate::cache::PassCache;
use crate::checkpoint::{CheckpointWriter, ResumeSnapshot};
use crate::error::PerFlowError;
use obs::Obs;

/// What the scheduler does with the rest of the graph when a pass fails
/// (returns an error, panics, or exceeds its deadline).
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

/// Bounded deterministic retry with capped exponential backoff.
///
/// A failing attempt `k` (1-based) sleeps `min(base · 2^(k-1), cap)`
/// milliseconds before re-running. No jitter: the schedule is a pure
/// function of the policy, so retried runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-executions after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry, milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff, milliseconds.
    pub backoff_cap_ms: u64,
}

impl RetryPolicy {
    /// `max_retries` retries with the default 10 ms base / 1 s cap.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
        }
    }

    /// Override the backoff base and cap.
    pub fn with_backoff_ms(mut self, base: u64, cap: u64) -> Self {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap.max(base);
        self
    }

    /// Backoff before retry `attempt` (1-based), milliseconds:
    /// `min(base · 2^(attempt-1), cap)`. Deterministic, monotone,
    /// saturating.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(0);
        match factor {
            0 => self.backoff_cap_ms,
            f => self
                .backoff_base_ms
                .saturating_mul(f)
                .min(self.backoff_cap_ms),
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
    /// The final error after all retries were exhausted.
    pub error: PerFlowError,
    /// Total execution attempts made (1 = no retries).
    pub attempts: u32,
}

impl std::fmt::Display for PassFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass `{}` (node {}) failed after {} attempt(s): {}",
            self.pass, self.node, self.attempts, self.error
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
    /// Per-pass wall-clock deadline, milliseconds. When set, every pass
    /// attempt runs under a watchdog; an attempt exceeding the deadline
    /// fails with [`PerFlowError::PassTimeout`] (and is abandoned — its
    /// eventual result, if any, is discarded).
    pub pass_timeout_ms: Option<u64>,
    /// Retry policy applied to every pass (`None`: one attempt each).
    pub retry: Option<RetryPolicy>,
    /// Pass-result cache to look up and fill.
    pub cache: Option<&'a PassCache>,
    /// Observability handle (disabled by default).
    pub obs: Obs,
    /// Checkpoint writer: every completed pass with a content key is
    /// appended to the snapshot file as it finishes.
    pub checkpoint: Option<&'a CheckpointWriter>,
    /// Resume snapshot: passes whose content key is present replay the
    /// recorded outputs instead of running.
    pub resume: Option<&'a ResumeSnapshot>,
}

impl<'a> ExecOptions<'a> {
    /// Defaults: fail-fast, no deadline, no retries, no cache, disabled
    /// observability, no checkpointing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the failure policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the per-pass deadline in milliseconds.
    pub fn with_pass_timeout_ms(mut self, ms: u64) -> Self {
        self.pass_timeout_ms = Some(ms);
        self
    }

    /// Apply a retry policy to every pass.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
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

    /// Record completed passes into a checkpoint file.
    pub fn with_checkpoint(mut self, writer: &'a CheckpointWriter) -> Self {
        self.checkpoint = Some(writer);
        self
    }

    /// Replay passes from a loaded checkpoint snapshot.
    pub fn with_resume(mut self, snapshot: &'a ResumeSnapshot) -> Self {
        self.resume = Some(snapshot);
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
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::new(5).with_backoff_ms(10, 70);
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        assert_eq!(p.backoff_ms(4), 70, "capped");
        assert_eq!(p.backoff_ms(100), 70, "huge attempts saturate at cap");
    }

    #[test]
    fn backoff_cap_never_below_base() {
        let p = RetryPolicy::new(1).with_backoff_ms(50, 10);
        assert_eq!(p.backoff_cap_ms, 50);
        assert_eq!(p.backoff_ms(1), 50);
    }

    #[test]
    fn failure_display_names_everything() {
        let f = PassFailure {
            node: 3,
            pass: "hotspot_detection".into(),
            error: PerFlowError::Analysis("boom".into()),
            attempts: 2,
        };
        let s = f.to_string();
        assert!(s.contains("hotspot_detection"), "{s}");
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("2 attempt(s)"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }
}
