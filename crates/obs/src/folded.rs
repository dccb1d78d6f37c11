//! Folded-stack ("collapsed") exporter — the `flamegraph.pl` / inferno
//! input format: one line per distinct stack, frames joined by `;`,
//! followed by a space and an integer value.
//!
//! Two producers share the format:
//!
//! * [`Obs::folded_stacks`] collapses recorded **span nesting**
//!   ([`walk_span_nesting`]): each span contributes its *self* time
//!   (duration minus directly nested child durations, in µs) to the
//!   stack `perflow;<layer>;<path…>`.
//!   Lanes are aggregated, as a flamegraph aggregates threads.
//! * [`render_folded`] renders any pre-aggregated `stack → value` map —
//!   the collection pipeline uses it for the simulated application's
//!   sampled calling contexts.
//!
//! Output lines are sorted (BTreeMap order), so equal inputs always
//! serialize identically.

use std::collections::BTreeMap;

use crate::{Layer, Obs, SpanRec};

/// Synthetic root frame of all engine-span stacks.
pub const FOLDED_ROOT: &str = "perflow";

/// Make a frame name safe for the folded format: `;` separates frames
/// and the last space separates the value, so both (and control
/// characters) are replaced with `_`.
pub fn sanitize_frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || (c as u32) < 0x20 {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Render a `stack → value` map as folded lines (sorted, one `stack
/// value` line each, trailing newline when non-empty). Zero-valued
/// stacks are kept: a present-but-cheap frame is information.
pub fn render_folded(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, value) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

/// One span closed by [`walk_span_nesting`].
pub struct NestedSpan<'a> {
    /// The span itself; its duration is its inclusive time.
    pub span: &'a SpanRec,
    /// The spans enclosing it in its (layer, lane), outermost first.
    pub ancestors: &'a [&'a SpanRec],
    /// Self time: the duration minus the directly nested spans', µs
    /// (clamped at 0).
    pub self_us: f64,
    /// Whether any span nested directly inside it.
    pub has_children: bool,
}

/// Reconstruct span nesting and report every span as it closes. Within
/// each (layer, lane) the spans form a time-interval tree: they are
/// sorted by (start, −duration, name), so a parent precedes the children
/// it encloses, and each span nests inside the innermost open span that
/// has not ended by its start. Lanes are visited in (layer, lane) order,
/// and within a lane a child closes before its parent. This is the one
/// nesting rule: the folded exporter and the self-analysis PAG both fold
/// its output.
pub fn walk_span_nesting(spans: &[SpanRec], mut visit: impl FnMut(&NestedSpan<'_>)) {
    let mut lanes: BTreeMap<(Layer, u32), Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        lanes.entry((s.layer, s.lane)).or_default().push(s);
    }
    for mut lane in lanes.into_values() {
        lane.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
                .then(a.name.cmp(&b.name))
        });
        // The open spans, outermost first, and per open span the summed
        // duration of its direct children and whether it has any.
        let mut open: Vec<&SpanRec> = Vec::new();
        let mut children: Vec<(f64, bool)> = Vec::new();
        let mut close = |open: &mut Vec<&SpanRec>, children: &mut Vec<(f64, bool)>| {
            let (child_us, has_children) = children.pop().expect("one entry per open span");
            let (span, ancestors) = open.split_last().expect("a span is open");
            visit(&NestedSpan {
                span,
                ancestors,
                self_us: (span.dur_us - child_us).max(0.0),
                has_children,
            });
            open.pop();
        };
        for s in lane {
            while open
                .last()
                .is_some_and(|top| s.start_us >= top.start_us + top.dur_us)
            {
                close(&mut open, &mut children);
            }
            if let Some((child_us, has_children)) = children.last_mut() {
                *child_us += s.dur_us;
                *has_children = true;
            }
            open.push(s);
            children.push((0.0, false));
        }
        while !open.is_empty() {
            close(&mut open, &mut children);
        }
    }
}

impl Obs {
    /// Export recorded spans as folded stacks (self time in µs per
    /// stack). Empty string when disabled or nothing was recorded.
    pub fn folded_stacks(&self) -> String {
        let mut acc: BTreeMap<String, u64> = BTreeMap::new();
        walk_span_nesting(&self.spans(), |n| {
            let mut stack = format!("{FOLDED_ROOT};{}", n.span.layer.name());
            for s in n.ancestors.iter().chain([&n.span]) {
                stack.push(';');
                stack.push_str(&sanitize_frame(&s.name));
            }
            *acc.entry(stack).or_insert(0) += n.self_us.round() as u64;
        });
        render_folded(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    /// Parse folded output back into (stack, value) pairs.
    fn parse(out: &str) -> Vec<(String, u64)> {
        out.lines()
            .map(|l| {
                let (stack, v) = l.rsplit_once(' ').unwrap();
                (stack.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn nesting_roundtrip_self_times_sum_to_parent() {
        let obs = Obs::enabled();
        // parent [0, 100) with child [10, 40) holding grandchild
        // [15, 25), plus a second child [50, 80).
        obs.record_span(Layer::Core, "parent", 0, 0.0, 100.0, &[]);
        obs.record_span(Layer::Core, "child", 0, 10.0, 40.0, &[]);
        obs.record_span(Layer::Core, "grandchild", 0, 15.0, 25.0, &[]);
        obs.record_span(Layer::Core, "child2", 0, 50.0, 80.0, &[]);
        let folded = obs.folded_stacks();
        let lines = parse(&folded);
        let get = |stack: &str| {
            lines
                .iter()
                .find(|(s, _)| s == &format!("perflow;core;{stack}"))
                .unwrap_or_else(|| panic!("missing {stack} in:\n{folded}"))
                .1
        };
        assert_eq!(get("parent"), 40); // 100 - 30 - 30
        assert_eq!(get("parent;child"), 20); // 30 - 10
        assert_eq!(get("parent;child;grandchild"), 10);
        assert_eq!(get("parent;child2"), 30);
        // Round trip: self times under `parent` sum to its duration.
        let total: u64 = lines
            .iter()
            .filter(|(s, _)| s.starts_with("perflow;core;parent"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn lanes_aggregate_and_layers_separate() {
        let obs = Obs::enabled();
        obs.record_span(Layer::Simrt, "phase", 0, 0.0, 10.0, &[]);
        obs.record_span(Layer::Simrt, "phase", 1, 0.0, 15.0, &[]);
        obs.record_span(Layer::Core, "phase", 0, 0.0, 7.0, &[]);
        let lines = parse(&obs.folded_stacks());
        assert_eq!(
            lines,
            vec![
                ("perflow;core;phase".to_string(), 7),
                ("perflow;simrt;phase".to_string(), 25),
            ]
        );
    }

    #[test]
    fn hostile_names_are_sanitized() {
        let obs = Obs::enabled();
        obs.record_span(Layer::App, "a;b c\nd", 0, 0.0, 5.0, &[]);
        let folded = obs.folded_stacks();
        assert_eq!(folded, "perflow;app;a_b_c_d 5\n");
    }

    #[test]
    fn disabled_or_empty_is_empty() {
        assert_eq!(Obs::disabled().folded_stacks(), "");
        assert_eq!(Obs::enabled().folded_stacks(), "");
    }

    #[test]
    fn siblings_do_not_nest() {
        let obs = Obs::enabled();
        obs.record_span(Layer::App, "a", 0, 0.0, 10.0, &[]);
        obs.record_span(Layer::App, "b", 0, 10.0, 30.0, &[]);
        let lines = parse(&obs.folded_stacks());
        assert_eq!(
            lines,
            vec![
                ("perflow;app;a".to_string(), 10),
                ("perflow;app;b".to_string(), 20),
            ]
        );
    }
}
