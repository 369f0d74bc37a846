//! Self-time profile aggregation: folds a [`Trace`](crate::Trace) into
//! per-(thread, span-stack) **self/total** wall-time tables and renders
//! the flamegraph-collapsed stack format (`a;b;c 1234`, one line per
//! stack, value = self time in microseconds).
//!
//! The Chrome trace JSON shows *when* spans ran; this fold shows *where
//! the time went*: a span's **total** time is its own duration, its
//! **self** time is that duration minus the time covered by its direct
//! children on the same thread — the quantity a flamegraph plots. Feed
//! the collapsed output to `inferno-flamegraph` / `flamegraph.pl`, or
//! read the table directly (`Profile::rows` is sorted by self time,
//! hottest first).
//!
//! ```
//! use bisched_obs::names;
//!
//! bisched_obs::start_recording(1 << 10);
//! {
//!     let _outer = bisched_obs::span(names::SOLVE, "core");
//!     let _inner = bisched_obs::span(names::PORTFOLIO_RACE, "race");
//! }
//! let trace = bisched_obs::stop_recording();
//! let profile = bisched_obs::Profile::from_trace(&trace);
//! let collapsed = profile.to_collapsed();
//! assert!(collapsed.contains("solve;portfolio_race "));
//! // Every line obeys the collapsed grammar: name(;name)* <int>
//! for line in collapsed.lines() {
//!     let (stack, n) = line.rsplit_once(' ').unwrap();
//!     assert!(!stack.is_empty() && n.parse::<u64>().is_ok());
//! }
//! ```

use crate::{EventKind, Trace, TraceEvent};
use std::collections::BTreeMap;

/// One aggregated (thread, span-stack) row of a [`Profile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Dense id of the thread the stack ran on.
    pub tid: u64,
    /// The span stack, outermost first (`["solve", "portfolio_race"]`).
    pub stack: Vec<&'static str>,
    /// How many spans folded into this row.
    pub count: u64,
    /// Summed span durations, microseconds (includes children's time).
    pub total_us: u64,
    /// Summed durations minus the time covered by direct children —
    /// the flamegraph value.
    pub self_us: u64,
}

/// A span currently open during the per-thread replay: its end time,
/// its own duration, and the duration covered by direct children so far.
struct OpenSpan {
    end_us: u64,
    dur_us: u64,
    child_us: u64,
}

/// A folded trace: per-(thread, stack) self/total-time rows.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Aggregated rows, sorted by self time descending (ties broken by
    /// `(tid, stack)` for determinism).
    pub rows: Vec<ProfileRow>,
}

impl Profile {
    /// Folds a trace's span events into self/total-time rows. Instants
    /// and counters are ignored (they carry no duration); nesting is
    /// reconstructed per thread from interval containment, which is
    /// exact because span guards on one thread strictly nest.
    pub fn from_trace(trace: &Trace) -> Profile {
        let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for ev in &trace.events {
            if ev.kind == EventKind::Span {
                by_tid.entry(ev.tid).or_default().push(ev);
            }
        }
        // (tid, stack) -> (count, total_us, self_us)
        let mut table: BTreeMap<(u64, Vec<&'static str>), (u64, u64, u64)> = BTreeMap::new();
        for (tid, mut spans) in by_tid {
            // Parents before children: start ascending and, at equal
            // starts, duration descending (an enclosing span cannot be
            // shorter than what it encloses).
            spans.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
            let mut open: Vec<OpenSpan> = Vec::new();
            let mut names: Vec<&'static str> = Vec::new();
            for ev in spans {
                // Close every open span that ends at or before this start.
                while open.last().is_some_and(|s| s.end_us <= ev.ts_us) {
                    close_top(tid, &mut open, &mut names, &mut table);
                }
                // Credit this span's duration to the parent's child time.
                if let Some(parent) = open.last_mut() {
                    parent.child_us += ev.dur_us;
                }
                open.push(OpenSpan {
                    end_us: ev.ts_us.saturating_add(ev.dur_us),
                    dur_us: ev.dur_us,
                    child_us: 0,
                });
                names.push(ev.name);
            }
            while !open.is_empty() {
                close_top(tid, &mut open, &mut names, &mut table);
            }
        }
        let mut rows: Vec<ProfileRow> = table
            .into_iter()
            .map(|((tid, stack), (count, total_us, self_us))| ProfileRow {
                tid,
                stack,
                count,
                total_us,
                self_us,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.self_us
                .cmp(&a.self_us)
                .then_with(|| a.tid.cmp(&b.tid))
                .then_with(|| a.stack.cmp(&b.stack))
        });
        Profile { rows }
    }

    /// Renders the profile in flamegraph-collapsed stack format: one
    /// `name;name;... <self-µs>` line per distinct stack, aggregated
    /// across threads, sorted lexicographically (deterministic output
    /// for identical traces). Frame names are sanitized so every line
    /// matches the grammar `name(;name)* <int>` — spaces, semicolons,
    /// and control characters inside a frame become `_`.
    pub fn to_collapsed(&self) -> String {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for row in &self.rows {
            let stack = row
                .stack
                .iter()
                .map(|name| sanitize_frame(name))
                .collect::<Vec<String>>()
                .join(";");
            *merged.entry(stack).or_insert(0) += row.self_us;
        }
        let mut out = String::new();
        for (stack, self_us) in merged {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        out
    }
}

/// Closes the top open span: settles its self time (duration minus the
/// time its direct children covered) into the (tid, stack) row. The
/// total was **not** added at open time so that a row's fields settle
/// together here.
fn close_top(
    tid: u64,
    open: &mut Vec<OpenSpan>,
    names: &mut Vec<&'static str>,
    table: &mut BTreeMap<(u64, Vec<&'static str>), (u64, u64, u64)>,
) {
    let span = open.pop().expect("close_top on empty stack");
    let stack = names.clone();
    names.pop();
    let entry = table.entry((tid, stack)).or_insert((0, 0, 0));
    entry.0 += 1;
    entry.1 += span.dur_us;
    entry.2 += span.dur_us.saturating_sub(span.child_us);
}

/// Replace spaces/semicolons (grammar-breaking in collapsed format) and
/// control characters with `_`.
fn sanitize_frame(name: &str) -> String {
    if name.is_empty() {
        return "unnamed".to_string();
    }
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, name: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: dur,
            kind: EventKind::Span,
            name,
            cat: "test",
            arg_name: "",
            arg: 0,
            tid,
        }
    }

    fn instant(tid: u64, name: &'static str, ts: u64) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: 0,
            kind: EventKind::Instant,
            name,
            cat: "test",
            arg_name: "",
            arg: 0,
            tid,
        }
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let trace = Trace {
            events: vec![
                span(0, "outer", 0, 100),
                span(0, "inner", 10, 30),
                span(0, "inner", 50, 20),
            ],
            dropped: 0,
        };
        let p = Profile::from_trace(&trace);
        let outer = p
            .rows
            .iter()
            .find(|r| r.stack == vec!["outer"])
            .expect("outer row");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_us, 100);
        assert_eq!(outer.self_us, 50); // 100 - 30 - 20
        let inner = p
            .rows
            .iter()
            .find(|r| r.stack == vec!["outer", "inner"])
            .expect("inner row");
        assert_eq!(inner.count, 2);
        assert_eq!(inner.total_us, 50);
        assert_eq!(inner.self_us, 50); // leaves: self == total
    }

    #[test]
    fn grandchildren_only_charge_their_direct_parent() {
        let trace = Trace {
            events: vec![
                span(0, "a", 0, 100),
                span(0, "b", 10, 80),
                span(0, "c", 20, 40),
            ],
            dropped: 0,
        };
        let p = Profile::from_trace(&trace);
        let a = p.rows.iter().find(|r| r.stack == vec!["a"]).unwrap();
        assert_eq!(a.self_us, 20); // 100 - 80 (b only; c charges b)
        let b = p.rows.iter().find(|r| r.stack == vec!["a", "b"]).unwrap();
        assert_eq!(b.self_us, 40); // 80 - 40
        let c = p
            .rows
            .iter()
            .find(|r| r.stack == vec!["a", "b", "c"])
            .unwrap();
        assert_eq!(c.self_us, 40);
    }

    #[test]
    fn threads_fold_independently_and_merge_in_collapsed() {
        let trace = Trace {
            events: vec![
                span(0, "work", 0, 10),
                span(1, "work", 0, 30),
                instant(0, "marker", 5),
            ],
            dropped: 0,
        };
        let p = Profile::from_trace(&trace);
        assert_eq!(p.rows.len(), 2); // one "work" row per thread
        assert_eq!(p.to_collapsed(), "work 40\n"); // merged across threads
    }

    #[test]
    fn equal_start_ties_pick_longer_span_as_parent() {
        let trace = Trace {
            events: vec![span(0, "child", 0, 10), span(0, "parent", 0, 50)],
            dropped: 0,
        };
        let p = Profile::from_trace(&trace);
        assert!(p.rows.iter().any(|r| r.stack == vec!["parent", "child"]));
        assert!(!p.rows.iter().any(|r| r.stack == vec!["child"]));
    }

    #[test]
    fn collapsed_output_is_sorted_and_grammar_clean() {
        let trace = Trace {
            events: vec![
                span(0, "portfolio race", 0, 100),
                span(0, "branch-and-bound", 10, 40),
                span(0, "list;scheduling", 60, 30),
            ],
            dropped: 0,
        };
        let collapsed = Profile::from_trace(&trace).to_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        for line in &lines {
            let (stack, n) = line.rsplit_once(' ').expect("stack + value");
            assert!(n.parse::<u64>().is_ok(), "bad value in {line:?}");
            for frame in stack.split(';') {
                assert!(!frame.is_empty(), "empty frame in {line:?}");
                assert!(
                    frame.chars().all(|c| !c.is_whitespace() && c != ';'),
                    "unsanitized frame in {line:?}"
                );
            }
        }
        // Space and semicolon in names got sanitized.
        assert!(collapsed.contains("portfolio_race"));
        assert!(collapsed.contains("list_scheduling"));
    }

    #[test]
    fn empty_trace_folds_to_empty_profile() {
        let trace = Trace {
            events: vec![],
            dropped: 0,
        };
        let p = Profile::from_trace(&trace);
        assert!(p.rows.is_empty());
        assert_eq!(p.to_collapsed(), "");
    }
}
