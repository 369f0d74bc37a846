//! Structured solve results: what ran, what it promised, how long it took.

use std::time::Duration;

use bisched_model::{Rat, Schedule};

use super::guarantee::Guarantee;
use super::method::Method;

/// One engine's outcome inside a solve (recorded even when another engine
/// ended up producing the returned schedule).
#[derive(Clone, Debug)]
pub enum EngineOutcome {
    /// The engine produced a feasible schedule.
    Solved {
        /// Makespan of that engine's schedule.
        makespan: Rat,
        /// The guarantee that engine carries on this instance.
        guarantee: Guarantee,
    },
    /// The engine does not apply to this instance (wrong environment,
    /// machine count, or job structure).
    NotApplicable {
        /// Human-readable precondition that failed.
        reason: String,
    },
    /// The engine applied but could not produce a schedule (e.g. a node
    /// budget ran out before any incumbent).
    Failed {
        /// What went wrong.
        reason: String,
    },
}

/// Named machine-readable counters from one engine run — the
/// dispatch-training substrate ROADMAP's "measured, not hardcoded"
/// Auto-dispatch item needs. A small ordered list rather than a map:
/// engines report a handful of counters, insertion order is the natural
/// display order, and `&'static str` keys keep the hot paths
/// allocation-free.
///
/// ```
/// use bisched_core::EngineStats;
/// let mut s = EngineStats::new();
/// s.set("nodes", 42);
/// s.set("nodes", 43); // overwrite, not append
/// assert_eq!(s.get("nodes"), Some(43));
/// assert_eq!(s.iter().count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    entries: Vec<(&'static str, u64)>,
}

impl EngineStats {
    /// An empty counter set (what non-instrumented engines report).
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Sets (or overwrites) one counter.
    pub fn set(&mut self, name: &'static str, value: u64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name, value)),
        }
    }

    /// Reads one counter back.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `true` when the engine reported no counters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }
}

/// A single engine invocation: method, outcome, wall time, counters.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The engine that ran.
    pub method: Method,
    /// What happened.
    pub outcome: EngineOutcome,
    /// The engine's machine-readable runtime counters (empty for engines
    /// that report none, and for attempts that failed before running).
    pub stats: EngineStats,
    /// Wall-clock time spent inside **this engine alone** — in a
    /// portfolio race each member is timed from its own start to its own
    /// finish, never cumulatively from the portfolio's start.
    pub wall_time: Duration,
    /// `true` iff a portfolio race cancelled this engine — either
    /// mid-run (another member proved optimality first; the outcome is
    /// its incumbent so far) or before it started (`wall_time` is zero
    /// and the outcome is a `Failed` placeholder). Cancelled attempts
    /// are not losses: dispatch-training data should count them
    /// separately.
    pub cancelled: bool,
}

impl EngineRun {
    /// The makespan, when the engine solved.
    pub fn makespan(&self) -> Option<&Rat> {
        match &self.outcome {
            EngineOutcome::Solved { makespan, .. } => Some(makespan),
            _ => None,
        }
    }
}

/// The result of [`Solver::solve`](crate::Solver::solve): the schedule
/// plus full provenance.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: Rat,
    /// The engine that produced **this** schedule (when several ran, the
    /// one whose schedule won).
    pub method: Method,
    /// The strongest guarantee that provably applies to this schedule.
    pub guarantee: Guarantee,
    /// An unconditional lower bound on `C*_max` from
    /// `bisched_model::bounds` (capacity bound for `P`/`Q`, per-job row
    /// minima for `R`; ignores the incompatibility graph, so `C*` may be
    /// strictly larger).
    pub lower_bound: Rat,
    /// Every engine invocation this solve performed, in execution order —
    /// including fallbacks that lost and methods that did not apply.
    pub attempts: Vec<EngineRun>,
    /// Total wall time of the solve, engines plus dispatch.
    pub total_time: Duration,
    /// Wall time of the portfolio race, start of the first engine to the
    /// last one settling (`None` outside `MethodPolicy::Portfolio`).
    /// With concurrent engines this is less than the sum of the
    /// attempts' own `wall_time`s.
    pub race_time: Option<Duration>,
    /// The seed the solver was configured with, recorded so runs are
    /// attributable even once randomized engines exist (today's engines
    /// are all deterministic).
    pub seed: u64,
}

impl SolveReport {
    /// The attempt whose schedule this report returned: the first
    /// `Solved` run of the winning method. `None` only for reports
    /// without attempt provenance (e.g. hand-built in tests).
    pub fn winner_run(&self) -> Option<&EngineRun> {
        self.attempts
            .iter()
            .find(|run| run.method == self.method && run.makespan().is_some())
    }

    /// Per-engine attempt counts as `(method-name, attempts)` pairs in
    /// first-attempt order — the "what ran, how often" companion to the
    /// winner's counters (a portfolio may try an engine once; a
    /// fallback chain may retry).
    pub fn attempt_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for run in &self.attempts {
            let name = run.method.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts
    }
}
