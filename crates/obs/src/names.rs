//! The registry of flight-recorder event names.
//!
//! [`span`](crate::span), [`span_arg`](crate::span_arg),
//! [`instant`](crate::instant) and [`counter`](crate::counter) take an
//! [`EventName`], and only this crate can make one, so every name the
//! workspace emits is one of the constants below. A new instrumentation
//! point declares its name here in the same change. A closed vocabulary
//! keeps trace-consuming tooling (`Profile::from_trace` self-time
//! folding, the lab's counter attribution, dashboards fed by the Chrome
//! traces) working against known names instead of ad-hoc strings.
//!
//! ```
//! use bisched_obs::names;
//!
//! let _span = bisched_obs::span(names::SOLVE, "core");
//! assert_eq!(names::SOLVE.as_str(), "solve");
//! ```
//!
//! A name outside the registry does not compile:
//!
//! ```compile_fail,E0603
//! let _span = bisched_obs::span(bisched_obs::names::EventName("ad_hoc"), "core");
//! ```

/// A registered event name: one of the constants in this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventName(pub(crate) &'static str);

impl EventName {
    /// The name as traces and profiles show it.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

// Service request path.

/// Span: one daemon solve request, decode to reply.
pub const SOLVE_REQUEST: EventName = EventName("solve_request");
/// Span: canonicalizing a request's instance.
pub const CANONICALIZE: EventName = EventName("canonicalize");
/// Instant: a request answered from the cache.
pub const CACHE_HIT: EventName = EventName("cache_hit");
/// Instant: a request that missed the cache.
pub const CACHE_MISS: EventName = EventName("cache_miss");
/// Instant: a cache insert evicted the least recently used entry.
pub const CACHE_EVICT: EventName = EventName("cache_evict");
/// Instant: a fresh solve's report was cached.
pub const JOB_DONE: EventName = EventName("job_done");

// Solver dispatch and portfolio race.

/// Span: one `Solver::solve` call.
pub const SOLVE: EventName = EventName("solve");
/// Span: one portfolio race.
pub const PORTFOLIO_RACE: EventName = EventName("portfolio_race");
/// Instant: a race member published its makespan.
pub const RACE_PUBLISH: EventName = EventName("race_publish");
/// Instant: a proven optimum cancelled the rest of the race.
pub const RACE_CANCEL: EventName = EventName("race_cancel");
/// Instant: a member skipped because the race was already cancelled.
pub const RACE_MEMBER_SKIPPED: EventName = EventName("race_member_skipped");

// Race member spans, one per engine, named by its `Method` wire name.

/// Race member span: the exact `Q2`/`P2` DP.
pub const EXACT_Q2: EventName = EventName("exact-q2");
/// Race member span: the exact `R2` DP.
pub const EXACT_R2: EventName = EventName("exact-r2");
/// Race member span: branch and bound.
pub const BRANCH_AND_BOUND: EventName = EventName("branch-and-bound");
/// Race member span: the CP engine.
pub const CP: EventName = EventName("cp");
/// Race member span: Algorithm 1.
pub const ALG1: EventName = EventName("alg1");
/// Race member span: Algorithm 2.
pub const ALG2: EventName = EventName("alg2");
/// Race member span: the Bodlaender–Jansen–Woeginger 2-approximation.
pub const BJW: EventName = EventName("bjw");
/// Race member span: Algorithm 5, the `R2` FPTAS.
pub const FPTAS: EventName = EventName("fptas");
/// Race member span: Algorithm 4, the `R2` 2-approximation.
pub const TWOAPPROX: EventName = EventName("twoapprox");
/// Race member span: graph-aware LPT.
pub const GREEDY_LPT: EventName = EventName("greedy-lpt");
/// Race member span: the branch-and-bound incumbent greedy.
pub const GREEDY: EventName = EventName("greedy");

// Engines.

/// Instant: branch and bound found a better incumbent.
pub const BNB_INCUMBENT: EventName = EventName("bnb_incumbent");
/// Instant: a CP probe met its makespan bound.
pub const CP_PROBE_SAT: EventName = EventName("cp_probe_sat");
/// Instant: a CP probe proved its makespan bound infeasible.
pub const CP_PROBE_UNSAT: EventName = EventName("cp_probe_unsat");
/// Instant: the CP search restarted.
pub const CP_RESTART: EventName = EventName("cp_restart");
/// Counter: the FPTAS DP's live width after each layer.
pub const FPTAS_LAYER_WIDTH: EventName = EventName("fptas_layer_width");
