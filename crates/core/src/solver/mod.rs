//! The solving engine: a configurable dispatcher over every algorithm in
//! the workspace.
//!
//! The paper is, at heart, a dispatch table — which algorithm applies to
//! which machine environment and what it can promise. [`Solver`] makes
//! that table a first-class, configurable object instead of a frozen
//! `match`:
//!
//! ```
//! use bisched_core::{MethodPolicy, SolverConfig};
//! use bisched_graph::Graph;
//! use bisched_model::Instance;
//!
//! let inst = Instance::uniform(
//!     vec![2, 1],
//!     vec![4, 3, 2, 3],
//!     Graph::from_edges(4, &[(0, 1), (2, 3)]),
//! )
//! .unwrap();
//!
//! let solver = SolverConfig::new().eps(0.1).build().unwrap();
//! let report = solver.solve(&inst).unwrap();
//! assert!(report.schedule.validate(&inst).is_ok());
//! assert!(report.makespan >= report.lower_bound);
//! println!("{} via {} ({})", report.makespan, report.method, report.guarantee);
//! ```
//!
//! ## The `Auto` dispatch table
//!
//! | instance | engines tried | guarantee of the result |
//! |---|---|---|
//! | any, `n ≤ auto_exact_jobs` | branch & bound, then CP when the node budget ran out | optimal when either search completes |
//! | `Q2`/`P2`, `Σp_j ≤ exact_budget` | exact subset-sum DP | optimal (Theorem 4 regime) |
//! | `P`, `m ≥ 3` | best of BJW \[3\] and Algorithm 1 (skipped when BJW meets the lower bound) | `2 · C*` when BJW ran (best possible, \[3\]) |
//! | `Q`, `m ≥ 3` (or huge `Σp_j`) | Algorithm 1 | `√(Σp_j) · C*` (Theorem 9) |
//! | `R2`, row mass ≤ `exact_budget` | exact load DP | optimal |
//! | `R2` otherwise | Algorithm 5 (FPTAS); Algorithm 4 if its state cap fails it | `(1+ε) · C*` (Theorem 22); `2 · C*` (Theorem 21) |
//! | `R`, `m ≥ 3` | graph-aware greedy | none — Theorem 24 proves none is possible |
//!
//! Every engine that ran (winners, losers, and inapplicable ones) is
//! recorded in [`SolveReport::attempts`] with its wall time, and the
//! returned schedule is labelled with the method that **actually produced
//! it** — when Algorithm 1 beats BJW on identical machines the report
//! says so. Under every policy, a schedule whose makespan equals the
//! reported [`SolveReport::lower_bound`] is labelled optimal, whichever
//! engine built it.
//!
//! [`MethodPolicy::Force`] runs exactly one engine (or fails with a typed
//! [`SolveError::NotApplicable`]); [`MethodPolicy::Portfolio`] **races** a
//! user-chosen set concurrently — members share a cancellation flag and a
//! running incumbent bound through [`bisched_exact::SearchCtl`], the first
//! proven-optimal answer cancels the rest, and the kept schedule is never
//! worse than any member's.

mod config;
mod engines;
mod guarantee;
mod method;
mod report;

pub use config::{
    SolverConfig, DEFAULT_AUTO_EXACT_JOBS, DEFAULT_BNB_NODE_LIMIT, DEFAULT_CP_NODE_LIMIT,
    DEFAULT_EPS, DEFAULT_EXACT_BUDGET,
};
pub use guarantee::Guarantee;
pub use method::{Method, MethodPolicy};
pub use report::{EngineOutcome, EngineRun, EngineStats, SolveReport};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bisched_exact::SearchCtl;
use bisched_model::{graph_blind_lower_bound, Instance, MachineEnvironment, Rat};
use bisched_obs::names;

use engines::{run_method, run_method_ctl, EngineFailure, EngineSolution};

/// Errors of the solving engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The incompatibility graph is not bipartite — outside the paper's
    /// model, and every engine here relies on 2-colorability.
    NotBipartite,
    /// No feasible schedule exists (one machine, at least one edge).
    Infeasible,
    /// The configuration is self-contradictory (bad `ε`, empty
    /// portfolio); raised by [`SolverConfig::build`].
    InvalidConfig(String),
    /// A forced method's preconditions do not hold on this instance.
    NotApplicable {
        /// The method that was forced.
        method: Method,
        /// The precondition that failed.
        reason: String,
    },
    /// The engine applied but produced no schedule.
    EngineFailed {
        /// The engine.
        method: Method,
        /// What went wrong.
        reason: String,
    },
    /// No engine in the policy produced a schedule.
    NoEngineSolved {
        /// Per-method reasons.
        reasons: Vec<(Method, String)>,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotBipartite => write!(f, "incompatibility graph is not bipartite"),
            SolveError::Infeasible => write!(f, "no feasible schedule exists"),
            SolveError::InvalidConfig(m) => write!(f, "invalid solver config: {m}"),
            SolveError::NotApplicable { method, reason } => {
                write!(f, "method {method} not applicable: {reason}")
            }
            SolveError::EngineFailed { method, reason } => {
                write!(f, "method {method} failed: {reason}")
            }
            SolveError::NoEngineSolved { reasons } => {
                write!(f, "no engine solved the instance:")?;
                for (m, r) in reasons {
                    write!(f, " [{m}: {r}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The configurable solving engine; built from a [`SolverConfig`].
///
/// A `Solver` is cheap to construct, immutable, and reusable across
/// instances and threads.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// A solver with the default configuration (the old façade's
    /// behaviour plus the exact engines `Auto` now reaches).
    pub fn new() -> Self {
        Solver::default()
    }

    pub(crate) fn from_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The configuration this solver runs with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves one instance under the configured policy.
    pub fn solve(&self, inst: &Instance) -> Result<SolveReport, SolveError> {
        let _solve_span =
            bisched_obs::span_arg(names::SOLVE, "core", "jobs", inst.num_jobs() as u64);
        let t0 = Instant::now();
        if !bisched_graph::is_bipartite(inst.graph()) {
            return Err(SolveError::NotBipartite);
        }
        if inst.num_machines() == 1 && inst.graph().num_edges() > 0 {
            return Err(SolveError::Infeasible);
        }
        let lower_bound = graph_blind_lower_bound(inst);
        let mut attempts: Vec<EngineRun> = Vec::new();
        let mut race_time = None;
        let outcome = match &self.config.policy {
            MethodPolicy::Auto => self.solve_auto(inst, &lower_bound, &mut attempts),
            MethodPolicy::Force(method) => match self.attempt(inst, *method, &mut attempts) {
                Some(sol) => Ok((sol, *method)),
                None => Err(match attempts.last().map(|a| &a.outcome) {
                    Some(EngineOutcome::NotApplicable { reason }) => SolveError::NotApplicable {
                        method: *method,
                        reason: reason.clone(),
                    },
                    Some(EngineOutcome::Failed { reason }) => SolveError::EngineFailed {
                        method: *method,
                        reason: reason.clone(),
                    },
                    _ => unreachable!("attempt records exactly one outcome"),
                }),
            },
            MethodPolicy::Portfolio(methods) => {
                let (outcome, elapsed) = self.solve_race(inst, methods, &mut attempts);
                race_time = Some(elapsed);
                outcome
            }
        };
        let (best, method) = outcome?;
        // A schedule that meets a lower bound is optimal, whichever
        // engine built it.
        let guarantee = if best.makespan == lower_bound {
            Guarantee::Optimal
        } else {
            strongest_guarantee(inst, &attempts, best.guarantee)
        };
        Ok(SolveReport {
            schedule: best.schedule,
            makespan: best.makespan,
            method,
            guarantee,
            lower_bound,
            attempts,
            total_time: t0.elapsed(),
            race_time,
            seed: self.config.seed,
        })
    }

    /// Runs one engine, recording the attempt; returns the solution when
    /// it solved.
    fn attempt(
        &self,
        inst: &Instance,
        method: Method,
        attempts: &mut Vec<EngineRun>,
    ) -> Option<EngineSolution> {
        let t0 = Instant::now();
        let result = run_method(&self.config, inst, method);
        let (run, sol) = record(method, result, t0.elapsed());
        attempts.push(run);
        sol
    }

    /// The `Portfolio` policy: a concurrent race over the members.
    ///
    /// Up to `available_parallelism` workers (the calling thread plus
    /// scoped spawns) pull member indices off a shared queue; every
    /// member runs through [`run_method_ctl`] with one shared
    /// [`SearchCtl`], so the budgeted engines prune against each other's
    /// incumbents and the first proven-optimal answer cancels the rest
    /// (members that have not started yet are recorded as zero-wall-time
    /// cancelled attempts). Results are reassembled in
    /// member (list) order; returns the outcome plus the race's own wall
    /// time.
    fn solve_race(
        &self,
        inst: &Instance,
        methods: &[Method],
        attempts: &mut Vec<EngineRun>,
    ) -> (Result<(EngineSolution, Method), SolveError>, Duration) {
        let t0 = Instant::now();
        let race_span = bisched_obs::span_arg(
            names::PORTFOLIO_RACE,
            "race",
            "members",
            methods.len() as u64,
        );
        let ctl = SearchCtl::new();
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, EngineRun, Option<EngineSolution>)>> =
            Mutex::new(Vec::with_capacity(methods.len()));
        // `available_parallelism` is a syscall (~15µs) — cache it, the
        // dense race cells themselves close in ~100µs.
        static HW_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let hw =
            *HW_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        let workers = methods.len().min(hw);
        let race_worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&method) = methods.get(i) else { break };
            let (run, sol) = self.race_member(inst, method, &ctl, t0);
            results.lock().unwrap().push((i, run, sol));
        };
        // The calling thread is a worker too: each spawn costs tens of
        // microseconds against sub-millisecond cells, and a single
        // hardware thread runs the race inline as sequential-with-skip.
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(race_worker);
            }
            race_worker();
        });
        let race_time = t0.elapsed();
        drop(race_span);
        let mut ordered = results.into_inner().unwrap();
        ordered.sort_by_key(|(i, ..)| *i);

        // Winner: smallest makespan, earliest member on ties.
        let mut winner: Option<usize> = None;
        for (idx, (_, _, sol)) in ordered.iter().enumerate() {
            if let Some(sol) = sol {
                let better = match winner {
                    None => true,
                    Some(w) => sol.makespan < ordered[w].2.as_ref().unwrap().makespan,
                };
                if better {
                    winner = Some(idx);
                }
            }
        }
        let Some(w) = winner else {
            attempts.extend(ordered.into_iter().map(|(_, run, _)| run));
            return (pick_best(Vec::new(), attempts), race_time);
        };
        let winner_mk = ordered[w].2.as_ref().unwrap().makespan;

        // Any member's completed proof certifies the winner: a complete
        // search (even one whose own pruning leaned on the shared bound)
        // shows no schedule beats the best *achieved* makespan, and a CP
        // `proven_lower` at or above the winner is an absolute bound (see
        // `bisched_exact::search_ctl` for the soundness argument).
        let certified = ordered.iter().any(|(_, run, sol)| {
            sol.is_some()
                && (matches!(
                    run.outcome,
                    EngineOutcome::Solved {
                        guarantee: Guarantee::Optimal,
                        ..
                    }
                ) || sol
                    .as_ref()
                    .and_then(|s| s.proven_lower.as_ref())
                    .is_some_and(|lb| winner_mk <= *lb))
        });

        // A branch-and-bound "complete" under the shared bound proves
        // nothing better than the best achieved makespan — when its own
        // incumbent lost the race, that incumbent is only a heuristic, so
        // demote its record before the guarantees transfer.
        for (_, run, sol) in ordered.iter_mut() {
            if run.method == Method::BranchAndBound {
                if let Some(sol) = sol {
                    if sol.guarantee == Guarantee::Optimal && sol.makespan > winner_mk {
                        sol.guarantee = Guarantee::Heuristic;
                        if let EngineOutcome::Solved { guarantee, .. } = &mut run.outcome {
                            *guarantee = Guarantee::Heuristic;
                        }
                    }
                }
            }
        }

        let mut best = ordered[w].2.take().unwrap();
        let method = ordered[w].1.method;
        if certified {
            best.guarantee = Guarantee::Optimal;
        }
        attempts.extend(ordered.into_iter().map(|(_, run, _)| run));
        (Ok((best, method)), race_time)
    }

    /// Runs one race member against the shared [`SearchCtl`]: skips it
    /// (as a cancelled zero-time attempt) when the race is already over,
    /// publishes its achieved makespan, and cancels the race on a proven
    /// optimum.
    fn race_member(
        &self,
        inst: &Instance,
        method: Method,
        ctl: &SearchCtl,
        race_start: Instant,
    ) -> (EngineRun, Option<EngineSolution>) {
        if ctl.cancelled() {
            bisched_obs::instant(names::RACE_MEMBER_SKIPPED, "race", "member", method as u64);
            return (
                EngineRun {
                    method,
                    outcome: EngineOutcome::Failed {
                        reason: "cancelled before start: a racing engine already proved optimality"
                            .into(),
                    },
                    stats: EngineStats::new(),
                    wall_time: Duration::ZERO,
                    cancelled: true,
                },
                None,
            );
        }
        let cap = self
            .config
            .race_deadline
            .map(|d| d.saturating_sub(race_start.elapsed()));
        let mut member_span =
            bisched_obs::span_arg(method.event_name(), "race", "member", method as u64);
        let t0 = Instant::now();
        let result = run_method_ctl(&self.config, inst, method, Some(ctl), cap);
        let (run, sol) = record(method, result, t0.elapsed());
        if let Some(sol) = &sol {
            ctl.publish_makespan(&sol.makespan);
            bisched_obs::instant(
                names::RACE_PUBLISH,
                "race",
                "makespan_floor",
                sol.makespan.floor(),
            );
            if sol.guarantee == Guarantee::Optimal {
                ctl.cancel();
                bisched_obs::instant(names::RACE_CANCEL, "race", "winner", method as u64);
            }
            if sol.cancelled {
                member_span.set_arg("cancelled_mid_run", 1);
            }
        }
        (run, sol)
    }

    /// The `Auto` policy: the module-level dispatch table, with every
    /// fallback recorded. Algorithm 1 is skipped once an earlier answer
    /// meets the reported `lower_bound`: it could not beat it.
    fn solve_auto(
        &self,
        inst: &Instance,
        lower_bound: &Rat,
        attempts: &mut Vec<EngineRun>,
    ) -> Result<(EngineSolution, Method), SolveError> {
        let cfg = &self.config;
        let m = inst.num_machines();
        let mut candidates: Vec<(Method, EngineSolution)> = Vec::new();

        // Small instances: a complete search beats any approximation.
        if inst.num_jobs() <= cfg.auto_exact_jobs {
            if let Some(sol) = self.attempt(inst, Method::BranchAndBound, attempts) {
                if sol.guarantee == Guarantee::Optimal {
                    return Ok((sol, Method::BranchAndBound));
                }
                // Incomplete search: keep the incumbent as a candidate and
                // let the guaranteed engines compete below.
                candidates.push((Method::BranchAndBound, sol));
                // The node budget ran out — dense conflict graphs are
                // exactly where propagation pays, so give CP one shot at
                // closing the proof before falling back to approximations.
                if let Some(sol) = self.attempt(inst, Method::Cp, attempts) {
                    if sol.guarantee == Guarantee::Optimal {
                        return Ok((sol, Method::Cp));
                    }
                    candidates.push((Method::Cp, sol));
                }
            }
        }

        match inst.env() {
            MachineEnvironment::Unrelated { times } => {
                if m == 2 {
                    // The exact R2 DP is pseudo-polynomial in the machine-1
                    // row mass; prefer it while that fits the budget.
                    let row_mass: u64 = times[0].iter().sum();
                    if row_mass <= cfg.exact_budget {
                        if let Some(sol) = self.attempt(inst, Method::ExactR2, attempts) {
                            return Ok((sol, Method::ExactR2));
                        }
                    }
                    if let Some(sol) = self.attempt(inst, Method::R2Fptas, attempts) {
                        candidates.push((Method::R2Fptas, sol));
                    } else if let Some(sol) = self.attempt(inst, Method::R2TwoApprox, attempts) {
                        // The FPTAS failed: a state cap that even ε = 1
                        // cannot meet. Algorithm 4 runs in linear time and
                        // carries ratio 2, what the FPTAS has at ε = 1.
                        candidates.push((Method::R2TwoApprox, sol));
                    }
                } else {
                    // R, m >= 3: Theorem 24 — heuristic only.
                    if let Some(sol) = self.attempt(inst, Method::GreedyR, attempts) {
                        candidates.push((Method::GreedyR, sol));
                    }
                }
            }
            _ => {
                if m == 2 && inst.total_processing() <= cfg.exact_budget {
                    if let Some(sol) = self.attempt(inst, Method::ExactQ2, attempts) {
                        return Ok((sol, Method::ExactQ2));
                    }
                }
                if matches!(inst.env(), MachineEnvironment::Identical { .. }) && m >= 3 {
                    // Best-of: BJW carries the stronger (ratio 2) label,
                    // but Algorithm 1 sometimes builds the better
                    // schedule; both run unless BJW meets the lower
                    // bound, and the winner is reported.
                    if let Some(sol) = self.attempt(inst, Method::Bjw, attempts) {
                        candidates.push((Method::Bjw, sol));
                    }
                }
                let bound_met = candidates
                    .iter()
                    .any(|(_, sol)| sol.makespan == *lower_bound);
                if !bound_met {
                    if let Some(sol) = self.attempt(inst, Method::Alg1, attempts) {
                        candidates.push((Method::Alg1, sol));
                    }
                }
            }
        }
        pick_best(candidates, attempts)
    }
}

/// The attempt record of one engine result, and the solution when it
/// solved.
fn record(
    method: Method,
    result: Result<EngineSolution, EngineFailure>,
    wall_time: Duration,
) -> (EngineRun, Option<EngineSolution>) {
    let outcome = match &result {
        Ok(sol) => EngineOutcome::Solved {
            makespan: sol.makespan,
            guarantee: sol.guarantee.clone(),
        },
        Err(EngineFailure::NotApplicable(reason)) => EngineOutcome::NotApplicable {
            reason: reason.clone(),
        },
        Err(EngineFailure::Failed(reason)) => EngineOutcome::Failed {
            reason: reason.clone(),
        },
    };
    let sol = result.ok();
    let run = EngineRun {
        method,
        outcome,
        stats: sol
            .as_ref()
            .map_or_else(EngineStats::new, |s| s.stats.clone()),
        wall_time,
        cancelled: sol.as_ref().is_some_and(|s| s.cancelled),
    };
    (run, sol)
}

/// Picks the candidate with the smallest makespan (ties: the engine that
/// ran first wins). With no candidates, reports every attempt's reason.
fn pick_best(
    candidates: Vec<(Method, EngineSolution)>,
    attempts: &[EngineRun],
) -> Result<(EngineSolution, Method), SolveError> {
    let mut best: Option<(Method, EngineSolution)> = None;
    for (method, sol) in candidates {
        if best.as_ref().is_none_or(|(_, b)| sol.makespan < b.makespan) {
            best = Some((method, sol));
        }
    }
    match best {
        Some((method, sol)) => Ok((sol, method)),
        None => Err(SolveError::NoEngineSolved {
            reasons: attempts
                .iter()
                .map(|run| {
                    let reason = match &run.outcome {
                        EngineOutcome::NotApplicable { reason }
                        | EngineOutcome::Failed { reason } => reason.clone(),
                        EngineOutcome::Solved { .. } => {
                            unreachable!("a solved attempt is always a candidate")
                        }
                    };
                    (run.method, reason)
                })
                .collect(),
        }),
    }
}

/// The strongest guarantee that provably applies to the returned (best)
/// schedule: its own, or any solved engine's ratio bound — the best
/// makespan is `≤` every solved engine's, so their multiplicative bounds
/// transfer.
fn strongest_guarantee(inst: &Instance, attempts: &[EngineRun], own: Guarantee) -> Guarantee {
    let mut best = own;
    for run in attempts {
        if let EngineOutcome::Solved { guarantee, .. } = &run.outcome {
            if guarantee.at_least_as_strong(&best, inst) {
                best = guarantee.clone();
            }
        }
    }
    best
}

// A `Solver` is shared across the portfolio race's threads, and the
// service shares `SolveReport`s between connection threads through its
// caches; keep both facts checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
    assert_send_sync::<SolverConfig>();
    assert_send_sync::<SolveReport>();
    assert_send_sync::<SolveError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::Graph;
    use bisched_model::{Instance, Rat};

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn q2_dispatches_to_exact() {
        let inst = Instance::uniform(vec![2, 1], vec![30; 12], Graph::path(12)).unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(s.method, Method::ExactQ2);
        assert_eq!(s.guarantee, Guarantee::Optimal);
        assert!(s.schedule.validate(&inst).is_ok());
        assert!(s.makespan >= s.lower_bound);
    }

    #[test]
    fn qm_dispatches_to_alg1() {
        let inst = Instance::uniform(
            vec![3, 2, 1],
            vec![2; 12],
            Graph::cycle(8).disjoint_union(&Graph::empty(4)).0,
        )
        .unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(s.method, Method::Alg1);
        assert_eq!(s.guarantee, Guarantee::SqrtSumP);
        assert!(s.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn r2_dispatches_to_exact_dp_within_budget_and_fptas_past_it() {
        let inst = Instance::unrelated(
            vec![
                vec![3, 5, 2, 4, 6, 3, 2, 5, 4, 3, 6, 2],
                vec![4, 2, 6, 3, 2, 5, 4, 3, 2, 6, 3, 4],
            ],
            Graph::path(12),
        )
        .unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(s.method, Method::ExactR2);
        assert_eq!(s.guarantee, Guarantee::Optimal);

        let tight = SolverConfig::new()
            .exact_budget(1)
            .auto_exact_jobs(0)
            .build()
            .unwrap();
        let s2 = tight.solve(&inst).unwrap();
        assert_eq!(s2.method, Method::R2Fptas);
        assert_eq!(s2.guarantee, Guarantee::OnePlusEps(DEFAULT_EPS));
        assert!(s2.makespan >= s.makespan);
    }

    #[test]
    fn r2_auto_falls_back_to_two_approx_when_the_fptas_fails() {
        // 20 crossing components: each edge's two orientations trade
        // machine-0 load against machine-1 load, so the FPTAS layers hold
        // more than one state and a one-state cap fails even at ε = 1.
        let times = vec![
            (0..20).flat_map(|k| [2, 10 + k]).collect(),
            (0..20).flat_map(|k| [3, 9 + k]).collect(),
        ];
        let edges: Vec<(u32, u32)> = (0..20).map(|k| (2 * k, 2 * k + 1)).collect();
        let inst = Instance::unrelated(times, Graph::from_edges(40, &edges)).unwrap();
        let capped = SolverConfig::new()
            .exact_budget(0)
            .fptas_state_cap(Some(1))
            .build()
            .unwrap();
        let s = capped.solve(&inst).unwrap();
        assert_eq!(s.method, Method::R2TwoApprox);
        assert_eq!(s.guarantee, Guarantee::Ratio(Rat::integer(2)));
        assert!(s.schedule.validate(&inst).is_ok());
        let fptas = s
            .attempts
            .iter()
            .find(|run| run.method == Method::R2Fptas)
            .expect("Auto tries the FPTAS first");
        match &fptas.outcome {
            EngineOutcome::Failed { reason } => {
                assert!(reason.contains("state cap 1 exceeded"), "{reason}");
            }
            other => panic!("expected a failed FPTAS attempt, got {other:?}"),
        }
    }

    #[test]
    fn r3_dispatches_to_greedy() {
        let times: Vec<Vec<u64>> = (0..3)
            .map(|i| (0..12).map(|j| 1 + (i * 7 + j * 3) % 9).collect())
            .collect();
        let inst = Instance::unrelated(times, Graph::path(12)).unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(s.method, Method::GreedyR);
        assert_eq!(s.guarantee, Guarantee::Heuristic);
        assert!(s.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn p3_best_of_reports_the_actual_winner() {
        let inst = Instance::identical(
            3,
            vec![4, 3, 3, 2, 2, 4, 3, 2, 4, 3, 2, 2],
            Graph::complete_bipartite(5, 7),
        )
        .unwrap();
        let s = solver().solve(&inst).unwrap();
        assert!(s.schedule.validate(&inst).is_ok());
        // Both engines were attempted and the reported method is the one
        // whose makespan equals the returned one.
        let winner = s
            .attempts
            .iter()
            .find(|a| a.method == s.method)
            .expect("winner recorded");
        assert_eq!(winner.makespan(), Some(&s.makespan));
        for a in &s.attempts {
            if let Some(mk) = a.makespan() {
                assert!(*mk >= s.makespan, "{} beat the reported winner", a.method);
            }
        }
        // BJW ran, so the ratio-2 bound applies to the best schedule
        // whichever engine produced it.
        assert!(s
            .attempts
            .iter()
            .any(|a| a.method == Method::Bjw && a.makespan().is_some()));
        assert_eq!(s.guarantee, Guarantee::Ratio(Rat::integer(2)));
        let opt = bisched_exact::brute_force(&inst).unwrap();
        assert!(s.makespan.ratio_to(&opt.makespan) <= 2.0 + 1e-9);
    }

    #[test]
    fn small_instances_get_proven_optima() {
        let inst =
            Instance::identical(3, vec![4, 3, 3, 2, 2], Graph::complete_bipartite(2, 3)).unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(s.method, Method::BranchAndBound);
        assert_eq!(s.guarantee, Guarantee::Optimal);
        let opt = bisched_exact::brute_force(&inst).unwrap();
        assert_eq!(s.makespan, opt.makespan);
    }

    /// Speeds 4, 4, 1, 1 and `Σp = 45`: the optimum 19/4 is the floored
    /// cover, above `Σp/Σs = 9/2`. Both exact engines start from the
    /// cover, so each proves the optimum itself and CP's binary search
    /// runs no UNSAT probe.
    #[test]
    fn exact_engines_prove_a_q_optimum_at_the_floored_cover() {
        let inst = Instance::uniform(
            vec![4, 4, 1, 1],
            vec![5, 1, 6, 7, 7, 3, 5, 4, 1, 6],
            Graph::from_edges(10, &[(1, 8), (2, 7), (3, 5), (4, 6), (4, 8)]),
        )
        .unwrap();
        let opt = Rat::new(19, 4);
        assert!(Rat::new(inst.total_processing(), 10) < opt);
        for method in [Method::BranchAndBound, Method::Cp] {
            let s = SolverConfig::new()
                .method(method)
                .build()
                .unwrap()
                .solve(&inst)
                .unwrap();
            assert_eq!((s.makespan, s.lower_bound), (opt, opt), "{method}");
            assert_eq!(s.guarantee, Guarantee::Optimal, "{method}");
            let run = &s.attempts[0];
            assert!(
                matches!(
                    run.outcome,
                    EngineOutcome::Solved {
                        guarantee: Guarantee::Optimal,
                        ..
                    }
                ),
                "{method} proves the optimum itself: {:?}",
                run.outcome
            );
            if method == Method::Cp {
                assert_eq!(run.stats.get("probes_unsat"), Some(0));
            }
        }
    }

    #[test]
    fn an_answer_that_meets_the_lower_bound_is_optimal() {
        // Greedy carries no guarantee of its own, but on three identical
        // machines and six unit jobs with no edges its makespan 2 is
        // ⌈6/3⌉, the reported bound.
        let inst = Instance::identical(3, vec![1; 6], Graph::empty(6)).unwrap();
        let greedy = SolverConfig::new()
            .method(Method::GreedyLpt)
            .build()
            .unwrap();
        let s = greedy.solve(&inst).unwrap();
        assert_eq!(
            (s.makespan, s.lower_bound),
            (Rat::integer(2), Rat::integer(2))
        );
        assert_eq!(s.guarantee, Guarantee::Optimal);
        assert!(matches!(
            s.attempts[0].outcome,
            EngineOutcome::Solved {
                guarantee: Guarantee::Heuristic,
                ..
            }
        ));
        // Above the bound the engine's own label stands.
        let tight = Instance::identical(2, vec![2, 2, 2], Graph::empty(3)).unwrap();
        let s = greedy.solve(&tight).unwrap();
        assert!(s.makespan > s.lower_bound);
        assert_eq!(s.guarantee, Guarantee::Heuristic);
    }

    #[test]
    fn auto_stops_at_a_bjw_answer_that_meets_the_bound() {
        // The crown S₆₄ on eight identical machines with unit jobs: BJW
        // packs the 128 jobs into makespan 16 = ⌈128/8⌉, the reported
        // bound, so Algorithm 1 has nothing left to beat.
        let inst = Instance::identical(8, vec![1; 128], Graph::crown(64)).unwrap();
        let s = solver().solve(&inst).unwrap();
        assert_eq!(
            (s.makespan, s.lower_bound),
            (Rat::integer(16), Rat::integer(16))
        );
        assert_eq!(s.method, Method::Bjw);
        assert_eq!(s.guarantee, Guarantee::Optimal);
        let methods: Vec<Method> = s.attempts.iter().map(|a| a.method).collect();
        assert_eq!(methods, [Method::Bjw]);
    }

    #[test]
    fn forced_methods_solve_or_type_their_refusal() {
        let q3 = Instance::uniform(vec![3, 2, 1], vec![1; 6], Graph::path(6)).unwrap();
        let forced = SolverConfig::new().method(Method::R2Fptas).build().unwrap();
        match forced.solve(&q3).unwrap_err() {
            SolveError::NotApplicable { method, .. } => assert_eq!(method, Method::R2Fptas),
            other => panic!("expected NotApplicable, got {other:?}"),
        }
        let alg2 = SolverConfig::new().method(Method::Alg2).build().unwrap();
        let s = alg2.solve(&q3).unwrap();
        assert_eq!(s.method, Method::Alg2);
        let nonunit = Instance::uniform(vec![3, 2, 1], vec![2; 6], Graph::path(6)).unwrap();
        assert!(matches!(
            alg2.solve(&nonunit).unwrap_err(),
            SolveError::NotApplicable {
                method: Method::Alg2,
                ..
            }
        ));
    }

    #[test]
    fn portfolio_never_loses_to_a_member() {
        let inst =
            Instance::uniform(vec![4, 2, 1], vec![5, 4, 4, 3, 2, 2, 1], Graph::path(7)).unwrap();
        let members = vec![Method::GreedyLpt, Method::Alg1, Method::BranchAndBound];
        let portfolio = SolverConfig::new()
            .portfolio(members.clone())
            .build()
            .unwrap();
        let s = portfolio.solve(&inst).unwrap();
        assert_eq!(s.attempts.len(), members.len());
        for (run, m) in s.attempts.iter().zip(&members) {
            assert_eq!(run.method, *m);
            if let Some(mk) = run.makespan() {
                assert!(s.makespan <= *mk);
            }
        }
        // Branch and bound completed, so the portfolio's best is optimal.
        assert_eq!(s.attempts[2].stats.get("complete"), Some(1));
        assert_eq!(s.guarantee, Guarantee::Optimal);
    }

    #[test]
    fn race_reports_race_time_and_per_member_wall_times() {
        let inst = Instance::uniform(vec![2, 1], vec![5, 4, 3, 2, 2, 1], Graph::path(6)).unwrap();
        let s = SolverConfig::new()
            .portfolio(vec![Method::GreedyLpt, Method::GreedyR])
            .build()
            .unwrap()
            .solve(&inst)
            .unwrap();
        let race = s.race_time.expect("portfolio reports its race time");
        assert!(race <= s.total_time);
        for run in &s.attempts {
            // Each member is timed from its own start, never cumulatively,
            // so no attempt can outlast the race window it ran inside.
            assert!(run.wall_time <= race);
            assert!(!run.cancelled, "no member proves optimality here");
        }
        // Non-portfolio solves have no race.
        let auto = solver().solve(&inst).unwrap();
        assert!(auto.race_time.is_none());
    }

    #[test]
    fn race_never_loses_to_sequential_best_of_on_a_seeded_matrix() {
        use bisched_model::{JobSizes, SpeedProfile, UnrelatedFamily};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let members = vec![
            Method::GreedyLpt,
            Method::Alg1,
            Method::BranchAndBound,
            Method::Cp,
        ];
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for k in 0..12u64 {
            let n = 6 + (k as usize % 4);
            let g = bisched_graph::gilbert_bipartite(n / 2, n - n / 2, 0.5, &mut rng);
            let inst = match k % 3 {
                0 => Instance::identical(
                    2 + (k as usize % 2),
                    JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng),
                    g,
                ),
                1 => Instance::uniform(
                    SpeedProfile::Geometric { ratio: 2 }.speeds(3),
                    JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng),
                    g,
                ),
                _ => {
                    let m = 2 + rng.gen_range(0..2usize);
                    Instance::unrelated(
                        UnrelatedFamily::Uncorrelated { lo: 1, hi: 15 }.sample(m, n, &mut rng),
                        g,
                    )
                }
            }
            .unwrap();

            // Sequential best-of: every member forced on its own.
            let mut seq_best: Option<Rat> = None;
            let mut seq_optimal = false;
            for &m in &members {
                let forced = SolverConfig::new().method(m).build().unwrap();
                if let Ok(r) = forced.solve(&inst) {
                    if seq_best.is_none_or(|b| r.makespan < b) {
                        seq_best = Some(r.makespan);
                    }
                    seq_optimal |= r.guarantee == Guarantee::Optimal;
                }
            }
            let seq_best = seq_best.expect("some member solves every instance");

            let race = SolverConfig::new()
                .portfolio(members.clone())
                .build()
                .unwrap()
                .solve(&inst)
                .unwrap();
            assert!(race.schedule.validate(&inst).is_ok());
            assert!(
                race.makespan <= seq_best,
                "instance {k}: race got {} but sequential best-of got {}",
                race.makespan,
                seq_best
            );
            if seq_optimal {
                assert_eq!(
                    race.guarantee,
                    Guarantee::Optimal,
                    "instance {k}: the race lost a proof sequential best-of had"
                );
            }
            assert_eq!(race.attempts.len(), members.len());
            for (run, m) in race.attempts.iter().zip(&members) {
                assert_eq!(run.method, *m);
            }
        }
    }

    #[test]
    fn race_cancels_the_slow_engine_after_a_proof() {
        // Σp is small enough for the exact Q2 DP but the job count is far
        // past what branch and bound can finish: the DP's proof must
        // cancel the search instead of waiting out its node budget.
        let p: Vec<u64> = (0..30).map(|j| 1 + j % 4).collect();
        let inst = Instance::uniform(vec![2, 1], p, Graph::path(30)).unwrap();
        let s = SolverConfig::new()
            .portfolio(vec![Method::ExactQ2, Method::BranchAndBound])
            .build()
            .unwrap()
            .solve(&inst)
            .unwrap();
        assert_eq!(s.method, Method::ExactQ2);
        assert_eq!(s.guarantee, Guarantee::Optimal);
        let bnb = s
            .attempts
            .iter()
            .find(|a| a.method == Method::BranchAndBound)
            .unwrap();
        assert!(bnb.cancelled, "the race must cancel the unfinished search");
        if matches!(bnb.outcome, EngineOutcome::Failed { .. }) {
            // Cancelled before it even started: zero-time attribution.
            assert_eq!(bnb.wall_time, Duration::ZERO);
        }
    }

    #[test]
    fn forced_engines_report_nonempty_stats() {
        let inst =
            Instance::identical(3, vec![4, 3, 3, 2, 2], Graph::complete_bipartite(2, 3)).unwrap();
        for m in [Method::BranchAndBound, Method::Cp] {
            let s = SolverConfig::new()
                .method(m)
                .build()
                .unwrap()
                .solve(&inst)
                .unwrap();
            let run = s.attempts.iter().find(|a| a.method == m).unwrap();
            assert!(!run.stats.is_empty(), "{m} must report counters");
            assert!(run.stats.get("nodes").unwrap() > 0, "{m} expanded nodes");
            assert_eq!(run.stats.get("complete"), Some(1), "{m} completed");
        }
        let r2 = Instance::unrelated(
            vec![vec![3, 9, 4, 8], vec![8, 2, 7, 3]],
            Graph::from_edges(4, &[(0, 1), (2, 3)]),
        )
        .unwrap();
        let s = SolverConfig::new()
            .method(Method::R2Fptas)
            .build()
            .unwrap()
            .solve(&r2)
            .unwrap();
        let run = s
            .attempts
            .iter()
            .find(|a| a.method == Method::R2Fptas)
            .unwrap();
        assert!(!run.stats.is_empty());
        assert!(run.stats.get("expanded").unwrap() > 0);
        assert!(run.stats.get("peak_states").unwrap() > 0);
        // Engines with no instrumentation report empty stats, not junk.
        let greedy = SolverConfig::new()
            .method(Method::GreedyLpt)
            .build()
            .unwrap()
            .solve(&inst)
            .unwrap();
        assert!(greedy.attempts[0].stats.is_empty());
    }

    #[test]
    fn portfolio_trace_carries_race_cancel_events() {
        // Same shape as `race_cancels_the_slow_engine_after_a_proof`: the
        // exact DP's proof cancels branch and bound — with the flight
        // recorder on, that cancellation must be visible in the trace.
        let p: Vec<u64> = (0..30).map(|j| 1 + j % 4).collect();
        let inst = Instance::uniform(vec![2, 1], p, Graph::path(30)).unwrap();
        bisched_obs::start_recording(1 << 16);
        let s = SolverConfig::new()
            .portfolio(vec![Method::ExactQ2, Method::BranchAndBound])
            .build()
            .unwrap()
            .solve(&inst)
            .unwrap();
        let trace = bisched_obs::stop_recording();
        assert_eq!(s.guarantee, Guarantee::Optimal);
        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"portfolio_race"), "race span missing");
        assert!(names.contains(&"race_publish"), "publish instant missing");
        assert!(names.contains(&"race_cancel"), "cancel instant missing");
        // The member spans are labelled by engine name.
        assert!(names.contains(&"exact-q2"));
        let json = trace.to_chrome_json();
        assert!(json.contains("\"race_cancel\""));
    }

    #[test]
    fn errors_bubble_up() {
        let odd = Instance::identical(3, vec![1; 5], Graph::cycle(5)).unwrap();
        assert_eq!(solver().solve(&odd).unwrap_err(), SolveError::NotBipartite);
        let infeasible =
            Instance::identical(1, vec![1, 1], Graph::from_edges(2, &[(0, 1)])).unwrap();
        assert_eq!(
            solver().solve(&infeasible).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(matches!(
            SolverConfig::new().eps(0.0).build(),
            Err(SolveError::InvalidConfig(_))
        ));
        assert!(matches!(
            SolverConfig::new().eps(1.5).build(),
            Err(SolveError::InvalidConfig(_))
        ));
        assert!(matches!(
            SolverConfig::new().portfolio(vec![]).build(),
            Err(SolveError::InvalidConfig(_))
        ));
    }
}
