//! Uniform adapters from the workspace's heterogeneous engine APIs to the
//! [`Method`] catalogue.

use bisched_baselines::bjw_two_approx;
use bisched_cp::{cp_solve_ctl, CpLimits};
use bisched_exact::{
    branch_and_bound_ctl, greedy_incumbent, q2_bipartite_exact, r2_bipartite_exact, BnbLimits,
    SearchCtl,
};
use bisched_model::{Instance, MachineEnvironment, Rat, Schedule};
use std::time::Duration;

use super::config::SolverConfig;
use super::guarantee::Guarantee;
use super::method::Method;
use super::report::EngineStats;
use crate::alg1_sqrt::alg1_sqrt_approx;
use crate::alg2_random::alg2_random_graph;
use crate::r2_approx::r2_two_approx;
use crate::r2_fptas::r2_fptas_with;

/// A successful engine run, before report assembly.
pub(super) struct EngineSolution {
    pub schedule: Schedule,
    pub makespan: Rat,
    pub guarantee: Guarantee,
    /// A race cancellation truncated this engine mid-run (the schedule
    /// is its incumbent so far).
    pub cancelled: bool,
    /// A completed CP run's certificate: no schedule with makespan
    /// strictly below this exists. May certify a *racing* engine's
    /// schedule even when this engine's own `guarantee` is weaker.
    pub proven_lower: Option<Rat>,
    /// The engine's runtime counters (empty for engines that report
    /// none); copied verbatim into the attempt's
    /// [`EngineRun::stats`](super::EngineRun::stats).
    pub stats: EngineStats,
}

/// Why an engine produced no schedule.
pub(super) enum EngineFailure {
    /// Preconditions not met; carries the reason.
    NotApplicable(String),
    /// Applied but did not finish with a schedule.
    Failed(String),
}

use EngineFailure::{Failed, NotApplicable};

fn solved(inst: &Instance, schedule: Schedule, guarantee: Guarantee) -> EngineSolution {
    let makespan = schedule.makespan(inst);
    EngineSolution {
        schedule,
        makespan,
        guarantee,
        cancelled: false,
        proven_lower: None,
        stats: EngineStats::new(),
    }
}

/// The smaller of an engine's own deadline and the race's remaining
/// window (either may be absent).
fn min_deadline(own: Option<Duration>, cap: Option<Duration>) -> Option<Duration> {
    match (own, cap) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn is_unrelated(inst: &Instance) -> bool {
    matches!(inst.env(), MachineEnvironment::Unrelated { .. })
}

fn require_two_machines(inst: &Instance) -> Result<(), EngineFailure> {
    if inst.num_machines() != 2 {
        return Err(NotApplicable(format!(
            "requires exactly 2 machines, instance has {}",
            inst.num_machines()
        )));
    }
    Ok(())
}

/// Runs one engine on an instance the caller has already screened for the
/// global preconditions (bipartite graph, chromatic feasibility).
pub(super) fn run_method(
    config: &SolverConfig,
    inst: &Instance,
    method: Method,
) -> Result<EngineSolution, EngineFailure> {
    run_method_ctl(config, inst, method, None, None)
}

/// Race-aware engine adapter: the budgeted engines (`BranchAndBound`,
/// `Cp`) poll `ctl` for cancellation, prune against its published
/// cross-engine bound, publish their own incumbents, and cap their
/// deadline at `deadline_cap` (the race's remaining window).
pub(super) fn run_method_ctl(
    config: &SolverConfig,
    inst: &Instance,
    method: Method,
    ctl: Option<&SearchCtl>,
    deadline_cap: Option<Duration>,
) -> Result<EngineSolution, EngineFailure> {
    match method {
        Method::ExactQ2 => {
            if is_unrelated(inst) {
                return Err(NotApplicable("requires P or Q machines, got R".into()));
            }
            require_two_machines(inst)?;
            let opt = q2_bipartite_exact(inst).map_err(|e| Failed(e.to_string()))?;
            Ok(EngineSolution {
                schedule: opt.schedule,
                makespan: opt.makespan,
                guarantee: Guarantee::Optimal,
                cancelled: false,
                proven_lower: None,
                stats: EngineStats::new(),
            })
        }
        Method::ExactR2 => {
            if !is_unrelated(inst) {
                return Err(NotApplicable(format!(
                    "requires R machines, got {}",
                    inst.env().alpha()
                )));
            }
            require_two_machines(inst)?;
            let opt = r2_bipartite_exact(inst).map_err(|e| Failed(e.to_string()))?;
            Ok(EngineSolution {
                schedule: opt.schedule,
                makespan: opt.makespan,
                guarantee: Guarantee::Optimal,
                cancelled: false,
                proven_lower: None,
                stats: EngineStats::new(),
            })
        }
        Method::BranchAndBound => {
            let limits = BnbLimits {
                node_limit: config.bnb_node_limit,
                deadline: min_deadline(config.bnb_deadline, deadline_cap),
            };
            let outcome = branch_and_bound_ctl(inst, &limits, ctl);
            let mut stats = EngineStats::new();
            stats.set("nodes", outcome.nodes);
            stats.set("prunes_incumbent", outcome.prunes_incumbent);
            stats.set("prunes_foreign", outcome.prunes_foreign);
            stats.set("prunes_candidate", outcome.prunes_candidate);
            stats.set("incumbent_updates", outcome.incumbent_updates);
            stats.set("complete", outcome.complete as u64);
            match outcome.optimum {
                Some(opt) => Ok(EngineSolution {
                    schedule: opt.schedule,
                    makespan: opt.makespan,
                    guarantee: if outcome.complete {
                        Guarantee::Optimal
                    } else {
                        Guarantee::Heuristic
                    },
                    cancelled: outcome.cancelled,
                    proven_lower: None,
                    stats,
                }),
                None => Err(Failed(match config.bnb_deadline {
                    Some(d) => format!(
                        "no incumbent within the {}-node / {:?} budget",
                        config.bnb_node_limit, d
                    ),
                    None => format!(
                        "no incumbent within the {}-node budget",
                        config.bnb_node_limit
                    ),
                })),
            }
        }
        Method::Cp => {
            let limits = CpLimits {
                node_limit: config.cp_node_limit,
                deadline: min_deadline(config.bnb_deadline, deadline_cap),
            };
            let outcome = cp_solve_ctl(inst, &limits, ctl).map_err(NotApplicable)?;
            let mut stats = EngineStats::new();
            stats.set("nodes", outcome.nodes);
            stats.set("conflicts", outcome.conflicts);
            stats.set("restarts", outcome.restarts);
            stats.set("propagations", outcome.propagations);
            stats.set("probes_sat", outcome.probes_sat);
            stats.set("probes_unsat", outcome.probes_unsat);
            stats.set("complete", outcome.complete as u64);
            match outcome.best {
                Some(opt) => {
                    // Optimal only when the completed proof reaches this
                    // engine's own schedule; a foreign-bound-closed run
                    // still carries `proven_lower` for the race
                    // aggregator to certify the actual winner with.
                    let own_optimal =
                        outcome.complete && outcome.proven_lower.as_ref() == Some(&opt.makespan);
                    Ok(EngineSolution {
                        schedule: opt.schedule,
                        makespan: opt.makespan,
                        guarantee: if own_optimal {
                            Guarantee::Optimal
                        } else {
                            Guarantee::Heuristic
                        },
                        cancelled: outcome.cancelled,
                        proven_lower: outcome.proven_lower,
                        stats,
                    })
                }
                None if outcome.complete => {
                    Err(Failed("proven infeasible: no schedule exists".into()))
                }
                None => Err(Failed(format!(
                    "no incumbent within the {}-node budget",
                    config.cp_node_limit
                ))),
            }
        }
        Method::Alg1 => {
            if is_unrelated(inst) {
                return Err(NotApplicable("requires P or Q machines, got R".into()));
            }
            let r = alg1_sqrt_approx(inst).map_err(|e| Failed(e.to_string()))?;
            Ok(EngineSolution {
                schedule: r.schedule,
                makespan: r.makespan,
                guarantee: Guarantee::SqrtSumP,
                cancelled: false,
                proven_lower: None,
                stats: EngineStats::new(),
            })
        }
        Method::Alg2 => {
            if is_unrelated(inst) {
                return Err(NotApplicable("requires P or Q machines, got R".into()));
            }
            if !inst.is_unit() {
                return Err(NotApplicable(
                    "Algorithm 2 is stated for unit jobs (p_j = 1)".into(),
                ));
            }
            let r = alg2_random_graph(inst).map_err(|e| Failed(e.to_string()))?;
            // Theorem 19's factor-2 promise is a.a.s. over G_{n,n,p(n)},
            // not worst-case, so the typed guarantee stays Heuristic.
            Ok(EngineSolution {
                schedule: r.schedule,
                makespan: r.makespan,
                guarantee: Guarantee::Heuristic,
                cancelled: false,
                proven_lower: None,
                stats: EngineStats::new(),
            })
        }
        Method::Bjw => {
            if is_unrelated(inst) {
                return Err(NotApplicable("requires P or Q machines, got R".into()));
            }
            if inst.num_machines() < 3 {
                return Err(NotApplicable(format!(
                    "requires m >= 3, instance has {}",
                    inst.num_machines()
                )));
            }
            let schedule = bjw_two_approx(inst).map_err(|e| Failed(e.to_string()))?;
            // The ratio-2 proof is for identical machines; on uniform
            // speeds the engine runs as a comparison heuristic.
            let guarantee = if matches!(inst.env(), MachineEnvironment::Identical { .. }) {
                Guarantee::Ratio(Rat::integer(2))
            } else {
                Guarantee::Heuristic
            };
            Ok(solved(inst, schedule, guarantee))
        }
        Method::R2Fptas => {
            if !is_unrelated(inst) {
                return Err(NotApplicable(format!(
                    "requires R machines, got {}",
                    inst.env().alpha()
                )));
            }
            require_two_machines(inst)?;
            // A hit cap degrades gracefully to a coarser ε (≤ 1, the
            // Algorithm 5 regime); only an unsatisfiable cap fails, typed,
            // into the attempt record.
            let report = r2_fptas_with(inst, config.eps, config.fptas_state_cap)
                .map_err(|e| Failed(e.to_string()))?;
            // The guarantee carries the ε the DP actually ran at — equal
            // to the configured ε unless the state cap forced coarsening.
            let guarantee = Guarantee::OnePlusEps(report.eps_effective);
            let mut stats = EngineStats::new();
            stats.set("expanded", report.expanded);
            stats.set("pruned", report.pruned);
            stats.set("peak_states", report.peak_states as u64);
            // ε in parts-per-million: counters are integers, and µ-level
            // resolution is far below anything coarsening produces.
            stats.set("eps_effective_ppm", (report.eps_effective * 1e6) as u64);
            let mut sol = solved(inst, report.schedule, guarantee);
            sol.stats = stats;
            Ok(sol)
        }
        Method::R2TwoApprox => {
            if !is_unrelated(inst) {
                return Err(NotApplicable(format!(
                    "requires R machines, got {}",
                    inst.env().alpha()
                )));
            }
            require_two_machines(inst)?;
            let schedule = r2_two_approx(inst).map_err(|e| Failed(e.to_string()))?;
            Ok(solved(inst, schedule, Guarantee::Ratio(Rat::integer(2))))
        }
        Method::GreedyLpt => {
            let schedule =
                bisched_baselines::greedy_lpt(inst).map_err(|e| Failed(e.to_string()))?;
            Ok(solved(inst, schedule, Guarantee::Heuristic))
        }
        Method::GreedyR => match greedy_incumbent(inst) {
            Some(opt) => Ok(EngineSolution {
                schedule: opt.schedule,
                makespan: opt.makespan,
                guarantee: Guarantee::Heuristic,
                cancelled: false,
                proven_lower: None,
                stats: EngineStats::new(),
            }),
            None => Err(Failed("greedy found no feasible schedule".into())),
        },
    }
}
