//! The engine catalogue: every solving routine in the workspace,
//! addressable through one enum.

use bisched_obs::names::{self, EventName};

/// A concrete solving engine the [`Solver`](crate::Solver) can run.
///
/// Every engine of the workspace is addressable here — including the exact
/// oracles (`ExactQ2`, `ExactR2`, `BranchAndBound`) that the old free
/// function never reached. Applicability is environment-dependent; forcing
/// an inapplicable method yields
/// [`SolveError::NotApplicable`](crate::SolveError::NotApplicable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Pseudo-polynomial component subset-sum DP for `Q2`/`P2`
    /// (the Theorem 4 regime generalized to arbitrary `p_j`).
    ExactQ2,
    /// Pseudo-polynomial load DP for `R2` (exact; the paper's ground
    /// truth for Algorithms 4 and 5).
    ExactR2,
    /// Exact branch and bound with a node budget (any environment; the
    /// result is proven optimal only when the search completes).
    BranchAndBound,
    /// Constraint-propagation + branching solver (any environment with
    /// `m ≤ 64`): bitmask domains, load/horizon and conflict-graph
    /// propagation, activity-based restarts, binary search on the
    /// makespan. Proven optimal when its search completes; built for
    /// dense incompatibility graphs where plain branch and bound
    /// thrashes.
    Cp,
    /// Algorithm 1: the `√(Σ p_j)`-approximation for `Q | G = bipartite`
    /// (Theorem 9; also accepts `P`).
    Alg1,
    /// Algorithm 2: the coloring/capacity scheme for unit jobs
    /// (Theorem 19; a.a.s. 2-approximate on `G_{n,n,p(n)}`).
    Alg2,
    /// Bodlaender–Jansen–Woeginger 2-approximation for `P`, `m ≥ 3`
    /// (ratio 2 is best possible on identical machines, \[3\]).
    Bjw,
    /// Algorithm 5: the `R2` FPTAS (Theorem 22); accuracy comes from
    /// [`SolverConfig::eps`](crate::SolverConfig::eps).
    R2Fptas,
    /// Algorithm 4: the `O(n)` 2-approximation for `R2` (Theorem 21).
    R2TwoApprox,
    /// Graph-aware LPT list scheduling with 2-coloring fallback
    /// (any environment; no guarantee).
    GreedyLpt,
    /// The branch-and-bound incumbent greedy (any environment; the only
    /// option with a defensible story for `R`, `m ≥ 3`, where Theorem 24
    /// rules out any polynomial approximation ratio).
    GreedyR,
}

impl Method {
    /// Every engine, in the order portfolios and docs list them.
    pub const ALL: [Method; 11] = [
        Method::ExactQ2,
        Method::ExactR2,
        Method::BranchAndBound,
        Method::Cp,
        Method::Alg1,
        Method::Alg2,
        Method::Bjw,
        Method::R2Fptas,
        Method::R2TwoApprox,
        Method::GreedyLpt,
        Method::GreedyR,
    ];

    /// Stable machine-readable name (used by the CLI and JSON reports).
    pub fn name(&self) -> &'static str {
        match self {
            Method::ExactQ2 => "exact-q2",
            Method::ExactR2 => "exact-r2",
            Method::BranchAndBound => "branch-and-bound",
            Method::Cp => "cp",
            Method::Alg1 => "alg1",
            Method::Alg2 => "alg2",
            Method::Bjw => "bjw",
            Method::R2Fptas => "fptas",
            Method::R2TwoApprox => "twoapprox",
            Method::GreedyLpt => "greedy-lpt",
            Method::GreedyR => "greedy",
        }
    }

    /// The registered event name of the engine's race-member span: its
    /// wire name, so traces and profiles show the same frame names.
    pub(crate) fn event_name(&self) -> EventName {
        match self {
            Method::ExactQ2 => names::EXACT_Q2,
            Method::ExactR2 => names::EXACT_R2,
            Method::BranchAndBound => names::BRANCH_AND_BOUND,
            Method::Cp => names::CP,
            Method::Alg1 => names::ALG1,
            Method::Alg2 => names::ALG2,
            Method::Bjw => names::BJW,
            Method::R2Fptas => names::FPTAS,
            Method::R2TwoApprox => names::TWOAPPROX,
            Method::GreedyLpt => names::GREEDY_LPT,
            Method::GreedyR => names::GREEDY,
        }
    }

    /// Paper provenance of the engine, for reports and docs.
    pub fn citation(&self) -> &'static str {
        match self {
            Method::ExactQ2 => "Theorem 4 regime (pseudo-polynomial Q2/P2 DP)",
            Method::ExactR2 => "Section 3.2 ground-truth R2 DP",
            Method::BranchAndBound => "exact search (workspace oracle, not from the paper)",
            Method::Cp => "constraint propagation (workspace engine, not from the paper)",
            Method::Alg1 => "Algorithm 1, Theorem 9",
            Method::Alg2 => "Algorithm 2, Theorem 19",
            Method::Bjw => "Bodlaender–Jansen–Woeginger [3]",
            Method::R2Fptas => "Algorithm 5, Theorem 22",
            Method::R2TwoApprox => "Algorithm 4, Theorem 21",
            Method::GreedyLpt => "graph-aware LPT baseline",
            Method::GreedyR => "greedy incumbent (Theorem 24 forbids any ratio for R, m ≥ 3)",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
                format!(
                    "unknown method `{s}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// How the [`Solver`](crate::Solver) chooses among engines.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum MethodPolicy {
    /// The paper's dispatch table: the strongest-guarantee engine that
    /// fits the instance and the configured budgets (see the
    /// [`solver`](crate::solver) module docs for the exact table).
    #[default]
    Auto,
    /// Run exactly this engine, or fail with a typed
    /// [`SolveError::NotApplicable`](crate::SolveError::NotApplicable).
    Force(Method),
    /// Race every listed engine that applies concurrently and keep the
    /// best schedule; the report carries one [`EngineRun`](crate::EngineRun)
    /// per member, in list order. The budgeted engines share a
    /// cancellation flag and an incumbent bound (the first proven-optimal
    /// answer cancels the rest, marked `cancelled` in their runs), and
    /// [`SolverConfig::race_deadline`](crate::SolverConfig::race_deadline)
    /// bounds the whole race. The returned makespan is never worse than
    /// sequentially running every member and keeping the best.
    Portfolio(Vec<Method>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_fromstr() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>().unwrap(), m);
        }
        assert!("no-such-engine".parse::<Method>().is_err());
    }

    #[test]
    fn all_lists_every_variant_exactly_once() {
        // Exhaustive: a new variant does not compile here until it is
        // given its index in `ALL`, which the loop then checks.
        let index = |m: Method| match m {
            Method::ExactQ2 => 0,
            Method::ExactR2 => 1,
            Method::BranchAndBound => 2,
            Method::Cp => 3,
            Method::Alg1 => 4,
            Method::Alg2 => 5,
            Method::Bjw => 6,
            Method::R2Fptas => 7,
            Method::R2TwoApprox => 8,
            Method::GreedyLpt => 9,
            Method::GreedyR => 10,
        };
        for (i, m) in Method::ALL.into_iter().enumerate() {
            assert_eq!(index(m), i, "{m} is not at its index in Method::ALL");
        }
    }

    #[test]
    fn event_names_are_the_wire_names() {
        for m in Method::ALL {
            assert_eq!(m.event_name().as_str(), m.name());
        }
    }
}
