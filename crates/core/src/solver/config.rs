//! Builder-style configuration for the [`Solver`](crate::Solver).

use super::method::{Method, MethodPolicy};
use super::SolveError;
use crate::Solver;
use std::time::Duration;

/// Default FPTAS accuracy (`ε`), matching the old façade's hardcoded
/// `DEFAULT_EPS`.
pub const DEFAULT_EPS: f64 = 0.125;

/// Default pseudo-polynomial budget: the exact `Q2`/`R2` DPs are preferred
/// by [`MethodPolicy::Auto`] while the relevant processing mass stays at
/// or below this.
pub const DEFAULT_EXACT_BUDGET: u64 = 1 << 22;

/// Default branch-and-bound node budget.
pub const DEFAULT_BNB_NODE_LIMIT: u64 = 2_000_000;

/// Default CP decision-node budget. CP nodes are costlier than B&B nodes
/// (each carries a propagation fixpoint), so the default is smaller.
pub const DEFAULT_CP_NODE_LIMIT: u64 = 500_000;

/// Default job-count ceiling under which `Auto` tries branch and bound
/// before the approximation engines.
pub const DEFAULT_AUTO_EXACT_JOBS: usize = 10;

/// Everything a [`Solver`] can be tuned with; construct via
/// [`SolverConfig::new`], chain setters, finish with
/// [`SolverConfig::build`]. Fields are public for inspection.
///
/// ```
/// use bisched_core::{Method, MethodPolicy, SolverConfig};
///
/// let solver = SolverConfig::new()
///     .eps(0.05)
///     .exact_budget(1 << 18)
///     .policy(MethodPolicy::Portfolio(vec![Method::Alg1, Method::GreedyLpt]))
///     .build()
///     .unwrap();
/// assert_eq!(solver.config().eps, 0.05);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// FPTAS accuracy `ε ∈ (0, 1]` used by [`Method::R2Fptas`].
    pub eps: f64,
    /// Pseudo-polynomial budget gating the exact `Q2`/`R2` DPs in `Auto`.
    pub exact_budget: u64,
    /// Node budget for [`Method::BranchAndBound`].
    pub bnb_node_limit: u64,
    /// Optional wall-clock budget for [`Method::BranchAndBound`],
    /// alongside the node budget (whichever is hit first truncates the
    /// search). `None` (the default) bounds the search by nodes only,
    /// keeping results hardware-independent.
    pub bnb_deadline: Option<Duration>,
    /// Decision-node budget for [`Method::Cp`] (shared across its binary
    /// search probes and restarts).
    pub cp_node_limit: u64,
    /// Optional wall-clock budget for a whole [`MethodPolicy::Portfolio`]
    /// race: it is folded into every budgeted member's own deadline
    /// (minimum wins), so no engine outlives the race window. `None`
    /// (the default) leaves members on their individual budgets.
    pub race_deadline: Option<Duration>,
    /// Job-count ceiling under which `Auto` tries branch and bound first.
    pub auto_exact_jobs: usize,
    /// Optional cap on the FPTAS DP's live width (states per layer),
    /// bounding the sweep's memory under [`Method::R2Fptas`]. When a
    /// layer outgrows it, `ε` is coarsened gracefully (doubling, capped
    /// at Algorithm 5's `ε = 1` regime ceiling) and the report's
    /// [`Guarantee::OnePlusEps`](super::Guarantee) carries the effective
    /// `ε`; if even the coarsest regime cannot fit, the engine fails with
    /// a typed state-cap error recorded in the solve attempts. `None`
    /// (the default) leaves the width unbounded.
    pub fptas_state_cap: Option<usize>,
    /// Deterministic seed for randomized engines, echoed in
    /// [`SolveReport::seed`](crate::SolveReport::seed). The paper's
    /// engines draw no randomness at solve time (Algorithm 2's
    /// probability lives in the instance model), so today it only tags
    /// reports for reproducibility.
    pub seed: u64,
    /// How engines are chosen; see [`MethodPolicy`].
    pub policy: MethodPolicy,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            eps: DEFAULT_EPS,
            exact_budget: DEFAULT_EXACT_BUDGET,
            bnb_node_limit: DEFAULT_BNB_NODE_LIMIT,
            bnb_deadline: None,
            cp_node_limit: DEFAULT_CP_NODE_LIMIT,
            race_deadline: None,
            fptas_state_cap: None,
            auto_exact_jobs: DEFAULT_AUTO_EXACT_JOBS,
            seed: 0,
            policy: MethodPolicy::Auto,
        }
    }
}

impl SolverConfig {
    /// Starts from the defaults (the old façade's behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the FPTAS accuracy `ε ∈ (0, 1]` (Theorem 22's regime;
    /// validated by [`build`](Self::build)).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the pseudo-polynomial budget: `Auto` picks the exact
    /// `Q2`/`R2` DP when the instance's processing mass is at most this.
    pub fn exact_budget(mut self, budget: u64) -> Self {
        self.exact_budget = budget;
        self
    }

    /// Sets the node budget for [`Method::BranchAndBound`]; past it, the
    /// search returns its incumbent as a heuristic instead of an optimum.
    pub fn bnb_node_limit(mut self, nodes: u64) -> Self {
        self.bnb_node_limit = nodes;
        self
    }

    /// Sets (or clears) the branch-and-bound wall-clock budget. The
    /// search stops at whichever of the node and deadline budgets is hit
    /// first and returns its incumbent with `Heuristic` provenance.
    pub fn bnb_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.bnb_deadline = deadline;
        self
    }

    /// Sets the decision-node budget for [`Method::Cp`]; past it, the
    /// solver returns its best incumbent as a heuristic.
    pub fn cp_node_limit(mut self, nodes: u64) -> Self {
        self.cp_node_limit = nodes;
        self
    }

    /// Sets (or clears) the whole-race wall-clock budget for
    /// [`MethodPolicy::Portfolio`]; see
    /// [`SolverConfig::race_deadline`].
    pub fn race_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.race_deadline = deadline;
        self
    }

    /// Sets (or clears) the FPTAS DP state cap; see
    /// [`SolverConfig::fptas_state_cap`].
    pub fn fptas_state_cap(mut self, cap: Option<usize>) -> Self {
        self.fptas_state_cap = cap;
        self
    }

    /// Sets the job-count ceiling under which `Auto` attempts a complete
    /// branch and bound before the approximation engines.
    pub fn auto_exact_jobs(mut self, jobs: usize) -> Self {
        self.auto_exact_jobs = jobs;
        self
    }

    /// Sets the deterministic seed threaded to randomized engines.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the method policy; see [`MethodPolicy`].
    pub fn policy(mut self, policy: MethodPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for `policy(MethodPolicy::Force(method))`.
    pub fn method(self, method: Method) -> Self {
        self.policy(MethodPolicy::Force(method))
    }

    /// Shorthand for `policy(MethodPolicy::Portfolio(methods))`.
    pub fn portfolio(self, methods: Vec<Method>) -> Self {
        self.policy(MethodPolicy::Portfolio(methods))
    }

    /// Validates the configuration and produces the [`Solver`].
    pub fn build(self) -> Result<Solver, SolveError> {
        if !(self.eps > 0.0 && self.eps <= 1.0) {
            return Err(SolveError::InvalidConfig(format!(
                "eps must be in (0, 1], got {}",
                self.eps
            )));
        }
        if self.fptas_state_cap == Some(0) {
            return Err(SolveError::InvalidConfig(
                "fptas_state_cap must be at least 1 (use None for unbounded)".into(),
            ));
        }
        if let MethodPolicy::Portfolio(methods) = &self.policy {
            if methods.is_empty() {
                return Err(SolveError::InvalidConfig(
                    "portfolio must list at least one method".into(),
                ));
            }
        }
        Ok(Solver::from_config(self))
    }
}
