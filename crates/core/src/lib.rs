//! # bisched-core
//!
//! The algorithms of *"Scheduling on uniform and unrelated machines with
//! bipartite incompatibility graphs"* (Pikies & Furmańczyk, IPPS 2022):
//!
//! * [`alg1_sqrt`] — Algorithm 1: the `√(Σp_j)`-approximation for
//!   `Q | G = bipartite | C_max` (Theorem 9);
//! * [`alg2_random`] — Algorithm 2: the a.a.s. 2-approximation for
//!   `Q | G = G_{n,n,p(n)}, p_j = 1 | C_max` (Theorem 19);
//! * [`r2_reduction`] — Algorithm 3: component reduction of
//!   `R2 | G = bipartite | C_max` to `R2 || C_max`;
//! * [`r2_approx`] — Algorithm 4: `O(n)`-time 2-approximation (Theorem 21);
//! * [`r2_fptas`](mod@r2_fptas) — Algorithm 5: FPTAS for `R2 | G = bipartite | C_max`
//!   (Theorem 22);
//! * [`thm4_q2unit`] — Theorem 4: `O(n³)` exact
//!   `Q2 | G = bipartite, p_j = 1 | C_max` via the FPTAS route;
//! * [`reduction_thm8`] / [`reduction_thm24`] — the executable gap
//!   reductions behind the inapproximability results;
//! * [`solver`] — the configurable [`Solver`] engine dispatching over all
//!   of the above (typed [`Guarantee`]s, method policies, solve reports).

#![warn(missing_docs)]
pub mod alg1_sqrt;
pub mod alg2_random;
pub mod r2_approx;
pub mod r2_fptas;
pub mod r2_reduction;
pub mod reduction_thm24;
pub mod reduction_thm8;
pub mod solver;
pub mod thm4_q2unit;

pub use alg1_sqrt::{alg1_sqrt_approx, Alg1Error, Alg1Result};
pub use alg2_random::{alg2_balanced, alg2_random_graph, Alg2Result};
pub use r2_approx::r2_two_approx;
pub use r2_fptas::{r2_fptas, r2_fptas_with, R2FptasError, R2FptasReport};
pub use r2_reduction::{reduce_r2, Orientation, ReducedR2};
pub use reduction_thm24::{reduce_1prext_to_rm, Thm24Reduction};
pub use reduction_thm8::{reduce_1prext_to_qm, Thm8Reduction};
pub use solver::{
    EngineOutcome, EngineRun, EngineStats, Guarantee, Method, MethodPolicy, SolveError,
    SolveReport, Solver, SolverConfig, DEFAULT_EPS,
};
pub use thm4_q2unit::thm4_fptas_route;
