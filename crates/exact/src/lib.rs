//! # bisched-exact
//!
//! Exact solvers and NP-hard oracles for the `bisched` workspace:
//!
//! * [`bruteforce`] — exhaustive ground truth for tiny instances;
//! * [`branch_bound`] — pruned exact B&B oracle for `{P,Q,R} | G | C_max`
//!   at small-but-not-tiny sizes (conflict bitmasks, symmetry breaking,
//!   node + wall-clock budgets), plus a graph-aware greedy incumbent;
//! * [`lower_bounds`] — the incremental graph-aware bounds the oracle
//!   prunes with;
//! * [`q2_bipartite`] — pseudo-polynomial exact `Q2 | G = bipartite | C_max`
//!   (the direct route to Theorem 4);
//! * [`r2_bipartite`] — pseudo-polynomial exact `R2 | G = bipartite | C_max`
//!   (the oracle behind the Algorithm 4/5 experiments);
//! * [`precolor`] — the 1-PrExt decider (Definition 2) with YES/NO instance
//!   constructors for the Theorem 8/24 reduction experiments;
//! * [`complete_bipartite`] — the exact polynomial algorithm for
//!   `Q | G = complete bipartite, p_j = 1 | C_max` of the related work \[24\];
//! * [`bitset`] — the packed subset-sum kernel;
//! * [`search_ctl`] — shared cancellation + cross-engine incumbent bound
//!   for portfolio races.

#![warn(missing_docs)]
pub mod bitset;
pub mod branch_bound;
pub mod bruteforce;
pub mod complete_bipartite;
pub mod lower_bounds;
pub mod precolor;
pub mod q2_bipartite;
pub mod r2_bipartite;
pub mod search_ctl;

pub use bitset::BitSet;
pub use branch_bound::{
    branch_and_bound, branch_and_bound_ctl, branch_and_bound_with, greedy_incumbent, BnbLimits,
    BnbOutcome,
};
pub use bruteforce::{brute_force, Optimum};
pub use complete_bipartite::{q_complete_bipartite_unit, CompleteBipartiteError};
pub use lower_bounds::IncrementalBounds;
pub use precolor::{
    claw_no_instance, is_proper_coloring, path_yes_instance, precoloring_extension, standard_pins,
};
pub use q2_bipartite::{q2_bipartite_exact, OracleError};
pub use r2_bipartite::r2_bipartite_exact;
pub use search_ctl::SearchCtl;
