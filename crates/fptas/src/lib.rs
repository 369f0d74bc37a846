//! # bisched-fptas
//!
//! FPTAS substrate for `R2 || C_max`, two unrelated machines — the black
//! box the paper borrows from Jansen–Porkolab \[15\] inside Algorithm 5
//! (FPTAS for `R2 | G = bipartite | C_max`) and Theorem 4 (`O(n³)` exact
//! algorithm for `Q2 | G = bipartite, p_j=1`).
//!
//! Implemented as a Horowitz–Sahni Pareto sweep trimmed on an additive
//! grid: each layer buckets machine-0 loads in steps of
//! `w = max(1, ⌊ε·LB/n⌋)`, for a lower bound `LB` on the optimum and `n`
//! columns. The `n` trims add at most `n·w ≤ ε·LB ≤ ε·OPT` to the
//! makespan (the analysis is in [`rm_cmax`]). `ε = 0` gives `w = 1`, the
//! exact pseudo-polynomial Pareto DP.
//!
//! The sweep is the hot path under nearly every `Auto` solve. Each layer
//! stays sorted by machine-0 load, and one linear merge of the parent
//! layer's two child lists visits the candidates in bucket order. A bucket
//! keeps its smallest machine-1 load (ties to the smaller machine-0 load),
//! and the Pareto-dominance rule is applied inline. The sweep takes the
//! jobs largest first (row minimum descending; the schedule comes back in
//! the caller's job order, and the result does not depend on it), kills
//! hopeless states with a greedy incumbent plus suffix lower bounds, and
//! streams its load arenas (only compact backpointers are retained per
//! layer). [`rm_cmax_fptas_with`] exposes the knobs: a
//! [`state_cap`](FptasParams::state_cap) bounding any layer's width after
//! dominance (coarsening ε up to 1, then a typed [`FptasError`]) and a
//! pruning toggle.

#![warn(missing_docs)]
pub mod rm_cmax;

pub use rm_cmax::{
    makespan_of, rm_cmax_exact, rm_cmax_fptas, rm_cmax_fptas_with, FptasError, FptasParams,
    FptasResult,
};
