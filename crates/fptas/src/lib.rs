//! # bisched-fptas
//!
//! FPTAS substrate for `Rm || C_max` with a fixed number of unrelated
//! machines — the black box the paper borrows from Jansen–Porkolab [15]
//! inside Algorithm 5 (FPTAS for `R2 | G = bipartite | C_max`) and
//! Theorem 4 (`O(n³)` exact algorithm for `Q2 | G = bipartite, p_j=1`).
//!
//! Implemented as a Horowitz–Sahni Pareto sweep with `(1+ε/2n)` log-grid
//! trimming (the substitution rationale is in [`rm_cmax`]). `ε = 0`
//! yields the exact pseudo-polynomial Pareto DP.
//!
//! The sweep is the hot path under nearly every `Auto` solve. The solver
//! reaches it only through Algorithm 5, so always with two machines, and
//! that case has its own path: each layer stays sorted by machine-0 load,
//! and one linear merge of the parent layer's two child lists visits the
//! candidates in bucket order. A bucket keeps its smallest machine-1 load
//! (ties to the smaller machine-0 load), and the Pareto-dominance rule is
//! applied inline, so [`state_cap`](FptasParams::state_cap) counts the
//! width after dominance there. Other machine counts, reached through the
//! public API and the tests, run the keyed sweep:
//! coordinates pack into one `u128` hashed by an in-crate multiply-xor
//! hasher, and `m = 3` layers get a Pareto-dominance filter. Both paths
//! sweep the jobs largest first (row minimum descending; the schedule comes
//! back in the caller's job order, and the result does not depend on it),
//! share the greedy incumbent plus suffix lower bounds that kill hopeless
//! states, and stream their load arenas (only compact backpointers are
//! retained per layer). [`rm_cmax_fptas_with`] exposes the knobs: a
//! [`state_cap`](FptasParams::state_cap) bounding any layer's width (with
//! graceful ε-coarsening or a typed [`FptasError`]) and a pruning
//! toggle. Bucketing is the monotone integer grid of
//! [`bucket::BucketGrid`], whose build writes the clamped identity prefix
//! directly and tracks the geometric tail by multiplication, with `powi`
//! only where its ceiling could differ: the edges are bit-identical to
//! one `powi` per edge.

#![warn(missing_docs)]
pub mod bucket;
pub mod rm_cmax;

pub use bucket::BucketGrid;
pub use rm_cmax::{
    makespan_of, rm_cmax_exact, rm_cmax_fptas, rm_cmax_fptas_with, CapRelief, FptasError,
    FptasParams, FptasResult,
};
