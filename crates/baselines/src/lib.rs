//! # bisched-baselines
//!
//! Prior-art and naive baselines for the `bisched` experiments:
//!
//! * [`greedy::greedy_lpt`] — graph-aware LPT greedy with a 2-coloring
//!   fallback, for all three machine environments;
//! * [`greedy::coloring_split`] — the trivial "two classes, two machines"
//!   floor;
//! * [`bjw::bjw_two_approx`] — Bodlaender–Jansen–Woeginger-style
//!   2-approximation for `P | G = bipartite | C_max`, `m ≥ 3` (the prior
//!   result the paper's Algorithm 1 generalizes to uniform machines).

#![warn(missing_docs)]
pub mod bjw;
pub mod greedy;

pub use bjw::bjw_two_approx;
pub use greedy::{coloring_split, greedy_lpt, BaselineError};
