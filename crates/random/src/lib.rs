//! # bisched-random
//!
//! Section 4.1 of the paper — random bipartite graphs in Gilbert's model —
//! as an executable analysis: per-realization statistics with the paper's
//! theoretical curves ([`stats`]) and seed-parallel experiment runners
//! behind the lab's `paper-sec4` suite ([`experiments`]), whose tests
//! gate Corollary 11, Lemmas 12–14 and Theorem 19.

#![warn(missing_docs)]
pub mod experiments;
pub mod stats;

pub use experiments::{alg2_ratio_experiment, random_graph_statistics, Alg2Row, RandomGraphRow};
pub use stats::{
    lemma12_bound, lemma13_bound, lemma14_limit, lemma14_ratio_curve, GraphStats, Summary,
};
