//! # bisched-graph
//!
//! Bipartite-graph substrate for the `bisched` workspace — the from-scratch
//! graph kit behind the reproduction of *"Scheduling on uniform and
//! unrelated machines with bipartite incompatibility graphs"*
//! (Pikies & Furmańczyk, IPPS 2022).
//!
//! Contents:
//!
//! * [`graph`] — compact undirected simple graphs on `u32` ids;
//! * [`bipartite`] — 2-coloring with odd-cycle witnesses;
//! * [`components`] — connected components (the unit of choice in the
//!   paper's algorithms);
//! * [`coloring`] — inequitable 2-colorings (Definition 1), weighted and
//!   unweighted;
//! * [`matching`] — Hopcroft–Karp and König covers;
//! * [`flow`] — Dinic max-flow;
//! * [`independent`] — maximum-*weight* independent sets (Algorithm 1,
//!   step 2), optionally containing a forced vertex set;
//! * [`random`] — Gilbert's `G_{n,n,p(n)}` samplers and the `p(n)` regimes
//!   of Section 4.1;
//! * [`gadgets`] — the Figure 1 components `H1`/`H2`/`H3`, whose tests
//!   check Lemmas 5–7 exhaustively.

#![warn(missing_docs)]
pub mod bipartite;
pub mod coloring;
pub mod components;
pub mod flow;
pub mod gadgets;
pub mod graph;
pub mod independent;
pub mod matching;
pub mod random;

pub use bipartite::{bipartition, is_bipartite, Bipartition, OddCycle, Side};
pub use coloring::{inequitable_coloring, inequitable_coloring_weighted, InequitableColoring};
pub use components::Components;
pub use graph::{Graph, GraphBuilder, Vertex};
pub use independent::{max_weight_independent_set, max_weight_is_containing, WeightedIs};
pub use matching::{maximum_matching, Matching};
pub use random::{
    bounded_degree_bipartite, caterpillar, gilbert_bipartite, random_forest, random_tree,
    regular_bipartite, EdgeProbability,
};
