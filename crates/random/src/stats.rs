//! Per-realization statistics for `G_{n,n,p(n)}` and the paper's
//! theoretical curves (Corollary 11, Lemmas 12–14, Theorems 15/17).
//!
//! One notation fix: Lemma 14's denominator
//! `n − α(G)` is, by König on the `2n`-vertex graph, the maximum matching
//! size `μ(G)` — the minimum number of jobs that cannot ride on `M_1`
//! together. We therefore measure `|V'_2| / μ(G)` against the paper's
//! `e/(e−1) < 1.6` limit.

use bisched_graph::{bipartition, inequitable_coloring, maximum_matching, Graph};

/// Everything Section 4.1 measures on one sampled graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphStats {
    /// Vertices per side (`n`).
    pub n: usize,
    /// Edges in the realization.
    pub edges: usize,
    /// Size of the minor class `|V'_2|` of an inequitable coloring.
    pub minor_size: usize,
    /// Maximum matching size `μ(G)`.
    pub matching: usize,
    /// Isolated vertices in the whole graph.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes all statistics for a bipartite realization with `n`
    /// vertices per side.
    pub fn measure(g: &Graph, n: usize) -> GraphStats {
        debug_assert_eq!(g.num_vertices(), 2 * n);
        let coloring = inequitable_coloring(g).expect("realizations are bipartite");
        let bp = bipartition(g).expect("realizations are bipartite");
        let matching = maximum_matching(g, &bp).size();
        let isolated = g.vertices().filter(|&v| g.degree(v) == 0).count();
        GraphStats {
            n,
            edges: g.num_edges(),
            minor_size: coloring.class_sizes().1,
            matching,
            isolated,
        }
    }

    /// `|V'_2| / n` — Corollary 11 says `o(1)` for sub-critical `p`.
    pub fn minor_fraction(&self) -> f64 {
        self.minor_size as f64 / self.n as f64
    }

    /// `μ / n` — Lemma 13's lower bound is `1 − e^{e^{−a} − 1}` at
    /// `p = a/n`; Theorems 15/17 push it to `1 − o(1)` beyond.
    pub fn matching_fraction(&self) -> f64 {
        self.matching as f64 / self.n as f64
    }

    /// `|V'_2| / μ` — Lemma 14's ratio, a.a.s. `≤ e/(e−1) < 1.6` at
    /// `p = a/n`. Undefined (`None`) when the graph has no edges.
    pub fn minor_to_matching(&self) -> Option<f64> {
        (self.matching > 0).then(|| self.minor_size as f64 / self.matching as f64)
    }
}

/// Lemma 12's upper bound on `|V'_2|/n`: `1 − (1 − a/n)^n` (the non-isolated
/// fraction of one side), evaluated at finite `n`.
pub fn lemma12_bound(n: usize, a: f64) -> f64 {
    1.0 - (1.0 - a / n as f64).powi(n as i32)
}

/// Lemma 13's a.a.s. lower bound on `μ/n` at `p = a/n`:
/// `1 − e^{e^{−a} − 1}` (Mastin–Jaillet [21]).
pub fn lemma13_bound(a: f64) -> f64 {
    1.0 - ((-a).exp() - 1.0).exp()
}

/// The limiting ratio of Lemma 14's proof:
/// `(1 − e^{−a}) / (1 − e^{e^{−a} − 1})`, increasing in `a` with limit
/// `e/(e−1) ≈ 1.582 < 1.6`.
pub fn lemma14_ratio_curve(a: f64) -> f64 {
    (1.0 - (-a).exp()) / (1.0 - ((-a).exp() - 1.0).exp())
}

/// The supremum of [`lemma14_ratio_curve`]: `e/(e−1)`.
pub fn lemma14_limit() -> f64 {
    std::f64::consts::E / (std::f64::consts::E - 1.0)
}

/// Streaming summary (mean/min/max) for experiment tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of samples folded in.
    pub count: usize,
    /// Running sum.
    pub sum: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Folds one sample.
    pub fn add(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.sum += x;
        self.count += 1;
    }

    /// Mean of the folded samples (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds an iterator of samples.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Summary {
        let mut s = Summary::default();
        for x in samples {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::gilbert_bipartite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_on_fixed_graphs() {
        // K_{3,3}: minor class 3, perfect matching 3, no isolated.
        let g = Graph::complete_bipartite(3, 3);
        let s = GraphStats::measure(&g, 3);
        assert_eq!(s.minor_size, 3);
        assert_eq!(s.matching, 3);
        assert_eq!(s.isolated, 0);
        assert_eq!(s.minor_to_matching(), Some(1.0));
        // Empty graph: everything major, no matching.
        let e = Graph::empty(8);
        let se = GraphStats::measure(&e, 4);
        assert_eq!(se.minor_size, 0);
        assert_eq!(se.matching, 0);
        assert_eq!(se.isolated, 8);
        assert_eq!(se.minor_to_matching(), None);
    }

    #[test]
    fn minor_at_least_matching_shortfall() {
        // |V'_2| >= |V| - α = μ always (V'_1 is an independent set).
        let mut rng = StdRng::seed_from_u64(97);
        for &p in &[0.02, 0.05, 0.2] {
            let g = gilbert_bipartite(50, 50, p, &mut rng);
            let s = GraphStats::measure(&g, 50);
            assert!(
                s.minor_size >= s.matching,
                "|V'2|={} < mu={}",
                s.minor_size,
                s.matching
            );
        }
    }

    #[test]
    fn theoretical_curves_sane() {
        // Lemma 13 bound increases with a and stays in (0, 1).
        assert!(lemma13_bound(0.5) < lemma13_bound(2.0));
        assert!(lemma13_bound(8.0) < 1.0);
        // Lemma 14 curve increasing toward e/(e-1) < 1.6.
        assert!(lemma14_ratio_curve(1.0) < lemma14_ratio_curve(4.0));
        assert!(lemma14_ratio_curve(50.0) <= lemma14_limit() + 1e-9);
        assert!(lemma14_limit() < 1.6);
        // Lemma 12 bound at finite n close to 1 - e^{-a}.
        let b = lemma12_bound(10_000, 2.0);
        assert!((b - (1.0 - (-2.0f64).exp())).abs() < 1e-3);
    }

    #[test]
    fn summary_folds() {
        let s = Summary::of([1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
