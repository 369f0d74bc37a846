//! Random bipartite graphs in Gilbert's model `G_{n,n,p(n)}` (Section 4.1).
//!
//! Following the paper (and \[16\]), `G_{n1,n2,p}` is the probability space of
//! spanning subgraphs of `K_{n1,n2}` where each of the `n1·n2` possible
//! edges appears independently with probability `p`. Two samplers:
//!
//! * a naive `O(n1·n2)` Bernoulli sweep, and
//! * Batagelj–Brandes geometric skip-sampling, `O(n1·n2·p)` expected — the
//!   one actually used, since the interesting regimes are `p(n) ∈ o(1)`.
//!
//! Both produce identically distributed graphs; a chi-square-ish unit test
//! cross-checks edge counts.

use crate::graph::{Graph, GraphBuilder, Vertex};
use rand::Rng;

/// Samples `G_{n1,n2,p}`: left part `0..n1`, right part `n1..n1+n2`.
///
/// Dispatches to skip-sampling for sparse `p`, naive sweep otherwise.
pub fn gilbert_bipartite<R: Rng + ?Sized>(n1: usize, n2: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if p <= 0.0 || n1 == 0 || n2 == 0 {
        return Graph::empty(n1 + n2);
    }
    if p >= 1.0 {
        return Graph::complete_bipartite(n1, n2);
    }
    if p < 0.25 {
        gilbert_bipartite_skip(n1, n2, p, rng)
    } else {
        gilbert_bipartite_naive(n1, n2, p, rng)
    }
}

/// Naive sampler: one Bernoulli trial per potential edge. `O(n1·n2)`.
pub fn gilbert_bipartite_naive<R: Rng + ?Sized>(
    n1: usize,
    n2: usize,
    p: f64,
    rng: &mut R,
) -> Graph {
    let mut b = GraphBuilder::new(n1 + n2);
    for u in 0..n1 {
        for v in 0..n2 {
            if rng.gen_bool(p) {
                b.add_edge(u as Vertex, (n1 + v) as Vertex);
            }
        }
    }
    b.build()
}

/// Batagelj–Brandes skip sampler: jumps between present edges with
/// geometric gaps. Expected `O(n1·n2·p)`.
pub fn gilbert_bipartite_skip<R: Rng + ?Sized>(n1: usize, n2: usize, p: f64, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(n1 + n2);
    let total = (n1 as u64) * (n2 as u64);
    let log_q = (1.0 - p).ln(); // negative
    let mut e: i64 = -1;
    loop {
        // Geometric skip: smallest k >= 1 with success, i.e.
        // k = floor(ln(U) / ln(1-p)) + 1 for U uniform in (0,1).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log_q).floor() as i64 + 1;
        e += skip.max(1);
        if e as u64 >= total {
            break;
        }
        let left = (e as u64 / n2 as u64) as Vertex;
        let right = (n1 as u64 + e as u64 % n2 as u64) as Vertex;
        b.add_edge(left, right);
    }
    b.build()
}

/// Uniform random labelled tree on `n` vertices via a random Prüfer
/// sequence. Trees are the structured bipartite subclass the related work
/// (\[3\]) treats specially; here they feed structured-input tests for the
/// general algorithms.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1u32; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard decoding: repeatedly attach the smallest leaf.
    let mut leaf_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &prufer {
        let std::cmp::Reverse(leaf) = leaf_heap.pop().expect("tree decoding invariant");
        b.add_edge(leaf as Vertex, v as Vertex);
        degree[v] -= 1;
        if degree[v] == 1 {
            leaf_heap.push(std::cmp::Reverse(v));
        }
    }
    let std::cmp::Reverse(u) = leaf_heap.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaf_heap.pop().expect("two leaves remain");
    b.add_edge(u as Vertex, v as Vertex);
    b.build()
}

/// A caterpillar: a spine path of `spine` vertices, each with `legs`
/// pendant leaves — the bounded-degree bipartite shape of \[7\]/\[23\]-style
/// special cases. `Δ = legs + 2`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let mut b = GraphBuilder::new(spine);
    for v in 1..spine as Vertex {
        b.add_edge(v - 1, v);
    }
    for s in 0..spine as Vertex {
        let first = b.add_vertices(legs);
        for leaf in first..first + legs as Vertex {
            b.add_edge(s, leaf);
        }
    }
    b.build()
}

/// Random bipartite graph with maximum degree at most `max_deg` per side:
/// sampled as a union of `max_deg` random partial matchings. The
/// "bisubquartic" class of \[23\] is `max_deg ≤ 4`.
pub fn bounded_degree_bipartite<R: Rng + ?Sized>(
    n1: usize,
    n2: usize,
    max_deg: usize,
    keep_prob: f64,
    rng: &mut R,
) -> Graph {
    let mut b = GraphBuilder::new(n1 + n2);
    let k = n1.min(n2);
    for _ in 0..max_deg {
        // A random partial matching: shuffle one side, pair prefixes.
        let mut left: Vec<Vertex> = (0..n1 as Vertex).collect();
        let mut right: Vec<Vertex> = (n1 as Vertex..(n1 + n2) as Vertex).collect();
        shuffle(&mut left, rng);
        shuffle(&mut right, rng);
        for i in 0..k {
            if rng.gen_bool(keep_prob) {
                b.add_edge(left[i], right[i]);
            }
        }
    }
    b.build()
}

fn shuffle<R: Rng + ?Sized>(v: &mut [Vertex], rng: &mut R) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A random `d`-regular bipartite graph on `n + n` vertices, built as the
/// union of `d` pairwise-disjoint perfect matchings: matching `s` joins
/// left `i` to right `π((i + s) mod n)` for a random permutation `π`.
/// Distinct shifts hit distinct right partners, so every vertex has degree
/// exactly `d`. `d = 3` gives the cubic bipartite graphs of the
/// Furmańczyk–Kubale uniform-machine line (arXiv:1502.04240).
pub fn regular_bipartite<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d <= n, "a d-regular bipartite side needs n >= d");
    let mut pi: Vec<Vertex> = (0..n as Vertex).collect();
    shuffle(&mut pi, rng);
    let mut b = GraphBuilder::new(2 * n);
    for s in 0..d {
        for i in 0..n {
            b.add_edge(i as Vertex, n as Vertex + pi[(i + s) % n]);
        }
    }
    b.build()
}

/// A random labelled forest: `trees` independent uniform random trees over
/// `n` vertices total (sizes as equal as possible). Forests are the
/// tree-structured bipartite subclass the related work (\[3\]) solves
/// exactly; here they exercise the component-wise paths of the general
/// algorithms.
pub fn random_forest<R: Rng + ?Sized>(n: usize, trees: usize, rng: &mut R) -> Graph {
    assert!(trees >= 1);
    let mut g = Graph::empty(0);
    let (base, extra) = (n / trees, n % trees);
    for t in 0..trees {
        let size = base + usize::from(t < extra);
        g = g.disjoint_union(&random_tree(size, rng)).0;
    }
    g
}

/// The three `p(n)` regimes the paper analyses, plus the constant regime of
/// Corollary 16. Parameterised so experiment sweeps can name them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeProbability {
    /// `p(n) = n^{-exponent}` with `exponent > 1`: the `o(1/n)` regime
    /// (Corollary 11 — almost all vertices land in `V'_1`).
    SubCritical {
        /// Decay exponent, `> 1`.
        exponent: f64,
    },
    /// `p(n) = a/n`: the critical window (Lemmas 12–14).
    Critical {
        /// Mean left-degree `a`.
        a: f64,
    },
    /// `p(n) = c·n^{-exponent}` with `0 < exponent < 1`: the `ω(1/n) ∩ o(1)`
    /// regime (Corollary 18 — near-perfect matchings).
    SuperCritical {
        /// Scale factor.
        c: f64,
        /// Decay exponent, in `(0, 1)`.
        exponent: f64,
    },
    /// `p(n) = p` constant: the `Ω(1)` regime (Corollary 16).
    Constant {
        /// The constant probability.
        p: f64,
    },
}

impl EdgeProbability {
    /// Evaluates `p(n)`, clamped into `[0, 1]`.
    pub fn eval(&self, n: usize) -> f64 {
        let n = n as f64;
        let raw = match *self {
            EdgeProbability::SubCritical { exponent } => n.powf(-exponent),
            EdgeProbability::Critical { a } => a / n,
            EdgeProbability::SuperCritical { c, exponent } => c * n.powf(-exponent),
            EdgeProbability::Constant { p } => p,
        };
        raw.clamp(0.0, 1.0)
    }

    /// Human-readable regime label for experiment tables.
    pub fn label(&self) -> String {
        match *self {
            EdgeProbability::SubCritical { exponent } => format!("n^-{exponent} (o(1/n))"),
            EdgeProbability::Critical { a } => format!("{a}/n"),
            EdgeProbability::SuperCritical { c, exponent } => {
                format!("{c}*n^-{exponent} (w(1/n))")
            }
            EdgeProbability::Constant { p } => format!("p={p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::is_bipartite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = gilbert_bipartite(10, 10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = gilbert_bipartite(4, 6, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 24);
    }

    #[test]
    fn always_bipartite_with_left_right_split() {
        let mut rng = StdRng::seed_from_u64(2);
        for &p in &[0.01, 0.1, 0.5, 0.9] {
            let g = gilbert_bipartite(20, 30, p, &mut rng);
            assert!(is_bipartite(&g));
            // No edge inside a part.
            for (u, v) in g.edges() {
                assert!((u < 20) != (v < 20), "edge ({u},{v}) inside one part");
            }
        }
    }

    #[test]
    fn skip_and_naive_agree_in_expectation() {
        // Mean edge counts over many samples should both approximate n1*n2*p
        // within a loose tolerance (5 sigma).
        let (n1, n2, p) = (40usize, 50usize, 0.08f64);
        let expectation = n1 as f64 * n2 as f64 * p;
        let sigma = (n1 as f64 * n2 as f64 * p * (1.0 - p)).sqrt();
        let trials = 60;
        let mut rng = StdRng::seed_from_u64(3);
        let mean = |f: &mut dyn FnMut(&mut StdRng) -> Graph, rng: &mut StdRng| -> f64 {
            (0..trials).map(|_| f(rng).num_edges() as f64).sum::<f64>() / trials as f64
        };
        let m_skip = mean(&mut |r| gilbert_bipartite_skip(n1, n2, p, r), &mut rng);
        let m_naive = mean(&mut |r| gilbert_bipartite_naive(n1, n2, p, r), &mut rng);
        let tol = 5.0 * sigma / (trials as f64).sqrt();
        assert!(
            (m_skip - expectation).abs() < tol,
            "skip sampler mean {m_skip} too far from {expectation}"
        );
        assert!(
            (m_naive - expectation).abs() < tol,
            "naive sampler mean {m_naive} too far from {expectation}"
        );
    }

    #[test]
    fn skip_sampler_has_no_duplicate_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gilbert_bipartite_skip(100, 100, 0.05, &mut rng);
        // GraphBuilder dedups; a correct skip sampler never emits duplicates,
        // so the half-edge count must be exactly 2 * num_edges with all
        // adjacency lists strictly increasing.
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn regime_eval_and_labels() {
        let sub = EdgeProbability::SubCritical { exponent: 1.5 };
        let crit = EdgeProbability::Critical { a: 2.0 };
        let sup = EdgeProbability::SuperCritical {
            c: 1.0,
            exponent: 0.5,
        };
        let cons = EdgeProbability::Constant { p: 0.3 };
        assert!((sub.eval(100) - 0.001).abs() < 1e-12);
        assert!((crit.eval(100) - 0.02).abs() < 1e-12);
        assert!((sup.eval(100) - 0.1).abs() < 1e-12);
        assert!((cons.eval(100) - 0.3).abs() < 1e-12);
        // n * p(n) trends: sub -> 0, crit -> a, sup -> infinity.
        assert!(1e6 * sub.eval(1_000_000) < 0.01);
        assert!((1e6 * crit.eval(1_000_000) - 2.0).abs() < 1e-9);
        assert!(1e6 * sup.eval(1_000_000) > 100.0);
        for r in [sub, crit, sup, cons] {
            assert!(!r.label().is_empty());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g1 = gilbert_bipartite(30, 30, 0.1, &mut StdRng::seed_from_u64(42));
        let g2 = gilbert_bipartite(30, 30, 0.1, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 3, 10, 100] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.num_vertices(), n);
            assert_eq!(t.num_edges(), n.saturating_sub(1));
            assert!(is_bipartite(&t), "trees have no cycles at all");
            // Connected: one component.
            assert_eq!(
                crate::components::Components::of(&t).count(),
                1.min(n).max(usize::from(n > 0))
            );
        }
    }

    #[test]
    fn random_trees_vary() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_tree(30, &mut rng);
        let b = random_tree(30, &mut rng);
        assert_ne!(a, b, "two random trees should almost surely differ");
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3);
        assert_eq!(g.num_vertices(), 4 + 12);
        assert_eq!(g.num_edges(), 3 + 12);
        assert!(is_bipartite(&g));
        // Interior spine vertices have degree legs + 2.
        assert_eq!(g.degree(1), 5);
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    fn regular_bipartite_is_exactly_regular() {
        let mut rng = StdRng::seed_from_u64(8);
        for (n, d) in [(5usize, 0usize), (6, 1), (9, 3), (12, 5)] {
            let g = regular_bipartite(n, d, &mut rng);
            assert!(is_bipartite(&g));
            assert_eq!(g.num_vertices(), 2 * n);
            assert_eq!(g.num_edges(), n * d);
            for v in g.vertices() {
                assert_eq!(g.degree(v), d, "vertex {v} not {d}-regular");
            }
            for (u, v) in g.edges() {
                assert!((u as usize) < n && (v as usize) >= n);
            }
        }
    }

    #[test]
    fn random_forest_has_forest_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        for (n, trees) in [(12usize, 1usize), (20, 3), (7, 7)] {
            let f = random_forest(n, trees, &mut rng);
            assert_eq!(f.num_vertices(), n);
            assert_eq!(f.num_edges(), n - trees.min(n));
            assert!(is_bipartite(&f));
            assert_eq!(
                crate::components::Components::of(&f).count(),
                trees.min(n).max(1)
            );
        }
    }

    #[test]
    fn bounded_degree_respects_cap() {
        let mut rng = StdRng::seed_from_u64(7);
        for max_deg in [1usize, 2, 4] {
            let g = bounded_degree_bipartite(40, 40, max_deg, 0.8, &mut rng);
            assert!(is_bipartite(&g));
            assert!(
                g.max_degree() <= max_deg,
                "degree {} exceeds cap {max_deg}",
                g.max_degree()
            );
            for (u, v) in g.edges() {
                assert!((u < 40) != (v < 40));
            }
        }
    }
}
