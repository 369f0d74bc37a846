//! Maximum bipartite matching (Hopcroft–Karp) and König's theorem.
//!
//! Matchings drive the random-graph analysis of Section 4.1: the size
//! `μ(G_{n,n,p})` lower-bounds the number of jobs that cannot all sit on the
//! fastest machine (via König: `|V| − α(G) = μ(G)` for bipartite `G`), which
//! is exactly the denominator of Lemma 14's `1.6` ratio. The unweighted
//! minimum vertex cover also falls out here; the *weighted* independent
//! sets needed by Algorithm 1 live in [`crate::independent`].

use crate::bipartite::{Bipartition, Side};
use crate::graph::{Graph, Vertex};

const NIL: u32 = u32::MAX;

/// A matching in a bipartite graph: `mate[v]` is `v`'s partner or `None`.
#[derive(Clone, Debug)]
pub struct Matching {
    mate: Vec<u32>,
    size: usize,
}

impl Matching {
    /// Number of matched edges, `μ(G)`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The partner of `v`, if matched.
    pub fn mate(&self, v: Vertex) -> Option<Vertex> {
        let m = self.mate[v as usize];
        (m != NIL).then_some(m)
    }

    /// Whether `v` is matched.
    pub fn is_matched(&self, v: Vertex) -> bool {
        self.mate[v as usize] != NIL
    }

    /// The matched edges as pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(Vertex, Vertex)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &v)| (v != NIL && (u as u32) < v).then_some((u as u32, v)))
            .collect()
    }

    /// Validates that this is a matching of `g`: partners are mutual and
    /// every matched pair is an edge.
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.mate.iter().enumerate().all(|(u, &v)| {
            v == NIL || (self.mate[v as usize] == u as u32 && g.has_edge(u as Vertex, v))
        })
    }
}

/// Hopcroft–Karp maximum matching. `O(|E| √|V|)`.
pub fn maximum_matching(g: &Graph, bp: &Bipartition) -> Matching {
    let n = g.num_vertices();
    let left: Vec<Vertex> = bp.part(Side::Left);
    let mut mate = vec![NIL; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mut size = 0usize;

    loop {
        // BFS from free left vertices, layering by alternating paths.
        queue.clear();
        for &u in &left {
            if mate[u as usize] == NIL {
                dist[u as usize] = 0;
                queue.push_back(u);
            } else {
                dist[u as usize] = u32::MAX;
            }
        }
        let mut found_augmenting = false;
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let w = mate[v as usize];
                if w == NIL {
                    found_augmenting = true;
                } else if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths.
        for &u in &left {
            if mate[u as usize] == NIL && try_augment(g, u, &mut mate, &mut dist) {
                size += 1;
            }
        }
    }
    Matching { mate, size }
}

fn try_augment(g: &Graph, u: Vertex, mate: &mut [u32], dist: &mut [u32]) -> bool {
    for &v in g.neighbors(u) {
        let w = mate[v as usize];
        if w == NIL || (dist[w as usize] == dist[u as usize] + 1 && try_augment(g, w, mate, dist)) {
            mate[u as usize] = v;
            mate[v as usize] = u;
            return true;
        }
    }
    // Dead end: prune this vertex for the rest of the phase.
    dist[u as usize] = u32::MAX;
    false
}

/// Minimum vertex cover by König's theorem: `(L ∖ Z) ∪ (R ∩ Z)` where `Z` is
/// the set reachable from free left vertices by alternating paths.
/// `|cover| = μ(G)`.
pub fn minimum_vertex_cover(g: &Graph, bp: &Bipartition, matching: &Matching) -> Vec<Vertex> {
    let n = g.num_vertices();
    let mut in_z = vec![false; n];
    let mut stack: Vec<Vertex> = Vec::new();
    for v in 0..n as Vertex {
        if bp.side(v) == Side::Left && !matching.is_matched(v) {
            in_z[v as usize] = true;
            stack.push(v);
        }
    }
    while let Some(u) = stack.pop() {
        debug_assert_eq!(bp.side(u), Side::Left);
        for &v in g.neighbors(u) {
            // Travel left->right along non-matching edges, right->left along
            // matching edges.
            if matching.mate(u) == Some(v) {
                continue;
            }
            if !in_z[v as usize] {
                in_z[v as usize] = true;
                if let Some(w) = matching.mate(v) {
                    if !in_z[w as usize] {
                        in_z[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
    }
    (0..n as Vertex)
        .filter(|&v| match bp.side(v) {
            Side::Left => !in_z[v as usize],
            Side::Right => in_z[v as usize],
        })
        .collect()
}

/// Whether `cover` covers every edge of `g` (the König test's oracle).
#[cfg(test)]
fn is_vertex_cover(g: &Graph, cover: &[Vertex]) -> bool {
    let mut mask = vec![false; g.num_vertices()];
    for &v in cover {
        mask[v as usize] = true;
    }
    g.edges().all(|(u, v)| mask[u as usize] || mask[v as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::bipartition;

    fn solve(g: &Graph) -> (Bipartition, Matching) {
        let bp = bipartition(g).expect("test graphs are bipartite");
        let m = maximum_matching(g, &bp);
        assert!(m.is_valid(g));
        (bp, m)
    }

    #[test]
    fn single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let (_, m) = solve(&g);
        assert_eq!(m.size(), 1);
        assert_eq!(m.mate(0), Some(1));
    }

    #[test]
    fn path_matching_is_floor_half() {
        for n in 2..12 {
            let g = Graph::path(n);
            let (_, m) = solve(&g);
            assert_eq!(m.size(), n / 2, "path of {n}");
        }
    }

    #[test]
    fn complete_bipartite_saturates_smaller_side() {
        let g = Graph::complete_bipartite(3, 7);
        let (_, m) = solve(&g);
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn even_cycle_perfect_matching() {
        let g = Graph::cycle(10);
        let (_, m) = solve(&g);
        assert_eq!(m.size(), 5);
    }

    #[test]
    fn star_matches_one() {
        let g = Graph::complete_bipartite(1, 9);
        let (_, m) = solve(&g);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn augmenting_path_needed() {
        // Classic case where greedy fails: 0-2, 0-3, 1-2 with left {0,1}.
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (1, 2)]);
        let (_, m) = solve(&g);
        assert_eq!(m.size(), 2);
    }

    #[test]
    fn konig_cover_size_equals_matching() {
        let graphs = vec![
            Graph::path(9),
            Graph::cycle(8),
            Graph::complete_bipartite(4, 6),
            Graph::from_edges(7, &[(0, 1), (0, 3), (2, 3), (2, 5), (4, 5), (4, 1), (6, 1)]),
        ];
        for g in graphs {
            let (bp, m) = solve(&g);
            let cover = minimum_vertex_cover(&g, &bp, &m);
            assert_eq!(cover.len(), m.size(), "König on {g:?}");
            assert!(is_vertex_cover(&g, &cover));
        }
    }

    #[test]
    fn empty_graph_full_independence() {
        // No edges: nothing matched, and the empty cover leaves every
        // vertex independent.
        let g = Graph::empty(5);
        let (bp, m) = solve(&g);
        assert_eq!(m.size(), 0);
        assert!(minimum_vertex_cover(&g, &bp, &m).is_empty());
    }
}
