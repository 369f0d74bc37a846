//! Inequitable 2-colorings (Definition 1 of the paper).
//!
//! An *inequitable 2-coloring* `(V'_1, V'_2)` of a bipartite graph is a
//! proper 2-coloring in which `V'_1` has maximum cardinality (maximum total
//! weight, in the weighted variant). It is the workhorse of both Algorithm 1
//! (step 8, weighted by processing requirements) and Algorithm 2 (step 1,
//! unweighted): the heavy class goes to the fast machines' complement, the
//! light class to the fast middle block.
//!
//! Per connected component a proper 2-coloring is unique up to swapping the
//! two classes, so the global optimum is obtained by orienting every
//! component with its heavier side into `V'_1` — independent choices, hence
//! a single `O(|V| + |E|)` pass (the complexity Definition 1 claims).

use crate::bipartite::{bipartition, OddCycle, Side};
use crate::components::Components;
use crate::graph::{Graph, Vertex};

/// Result of an inequitable 2-coloring: a proper 2-coloring whose first
/// class is weight-maximal among all proper 2-colorings.
#[derive(Clone, Debug)]
pub struct InequitableColoring {
    /// `true` iff the vertex belongs to the major class `V'_1`.
    in_major: Vec<bool>,
    /// Total weight of `V'_1`.
    major_weight: u64,
    /// Total weight of `V'_2`.
    minor_weight: u64,
}

impl InequitableColoring {
    /// Vertices of the major class `V'_1`, ascending.
    pub fn major(&self) -> Vec<Vertex> {
        mask_to_vertices(&self.in_major, true)
    }

    /// Vertices of the minor class `V'_2`, ascending.
    pub fn minor(&self) -> Vec<Vertex> {
        mask_to_vertices(&self.in_major, false)
    }

    /// Whether `v` is in the major class (the tests' membership oracle).
    #[cfg(test)]
    fn is_major(&self, v: Vertex) -> bool {
        self.in_major[v as usize]
    }

    /// Total weight of `V'_1`.
    pub fn major_weight(&self) -> u64 {
        self.major_weight
    }

    /// Total weight of `V'_2`.
    pub fn minor_weight(&self) -> u64 {
        self.minor_weight
    }

    /// `(|V'_1|, |V'_2|)` as counts.
    pub fn class_sizes(&self) -> (usize, usize) {
        let major = self.in_major.iter().filter(|&&b| b).count();
        (major, self.in_major.len() - major)
    }

    /// Checks that both classes are independent sets of `g`.
    pub fn is_proper(&self, g: &Graph) -> bool {
        g.edges()
            .all(|(u, v)| self.in_major[u as usize] != self.in_major[v as usize])
            || g.num_edges() == 0
    }
}

fn mask_to_vertices(mask: &[bool], want: bool) -> Vec<Vertex> {
    mask.iter()
        .enumerate()
        .filter(|&(_, &b)| b == want)
        .map(|(v, _)| v as Vertex)
        .collect()
}

/// Computes an inequitable 2-coloring with unit weights (maximizes `|V'_1|`).
pub fn inequitable_coloring(g: &Graph) -> Result<InequitableColoring, OddCycle> {
    let ones = vec![1u64; g.num_vertices()];
    inequitable_coloring_weighted(g, &ones)
}

/// Computes an inequitable 2-coloring maximizing the total `weights` of
/// `V'_1`. Weights are the jobs' processing requirements in Algorithm 1.
///
/// `O(|V| + |E|)`.
pub fn inequitable_coloring_weighted(
    g: &Graph,
    weights: &[u64],
) -> Result<InequitableColoring, OddCycle> {
    assert_eq!(
        weights.len(),
        g.num_vertices(),
        "one weight per vertex required"
    );
    let bp = bipartition(g)?;
    let comps = Components::of(g);

    let mut in_major = vec![false; g.num_vertices()];
    let mut major_weight = 0u64;
    let mut minor_weight = 0u64;
    for comp in comps.iter() {
        let mut left_w = 0u64;
        let mut right_w = 0u64;
        for &v in comp {
            match bp.side(v) {
                Side::Left => left_w += weights[v as usize],
                Side::Right => right_w += weights[v as usize],
            }
        }
        // Put the heavier side of this component into V'_1.
        let major_side = if left_w >= right_w {
            Side::Left
        } else {
            Side::Right
        };
        for &v in comp {
            in_major[v as usize] = bp.side(v) == major_side;
        }
        major_weight += left_w.max(right_w);
        minor_weight += left_w.min(right_w);
    }
    Ok(InequitableColoring {
        in_major,
        major_weight,
        minor_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_splits_evenly() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let col = inequitable_coloring(&g).unwrap();
        assert_eq!(col.class_sizes(), (1, 1));
        assert!(col.is_proper(&g));
    }

    #[test]
    fn isolated_vertices_all_major() {
        let g = Graph::empty(7);
        let col = inequitable_coloring(&g).unwrap();
        assert_eq!(col.class_sizes(), (7, 0));
        assert_eq!(col.major_weight(), 7);
        assert_eq!(col.minor_weight(), 0);
    }

    #[test]
    fn star_center_goes_minor() {
        // K_{1,5}: center 0 connected to 1..=5
        let g = Graph::complete_bipartite(1, 5);
        let col = inequitable_coloring(&g).unwrap();
        assert!(!col.is_major(0));
        assert_eq!(col.class_sizes(), (5, 1));
    }

    #[test]
    fn components_flip_independently() {
        // Two stars K_{1,3}; each center must land in the minor class.
        let (g, shift) =
            Graph::complete_bipartite(1, 3).disjoint_union(&Graph::complete_bipartite(1, 3));
        let col = inequitable_coloring(&g).unwrap();
        assert!(!col.is_major(0));
        assert!(!col.is_major(shift));
        assert_eq!(col.class_sizes(), (6, 2));
        assert!(col.is_proper(&g));
    }

    #[test]
    fn weights_override_cardinality() {
        // Star K_{1,3}, but the center weighs more than the three leaves.
        let g = Graph::complete_bipartite(1, 3);
        let col = inequitable_coloring_weighted(&g, &[100, 1, 1, 1]).unwrap();
        assert!(col.is_major(0));
        assert_eq!(col.major_weight(), 100);
        assert_eq!(col.minor_weight(), 3);
        assert_eq!(col.class_sizes(), (1, 3));
    }

    #[test]
    fn odd_cycle_is_rejected() {
        let g = Graph::cycle(5);
        assert!(inequitable_coloring(&g).is_err());
    }

    #[test]
    fn tie_breaks_still_proper_and_maximal() {
        // Path of 4: sides {0,2} and {1,3}, equal sizes; any orientation is
        // maximal. Weighted so that {1,3} is strictly heavier.
        let g = Graph::path(4);
        let col = inequitable_coloring_weighted(&g, &[1, 10, 1, 10]).unwrap();
        assert_eq!(col.major(), vec![1, 3]);
        assert_eq!(col.major_weight(), 20);
        assert!(col.is_proper(&g));
    }

    #[test]
    fn major_weight_at_least_half_total() {
        // Invariant used by Algorithm 1's proof: sum(V'_1) >= sum(V'_2).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let w = [5, 2, 9, 1, 1, 7];
        let col = inequitable_coloring_weighted(&g, &w).unwrap();
        assert!(col.major_weight() >= col.minor_weight());
        assert_eq!(
            col.major_weight() + col.minor_weight(),
            w.iter().sum::<u64>()
        );
    }
}
