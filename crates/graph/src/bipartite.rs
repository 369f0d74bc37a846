//! Bipartiteness testing and 2-colorings.
//!
//! The paper's entire problem class is `…|G = bipartite|C_max`, so "is this
//! graph bipartite, and what is its 2-coloring" is the first question every
//! algorithm asks. We return either a side assignment or an odd-cycle
//! witness, so callers can *prove* infeasibility of the bipartite model.

use crate::graph::{Graph, Vertex};

/// Which side of the bipartition a vertex lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// First part (`V_1` in the paper).
    Left,
    /// Second part (`V_2` in the paper).
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A proper 2-coloring of a bipartite graph: one side per vertex.
///
/// Isolated vertices are assigned `Left` by convention; per-component
/// orientations can be flipped independently (used by the inequitable
/// coloring of Definition 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartition {
    sides: Vec<Side>,
}

impl Bipartition {
    /// The side of vertex `v`.
    #[inline]
    pub fn side(&self, v: Vertex) -> Side {
        self.sides[v as usize]
    }

    /// Raw side slice.
    #[inline]
    pub fn sides(&self) -> &[Side] {
        &self.sides
    }

    /// All vertices on `side`, ascending.
    pub fn part(&self, side: Side) -> Vec<Vertex> {
        self.sides
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(v, _)| v as Vertex)
            .collect()
    }

    /// Sizes `(|Left|, |Right|)`.
    pub fn part_sizes(&self) -> (usize, usize) {
        let left = self.sides.iter().filter(|&&s| s == Side::Left).count();
        (left, self.sides.len() - left)
    }

    /// Checks properness against `g`: no edge inside a side.
    pub fn is_proper(&self, g: &Graph) -> bool {
        g.edges()
            .all(|(u, v)| self.sides[u as usize] != self.sides[v as usize])
    }
}

/// Witness that a graph is not bipartite: a cycle of odd length, returned as
/// the vertex sequence (first != last; the closing edge is implicit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OddCycle(pub Vec<Vertex>);

impl OddCycle {
    /// Validates that this really is an odd cycle of `g`.
    pub fn is_valid(&self, g: &Graph) -> bool {
        let cyc = &self.0;
        if cyc.len() < 3 || cyc.len().is_multiple_of(2) {
            return false;
        }
        let closing = g.has_edge(cyc[0], *cyc.last().unwrap());
        closing && cyc.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }
}

/// BFS 2-coloring: `Ok` with a [`Bipartition`] (components colored
/// independently, roots on `Left`), or `Err` with an [`OddCycle`] witness.
///
/// `O(|V| + |E|)`.
pub fn bipartition(g: &Graph) -> Result<Bipartition, OddCycle> {
    let n = g.num_vertices();
    let mut side: Vec<Option<Side>> = vec![None; n];
    let mut parent: Vec<Vertex> = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();

    for root in 0..n as Vertex {
        if side[root as usize].is_some() {
            continue;
        }
        side[root as usize] = Some(Side::Left);
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let su = side[u as usize].expect("queued vertices are colored");
            for &v in g.neighbors(u) {
                match side[v as usize] {
                    None => {
                        side[v as usize] = Some(su.flip());
                        parent[v as usize] = u;
                        queue.push_back(v);
                    }
                    Some(sv) if sv == su => {
                        return Err(extract_odd_cycle(&parent, u, v));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(Bipartition {
        sides: side.into_iter().map(|s| s.expect("all colored")).collect(),
    })
}

/// Reconstructs an odd cycle from the BFS forest when the conflicting edge
/// `{u, v}` joins two same-side vertices: walk both to their lowest common
/// ancestor and splice the paths.
fn extract_odd_cycle(parent: &[Vertex], u: Vertex, v: Vertex) -> OddCycle {
    let ancestors_of = |mut x: Vertex| {
        let mut path = vec![x];
        while parent[x as usize] != u32::MAX {
            x = parent[x as usize];
            path.push(x);
        }
        path
    };
    let pu = ancestors_of(u);
    let pv = ancestors_of(v);
    // Find LCA: deepest common vertex of the two root paths.
    let in_pu: std::collections::HashMap<Vertex, usize> =
        pu.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let (mut iu, mut iv) = (pu.len(), 0usize);
    for (j, &x) in pv.iter().enumerate() {
        if let Some(&i) = in_pu.get(&x) {
            iu = i;
            iv = j;
            break;
        }
    }
    assert!(iu < pu.len(), "BFS tree paths must meet at a common root");
    // Cycle: u -> ... -> lca -> ... -> v (reversed), closed by edge {v, u}.
    let mut cycle: Vec<Vertex> = pu[..=iu].to_vec();
    cycle.extend(pv[..iv].iter().rev());
    OddCycle(cycle)
}

/// Convenience: `true` iff `g` has no odd cycle.
pub fn is_bipartite(g: &Graph) -> bool {
    bipartition(g).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_is_bipartite_with_alternating_sides() {
        let g = Graph::path(5);
        let bp = bipartition(&g).expect("paths are bipartite");
        assert!(bp.is_proper(&g));
        assert_eq!(bp.side(0), Side::Left);
        assert_eq!(bp.side(1), Side::Right);
        assert_eq!(bp.side(2), Side::Left);
    }

    #[test]
    fn even_cycle_bipartite_odd_cycle_not() {
        assert!(is_bipartite(&Graph::cycle(8)));
        let g = Graph::cycle(7);
        let witness = bipartition(&g).expect_err("odd cycles are not bipartite");
        assert!(
            witness.is_valid(&g),
            "witness {witness:?} must be a real odd cycle"
        );
    }

    #[test]
    fn triangle_witness_has_length_three() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let witness = bipartition(&g).unwrap_err();
        assert_eq!(witness.0.len(), 3);
        assert!(witness.is_valid(&g));
    }

    #[test]
    fn odd_cycle_hanging_off_a_path_is_found() {
        // 0-1-2 path, then triangle 2-3-4-2
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)]);
        let witness = bipartition(&g).unwrap_err();
        assert!(witness.is_valid(&g));
    }

    #[test]
    fn complete_bipartite_sides_recovered() {
        let g = Graph::complete_bipartite(3, 5);
        let bp = bipartition(&g).unwrap();
        assert!(bp.is_proper(&g));
        let (l, r) = bp.part_sizes();
        assert_eq!(l.min(r), 3);
        assert_eq!(l.max(r), 5);
    }

    #[test]
    fn isolated_vertices_default_left() {
        let g = Graph::empty(4);
        let bp = bipartition(&g).unwrap();
        assert_eq!(bp.part_sizes(), (4, 0));
        assert_eq!(bp.part(Side::Left), vec![0, 1, 2, 3]);
        assert!(bp.part(Side::Right).is_empty());
    }

    #[test]
    fn disconnected_components_colored_independently() {
        let (g, _) = Graph::path(3).disjoint_union(&Graph::cycle(4));
        let bp = bipartition(&g).unwrap();
        assert!(bp.is_proper(&g));
    }
}
