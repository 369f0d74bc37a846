//! Undirected simple graph over dense `u32` vertex ids.
//!
//! This is the substrate every scheduling algorithm in the workspace stands
//! on: jobs are vertices, incompatibilities are edges, and "the jobs on one
//! machine form an independent set" is the feasibility constraint of the
//! whole model. Vertex ids are `u32` (not `usize`) to halve the memory
//! traffic of adjacency lists on 64-bit targets.

/// A vertex identifier. Dense in `0..graph.num_vertices()`.
pub type Vertex = u32;

/// An undirected simple graph with sorted adjacency lists.
///
/// Immutable once built (see [`GraphBuilder`]); all queries are borrow-only,
/// so graphs can be shared freely across threads during experiment sweeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<Vertex>>,
    num_edges: usize,
}

impl Graph {
    /// A graph with `n` vertices and no edges (`G = empty` in the paper,
    /// which degenerates the problem to classical `α||C_max`).
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list. Self-loops are rejected; duplicate
    /// edges are merged.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The complete bipartite graph `K_{a,b}`: left part `0..a`, right part
    /// `a..a+b`. `Q|G = complete bipartite|C_max` is a recurring special case
    /// in the related-work line (\[20\], \[24\]).
    pub fn complete_bipartite(a: usize, b: usize) -> Self {
        let mut builder = GraphBuilder::new(a + b);
        for u in 0..a {
            for v in a..a + b {
                builder.add_edge(u as Vertex, v as Vertex);
            }
        }
        builder.build()
    }

    /// The crown graph `S_n^0`: `K_{n,n}` minus a perfect matching (left
    /// `i` is compatible with right `n + i` only). The uniform-machine
    /// scheduling line of Furmańczyk–Kubale (arXiv:1602.01867) studies
    /// exactly this family; its inequitable colorings are maximally
    /// constrained while every vertex still has one private partner.
    pub fn crown(n: usize) -> Self {
        let mut builder = GraphBuilder::new(2 * n);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    builder.add_edge(u as Vertex, (n + v) as Vertex);
                }
            }
        }
        builder.build()
    }

    /// A simple path `0 - 1 - ... - (n-1)`; bipartite, handy in tests.
    pub fn path(n: usize) -> Self {
        let edges: Vec<_> = (1..n as Vertex).map(|v| (v - 1, v)).collect();
        Self::from_edges(n, &edges)
    }

    /// A cycle on `n` vertices; bipartite iff `n` is even.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "a simple cycle needs at least 3 vertices");
        let mut edges: Vec<_> = (1..n as Vertex).map(|v| (v - 1, v)).collect();
        edges.push((n as Vertex - 1, 0));
        Self::from_edges(n, &edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree Δ(G).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether the edge `{u, v}` is present. `O(log deg(u))`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.adj.len() as Vertex
    }

    /// Iterator over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as Vertex;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Whether `set` (given as a membership mask over vertices) is an
    /// independent set: no edge has both endpoints inside. This is the
    /// schedule-feasibility primitive of the whole model.
    pub fn is_independent_mask(&self, mask: &[bool]) -> bool {
        debug_assert_eq!(mask.len(), self.num_vertices());
        self.edges()
            .all(|(u, v)| !(mask[u as usize] && mask[v as usize]))
    }

    /// Whether the listed vertices form an independent set.
    pub fn is_independent_set(&self, set: &[Vertex]) -> bool {
        let mut mask = vec![false; self.num_vertices()];
        for &v in set {
            mask[v as usize] = true;
        }
        self.is_independent_mask(&mask)
    }

    /// Disjoint union `self ⊎ other`; vertices of `other` are shifted by
    /// `self.num_vertices()`. Returns the shift applied to `other`.
    pub fn disjoint_union(&self, other: &Graph) -> (Graph, Vertex) {
        let shift = self.num_vertices() as Vertex;
        let mut adj = self.adj.clone();
        adj.extend(
            other
                .adj
                .iter()
                .map(|nbrs| nbrs.iter().map(|&v| v + shift).collect::<Vec<_>>()),
        );
        (
            Graph {
                adj,
                num_edges: self.num_edges + other.num_edges,
            },
            shift,
        )
    }

    /// The subgraph induced by the vertices where `keep` is true, together
    /// with the map `old id -> new id` (`u32::MAX` for dropped vertices).
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<Vertex>) {
        debug_assert_eq!(keep.len(), self.num_vertices());
        let mut remap = vec![u32::MAX; self.num_vertices()];
        let mut next = 0u32;
        for v in 0..self.num_vertices() {
            if keep[v] {
                remap[v] = next;
                next += 1;
            }
        }
        let mut builder = GraphBuilder::new(next as usize);
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                builder.add_edge(remap[u as usize], remap[v as usize]);
            }
        }
        (builder.build(), remap)
    }
}

/// Incremental builder for [`Graph`]. Deduplicates edges and rejects loops.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    adj: Vec<Vec<Vertex>>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adj: vec![Vec::new(); n],
        }
    }

    /// Current number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Appends `count` fresh isolated vertices, returning the id of the first.
    pub fn add_vertices(&mut self, count: usize) -> Vertex {
        let first = self.adj.len() as Vertex;
        self.adj.resize(self.adj.len() + count, Vec::new());
        first
    }

    /// Adds the undirected edge `{u, v}`. Panics on self-loops or
    /// out-of-range endpoints. Duplicates are removed at [`build`] time.
    ///
    /// [`build`]: GraphBuilder::build
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        assert_ne!(
            u, v,
            "self-loops are not allowed in an incompatibility graph"
        );
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "edge ({u}, {v}) out of range for {} vertices",
            self.adj.len()
        );
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
    }

    /// Finalizes into an immutable [`Graph`]: sorts adjacency lists and
    /// merges duplicate edges.
    pub fn build(mut self) -> Graph {
        let mut num_half_edges = 0usize;
        for nbrs in &mut self.adj {
            nbrs.sort_unstable();
            nbrs.dedup();
            num_half_edges += nbrs.len();
        }
        debug_assert_eq!(num_half_edges % 2, 0);
        Graph {
            adj: self.adj,
            num_edges: num_half_edges / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_independent_set(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn crown_is_complete_bipartite_minus_perfect_matching() {
        let g = Graph::crown(4);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 4 * 3);
        for v in 0..4 {
            assert_eq!(g.degree(v), 3);
            assert!(!g.has_edge(v, 4 + v), "private partner must stay free");
        }
        // Degenerate sizes are fine.
        assert_eq!(Graph::crown(0).num_vertices(), 0);
        assert_eq!(Graph::crown(1).num_edges(), 0);
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = Graph::complete_bipartite(3, 4);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.max_degree(), 4);
        // each part is independent
        assert!(g.is_independent_set(&[0, 1, 2]));
        assert!(g.is_independent_set(&[3, 4, 5, 6]));
        assert!(!g.is_independent_set(&[0, 3]));
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = Graph::path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
        let c = Graph::cycle(6);
        assert_eq!(c.num_edges(), 6);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::complete_bipartite(2, 3);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn independent_set_detection() {
        let g = Graph::path(4); // 0-1-2-3
        assert!(g.is_independent_set(&[0, 2]));
        assert!(g.is_independent_set(&[1, 3]));
        assert!(g.is_independent_set(&[0, 3]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = Graph::path(3);
        let b = Graph::cycle(4);
        let (u, shift) = a.disjoint_union(&b);
        assert_eq!(shift, 3);
        assert_eq!(u.num_vertices(), 7);
        assert_eq!(u.num_edges(), 2 + 4);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(2, 3));
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = Graph::path(5); // 0-1-2-3-4
        let keep = vec![true, false, true, true, true];
        let (sub, remap) = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 4);
        // only edges 2-3, 3-4 survive
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(remap[0], 0);
        assert_eq!(remap[1], u32::MAX);
        assert_eq!(remap[2], 1);
        assert!(sub.has_edge(remap[2], remap[3]));
    }

    #[test]
    fn builder_add_vertices_returns_first_fresh_id() {
        let mut b = GraphBuilder::new(2);
        let first = b.add_vertices(3);
        assert_eq!(first, 2);
        assert_eq!(b.num_vertices(), 5);
        b.add_edge(0, 4);
        let g = b.build();
        assert!(g.has_edge(0, 4));
    }
}
