//! The reduction gadgets of Figure 1: components `H1(x)`, `H2(x', x)`,
//! `H3(x'', x', x)` and their colour-forcing properties (Lemmas 5–7).
//!
//! Attaching `H1(x)` to a vertex `v` forces: either `v` avoids colour `c1`,
//! or at least `x` vertices take colours outside `{c1}`. `H2`/`H3` cascade
//! the same idea one/two levels deeper. Theorem 8 wires six of these onto
//! the three precoloured vertices of a 1-PrExt instance so that *any*
//! cheap schedule on the prepared uniform machines decodes into a proper
//! colour extension.
//!
//! Structure (derived from Figure 1 and verified against the paper's vertex
//! count `n' = n + 48k²n + 4kn + 2`):
//!
//! * `H1(x)`: `x` leaves, all adjacent to the attachment vertex.
//! * `H2(x', x)`: a middle row of `x'` vertices adjacent to the attachment
//!   vertex, completely joined to a top row of `x` vertices.
//! * `H3(x'', x', x)`: a third row of `x''` vertices adjacent to the
//!   attachment vertex, completely joined to (a) a second row of `x'`
//!   vertices — itself completely joined to a top row of `x` vertices — and
//!   (b) a private row of `x` vertices (the `v*` row of Figure 1c).
//!
//! All three are bipartite and attach to either side of a bipartition.

use crate::graph::{GraphBuilder, Vertex};
use std::ops::Range;

/// Handle to an attached `H1(x)`: the leaf row.
#[derive(Clone, Debug)]
pub struct H1 {
    /// The `x` leaves `v_1..v_x`, adjacent to the attachment vertex.
    pub leaves: Range<Vertex>,
}

/// Handle to an attached `H2(x', x)`.
#[derive(Clone, Debug)]
pub struct H2 {
    /// Top row `v_1..v_x`.
    pub top: Range<Vertex>,
    /// Middle row `v'_1..v'_{x'}`, adjacent to the attachment vertex.
    pub mid: Range<Vertex>,
}

/// Handle to an attached `H3(x'', x', x)`.
#[derive(Clone, Debug)]
pub struct H3 {
    /// Top row `v_1..v_x`.
    pub top: Range<Vertex>,
    /// Second row `v'_1..v'_{x'}`.
    pub second: Range<Vertex>,
    /// Third row `v''_1..v''_{x''}`, adjacent to the attachment vertex.
    pub third: Range<Vertex>,
    /// The private row `v*_1..v*_x` of Figure 1c.
    pub star: Range<Vertex>,
}

impl H1 {
    /// Total vertices added by this gadget.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }
}

impl H2 {
    /// Total vertices added by this gadget (`x + x'`).
    pub fn size(&self) -> usize {
        self.top.len() + self.mid.len()
    }
}

impl H3 {
    /// Total vertices added by this gadget (`x'' + x' + 2x`).
    pub fn size(&self) -> usize {
        self.top.len() + self.second.len() + self.third.len() + self.star.len()
    }
}

fn fresh_row(b: &mut GraphBuilder, count: usize) -> Range<Vertex> {
    let first = b.add_vertices(count);
    first..first + count as Vertex
}

/// Attaches `H1(x)` to vertex `v`: adds `x` fresh leaves adjacent to `v`.
pub fn attach_h1(b: &mut GraphBuilder, v: Vertex, x: usize) -> H1 {
    let leaves = fresh_row(b, x);
    for u in leaves.clone() {
        b.add_edge(v, u);
    }
    H1 { leaves }
}

/// Attaches `H2(x', x)` to vertex `v`.
pub fn attach_h2(b: &mut GraphBuilder, v: Vertex, x_prime: usize, x: usize) -> H2 {
    let top = fresh_row(b, x);
    let mid = fresh_row(b, x_prime);
    for p in mid.clone() {
        b.add_edge(v, p);
        for t in top.clone() {
            b.add_edge(p, t);
        }
    }
    H2 { top, mid }
}

/// Attaches `H3(x'', x', x)` to vertex `v`.
pub fn attach_h3(b: &mut GraphBuilder, v: Vertex, x_pprime: usize, x_prime: usize, x: usize) -> H3 {
    let top = fresh_row(b, x);
    let second = fresh_row(b, x_prime);
    let third = fresh_row(b, x_pprime);
    let star = fresh_row(b, x);
    for d in third.clone() {
        b.add_edge(v, d);
        for p in second.clone() {
            b.add_edge(d, p);
        }
        for s in star.clone() {
            b.add_edge(d, s);
        }
    }
    for p in second.clone() {
        for t in top.clone() {
            b.add_edge(p, t);
        }
    }
    H3 {
        top,
        second,
        third,
        star,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::is_bipartite;
    use crate::graph::Graph;

    /// Counts vertices in `row` whose colour is **not** in `excluded`.
    /// Used to phrase the Lemma 5–7 case analyses.
    fn count_outside(colors: &[u8], row: &Range<Vertex>, excluded: &[u8]) -> usize {
        row.clone()
            .filter(|&u| !excluded.contains(&colors[u as usize]))
            .count()
    }

    fn count_outside_rows(colors: &[u8], rows: &[&Range<Vertex>], excluded: &[u8]) -> usize {
        rows.iter()
            .map(|row| count_outside(colors, row, excluded))
            .sum()
    }

    /// Lemma 5 disjunction for an `H1(x)` attached at `v`: either `v` is not
    /// coloured `c1`, or at least `x` vertices take colours outside `{c1}`.
    /// The paper counts qualifying vertices anywhere in `G`; here we count over
    /// the gadget's own rows, which is the *stronger* statement the reduction
    /// actually relies on (the gadget must supply the witnesses by itself).
    fn lemma5_holds(colors: &[u8], h: &H1, v: Vertex, c1: u8) -> bool {
        colors[v as usize] != c1 || count_outside(colors, &h.leaves, &[c1]) >= h.leaves.len()
    }

    /// Lemma 6 disjunction for an `H2(x', x)` attached at `v` with colours
    /// `(c1, c2)`. Witness counts are taken over the gadget's rows (see
    /// [`lemma5_holds`]); thresholds are `x' = |mid|` and `x = |top|`.
    fn lemma6_holds(colors: &[u8], h: &H2, v: Vertex, c1: u8, c2: u8) -> bool {
        let rows: [&Range<Vertex>; 2] = [&h.top, &h.mid];
        colors[v as usize] != c2
            || count_outside_rows(colors, &rows, &[c1, c2]) >= h.mid.len()
            || count_outside_rows(colors, &rows, &[c1]) >= h.top.len()
    }

    /// Lemma 7 disjunction for an `H3(x'', x', x)` attached at `v` with colours
    /// `(c1, c2, c3)`. Witness counts are taken over the gadget's rows;
    /// thresholds are `x'' = |third|`, `x' = |second|`, `x = |top| = |star|`.
    fn lemma7_holds(colors: &[u8], h: &H3, v: Vertex, c1: u8, c2: u8, c3: u8) -> bool {
        let rows: [&Range<Vertex>; 4] = [&h.top, &h.second, &h.third, &h.star];
        colors[v as usize] != c3
            || count_outside_rows(colors, &rows, &[c1, c2, c3]) >= h.third.len()
            || count_outside_rows(colors, &rows, &[c1, c2]) >= h.second.len()
            || count_outside_rows(colors, &rows, &[c1]) >= h.top.len()
    }

    fn build_with<F, H>(attach: F) -> (Graph, Vertex, H)
    where
        F: FnOnce(&mut GraphBuilder, Vertex) -> H,
    {
        let mut b = GraphBuilder::new(1);
        let v = 0;
        let h = attach(&mut b, v);
        (b.build(), v, h)
    }

    /// Enumerate all colorings of `g` with `num_colors` colours and check
    /// that `pred` holds for every *proper* coloring.
    fn for_all_proper_colorings(g: &Graph, num_colors: u8, mut pred: impl FnMut(&[u8])) {
        let n = g.num_vertices();
        assert!(n <= 12, "exhaustive enumeration only for small gadgets");
        let mut colors = vec![0u8; n];
        let total = (num_colors as u64).pow(n as u32);
        'outer: for code in 0..total {
            let mut c = code;
            for slot in colors.iter_mut() {
                *slot = (c % num_colors as u64) as u8;
                c /= num_colors as u64;
            }
            for (u, w) in g.edges() {
                if colors[u as usize] == colors[w as usize] {
                    continue 'outer;
                }
            }
            pred(&colors);
        }
    }

    #[test]
    fn h1_shape_and_size() {
        let (g, v, h) = build_with(|b, v| attach_h1(b, v, 4));
        assert_eq!(h.size(), 4);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert!(is_bipartite(&g));
        for u in h.leaves.clone() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn h2_shape_and_size() {
        let (g, v, h) = build_with(|b, v| attach_h2(b, v, 2, 3));
        assert_eq!(h.size(), 5);
        assert_eq!(g.num_vertices(), 6);
        // x' attachment edges + x*x' complete join
        assert_eq!(g.num_edges(), 2 + 6);
        assert!(is_bipartite(&g));
        for p in h.mid.clone() {
            assert!(g.has_edge(v, p));
            for t in h.top.clone() {
                assert!(g.has_edge(p, t));
            }
        }
    }

    #[test]
    fn h3_shape_and_size_matches_paper_count() {
        let (g, _, h) = build_with(|b, v| attach_h3(b, v, 1, 2, 3));
        // x'' + x' + 2x = 1 + 2 + 6
        assert_eq!(h.size(), 9);
        assert_eq!(g.num_vertices(), 10);
        assert!(is_bipartite(&g));
    }

    #[test]
    fn theorem8_vertex_count_formula() {
        // n' = n + 48k^2 n + 4kn + 2 for the six components of Theorem 8
        // (x = 6k^2 n, x' = kn, x'' = 1), built on three distinct
        // attachment vertices of an n-vertex graph.
        for (n, k) in [(3usize, 1usize), (5, 1), (5, 2), (8, 3)] {
            let x = 6 * k * k * n;
            let xp = k * n;
            let mut b = GraphBuilder::new(n);
            attach_h2(&mut b, 0, xp, x);
            attach_h3(&mut b, 0, 1, xp, x);
            attach_h1(&mut b, 1, x);
            attach_h3(&mut b, 1, 1, xp, x);
            attach_h1(&mut b, 2, x);
            attach_h2(&mut b, 2, xp, x);
            let g = b.build();
            assert_eq!(g.num_vertices(), n + 48 * k * k * n + 4 * k * n + 2);
            assert!(is_bipartite(&g), "n={n}, k={k}");
        }
    }

    #[test]
    fn lemma5_exhaustive() {
        for x in 1..=4 {
            let (g, v, h) = build_with(|b, v| attach_h1(b, v, x));
            for num_colors in 2..=3u8 {
                for_all_proper_colorings(&g, num_colors, |colors| {
                    assert!(
                        lemma5_holds(colors, &h, v, 0),
                        "Lemma 5 violated: x={x}, colors={colors:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn lemma6_exhaustive() {
        for (xp, x) in [(1usize, 1usize), (1, 2), (2, 2), (2, 3), (3, 2)] {
            let (g, v, h) = build_with(|b, v| attach_h2(b, v, xp, x));
            for_all_proper_colorings(&g, 3, |colors| {
                assert!(
                    lemma6_holds(colors, &h, v, 0, 1),
                    "Lemma 6 violated: x'={xp}, x={x}, colors={colors:?}"
                );
            });
        }
    }

    #[test]
    fn lemma7_exhaustive() {
        for (xpp, xp, x) in [(1usize, 1usize, 1usize), (1, 1, 2), (1, 2, 2), (2, 1, 1)] {
            let (g, v, h) = build_with(|b, v| attach_h3(b, v, xpp, xp, x));
            for_all_proper_colorings(&g, 4, |colors| {
                assert!(
                    lemma7_holds(colors, &h, v, 0, 1, 2),
                    "Lemma 7 violated: x''={xpp}, x'={xp}, x={x}, colors={colors:?}"
                );
            });
        }
    }

    #[test]
    fn lemma5_cases_are_tight() {
        // With v coloured c1 there IS a coloring placing exactly x leaves
        // outside c1 — the bound can be met with equality, not bypassed.
        let (g, v, h) = build_with(|b, v| attach_h1(b, v, 3));
        let mut colors = vec![1u8; g.num_vertices()];
        colors[v as usize] = 0;
        assert!(g
            .edges()
            .all(|(a, b)| colors[a as usize] != colors[b as usize]));
        assert_eq!(count_outside(&colors, &h.leaves, &[0]), 3);
        assert!(lemma5_holds(&colors, &h, v, 0));
    }

    #[test]
    fn gadgets_compose_on_shared_attachment() {
        // Theorem 8 attaches two gadgets to the same vertex; the result must
        // stay bipartite and the handles must not overlap.
        let mut b = GraphBuilder::new(1);
        let h2 = attach_h2(&mut b, 0, 2, 3);
        let h3 = attach_h3(&mut b, 0, 1, 2, 3);
        let g = b.build();
        assert!(is_bipartite(&g));
        assert_eq!(g.num_vertices(), 1 + h2.size() + h3.size());
        assert!(h2.top.end <= h3.top.start);
    }
}
