//! Graphviz DOT export, for rendering the Figure 1 gadget components and
//! for debugging sessions generally.

use crate::graph::Graph;

/// Renders `g` in DOT format. `labels` (optional) supplies per-vertex label
/// text; vertices sharing a label prefix can be ranked by downstream tools.
pub fn to_dot(g: &Graph, name: &str, labels: Option<&[String]>) -> String {
    let mut out = String::new();
    out.push_str(&format!("graph {name} {{\n"));
    for v in g.vertices() {
        match labels {
            Some(ls) => out.push_str(&format!("  v{v} [label=\"{}\"];\n", ls[v as usize])),
            None => out.push_str(&format!("  v{v};\n")),
        }
    }
    for (u, v) in g.edges() {
        out.push_str(&format!("  v{u} -- v{v};\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_all_edges_and_vertices() {
        let g = Graph::path(3);
        let dot = to_dot(&g, "p3", None);
        assert!(dot.starts_with("graph p3 {"));
        assert!(dot.contains("v0 -- v1;"));
        assert!(dot.contains("v1 -- v2;"));
        assert!(dot.contains("v2;"));
    }

    #[test]
    fn labels_are_emitted() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let labels = vec!["a".to_string(), "b".to_string()];
        let dot = to_dot(&g, "l", Some(&labels));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
    }
}
