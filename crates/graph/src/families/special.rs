//! Special graphs: the Petersen graph of Fig. 5, generalized Petersen
//! graphs, and the Fig. 2(c) gadget.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, Port};

/// The Petersen graph `GP(5, 2)` — the paper's Fig. 5 counterexample to
/// ELECT's effectualness on arbitrary (vertex-transitive, non-Cayley)
/// graphs.
///
/// Nodes 0–4 form the outer 5-cycle, nodes 5–9 the inner pentagram;
/// spokes connect `i` to `i + 5`.
pub fn petersen() -> Result<Graph, GraphError> {
    generalized_petersen(5, 2)
}

/// The generalized Petersen graph `GP(n, k)`, `n ≥ 3`,
/// `1 ≤ k < n/2`: outer cycle `0..n`, inner vertices `n..2n` joined by
/// step `k`, plus spokes.
///
/// Ports: outer vertices — 0 = next outer, 1 = previous outer, 2 = spoke;
/// inner vertices — 0 = `+k` inner, 1 = `−k` inner, 2 = spoke.
pub fn generalized_petersen(n: usize, k: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::BadParameter("GP needs n >= 3".into()));
    }
    // A `2k` past `usize::MAX` is certainly `>= n`.
    if k == 0 || k.checked_mul(2).is_none_or(|k2| k2 >= n) {
        return Err(GraphError::BadParameter("GP needs 1 <= k < n/2".into()));
    }
    let nodes = n
        .checked_mul(2)
        .ok_or_else(|| GraphError::BadParameter(format!("GP n {n} overflows the node count")))?;
    let mut b = GraphBuilder::new(nodes);
    for i in 0..n {
        // Outer cycle.
        b.add_edge_with_ports(i, (i + 1) % n, Port(0), Port(1))?;
        // Inner pentagram/step cycle.
        b.add_edge_with_ports(n + i, n + (i + k) % n, Port(0), Port(1))?;
        // Spoke.
        b.add_edge_with_ports(i, n + i, Port(2), Port(2))?;
    }
    b.finish()
}

/// The Fig. 2(c) gadget: three nodes `x, y, z`; a directed-looking
/// 3-cycle labeled 1 (clockwise) / 2 (counterclockwise); a double edge
/// between `x` and `y` with labels `l_x(e1) = l_y(e2) = 3`,
/// `l_x(e2) = l_y(e1) = 4`; and a loop at `z` whose two extremities are
/// labeled 3 and 4.
///
/// All three nodes have the same view, yet the label-equivalence classes
/// are singletons — the paper's witness that the converse of Equation 1
/// fails.
pub fn fig2c_gadget() -> Result<Graph, GraphError> {
    let (x, y, z) = (0, 1, 2);
    let mut b = GraphBuilder::new(3);
    // Ring edges, clockwise x → y → z → x: label 1 at the clockwise tail,
    // 2 at the head.
    b.add_edge_with_ports(x, y, Port(1), Port(2))?;
    b.add_edge_with_ports(y, z, Port(1), Port(2))?;
    b.add_edge_with_ports(z, x, Port(1), Port(2))?;
    // Double edge between x and y.
    b.add_edge_with_ports(x, y, Port(3), Port(4))?; // e1: l_x = 3, l_y = 4
    b.add_edge_with_ports(x, y, Port(4), Port(3))?; // e2: l_x = 4, l_y = 3
                                                    // Loop at z with extremities 3 and 4.
    b.add_edge_with_ports(z, z, Port(3), Port(4))?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicolored::Bicolored;

    #[test]
    fn petersen_is_3_regular_girth_5() {
        let g = petersen().unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert_eq!(g.is_regular(), Some(3));
        assert_eq!(g.diameter(), 2);
        // Girth 5: adjacent nodes share no common neighbor.
        for e in g.edges() {
            let nu: std::collections::HashSet<_> = g.neighbors(e.u).collect();
            let nv: std::collections::HashSet<_> = g.neighbors(e.v).collect();
            let common: Vec<_> = nu.intersection(&nv).collect();
            assert!(common.is_empty(), "triangle/square found");
        }
    }

    #[test]
    fn petersen_vertex_transitive() {
        assert!(petersen().unwrap().is_vertex_transitive());
    }

    #[test]
    fn gp_parameter_validation() {
        assert!(generalized_petersen(2, 1).is_err());
        assert!(generalized_petersen(5, 0).is_err());
        assert!(generalized_petersen(6, 3).is_err());
    }

    #[test]
    fn gp_7_2_structure() {
        let g = generalized_petersen(7, 2).unwrap();
        assert_eq!(g.n(), 14);
        assert_eq!(g.is_regular(), Some(3));
    }

    #[test]
    fn fig2c_structure() {
        let g = fig2c_gadget().unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 6);
        // Every node has degree 4 (the loop counts twice at z).
        assert_eq!(g.is_regular(), Some(4));
        assert!(!g.is_simple());
        // Ports at each node are exactly {1, 2, 3, 4}.
        for v in 0..3 {
            assert_eq!(
                g.ports_at(v),
                vec![Port(1), Port(2), Port(3), Port(4)],
                "node {v}"
            );
        }
    }

    #[test]
    fn fig2c_port_moves() {
        let g = fig2c_gadget().unwrap();
        // From x: port 3 → y entering at 4; port 4 → y entering at 3.
        assert_eq!(g.move_along(0, Port(3)).unwrap(), (1, Port(4)));
        assert_eq!(g.move_along(0, Port(4)).unwrap(), (1, Port(3)));
        // From z: ports 3 and 4 traverse the loop.
        assert_eq!(g.move_along(2, Port(3)).unwrap(), (2, Port(4)));
        assert_eq!(g.move_along(2, Port(4)).unwrap(), (2, Port(3)));
    }

    #[test]
    fn fig2c_all_views_equal() {
        let g = fig2c_gadget().unwrap();
        let bc = Bicolored::new(g, &[]).unwrap();
        assert_eq!(crate::view::view_partition(&bc).k, 1);
    }

    #[test]
    fn generalized_petersen_rejects_overflowing_parameters() {
        match generalized_petersen(1 << 63, 1) {
            Err(GraphError::BadParameter(msg)) => assert!(msg.contains("GP n"), "{msg}"),
            other => panic!("expected BadParameter, got {other:?}"),
        }
        // `2k` itself overflows: still the ordinary k-range error.
        assert!(matches!(
            generalized_petersen(7, usize::MAX),
            Err(GraphError::BadParameter(_))
        ));
    }
}
