//! Product families: hypercubes and multi-dimensional toroidal meshes.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, Port};

/// The `d`-dimensional hypercube `Q_d = Cay(Z_2^d, {e_1, …, e_d})`.
///
/// Ports use the dimension-invariant Cayley labeling: port `i` flips bit
/// `i`, at every node. `d ≥ 1`.
pub fn hypercube(d: usize) -> Result<Graph, GraphError> {
    if d == 0 || d > 20 {
        return Err(GraphError::BadParameter(
            "hypercube needs 1 <= d <= 20".into(),
        ));
    }
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if v < w {
                b.add_edge_with_ports(v, w, Port(bit as u32), Port(bit as u32))?;
            }
        }
    }
    b.finish()
}

/// The multi-dimensional toroidal mesh (wrap-around grid)
/// `Cay(Z_{d_1} × … × Z_{d_k}, {±e_1, …, ±e_k})`.
///
/// Every `dims[i]` must be ≥ 3 so that the `+e_i` and `−e_i` neighbors
/// are distinct (a dimension of 2 would create parallel edges in the
/// Cayley construction; use [`hypercube`] for the `Z_2` case).
///
/// Ports: at every node, port `2i` = `+e_i`, port `2i+1` = `−e_i` — the
/// translation-invariant labeling.
pub fn torus(dims: &[usize]) -> Result<Graph, GraphError> {
    if dims.is_empty() {
        return Err(GraphError::BadParameter(
            "torus needs >= 1 dimension".into(),
        ));
    }
    if dims.iter().any(|&d| d < 3) {
        return Err(GraphError::BadParameter(
            "torus dimensions must each be >= 3".into(),
        ));
    }
    // Mixed-radix encoding: coordinate i has stride prod(dims[..i]),
    // and the full product is the node count.
    let mut strides = Vec::with_capacity(dims.len());
    let mut n = 1usize;
    for &d in dims {
        strides.push(n);
        n = n.checked_mul(d).ok_or_else(|| {
            GraphError::BadParameter(format!("torus dims {dims:?} overflow the node count"))
        })?;
    }
    let mut b = GraphBuilder::new(n);

    let coord = |v: usize, i: usize| (v / strides[i]) % dims[i];
    let with_coord = |v: usize, i: usize, c: usize| {
        let old = coord(v, i);
        v - old * strides[i] + c * strides[i]
    };

    for v in 0..n {
        for (i, &dim) in dims.iter().enumerate() {
            let up = with_coord(v, i, (coord(v, i) + 1) % dim);
            // Add each +e_i edge once (from every node): the edge {v, up}
            // appears exactly once when iterating v over all nodes because
            // up != v and we add it only from the + side.
            b.add_edge_with_ports(v, up, Port(2 * i as u32), Port(2 * i as u32 + 1))?;
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_ports_flip_bits() {
        let g = hypercube(3).unwrap();
        for v in 0..8usize {
            for bit in 0..3 {
                assert_eq!(g.move_along(v, Port(bit as u32)).unwrap().0, v ^ (1 << bit));
            }
        }
    }

    #[test]
    fn hypercube_diameter_is_d() {
        assert_eq!(hypercube(4).unwrap().diameter(), 4);
    }

    #[test]
    fn torus_moves() {
        let g = torus(&[3, 4]).unwrap();
        // Node 0 = (0,0). +e_0 → (1,0) = 1; -e_0 → (2,0) = 2;
        // +e_1 → (0,1) = 3; -e_1 → (0,3) = 9.
        assert_eq!(g.move_along(0, Port(0)).unwrap().0, 1);
        assert_eq!(g.move_along(0, Port(1)).unwrap().0, 2);
        assert_eq!(g.move_along(0, Port(2)).unwrap().0, 3);
        assert_eq!(g.move_along(0, Port(3)).unwrap().0, 9);
    }

    #[test]
    fn torus_is_4_regular_in_2d() {
        assert_eq!(torus(&[5, 7]).unwrap().is_regular(), Some(4));
    }

    #[test]
    fn one_dimensional_torus_is_cycle() {
        let t = torus(&[6]).unwrap();
        assert_eq!(t.n(), 6);
        assert_eq!(t.is_regular(), Some(2));
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn rejects_small_dims() {
        assert!(torus(&[2, 3]).is_err());
        assert!(torus(&[]).is_err());
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn torus_vertex_transitive() {
        assert!(torus(&[3, 3]).unwrap().is_vertex_transitive());
    }

    #[test]
    fn torus_rejects_overflowing_dims() {
        for dims in [vec![1 << 32, 1 << 32], vec![usize::MAX, 3]] {
            match torus(&dims) {
                Err(GraphError::BadParameter(msg)) => assert!(msg.contains("torus dims"), "{msg}"),
                other => panic!("{dims:?}: expected BadParameter, got {other:?}"),
            }
        }
    }
}
