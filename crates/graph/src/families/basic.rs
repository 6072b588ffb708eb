//! Elementary families: paths, cycles, complete graphs, stars, grids,
//! complete binary trees.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, Port};

/// The path `P_n` on `n ≥ 1` nodes `0 − 1 − … − (n−1)`.
///
/// Ports: interior node `v` has port 0 toward `v−1` and port 1 toward
/// `v+1`; the two end nodes have the single port 0.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::BadParameter("path needs n >= 1".into()));
    }
    if n == 1 {
        // A single node with no edges is connected by convention here, but
        // GraphBuilder::finish requires reachability from node 0, which
        // trivially holds.
        return GraphBuilder::new(1).finish_unchecked_connectivity();
    }
    let mut b = GraphBuilder::new(n);
    for v in 0..n - 1 {
        let pu = if v == 0 { Port(0) } else { Port(1) };
        b.add_edge_with_ports(v, v + 1, pu, Port(0))?;
    }
    b.finish()
}

/// The cycle `C_n`, `n ≥ 3` — the Cayley graph `Cay(Z_n, {+1, −1})`.
///
/// Ports follow the rotation-invariant Cayley labeling: port 0 = `+1`
/// (clockwise), port 1 = `−1` (counterclockwise), at every node. This is
/// the maximally-symmetric labeling the adversary would pick.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::BadParameter("cycle needs n >= 3".into()));
    }
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        let w = (v + 1) % n;
        b.add_edge_with_ports(v, w, Port(0), Port(1))?;
    }
    b.finish()
}

/// The complete graph `K_n`, `n ≥ 2` — the Cayley graph
/// `Cay(Z_n, {1, …, n−1})`.
///
/// Ports use the circulant convention: at node `v`, port `i` leads to
/// node `v + i + 1 (mod n)`, which again is a translation-invariant (and
/// hence maximally adversarial) labeling.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::BadParameter("complete needs n >= 2".into()));
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for diff in 1..n {
            let v = (u + diff) % n;
            if u < v {
                // Port at u for difference `diff` is diff−1; port at v for
                // the reverse difference n−diff is n−diff−1.
                b.add_edge_with_ports(u, v, Port((diff - 1) as u32), Port((n - diff - 1) as u32))?;
            }
        }
    }
    b.finish()
}

/// The star `K_{1,leaves}`: node 0 is the center.
pub fn star(leaves: usize) -> Result<Graph, GraphError> {
    if leaves == 0 {
        return Err(GraphError::BadParameter("star needs >= 1 leaf".into()));
    }
    let n = leaves.checked_add(1).ok_or_else(|| {
        GraphError::BadParameter(format!("star leaf count {leaves} overflows the node count"))
    })?;
    let mut b = GraphBuilder::new(n);
    for leaf in 1..=leaves {
        b.add_edge_with_ports(0, leaf, Port((leaf - 1) as u32), Port(0))?;
    }
    b.finish()
}

/// The `w × h` grid (non-wrapped mesh).
pub fn grid(w: usize, h: usize) -> Result<Graph, GraphError> {
    if w == 0 || h == 0 {
        return Err(GraphError::BadParameter("grid needs w, h >= 1".into()));
    }
    let n = w.checked_mul(h).ok_or_else(|| {
        GraphError::BadParameter(format!("grid {w}x{h} overflows the node count"))
    })?;
    if n == 1 {
        return GraphBuilder::new(1).finish_unchecked_connectivity();
    }
    let mut b = GraphBuilder::new(n);
    let id = |x: usize, y: usize| y * w + x;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y))?;
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1))?;
            }
        }
    }
    b.finish()
}

/// The complete bipartite graph `K_{m,n}`: nodes `0..m` on one side,
/// `m..m+n` on the other. For `m = n` this is the Cayley graph
/// `Cay(Z_{2n}, {odd elements})`.
///
/// Ports: node `u < m` reaches partner `j` through port `j`; node
/// `m + j` reaches `u` through port `u`.
pub fn complete_bipartite(m: usize, n: usize) -> Result<Graph, GraphError> {
    if m == 0 || n == 0 {
        return Err(GraphError::BadParameter("K_{m,n} needs m, n >= 1".into()));
    }
    let mut b = GraphBuilder::new(m + n);
    for u in 0..m {
        for j in 0..n {
            b.add_edge_with_ports(u, m + j, Port(j as u32), Port(u as u32))?;
        }
    }
    b.finish()
}

/// The complete binary tree of the given depth (depth 0 = single root).
pub fn binary_tree(depth: usize) -> Result<Graph, GraphError> {
    let n = u32::try_from(depth)
        .ok()
        .and_then(|d| d.checked_add(1))
        .and_then(|levels| 1usize.checked_shl(levels))
        .map(|pow| pow - 1)
        .ok_or_else(|| {
            GraphError::BadParameter(format!("tree depth {depth} overflows the node count"))
        })?;
    if n == 1 {
        return GraphBuilder::new(1).finish_unchecked_connectivity();
    }
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        let left = 2 * v + 1;
        let right = 2 * v + 2;
        if left < n {
            b.add_edge(v, left)?;
        }
        if right < n {
            b.add_edge(v, right)?;
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_ports() {
        let g = path(4).unwrap();
        // End node 0: single port 0 toward node 1.
        assert_eq!(g.move_along(0, Port(0)).unwrap().0, 1);
        // Interior node 1: port 0 back toward 0, port 1 toward 2.
        assert_eq!(g.move_along(1, Port(0)).unwrap().0, 0);
        assert_eq!(g.move_along(1, Port(1)).unwrap().0, 2);
    }

    #[test]
    fn cycle_rotation_invariant_ports() {
        let g = cycle(5).unwrap();
        for v in 0..5 {
            assert_eq!(g.move_along(v, Port(0)).unwrap().0, (v + 1) % 5);
            assert_eq!(g.move_along(v, Port(1)).unwrap().0, (v + 4) % 5);
        }
    }

    #[test]
    fn complete_translation_invariant_ports() {
        let g = complete(5).unwrap();
        for v in 0..5 {
            for i in 0..4 {
                assert_eq!(
                    g.move_along(v, Port(i as u32)).unwrap().0,
                    (v + i + 1) % 5,
                    "port i leads to v+i+1"
                );
            }
        }
    }

    #[test]
    fn rejects_degenerate_params() {
        assert!(path(0).is_err());
        assert!(cycle(2).is_err());
        assert!(complete(1).is_err());
        assert!(star(0).is_err());
        assert!(grid(0, 3).is_err());
    }

    #[test]
    fn single_node_path() {
        let g = path(1).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(2, 3).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(2), 2);
        assert!(crate::analysis::is_bipartite(&g));
        assert_eq!(crate::analysis::girth(&g), Some(4));
        // K_{3,3} is vertex-transitive (and Cayley).
        let k33 = complete_bipartite(3, 3).unwrap();
        assert!(k33.is_vertex_transitive());
        assert!(!complete_bipartite(2, 3).unwrap().is_vertex_transitive());
        assert!(complete_bipartite(0, 1).is_err());
    }

    #[test]
    fn tree_counts() {
        let g = binary_tree(2).unwrap();
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
    }

    fn overflow_names(r: Result<Graph, GraphError>, param: &str) {
        match r {
            Err(GraphError::BadParameter(msg)) => assert!(msg.contains(param), "{msg}"),
            other => panic!("expected a BadParameter naming {param}, got {other:?}"),
        }
    }

    #[test]
    fn star_rejects_overflowing_leaf_count() {
        overflow_names(star(usize::MAX), "leaf count");
    }

    #[test]
    fn grid_rejects_overflowing_node_count() {
        overflow_names(grid(1 << 32, (1 << 32) + 1), "grid");
        overflow_names(grid(usize::MAX, 2), "grid");
    }

    #[test]
    fn binary_tree_rejects_overflowing_depth() {
        for depth in [63, 64, 70, usize::MAX] {
            overflow_names(binary_tree(depth), "depth");
        }
        assert_eq!(binary_tree(3).unwrap().n(), 15);
    }
}
