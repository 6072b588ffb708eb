//! Surroundings (Definition 3.1) and the ordered equivalence classes.
//!
//! The surrounding of a node `u` in a bi-colored network `G` is the digraph
//! `S(u)` on the same node set, same node coloring, with an arc `(x, y)`
//! whenever `{x, y} ∈ E` and `d(u, x) ≤ d(u, y)`. The node `u` is the
//! unique node of in-degree 0 in `S(u)`, and two nodes are equivalent
//! (Definition 2.1) iff their surroundings are isomorphic — the key fact in
//! the proof of Lemma 3.1. Canonical forms of surroundings therefore both
//! *decide* equivalence and *order* the classes: the total order `≺` is the
//! lexicographic order on canonical forms.
//!
//! Protocol ELECT's `COMPUTE & ORDER` step is exactly
//! [`ordered_classes`]: agents run it locally on their maps after
//! MAP-DRAWING, and — because canonical forms are isomorphism-invariant —
//! all agents agree on which node belongs to which class and on the class
//! order, despite having drawn their maps independently.

use crate::bicolored::Bicolored;
use crate::canon::{canonicalize, canonicalize_traced, canonicalize_with_hint, CanonicalForm};
use crate::digraph::{Arc, ColoredDigraph};
use crate::graph::NodeId;

/// Below this node count the surroundings are cheap enough that the
/// incremental hint machinery costs more than it saves; [`ordered_classes`]
/// falls back to plain cold canonicalization. Either path is byte-identical
/// ([`canonicalize_with_hint`]'s contract), so the threshold only tunes
/// speed.
pub(crate) const INCREMENTAL_MIN_N: usize = 32;

/// Build the surrounding digraph `S(u)` of Definition 3.1.
pub fn surrounding(bc: &Bicolored, u: NodeId) -> ColoredDigraph {
    let g = bc.graph();
    let dist = g.distances_from(u);
    let mut arcs = Vec::with_capacity(2 * g.m());
    for e in g.edges() {
        let (x, y) = (e.u, e.v);
        if dist[x] <= dist[y] {
            arcs.push(Arc {
                from: x as u32,
                to: y as u32,
                color: 0,
            });
        }
        if dist[y] <= dist[x] {
            arcs.push(Arc {
                from: y as u32,
                to: x as u32,
                color: 0,
            });
        }
    }
    ColoredDigraph::new(bc.node_colors(), arcs)
}

/// One equivalence class of `(G, p)`, carrying its canonical form (the key
/// of the `≺` order) and whether its nodes are home-bases.
#[derive(Debug, Clone)]
pub struct EquivClass {
    /// The nodes of the class, sorted.
    pub nodes: Vec<NodeId>,
    /// Canonical form of the surroundings of its nodes.
    pub form: CanonicalForm,
    /// `true` iff the class consists of home-bases (black nodes).
    pub black: bool,
}

impl EquivClass {
    /// Class size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the class is empty (never true for produced classes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The ordered classes of `(G, p)`: agent (black) classes
/// `C_1 ≺ … ≺ C_ℓ` first, then node (white) classes
/// `C_{ℓ+1} ≺ … ≺ C_k`, exactly the arrangement Protocol ELECT consumes.
#[derive(Debug, Clone)]
pub struct OrderedClasses {
    /// All classes; the first [`OrderedClasses::ell`] are black.
    pub classes: Vec<EquivClass>,
    /// Number of black (agent) classes `ℓ`.
    pub ell: usize,
}

impl OrderedClasses {
    /// Total number of classes `k`.
    pub fn k(&self) -> usize {
        self.classes.len()
    }

    /// `gcd(|C_1|, …, |C_k|)` — 1 iff ELECT succeeds (Theorem 3.1).
    pub fn gcd_of_sizes(&self) -> usize {
        self.classes.iter().map(|c| c.len()).fold(0usize, gcd)
    }

    /// The class index of a node.
    pub fn class_of(&self, v: NodeId) -> usize {
        self.classes
            .iter()
            .position(|c| c.nodes.binary_search(&v).is_ok())
            .expect("every node belongs to a class")
    }
}

/// Greatest common divisor.
pub fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Group nodes into equivalence classes by canonical surrounding form and
/// order them per the paper: black classes first (by `≺`), then white
/// classes (by `≺`).
pub fn ordered_classes(bc: &Bicolored) -> OrderedClasses {
    let singletons: Vec<u32> = (0..bc.n() as u32).collect();
    ordered_classes_with_orbits(bc, &singletons)
}

/// [`ordered_classes`] given a partition of the nodes into orbits of
/// color-preserving automorphisms (`orbits[v]` is the orbit label of `v`,
/// every label `< n`): only the first node of each orbit has its
/// surrounding canonicalized, and the other members take that form.
///
/// Automorphic nodes have isomorphic surroundings, hence equal forms, so
/// the result is byte-identical to [`ordered_classes`] for any partition
/// no coarser than the true orbits — a finer one (down to all
/// singletons) only costs more canonicalizations, because equal forms
/// from distinct orbits are still merged into one class.
pub fn ordered_classes_with_orbits(bc: &Bicolored, orbits: &[u32]) -> OrderedClasses {
    assert_eq!(orbits.len(), bc.n(), "one orbit label per node");
    let mut by_form: Vec<(CanonicalForm, bool, Vec<NodeId>)> = Vec::new();
    // Orbit label → index of its class in `by_form`, once computed.
    let mut class_of_orbit = vec![usize::MAX; bc.n()];
    // The surroundings S(u) for the n roots share node set, colors, and
    // most arcs (only edges whose endpoints swap distance order flip).
    // On large instances, canonicalize the first root traced and replay
    // its root refinement for every other root — byte-identical forms,
    // fraction of the work (DESIGN §13).
    let mut hint = None;
    for (u, &orbit) in orbits.iter().enumerate() {
        let orbit = orbit as usize;
        if class_of_orbit[orbit] != usize::MAX {
            by_form[class_of_orbit[orbit]].2.push(u);
            continue;
        }
        let s = surrounding(bc, u);
        let form = if bc.n() < INCREMENTAL_MIN_N {
            canonicalize(&s).form
        } else {
            match &hint {
                None => {
                    let (res, h) = canonicalize_traced(&s);
                    hint = Some(h);
                    res.form
                }
                Some(h) => canonicalize_with_hint(&s, h).form,
            }
        };
        class_of_orbit[orbit] = match by_form.iter().position(|(f, _, _)| *f == form) {
            Some(idx) => {
                by_form[idx].2.push(u);
                idx
            }
            None => {
                by_form.push((form, bc.is_black(u), vec![u]));
                by_form.len() - 1
            }
        };
    }
    let mut classes: Vec<EquivClass> = by_form
        .into_iter()
        .map(|(form, black, mut nodes)| {
            nodes.sort_unstable();
            EquivClass { nodes, form, black }
        })
        .collect();
    // Black classes first, each group ordered by ≺ (canonical form).
    classes.sort_by(|a, b| b.black.cmp(&a.black).then_with(|| a.form.cmp(&b.form)));
    let ell = classes.iter().filter(|c| c.black).count();
    OrderedClasses { classes, ell }
}

/// Equivalence classes as plain node sets (no ordering metadata).
pub fn equivalence_classes(bc: &Bicolored) -> Vec<Vec<NodeId>> {
    ordered_classes(bc)
        .classes
        .into_iter()
        .map(|c| c.nodes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automorphism::node_equivalence;
    use crate::families;

    fn classes_agree_with_orbits(bc: &Bicolored) {
        let oc = ordered_classes(bc);
        let orbits = node_equivalence(bc);
        // Same partition: each class is exactly one orbit.
        assert_eq!(oc.k(), orbits.k, "class count mismatch");
        for c in &oc.classes {
            let orbit = orbits.class[c.nodes[0]];
            for &v in &c.nodes {
                assert_eq!(orbits.class[v], orbit);
            }
        }
    }

    #[test]
    fn surrounding_root_has_indegree_zero() {
        let g = families::cycle(5).unwrap();
        let bc = Bicolored::new(g, &[0]).unwrap();
        let s = surrounding(&bc, 2);
        assert_eq!(s.in_degree(2), 0);
        for v in 0..5 {
            if v != 2 {
                assert!(s.in_degree(v) > 0, "only the root has in-degree 0");
            }
        }
    }

    #[test]
    fn equidistant_arcs_are_bidirectional() {
        // In C4 from node 0, nodes 1 and 3 are both at distance 1 and the
        // node 2 is at distance 2; the edge {1,2} gets arc 1→2 only.
        let g = families::cycle(4).unwrap();
        let bc = Bicolored::new(g, &[]).unwrap();
        let s = surrounding(&bc, 0);
        assert!(s.arcs().contains(&Arc {
            from: 1,
            to: 2,
            color: 0
        }));
        assert!(!s.arcs().contains(&Arc {
            from: 2,
            to: 1,
            color: 0
        }));
    }

    #[test]
    fn classes_match_orbits_on_cycle() {
        let g = families::cycle(6).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 3]).unwrap());
    }

    #[test]
    fn classes_match_orbits_on_hypercube() {
        let g = families::hypercube(3).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 7]).unwrap());
        let g = families::hypercube(3).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 1, 2]).unwrap());
    }

    #[test]
    fn classes_match_orbits_on_petersen() {
        let g = families::petersen().unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 1]).unwrap());
    }

    #[test]
    fn black_classes_come_first() {
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        let oc = ordered_classes(&bc);
        assert_eq!(oc.ell, 1);
        assert!(oc.classes[0].black);
        assert!(!oc.classes[1].black);
    }

    #[test]
    fn gcd_of_sizes_matches_paper_examples() {
        // C6 with antipodal agents: classes {0,3} and the 4 white nodes
        // {1,2,4,5} → gcd(2, 4) = 2 → election impossible.
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        assert_eq!(ordered_classes(&bc).gcd_of_sizes(), 2);

        // C5 with one agent: classes {0}, {1,4}, {2,3} → gcd 1.
        let g = families::cycle(5).unwrap();
        let bc = Bicolored::new(g, &[0]).unwrap();
        assert_eq!(ordered_classes(&bc).gcd_of_sizes(), 1);
    }

    #[test]
    fn petersen_two_agents_has_gcd_two() {
        // The Fig. 5 configuration: two adjacent home-bases on the
        // Petersen graph give classes of sizes 2, 4, 4 → gcd 2.
        let g = families::petersen().unwrap();
        let bc = Bicolored::new(g, &[0, 1]).unwrap();
        let oc = ordered_classes(&bc);
        let mut sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4, 4]);
        assert_eq!(oc.gcd_of_sizes(), 2);
    }

    #[test]
    fn class_of_is_consistent() {
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        let oc = ordered_classes(&bc);
        for v in 0..6 {
            let c = oc.class_of(v);
            assert!(oc.classes[c].nodes.contains(&v));
        }
    }

    #[test]
    fn incremental_path_matches_cold_on_large_cycle() {
        // n >= INCREMENTAL_MIN_N routes ordered_classes through the
        // hint chain; every class form must equal a fresh per-root cold
        // canonicalization.
        let g = families::cycle(34).unwrap();
        let bc = Bicolored::new(g, &[0, 17]).unwrap();
        assert!(bc.n() >= INCREMENTAL_MIN_N);
        let oc = ordered_classes(&bc);
        for c in &oc.classes {
            for &v in &c.nodes {
                assert_eq!(canonicalize(&surrounding(&bc, v)).form, c.form);
            }
        }
        assert_eq!(oc.gcd_of_sizes(), 2, "antipodal homes stay unsolvable");
    }

    #[test]
    fn orbit_reuse_matches_per_node_classes() {
        // The true orbits (from the instance canonicalization) and the
        // all-singleton partition both reproduce the per-node result
        // byte for byte, including on the hint path (cycle:34).
        let instances = [
            (families::cycle(34).unwrap(), vec![0usize, 17]),
            (families::cycle(9).unwrap(), vec![0, 1, 3]),
            (families::hypercube(3).unwrap(), vec![0, 7]),
            (families::petersen().unwrap(), vec![0, 1]),
        ];
        for (g, homes) in instances {
            let bc = Bicolored::new(g, &homes).unwrap();
            let eager = format!("{:?}", ordered_classes(&bc));
            let orbits = canonicalize(&ColoredDigraph::from_bicolored(&bc)).orbits;
            assert_eq!(
                format!("{:?}", ordered_classes_with_orbits(&bc, &orbits)),
                eager
            );
            let singletons: Vec<u32> = (0..bc.n() as u32).collect();
            assert_eq!(
                format!("{:?}", ordered_classes_with_orbits(&bc, &singletons)),
                eager
            );
        }
    }

    #[test]
    fn gcd_helper() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 999), 1);
    }
}
