//! Canonical labeling of colored digraphs and the total order `≺`.
//!
//! Lemma 3.1 of the paper needs a deterministic algorithm producing a
//! total order on (isomorphism classes of) bi-colored digraphs. The
//! paper's definition — the minimum adjacency-matrix word over all `n!`
//! permutations — is exact but factorial. We compute a *different but
//! equally valid* canonical form (two digraphs get the same form iff they
//! are isomorphic, and forms are totally ordered — all Lemma 3.1 needs)
//! with an individualization-refinement search in the style of McKay's
//! nauty:
//!
//! 1. refine the current partition to its coarsest equitable refinement;
//! 2. if discrete, the partition is a candidate labeling — emit its word;
//! 3. otherwise individualize each vertex of the first smallest
//!    non-singleton cell in turn (pruned by the orbits of automorphisms
//!    already discovered that fix the individualized prefix pointwise)
//!    and recurse.
//!
//! The canonical form is the minimum word over all emitted candidates; two
//! digraphs are isomorphic iff their canonical forms are equal, and the
//! lexicographic order on canonical forms is the total order `≺`. Leaves
//! that produce the same word as the first leaf yield automorphisms; the
//! set of harvested generators generates the full automorphism group (the
//! classical IR argument: every automorphism either is emitted or maps the
//! explored subtree onto a pruned one via an emitted generator).
//!
//! Exactness is cross-checked in the test-suite against a brute-force
//! permutation search on small digraphs.

use crate::digraph::ColoredDigraph;
use crate::refine::{refine_individualized, refine_to_stable, Partition};

/// Union-find over node ids, used for orbit bookkeeping.
#[derive(Debug, Clone)]
pub struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `v`'s set (path-halving).
    pub fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Merge the sets of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }

    /// Normalized set labels: `0..k` in order of first appearance by node id.
    pub fn labels(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        let mut label = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut out = Vec::with_capacity(n);
        for v in 0..n {
            let r = self.find(v);
            if label[r] == u32::MAX {
                label[r] = next;
                next += 1;
            }
            out.push(label[r]);
        }
        out
    }
}

/// The canonical form: a flat `u64` word. Lexicographic comparison of
/// canonical forms is the deterministic total order `≺` of Lemma 3.1
/// (digraphs of different size are separated by the leading length
/// fields).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalForm(pub Vec<u64>);

/// Result of canonicalization: the form, one canonical labeling achieving
/// it, automorphism generators, and the orbit partition.
#[derive(Debug, Clone)]
pub struct CanonResult {
    /// The canonical form (isomorphism invariant).
    pub form: CanonicalForm,
    /// A labeling `old → new` such that relabeling by it yields the form.
    pub labeling: Vec<usize>,
    /// Generators of the automorphism group (maps `old → old`).
    pub generators: Vec<Vec<usize>>,
    /// Orbit index per node, normalized to `0..k`.
    pub orbits: Vec<u32>,
    /// Number of orbits.
    pub orbit_count: usize,
    /// Number of leaves the search visited (diagnostic).
    pub leaves_visited: usize,
    /// Number of subtrees cut by the quotient-word lower bound
    /// (diagnostic; always 0 for the frozen oracle and for capped
    /// searches, where pruning is disabled to keep capped results
    /// byte-identical to the oracle's).
    pub pruned_branches: usize,
}

/// Serialize the digraph under the labeling `perm: old → new`.
fn word_of(d: &ColoredDigraph, perm: &[usize]) -> Vec<u64> {
    let n = d.n();
    let mut word = Vec::with_capacity(2 + n + 3 * d.arc_count());
    word.push(n as u64);
    word.push(d.arc_count() as u64);
    // Node colors in canonical position order.
    let mut colors = vec![0u64; n];
    for v in 0..n {
        colors[perm[v]] = d.node_color(v);
    }
    word.extend_from_slice(&colors);
    // Relabeled arcs, sorted.
    let mut arcs: Vec<(u64, u64, u64)> = d
        .arcs()
        .iter()
        .map(|a| {
            (
                perm[a.from as usize] as u64,
                perm[a.to as usize] as u64,
                a.color,
            )
        })
        .collect();
    arcs.sort_unstable();
    for (f, t, c) in arcs {
        word.push(f);
        word.push(t);
        word.push(c);
    }
    word
}

/// The first smallest non-singleton cell, as a sorted list of nodes.
fn target_cell(part: &Partition) -> Option<Vec<usize>> {
    let cells = part.cells();
    let mut best: Option<&Vec<usize>> = None;
    for cell in &cells {
        if cell.len() > 1 {
            match best {
                None => best = Some(cell),
                Some(b) if cell.len() < b.len() => best = Some(cell),
                _ => {}
            }
        }
    }
    best.cloned()
}

struct Search<'d> {
    d: &'d ColoredDigraph,
    first: Option<(Vec<u64>, Vec<usize>)>,
    best: Option<(Vec<u64>, Vec<usize>)>,
    generators: Vec<Vec<usize>>,
    leaves: usize,
    /// Hard cap on leaves, to keep pathological inputs from hanging; the
    /// cap is far above anything the experiments reach and is reported.
    leaf_cap: usize,
    capped: bool,
    /// Quotient-word lower-bound pruning. Enabled only for uncapped
    /// searches: under a finite leaf cap, pruning would change *which*
    /// leaves are reached before the cap fires, so capped searches run
    /// the exact oracle algorithm.
    prune: bool,
    pruned: usize,
}

impl<'d> Search<'d> {
    fn leaf(&mut self, part: &Partition) {
        self.leaves += 1;
        let perm: Vec<usize> = part.class.iter().map(|&c| c as usize).collect();
        let word = word_of(self.d, &perm);
        if let Some((fw, fp)) = &self.first {
            if word == *fw {
                self.harvest(fp.clone(), &perm);
            }
        }
        match &self.best {
            None => {
                self.first = Some((word.clone(), perm.clone()));
                self.best = Some((word, perm));
            }
            Some((bw, bp)) => {
                if word < *bw {
                    self.best = Some((word, perm));
                } else if word == *bw {
                    let bp = bp.clone();
                    self.harvest(bp, &perm);
                }
            }
        }
    }

    /// Two labelings with identical words compose into an automorphism:
    /// `a = p2^{-1} ∘ p1` maps old → old.
    fn harvest(&mut self, p1: Vec<usize>, p2: &[usize]) {
        let n = self.d.n();
        let mut inv2 = vec![0usize; n];
        for (v, &img) in p2.iter().enumerate() {
            inv2[img] = v;
        }
        let auto: Vec<usize> = (0..n).map(|v| inv2[p1[v]]).collect();
        if auto.iter().enumerate().all(|(v, &img)| v == img) {
            return; // identity
        }
        debug_assert!(self.d.is_automorphism(&auto));
        if !self.generators.contains(&auto) {
            self.generators.push(auto);
        }
    }

    /// Orbits of the subgroup generated by the discovered generators that
    /// fix `prefix` pointwise.
    fn prefix_orbits(&self, prefix: &[usize]) -> Dsu {
        let n = self.d.n();
        let mut dsu = Dsu::new(n);
        for g in &self.generators {
            if prefix.iter().all(|&v| g[v] == v) {
                for (v, &gv) in g.iter().enumerate() {
                    dsu.union(v, gv);
                }
            }
        }
        dsu
    }

    /// A lower bound on every leaf word emittable below the stable
    /// partition `part`, in the same `u64`-word format as [`word_of`].
    ///
    /// Every leaf below `part` places the nodes of cell `i` at positions
    /// `[start_i, start_i + |C_i|)` (the `(old class, signature)` sort
    /// key keeps subcells contiguous and in cell order), and refinement
    /// never mixes node colors inside a cell, so the color section is
    /// *exactly* the leaf's. Each leaf arc triple `(pos(from), pos(to),
    /// color)` dominates `(start(cell(from)), start(cell(to)), color)`
    /// componentwise, and the sorted-multiset/flattening steps preserve
    /// the domination lexicographically (DESIGN §13). Hence if this word
    /// already exceeds the first leaf's word, no leaf below can equal or
    /// beat `first` or `best`, and the subtree is invisible to the
    /// search result.
    fn quotient_lower_bound(&self, part: &Partition) -> Vec<u64> {
        let d = self.d;
        let n = d.n();
        let sizes = part.sizes();
        let mut start = vec![0u64; part.k];
        let mut acc = 0u64;
        for (c, &s) in sizes.iter().enumerate() {
            start[c] = acc;
            acc += s as u64;
        }
        let mut word = Vec::with_capacity(2 + n + 3 * d.arc_count());
        word.push(n as u64);
        word.push(d.arc_count() as u64);
        let mut colors = vec![0u64; n];
        let mut next = start.clone();
        for v in 0..n {
            let c = part.class[v] as usize;
            colors[next[c] as usize] = d.node_color(v);
            next[c] += 1;
        }
        word.extend_from_slice(&colors);
        let mut arcs: Vec<(u64, u64, u64)> = d
            .arcs()
            .iter()
            .map(|a| {
                (
                    start[part.class[a.from as usize] as usize],
                    start[part.class[a.to as usize] as usize],
                    a.color,
                )
            })
            .collect();
        arcs.sort_unstable();
        for (f, t, c) in arcs {
            word.push(f);
            word.push(t);
            word.push(c);
        }
        word
    }

    /// Recurse on a *stable* partition (the caller refines: the root via
    /// `refine_to_stable`, children via [`refine_individualized`]).
    fn recurse(&mut self, part: &Partition, prefix: &mut Vec<usize>) {
        if self.leaves >= self.leaf_cap {
            self.capped = true;
            return;
        }
        match target_cell(part) {
            None => self.leaf(part),
            Some(cell) => {
                if self.prune {
                    if let Some((fw, _)) = &self.first {
                        if self.quotient_lower_bound(part) > *fw {
                            self.pruned += 1;
                            return;
                        }
                    }
                }
                let mut tried: Vec<usize> = Vec::new();
                for &v in &cell {
                    // Orbit pruning: skip v if an already-tried vertex of
                    // this cell lies in the same orbit of the prefix
                    // stabilizer (the pruned subtree would replay an
                    // explored one through a known automorphism).
                    let mut dsu = self.prefix_orbits(prefix);
                    let rv = dsu.find(v);
                    if tried.iter().any(|&u| dsu.find(u) == rv) {
                        continue;
                    }
                    tried.push(v);
                    let child = refine_individualized(self.d, part, v);
                    prefix.push(v);
                    self.recurse(&child, prefix);
                    prefix.pop();
                    if self.leaves >= self.leaf_cap {
                        self.capped = true;
                        return;
                    }
                }
            }
        }
    }
}

/// Canonicalize a colored digraph: canonical form, canonical labeling,
/// automorphism generators, and orbits.
pub fn canonicalize(d: &ColoredDigraph) -> CanonResult {
    canonicalize_with_cap(d, usize::MAX)
}

/// [`canonicalize`] with an explicit leaf cap (diagnostic / defensive).
/// If the cap is hit the result is still a valid *labeling* but the form
/// may not be minimal and generators may be incomplete; `leaves_visited`
/// equals the cap in that case. Capped searches disable lower-bound
/// pruning so they stay byte-identical to the frozen oracle.
pub fn canonicalize_with_cap(d: &ColoredDigraph, leaf_cap: usize) -> CanonResult {
    let initial = Partition::from_keys(d.node_colors());
    let root = refine_to_stable(d, Some(initial));
    let mut search = Search {
        d,
        first: None,
        best: None,
        generators: Vec::new(),
        leaves: 0,
        leaf_cap,
        capped: false,
        prune: leaf_cap == usize::MAX,
        pruned: 0,
    };
    let mut prefix = Vec::new();
    search.recurse(&root, &mut prefix);
    let (word, labeling) = search.best.expect("at least one leaf");
    let mut dsu = Dsu::new(d.n());
    for g in &search.generators {
        for (v, &gv) in g.iter().enumerate() {
            dsu.union(v, gv);
        }
    }
    let orbits = dsu.labels();
    let orbit_count = orbits.iter().copied().max().map_or(0, |m| m as usize + 1);
    CanonResult {
        form: CanonicalForm(word),
        labeling,
        generators: search.generators,
        orbits,
        orbit_count,
        leaves_visited: search.leaves,
        pruned_branches: search.pruned,
    }
}

/// A cheap isomorphism invariant: the stable partition's per-cell
/// `(size, color)` profile plus the sorted quotient-arc multiset
/// `(class(from), class(to), color)`. The stable partition's numbering
/// is isomorphism-invariant (classes are renumbered by sorting
/// signatures), so isomorphic digraphs produce identical profiles and a
/// profile mismatch refutes isomorphism without running the IR search.
pub fn invariant_profile(d: &ColoredDigraph) -> Vec<u64> {
    let part = refine_to_stable(d, None);
    let sizes = part.sizes();
    let cells = part.cells();
    let mut out = Vec::with_capacity(2 + 2 * part.k + 3 * d.arc_count());
    out.push(d.n() as u64);
    out.push(part.k as u64);
    for (c, cell) in cells.iter().enumerate() {
        out.push(sizes[c] as u64);
        out.push(cell.first().map_or(0, |&v| d.node_color(v)));
    }
    let mut arcs: Vec<(u64, u64, u64)> = d
        .arcs()
        .iter()
        .map(|a| {
            (
                u64::from(part.class[a.from as usize]),
                u64::from(part.class[a.to as usize]),
                a.color,
            )
        })
        .collect();
    arcs.sort_unstable();
    for (f, t, c) in arcs {
        out.push(f);
        out.push(t);
        out.push(c);
    }
    out
}

/// Isomorphism test via canonical forms, with cheap refutations first:
/// size/arc-count mismatch, then the refinement-based
/// [`invariant_profile`], and only then the full IR search.
pub fn are_isomorphic(a: &ColoredDigraph, b: &ColoredDigraph) -> bool {
    if a.n() != b.n() || a.arc_count() != b.arc_count() {
        return false;
    }
    if invariant_profile(a) != invariant_profile(b) {
        return false;
    }
    canonicalize(a).form == canonicalize(b).form
}

/// Brute-force enumeration of all automorphisms (for cross-checking the
/// IR search in tests; factorial, small `n` only).
pub fn brute_force_automorphisms(d: &ColoredDigraph) -> Vec<Vec<usize>> {
    let n = d.n();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    // Heap's algorithm over all permutations.
    fn heaps(k: usize, perm: &mut Vec<usize>, d: &ColoredDigraph, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            if d.is_automorphism(perm) {
                out.push(perm.clone());
            }
            return;
        }
        for i in 0..k {
            heaps(k - 1, perm, d, out);
            if k.is_multiple_of(2) {
                perm.swap(i, k - 1);
            } else {
                perm.swap(0, k - 1);
            }
        }
    }
    if n == 0 {
        return vec![vec![]];
    }
    heaps(n, &mut perm, d, &mut out);
    out
}

/// Brute-force canonical word: minimum over all permutations (test oracle).
pub fn brute_force_canonical_form(d: &ColoredDigraph) -> CanonicalForm {
    let n = d.n();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best: Option<Vec<u64>> = None;
    fn heaps(k: usize, perm: &mut Vec<usize>, d: &ColoredDigraph, best: &mut Option<Vec<u64>>) {
        if k == 1 {
            let w = word_of(d, perm);
            match best {
                None => *best = Some(w),
                Some(b) => {
                    if w < *b {
                        *best = Some(w);
                    }
                }
            }
            return;
        }
        for i in 0..k {
            heaps(k - 1, perm, d, best);
            if k.is_multiple_of(2) {
                perm.swap(i, k - 1);
            } else {
                perm.swap(0, k - 1);
            }
        }
    }
    if n == 0 {
        return CanonicalForm(vec![0, 0]);
    }
    heaps(n, &mut perm, d, &mut best);
    CanonicalForm(best.unwrap())
}

/// Size of the automorphism group computed from generators by naive
/// closure (test/diagnostic aid; exponential memory in group order — use
/// only when the order is known to be modest).
pub fn group_order(n: usize, generators: &[Vec<usize>], cap: usize) -> Option<usize> {
    use std::collections::HashSet;
    let id: Vec<usize> = (0..n).collect();
    let mut elems: HashSet<Vec<usize>> = HashSet::new();
    elems.insert(id.clone());
    let mut frontier = vec![id];
    while let Some(e) = frontier.pop() {
        for g in generators {
            let composed: Vec<usize> = (0..n).map(|v| g[e[v]]).collect();
            if elems.insert(composed.clone()) {
                if elems.len() > cap {
                    return None;
                }
                frontier.push(composed);
            }
        }
    }
    Some(elems.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Arc;

    fn cycle_digraph(n: usize) -> ColoredDigraph {
        let mut arcs = Vec::new();
        for v in 0..n {
            let w = (v + 1) % n;
            arcs.push(Arc {
                from: v as u32,
                to: w as u32,
                color: 0,
            });
            arcs.push(Arc {
                from: w as u32,
                to: v as u32,
                color: 0,
            });
        }
        ColoredDigraph::new(vec![0; n], arcs)
    }

    #[test]
    fn cycle_has_single_orbit() {
        let r = canonicalize(&cycle_digraph(6));
        assert_eq!(r.orbit_count, 1);
    }

    #[test]
    fn cycle_group_order_is_dihedral() {
        let r = canonicalize(&cycle_digraph(5));
        // Aut(C5) = D5 of order 10.
        assert_eq!(group_order(5, &r.generators, 100), Some(10));
    }

    #[test]
    fn canonical_form_is_relabeling_invariant() {
        let d = cycle_digraph(7);
        let f1 = canonicalize(&d).form;
        let shuffled = d.relabel(&[3, 5, 0, 6, 2, 4, 1]);
        let f2 = canonicalize(&shuffled).form;
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_sizes_not_isomorphic() {
        assert!(!are_isomorphic(&cycle_digraph(5), &cycle_digraph(6)));
    }

    #[test]
    fn node_colors_respected() {
        let mut c1 = cycle_digraph(4);
        let f_plain = canonicalize(&c1).form;
        c1 = ColoredDigraph::new(vec![1, 0, 0, 0], c1.arcs().to_vec());
        let f_marked = canonicalize(&c1).form;
        assert_ne!(f_plain, f_marked);
        // One marked node on a 4-cycle: orbits {0}, {1,3}, {2}.
        let r = canonicalize(&c1);
        assert_eq!(r.orbit_count, 3);
    }

    #[test]
    fn matches_brute_force_on_small_digraphs() {
        // A few irregular digraphs with colors.
        let cases = vec![
            ColoredDigraph::new(
                vec![0, 0, 0, 0],
                vec![
                    Arc {
                        from: 0,
                        to: 1,
                        color: 0,
                    },
                    Arc {
                        from: 1,
                        to: 2,
                        color: 0,
                    },
                    Arc {
                        from: 2,
                        to: 3,
                        color: 0,
                    },
                    Arc {
                        from: 3,
                        to: 0,
                        color: 0,
                    },
                ],
            ),
            ColoredDigraph::new(
                vec![0, 1, 0, 1, 0],
                vec![
                    Arc {
                        from: 0,
                        to: 1,
                        color: 2,
                    },
                    Arc {
                        from: 1,
                        to: 0,
                        color: 3,
                    },
                    Arc {
                        from: 1,
                        to: 2,
                        color: 2,
                    },
                    Arc {
                        from: 2,
                        to: 3,
                        color: 2,
                    },
                    Arc {
                        from: 3,
                        to: 4,
                        color: 2,
                    },
                    Arc {
                        from: 4,
                        to: 0,
                        color: 2,
                    },
                ],
            ),
            cycle_digraph(5),
        ];
        for d in cases {
            let smart = canonicalize(&d);
            // The IR form and the brute-force min-word are *different*
            // canonical forms; what must agree is the induced isomorphism
            // relation. Check against shuffles:
            let perms = [vec![2, 0, 3, 1, 4], vec![1, 3, 0, 2, 4]];
            for p in &perms {
                let p = &p[..d.n()];
                // Only use valid permutations of the right size.
                let mut sorted = p.to_vec();
                sorted.sort_unstable();
                if sorted != (0..d.n()).collect::<Vec<_>>() {
                    continue;
                }
                let shuffled = d.relabel(p);
                assert_eq!(smart.form, canonicalize(&shuffled).form);
                assert_eq!(
                    brute_force_canonical_form(&d),
                    brute_force_canonical_form(&shuffled),
                    "brute-force oracle must agree on isomorphy"
                );
            }
            let brute_autos = brute_force_automorphisms(&d);
            let order = group_order(d.n(), &smart.generators, 10_000).unwrap();
            assert_eq!(order, brute_autos.len(), "group order disagrees");
        }
    }

    #[test]
    fn complete_graph_fully_symmetric() {
        let n = 6;
        let mut arcs = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    arcs.push(Arc {
                        from: u as u32,
                        to: v as u32,
                        color: 0,
                    });
                }
            }
        }
        let d = ColoredDigraph::new(vec![0; n], arcs);
        let r = canonicalize(&d);
        assert_eq!(r.orbit_count, 1);
        assert_eq!(group_order(n, &r.generators, 100_000), Some(720));
    }

    #[test]
    fn leaf_cap_reported() {
        let d = cycle_digraph(8);
        let r = canonicalize_with_cap(&d, 1);
        assert_eq!(r.leaves_visited, 1);
        // Capped searches never prune (byte-compat with the oracle).
        assert_eq!(r.pruned_branches, 0);
    }

    #[test]
    fn pruned_search_matches_oracle_end_to_end() {
        let mut cases = vec![cycle_digraph(6), cycle_digraph(9)];
        // Marked cycles (asymmetric colorings exercise the bound).
        let mut colors = vec![0u64; 10];
        colors[0] = 1;
        colors[3] = 1;
        cases.push(ColoredDigraph::new(
            colors,
            cycle_digraph(10).arcs().to_vec(),
        ));
        for d in cases {
            let fast = canonicalize(&d);
            let slow = crate::oracle::canonicalize(&d);
            assert_eq!(fast.form, slow.form);
            assert_eq!(fast.labeling, slow.labeling);
            assert_eq!(fast.generators, slow.generators);
            assert_eq!(fast.orbits, slow.orbits);
            assert_eq!(fast.orbit_count, slow.orbit_count);
            // Pruning may only *remove* visited leaves, never add.
            assert!(fast.leaves_visited <= slow.leaves_visited);
        }
    }

    #[test]
    fn capped_search_is_byte_identical_to_capped_oracle() {
        let d = cycle_digraph(8);
        for cap in [1, 2, 5, 16] {
            let fast = canonicalize_with_cap(&d, cap);
            let slow = crate::oracle::canonicalize_with_cap(&d, cap);
            assert_eq!(fast.form, slow.form, "cap={cap}");
            assert_eq!(fast.leaves_visited, slow.leaves_visited, "cap={cap}");
            assert_eq!(fast.generators, slow.generators, "cap={cap}");
        }
    }

    #[test]
    fn invariant_profile_is_isomorphism_invariant() {
        let d = cycle_digraph(7);
        let shuffled = d.relabel(&[3, 5, 0, 6, 2, 4, 1]);
        assert_eq!(invariant_profile(&d), invariant_profile(&shuffled));
        // And separates colorings refinement can tell apart.
        let marked = ColoredDigraph::new(vec![1, 0, 0, 0, 0, 0, 0], d.arcs().to_vec());
        assert_ne!(invariant_profile(&d), invariant_profile(&marked));
        assert!(!are_isomorphic(&d, &marked));
        assert!(are_isomorphic(&d, &shuffled));
    }

    #[test]
    fn dsu_labels_normalized() {
        let mut dsu = Dsu::new(4);
        dsu.union(3, 1);
        let labels = dsu.labels();
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], labels[3]);
        assert_eq!(labels[2], 2);
    }

    #[test]
    fn canonical_order_is_total_and_consistent() {
        // The ≺ order distinguishes path vs cycle on 4 nodes.
        let cyc = cycle_digraph(4);
        let mut arcs = Vec::new();
        for v in 0..3u32 {
            arcs.push(Arc {
                from: v,
                to: v + 1,
                color: 0,
            });
            arcs.push(Arc {
                from: v + 1,
                to: v,
                color: 0,
            });
        }
        let path = ColoredDigraph::new(vec![0; 4], arcs);
        let fc = canonicalize(&cyc).form;
        let fp = canonicalize(&path).form;
        assert_ne!(fc, fp);
        // Consistency: comparing twice yields the same order.
        assert_eq!(fc.cmp(&fp), fc.cmp(&fp));
    }
}
