//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qelect_graph::cache::{
    canonicalize_cached, encode_bicolored, encode_bicolored_permuted, ordered_classes_cached,
    ShardedCache,
};
use qelect_graph::canon::{are_isomorphic, canonicalize, CanonicalForm};
use qelect_graph::digraph::Arc;
use qelect_graph::graph::{GraphBuilder, Port};
use qelect_graph::refine::refine_to_stable;
use qelect_graph::surrounding::{
    gcd, ordered_classes, ordered_classes_with_orbits, surrounding, OrderedClasses,
};
use qelect_graph::view::{view_partition, views_equal_by_trees};
use qelect_graph::{families, labeling, oracle, Bicolored, ColoredDigraph};

/// A random connected bicolored instance.
fn instance() -> impl Strategy<Value = Bicolored> {
    (3usize..9, 0.1f64..0.6, any::<u64>(), 0usize..3).prop_map(|(n, p, seed, r)| {
        let g = families::random_connected(n, p, seed).unwrap();
        let homes: Vec<usize> = (0..r.min(n)).collect();
        Bicolored::new(g, &homes).unwrap()
    })
}

/// A small instance that is often symmetric (so its automorphism orbits
/// are coarser than singletons): cycles, circulants, hypercubes, the
/// Petersen graph, complete and random graphs, with 0–3 agents placed by
/// a random permutation.
fn symmetric_instance() -> impl Strategy<Value = Bicolored> {
    (0usize..6, 3usize..13, any::<u64>(), 0usize..4).prop_map(|(family, n, seed, r)| {
        let g = match family {
            0 => families::cycle(n),
            1 => families::circulant(n.max(5), &[1, 2]),
            2 => families::hypercube(2 + n % 2),
            3 => families::petersen(),
            4 => families::complete(n.min(6)),
            _ => families::random_connected(n, 0.4, seed),
        }
        .unwrap();
        let homes: Vec<usize> = perm_of(g.n(), seed).into_iter().take(r).collect();
        Bicolored::new(g, &homes).unwrap()
    })
}

/// A random small colored digraph.
fn digraph() -> impl Strategy<Value = ColoredDigraph> {
    (2usize..7, any::<u64>()).prop_map(|(n, seed)| {
        let mut colors = Vec::with_capacity(n);
        let mut arcs = Vec::new();
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            colors.push(next() % 3);
        }
        for u in 0..n {
            for v in 0..n {
                if u != v && next() % 3 == 0 {
                    arcs.push(Arc {
                        from: u as u32,
                        to: v as u32,
                        color: next() % 2,
                    });
                }
            }
        }
        ColoredDigraph::new(colors, arcs)
    })
}

/// Rebuild `bc` relabeled by `perm` (`old → new`) through the public
/// [`GraphBuilder`] API — the reference against which the arithmetic
/// permuted encoding of the cache layer is checked.
fn rebuild_relabeled(bc: &Bicolored, perm: &[usize]) -> Bicolored {
    let g = bc.graph();
    let mut b = GraphBuilder::new(g.n());
    for e in g.edges() {
        b.add_edge_with_ports(perm[e.u], perm[e.v], Port(e.pu.0), Port(e.pv.0))
            .unwrap();
    }
    let homes: Vec<usize> = bc.homebases().iter().map(|&v| perm[v]).collect();
    Bicolored::new(b.finish().unwrap(), &homes).unwrap()
}

/// Field-wise byte-identity of two [`OrderedClasses`] (the type does not
/// derive `PartialEq`; `CanonicalForm` does).
fn assert_classes_identical(a: &OrderedClasses, b: &OrderedClasses) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.ell, b.ell);
    prop_assert_eq!(a.classes.len(), b.classes.len());
    for (x, y) in a.classes.iter().zip(b.classes.iter()) {
        prop_assert_eq!(&x.nodes, &y.nodes);
        prop_assert_eq!(&x.form, &y.form);
        prop_assert_eq!(x.black, y.black);
    }
    Ok(())
}

/// A random permutation of 0..n derived from a seed.
fn perm_of(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.swap(i, (x % (i as u64 + 1)) as usize);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_form_invariant_under_relabeling(d in digraph(), seed in any::<u64>()) {
        let p = perm_of(d.n(), seed);
        let shuffled = d.relabel(&p);
        prop_assert_eq!(canonicalize(&d).form, canonicalize(&shuffled).form);
    }

    #[test]
    fn isomorphism_is_reflexive(d in digraph()) {
        prop_assert!(are_isomorphic(&d, &d));
    }

    #[test]
    fn harvested_generators_are_automorphisms(d in digraph()) {
        let result = canonicalize(&d);
        for g in &result.generators {
            prop_assert!(d.is_automorphism(g));
        }
    }

    #[test]
    fn orbits_are_fixed_by_generators(d in digraph()) {
        let result = canonicalize(&d);
        for g in &result.generators {
            for (v, &gv) in g.iter().enumerate() {
                prop_assert_eq!(result.orbits[v], result.orbits[gv]);
            }
        }
    }

    #[test]
    fn stable_partition_is_equitable(d in digraph()) {
        // Within a class, every node must have the same multiset of
        // (direction, arc color, neighbor class) — re-refining changes
        // nothing.
        let part = refine_to_stable(&d, None);
        let (again, changed) = qelect_graph::refine::refine_once(&d, &part);
        prop_assert!(!changed);
        prop_assert_eq!(again.k, part.k);
    }

    #[test]
    fn view_refinement_matches_tree_oracle(bc in instance()) {
        let part = view_partition(&bc);
        for x in 0..bc.n() {
            for y in (x + 1)..bc.n() {
                prop_assert_eq!(
                    part.class[x] == part.class[y],
                    views_equal_by_trees(&bc, x, y),
                    "nodes {} and {}", x, y
                );
            }
        }
    }

    #[test]
    fn surrounding_has_unique_source(bc in instance(), u in 0usize..8) {
        let u = u % bc.n();
        let s = surrounding(&bc, u);
        let sources: Vec<usize> =
            (0..bc.n()).filter(|&v| s.in_degree(v) == 0).collect();
        prop_assert_eq!(sources, vec![u]);
    }

    #[test]
    fn scramble_preserves_structure(bc in instance(), seed in any::<u64>()) {
        let s = labeling::scramble(bc.graph(), seed).unwrap();
        prop_assert_eq!(s.n(), bc.n());
        prop_assert_eq!(s.m(), bc.graph().m());
        for v in 0..s.n() {
            prop_assert_eq!(s.degree(v), bc.graph().degree(v));
        }
        // Structure (not just counts): port-forgetting isomorphism.
        let a = ColoredDigraph::from_bicolored(&Bicolored::new(s, &[]).unwrap());
        let b = ColoredDigraph::from_bicolored(
            &Bicolored::new(bc.graph().clone(), &[]).unwrap(),
        );
        prop_assert!(are_isomorphic(&a, &b));
    }

    // ---- cache layer: the differential properties -------------------

    #[test]
    fn cached_canonicalize_is_byte_identical(d in digraph()) {
        let eager = canonicalize(&d);
        let cached = canonicalize_cached(&d);
        // CanonResult derives no PartialEq — compare every field.
        prop_assert_eq!(&cached.form, &eager.form);
        prop_assert_eq!(&cached.labeling, &eager.labeling);
        prop_assert_eq!(&cached.generators, &eager.generators);
        prop_assert_eq!(&cached.orbits, &eager.orbits);
        prop_assert_eq!(cached.orbit_count, eager.orbit_count);
    }

    #[test]
    fn cached_ordered_classes_are_byte_identical(bc in instance()) {
        // Twice through the cached path: the first call may populate the
        // global memo, the second must answer from it — both identical
        // to the eager computation (classes, membership, forms, ℓ).
        let eager = ordered_classes(&bc);
        assert_classes_identical(&ordered_classes_cached(&bc), &eager)?;
        assert_classes_identical(&ordered_classes_cached(&bc), &eager)?;
    }

    #[test]
    fn collision_fallback_preserves_byte_identity(a in instance(), b in instance()) {
        // Force every key onto one fingerprint: all entries share one
        // collision chain and lookups must fall back to full-key
        // comparison. Results must still be exact per instance.
        fn constant(_: &[u64]) -> u64 { 0 }
        let cache: ShardedCache<OrderedClasses> =
            ShardedCache::with_fingerprinter(2, 64, constant);
        for bc in [&a, &b, &a, &b] {
            let got = cache.get_or_insert_with(encode_bicolored(bc), || ordered_classes(bc));
            assert_classes_identical(&got, &ordered_classes(bc))?;
        }
        let s = cache.stats();
        prop_assert_eq!(s.lookups(), 4);
        prop_assert!(s.misses <= 2, "at most one entry per distinct instance");
        prop_assert!(s.hits >= 2, "the repeat lookups answer from the chain");
    }

    #[test]
    fn permuted_encoding_matches_rebuilt_instance(bc in instance(), seed in any::<u64>()) {
        // The arithmetic hit-path encoding must equal the encoding of
        // the actually-rebuilt relabeled instance, for any permutation.
        let perm = perm_of(bc.n(), seed);
        prop_assert_eq!(
            encode_bicolored_permuted(&bc, &perm),
            encode_bicolored(&rebuild_relabeled(&bc, &perm))
        );
    }

    #[test]
    fn orbit_reuse_is_byte_identical(
        bc in symmetric_instance(),
        port_seed in any::<u64>(),
        node_seed in any::<u64>(),
    ) {
        // The class-cache miss path canonicalizes one surrounding per
        // automorphism orbit. Under any port relabeling and node
        // relabeling, both the true orbit partition and the
        // all-singleton one must reproduce the per-node classes exactly.
        let ports = labeling::scramble(bc.graph(), port_seed).unwrap();
        let scrambled = Bicolored::new(ports, bc.homebases()).unwrap();
        let relabeled = rebuild_relabeled(&scrambled, &perm_of(bc.n(), node_seed));
        for inst in [&bc, &scrambled, &relabeled] {
            let eager = ordered_classes(inst);
            let orbits = canonicalize(&ColoredDigraph::from_bicolored(inst)).orbits;
            assert_classes_identical(&ordered_classes_with_orbits(inst, &orbits), &eager)?;
            let singletons: Vec<u32> = (0..inst.n() as u32).collect();
            assert_classes_identical(&ordered_classes_with_orbits(inst, &singletons), &eager)?;
            assert_classes_identical(&ordered_classes_cached(inst), &eager)?;
        }
    }

    #[test]
    fn distances_are_symmetric_metric(bc in instance()) {
        let g = bc.graph();
        for u in 0..g.n() {
            let du = g.distances_from(u);
            prop_assert_eq!(du[u], 0);
            for v in 0..g.n() {
                let dv = g.distances_from(v);
                prop_assert_eq!(du[v], dv[u], "symmetry");
                // Triangle inequality through any edge from v.
                for w in g.neighbors(v) {
                    prop_assert!(du[w] + 1 >= du[v]);
                }
            }
        }
    }
}

/// A serve-fresh-sized instance: `cycle:n` or `circulant:n:1,3` with
/// `n` in 32..=48 and 2–4 distinct home-bases.
fn serve_fresh_instance() -> impl Strategy<Value = Bicolored> {
    (any::<bool>(), 32usize..49, 2usize..5, any::<u64>()).prop_map(|(circ, n, r, seed)| {
        let g = if circ {
            families::circulant(n, &[1, 3]).unwrap()
        } else {
            families::cycle(n).unwrap()
        };
        Bicolored::new(g, &perm_of(n, seed)[..r]).unwrap()
    })
}

proptest! {
    // Every case runs the frozen oracle on all n surroundings.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// COMPUTE & ORDER as `qelectd` runs it (cached, one surrounding per
    /// orbit) agrees with the frozen oracle on every node: each class
    /// form is the oracle form of each member's surrounding, and the gcd
    /// equals the gcd of the classes the oracle forms induce.
    #[test]
    fn cached_classes_match_the_oracle_at_serve_fresh_sizes(bc in serve_fresh_instance()) {
        let forms: Vec<CanonicalForm> = (0..bc.n())
            .map(|v| oracle::canonicalize(&surrounding(&bc, v)).form)
            .collect();
        let oc = ordered_classes_cached(&bc);
        for class in &oc.classes {
            for &v in &class.nodes {
                prop_assert_eq!(&forms[v], &class.form, "node {}", v);
            }
        }
        let mut sizes: Vec<(&CanonicalForm, usize)> = Vec::new();
        for form in &forms {
            match sizes.iter_mut().find(|(f, _)| *f == form) {
                Some((_, size)) => *size += 1,
                None => sizes.push((form, 1)),
            }
        }
        let oracle_gcd = sizes.iter().map(|&(_, size)| size).fold(0, gcd);
        prop_assert_eq!(oc.gcd_of_sizes(), oracle_gcd);
    }
}
