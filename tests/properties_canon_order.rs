//! Property tests of the `≺` order contract (Lemma 3.1).
//!
//! The deterministic total order over instances is lexicographic
//! comparison of canonical words, so ELECT's correctness leans on three
//! properties of [`CanonicalForm`]:
//!
//! * **invariance** — `canon(g) == canon(σ(g))` for every node
//!   relabeling `σ` and every port relabeling (the word is a function
//!   of the isomorphism class alone);
//! * **total order** — comparison is total, antisymmetric and
//!   transitive, and equal words (at equal size) certify isomorphy;
//! * **sound automorphisms** — every generator the search harvests, on
//!   every path (frozen oracle, pruned kernel), is an actual
//!   automorphism and preserves the orbit partition.

use std::cmp::Ordering;

use proptest::prelude::*;
use qelect_graph::canon::{self, are_isomorphic, CanonResult};
use qelect_graph::{families, labeling, oracle, Bicolored, ColoredDigraph};

/// A random connected instance (same idiom as `properties_cross_crate`).
fn instance_strategy() -> impl Strategy<Value = Bicolored> {
    (4usize..10, 0.05f64..0.5, any::<u64>(), 1usize..4).prop_map(|(n, p, seed, r)| {
        let g = families::random_connected(n, p, seed).unwrap();
        let r = r.min(n);
        // Spread home-bases deterministically from the seed.
        let mut homes: Vec<usize> = Vec::new();
        let mut x = seed;
        while homes.len() < r {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as usize % n;
            if !homes.contains(&v) {
                homes.push(v);
            }
        }
        Bicolored::new(g, &homes).unwrap()
    })
}

/// A seed-derived permutation of `0..n` (Fisher–Yates over an LCG).
fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (x >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Every generator must be an automorphism and preserve the orbit
/// partition — on whichever search path produced `res`.
fn assert_sound_generators(
    label: &str,
    d: &ColoredDigraph,
    res: &CanonResult,
) -> Result<(), TestCaseError> {
    for g in &res.generators {
        prop_assert!(
            d.is_automorphism(g),
            "{}: harvested generator {:?} is not an automorphism",
            label,
            g
        );
        for (v, &gv) in g.iter().enumerate() {
            prop_assert_eq!(
                res.orbits[gv],
                res.orbits[v],
                "{}: generator moves {} out of its orbit",
                label,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `canon(g) == canon(σ(g))` for a random node permutation `σ`, on
    /// both the plain bi-colored and the port-colored digraph.
    #[test]
    fn word_is_invariant_under_node_relabeling(
        bc in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let d = ColoredDigraph::from_bicolored(&bc);
        let perm = random_perm(d.n(), seed);
        prop_assert_eq!(
            canon::canonicalize(&d.relabel(&perm)).form,
            canon::canonicalize(&d).form
        );
        let pd = ColoredDigraph::from_port_labeled(&bc);
        prop_assert_eq!(
            canon::canonicalize(&pd.relabel(&perm)).form,
            canon::canonicalize(&pd).form
        );
    }

    /// Port relabelings never enter the plain bi-colored digraph, so the
    /// word — and with it every class-cache key — is unchanged.
    #[test]
    fn word_is_invariant_under_port_relabeling(
        bc in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let scrambled = labeling::scramble(bc.graph(), seed).unwrap();
        let sc = Bicolored::new(scrambled, bc.homebases()).unwrap();
        prop_assert_eq!(
            canon::canonicalize(&ColoredDigraph::from_bicolored(&sc)).form,
            canon::canonicalize(&ColoredDigraph::from_bicolored(&bc)).form
        );
    }

    /// `≺` is total and antisymmetric, and equal words at equal size
    /// certify isomorphy.
    #[test]
    fn order_is_total_and_antisymmetric(
        a in instance_strategy(),
        b in instance_strategy(),
    ) {
        let da = ColoredDigraph::from_bicolored(&a);
        let db = ColoredDigraph::from_bicolored(&b);
        let fa = canon::canonicalize(&da).form;
        let fb = canon::canonicalize(&db).form;
        prop_assert_eq!(fa.cmp(&fb), fb.cmp(&fa).reverse(), "antisymmetry");
        prop_assert_eq!(fa == fb, fa.cmp(&fb) == Ordering::Equal, "totality");
        if fa == fb {
            prop_assert!(are_isomorphic(&da, &db), "equal words certify isomorphy");
        }
    }

    /// `≺` is transitive over random triples.
    #[test]
    fn order_is_transitive(
        a in instance_strategy(),
        b in instance_strategy(),
        c in instance_strategy(),
    ) {
        let fa = canon::canonicalize(&ColoredDigraph::from_bicolored(&a)).form;
        let fb = canon::canonicalize(&ColoredDigraph::from_bicolored(&b)).form;
        let fc = canon::canonicalize(&ColoredDigraph::from_bicolored(&c)).form;
        // Check x ≤ y ∧ y ≤ z ⇒ x ≤ z over all orderings of the triple.
        let forms = [&fa, &fb, &fc];
        for x in forms {
            for y in forms {
                for z in forms {
                    if x <= y && y <= z {
                        prop_assert!(x <= z, "transitivity");
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case runs two full searches.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Harvested generators are sound on every search path: the frozen
    /// oracle and the pruned kernel.
    #[test]
    fn generators_are_automorphisms_on_every_search_path(bc in instance_strategy()) {
        // The port-colored digraph has the richest arc coloring, hence
        // the most constrained (and most fragile) automorphism group.
        let d = ColoredDigraph::from_port_labeled(&bc);
        let pruned = canon::canonicalize(&d);
        let frozen = oracle::canonicalize(&d);
        for (label, res) in [("pruned kernel", &pruned), ("frozen oracle", &frozen)] {
            assert_sound_generators(label, &d, res)?;
        }
        prop_assert_eq!(&pruned.form, &frozen.form);
    }
}
