//! A tour of the effectual protocol on Cayley graphs (Theorem 4.1).
//!
//! ```sh
//! cargo run --example cayley_tour
//! ```
//!
//! For a series of Cayley instances the example shows the full pipeline:
//! Cayley recognition (regular subgroups of `Aut(G)`), translation
//! classes and their gcd, the executable marking construction of the
//! impossibility proof, and the protocol's verdict.

use qelect::prelude::*;
use qelect_graph::{families, Bicolored};
use qelect_group::marking::marking_schedule;
use qelect_group::recognition::{regular_subgroups, RecognitionBudget};
use qelect_group::CayleyGraph;

fn main() {
    let cases: Vec<(&str, Bicolored)> = vec![
        (
            "C6, antipodal pair",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap(),
        ),
        (
            "C6, symmetry-broken trio",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap(),
        ),
        (
            "Q3 hypercube, antipodal pair",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
        ),
        (
            "C4, adjacent pair (the subtle corner)",
            Bicolored::new(families::cycle(4).unwrap(), &[0, 1]).unwrap(),
        ),
    ];

    for (label, bc) in cases {
        println!("== {label} ==");
        let rec = regular_subgroups(bc.graph(), RecognitionBudget::default());
        println!(
            "   |Aut(G)| = {:?}, regular subgroups found: {}",
            rec.automorphism_count,
            rec.subgroups.len()
        );
        for (i, sub) in rec.subgroups.iter().enumerate() {
            println!(
                "   subgroup #{i}: translation-gcd for this placement = {}",
                sub.translation_gcd(bc.homebases())
            );
        }
        let report = qelect_agentsim::run(&bc, &RunConfig::default(), &TranslationElectProtocol)
            .expect("run failed")
            .report;
        println!("   protocol verdict: {:?}\n", report.outcomes[0]);
    }

    // The marking construction, executed on a constructed Cayley graph.
    println!("== Theorem 4.1 marking construction, C8 with antipodal agents ==");
    let cg = CayleyGraph::cycle(8).unwrap();
    let trace = marking_schedule(&cg, &[0, 4]);
    println!("   translation classes: {:?}", trace.initial_classes);
    println!("   invariant gcd d = {}", trace.d);
    println!(
        "   final pseudo-label classes (all of size d): {:?}",
        trace.final_classes
    );
    println!("   ⇒ the natural generator labeling is a Theorem 2.1 witness: election impossible.");
}
