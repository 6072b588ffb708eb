//! **Figure 5** of the paper, regenerated: the Petersen graph with two
//! adjacent agents.
//!
//! * The equivalence classes have sizes {2, 4, 4} (black, gray, white),
//!   so `gcd = 2` and protocol ELECT reports failure;
//! * yet the paper's bespoke five-step protocol elects a leader under
//!   every scheduler and seed — ELECT is **not effectual** on arbitrary
//!   graphs;
//! * the graph is vertex-transitive but not Cayley (the recognition
//!   search over its 120 automorphisms finds no regular subgroup), which
//!   is why Theorem 4.1 does not apply.

use qelect::petersen::PetersenProtocol;
use qelect::prelude::*;
use qelect_agentsim::sched::Policy;
use qelect_bench::{header, row};
use qelect_graph::surrounding::ordered_classes;
use qelect_graph::{families, Bicolored};
use qelect_group::recognition::{regular_subgroups, RecognitionBudget};

fn main() {
    println!("# Figure 5 — the Petersen counterexample\n");
    let g = families::petersen().unwrap();
    let bc = Bicolored::new(g.clone(), &[0, 1]).unwrap();

    let oc = ordered_classes(&bc);
    let mut sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
    sizes.sort_unstable();
    println!(
        "equivalence class sizes: {sizes:?}  (gcd = {})",
        oc.gcd_of_sizes()
    );

    let rec = regular_subgroups(&g, RecognitionBudget::default());
    println!(
        "automorphisms: {:?}; Cayley: {:?} (vertex-transitive: {})",
        rec.automorphism_count,
        rec.is_cayley(),
        g.is_vertex_transitive()
    );

    println!("\n{}", header(&["protocol", "seed/policy", "outcome"]));
    for seed in 0..4u64 {
        let elect = run_election(&bc, &RunConfig::new(seed))
            .expect("ELECT run failed")
            .report;
        println!(
            "{}",
            row(&[
                "ELECT".into(),
                format!("seed {seed}"),
                if elect.unanimous_unsolvable() {
                    "reports failure (gcd = 2)".into()
                } else {
                    format!("{:?}", elect.outcomes)
                },
            ])
        );
    }
    for policy in [
        Policy::Random,
        Policy::RoundRobin,
        Policy::Lockstep,
        Policy::GreedyLowest,
    ] {
        let cfg = RunConfig::default().policy(policy);
        let bespoke = qelect_agentsim::run(&bc, &cfg, &PetersenProtocol)
            .expect("petersen run failed")
            .report;
        println!(
            "{}",
            row(&[
                "bespoke Fig. 5".into(),
                format!("{policy:?}"),
                if bespoke.clean_election() {
                    format!("elects agent {:?}", bespoke.leader)
                } else {
                    format!("{:?}", bespoke.outcomes)
                },
            ])
        );
    }
    println!(
        "\nELECT fails while a graph-specific protocol elects: ELECT is not effectual on \
         arbitrary graphs — exactly the paper's Fig. 5 conclusion."
    );
}
