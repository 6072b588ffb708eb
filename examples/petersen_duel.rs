//! The Petersen duel (Fig. 5): where ELECT gives up but a bespoke
//! protocol still elects.
//!
//! ```sh
//! cargo run --example petersen_duel
//! ```

use qelect::petersen::PetersenProtocol;
use qelect::prelude::*;
use qelect_graph::surrounding::ordered_classes;
use qelect_graph::{families, Bicolored};

fn main() {
    let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
    println!("two agents on adjacent nodes of the Petersen graph\n");

    let oc = ordered_classes(&bc);
    let sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
    println!("equivalence classes (black first): sizes {sizes:?}");
    println!(
        "gcd = {} → protocol ELECT cannot reduce below 2 agents\n",
        oc.gcd_of_sizes()
    );

    let elect_report = run_election(&bc, &RunConfig::default())
        .expect("election run failed")
        .report;
    println!("ELECT outcome: {:?}", elect_report.outcomes);

    println!("\nthe bespoke five-step protocol (mark a neighbor, find the");
    println!("other's mark, race for the unique common neighbor):");
    for seed in 0..3 {
        let report = qelect_agentsim::run(&bc, &RunConfig::new(seed), &PetersenProtocol)
            .expect("petersen run failed")
            .report;
        println!(
            "  seed {seed}: leader = agent {:?} ({} moves)",
            report.leader.expect("the duel always crowns someone"),
            report.metrics.total_moves()
        );
    }
    println!("\nELECT is therefore not effectual on arbitrary graphs (Fig. 5).");
}
