//! Rendezvous: election as a subroutine (the paper's footnote 2).
//!
//! ```sh
//! cargo run --example rendezvous
//! ```
//!
//! Four agents scattered over a 3×4 torus elect a leader with protocol
//! ELECT and then gather at the leader's home-base — the gathering
//! problem becomes "straightforward" once election is solved, and this
//! example measures exactly how much extra work the straightforward part
//! costs.

use qelect::gathering::GatherProtocol;
use qelect::prelude::*;
use qelect_graph::{families, Bicolored};

fn main() {
    let graph = families::torus(&[3, 4]).expect("valid torus");
    let instance = Bicolored::new(graph, &[0, 1, 5, 7]).expect("valid placement");
    println!(
        "instance: 3x4 torus, agents at {:?} (class gcd = {})",
        instance.homebases(),
        qelect::solvability::gcd_of_class_sizes(&instance)
    );

    // Election alone, for comparison.
    let elect_only = run_election(&instance, &RunConfig::default())
        .expect("election run failed")
        .report;
    assert!(elect_only.clean_election(), "{:?}", elect_only.outcomes);
    println!(
        "election alone: leader = agent {:?}, {} moves",
        elect_only.leader,
        elect_only.metrics.total_moves()
    );

    // Election + gathering.
    let report = qelect_agentsim::run(&instance, &RunConfig::default(), &GatherProtocol)
        .expect("gathering run failed")
        .report;
    assert!(report.clean_election(), "{:?}", report.outcomes);
    println!(
        "election + gathering: leader = agent {:?}, {} moves",
        report.leader,
        report.metrics.total_moves()
    );
    println!(
        "gathering premium: {} extra moves (≤ r·diameter = {})",
        report.metrics.total_moves() - elect_only.metrics.total_moves(),
        instance.r() * instance.graph().diameter()
    );

    // And on an unsolvable instance, gathering honestly fails too.
    let sym = Bicolored::new(families::torus(&[4, 4]).unwrap(), &[0, 10]).unwrap();
    let report = qelect_agentsim::run(&sym, &RunConfig::default(), &GatherProtocol)
        .expect("gathering run failed")
        .report;
    println!(
        "\n4x4 torus, antipodal pair → {:?} (no leader, no rendezvous point)",
        report.outcomes[0]
    );
}
