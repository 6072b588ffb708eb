//! The schedule-exploration harness against the acceptance instances:
//! bounded exploration must *verify* ELECT on solvable and unsolvable
//! instances, and an injected gcd fault must be caught, shrunk, and
//! replayed to the same failure.

use qelect::elect::ElectFault;
use qelect::prelude::*;
use qelect::replay::{elect_schedule_fails, explore_elect_with_fault};
use qelect::solvability::{elect_succeeds, gcd_of_class_sizes};
use qelect_agentsim::explore::shrink_trace;
// The exploration drivers take the engine-level config slice.
use qelect_agentsim::gated::RunConfig;
use qelect_agentsim::sched::Policy;
use qelect_graph::{families, Bicolored};

fn explore_cfg(max_schedules: usize, swarm_runs: usize) -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 2,
        max_schedules,
        swarm_runs,
        swarm_seed: 0x51AB,
        ..ExploreConfig::default()
    }
}

#[test]
fn exploration_verifies_elect_on_cycle9_with_five_agents() {
    // The README quick-start instance, now checked under an adversarial
    // schedule sweep instead of a single run: classes have gcd 1, so
    // every explored schedule must produce a clean election.
    let bc = Bicolored::new(families::cycle(9).unwrap(), &[0, 1, 2, 3, 4]).unwrap();
    assert!(elect_succeeds(&bc));
    let cfg = RunConfig {
        seed: 1,
        ..RunConfig::default()
    };
    let report = explore_elect(&bc, cfg, &explore_cfg(96, 16));
    assert!(
        report.passed(),
        "violation: {:?}",
        report.counterexample().map(|c| &c.violation)
    );
    assert!(
        report.schedules_explored >= 96 + 16,
        "DFS budget plus the swarm fallback"
    );
    assert!(
        report.swarm_used,
        "the bounded tree is too large to exhaust here"
    );
    assert!(report.max_ticks > 0);
}

#[test]
fn exploration_never_elects_on_an_unsolvable_instance() {
    // Antipodal pair on C6: both classes have size 2, gcd 2 — Theorem
    // 3.1 says ELECT must refuse under *every* schedule. A single
    // leader under any explored interleaving would be a false election.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    assert_eq!(gcd_of_class_sizes(&bc), 2);
    assert!(!elect_succeeds(&bc));
    let cfg = RunConfig {
        seed: 2,
        ..RunConfig::default()
    };
    let report = explore_elect(&bc, cfg, &explore_cfg(96, 16));
    assert!(
        report.passed(),
        "false election under some schedule: {:?}",
        report.counterexample().map(|c| &c.violation)
    );
    assert!(report.schedules_explored >= 96);
}

#[test]
fn single_agent_exploration_completes_its_bounded_tree() {
    // With one agent there is exactly one cooperative schedule, so the
    // DFS exhausts the bounded tree — exploration is then a proof, not
    // a sample, and the report says so.
    let bc = Bicolored::new(families::cycle(4).unwrap(), &[0]).unwrap();
    let cfg = RunConfig {
        seed: 3,
        ..RunConfig::default()
    };
    let report = explore_elect(&bc, cfg, &explore_cfg(50, 8));
    assert!(report.passed());
    assert!(report.complete, "one agent ⇒ one schedule ⇒ exhaustive");
    assert!(
        !report.swarm_used,
        "no fallback needed when the tree completes"
    );
}

#[test]
fn injected_gcd_fault_is_caught_shrunk_and_replayed() {
    // The harness's own acceptance test: break the gcd verdict behind
    // the test-only fault flag and demand that exploration (a) finds a
    // violating schedule, (b) shrinks it, and (c) the shrunk trace
    // still replays to the same failure — while the healthy protocol
    // passes on that very schedule.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    assert!(
        elect_succeeds(&bc),
        "the fault must be the only source of failure"
    );
    let fault = ElectFault {
        invert_gcd_check: true,
    };
    let cfg = RunConfig {
        seed: 7,
        ..RunConfig::default()
    };

    let report = explore_elect_with_fault(&bc, cfg, &explore_cfg(64, 8), fault);
    let ce = report
        .counterexamples
        .into_iter()
        .next()
        .expect("the injected fault must surface");
    assert!(!ce.schedule.is_empty());

    let trace = ce.to_trace(cfg.seed, bc.n(), "injected invert_gcd_check fault");
    let shrunk = shrink_trace(&trace, |s| elect_schedule_fails(&bc, cfg, fault, s));
    assert!(shrunk.schedule.len() <= trace.schedule.len());
    assert!(!shrunk.schedule.is_empty());

    // (c) the shrunk witness reproduces the failure under lenient replay…
    assert!(
        elect_schedule_fails(&bc, cfg, fault, &shrunk.schedule),
        "shrunk schedule no longer reproduces the injected failure"
    );
    // …and the failure is attributable to the fault, not the schedule.
    assert!(
        !elect_schedule_fails(&bc, cfg, ElectFault::default(), &shrunk.schedule),
        "the healthy protocol must pass on the shrunk schedule"
    );
}

#[test]
fn fault_also_surfaces_as_a_false_election_on_an_unsolvable_instance() {
    // The dual direction: inverting the gcd check on a gcd-2 instance
    // makes ELECT *elect* where the oracle forbids it. Exploration must
    // flag that too.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    assert!(!elect_succeeds(&bc));
    let fault = ElectFault {
        invert_gcd_check: true,
    };
    let cfg = RunConfig {
        seed: 11,
        ..RunConfig::default()
    };
    let report = explore_elect_with_fault(&bc, cfg, &explore_cfg(64, 8), fault);
    assert!(
        report.counterexample().is_some(),
        "false election went unnoticed"
    );
}

#[test]
fn recorded_exploration_counterexample_replays_deterministically() {
    // A counterexample's trace is a complete witness: strict replay of
    // its schedule under the same seed re-derives the same outcomes.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let fault = ElectFault {
        invert_gcd_check: true,
    };
    let cfg = RunConfig {
        seed: 13,
        ..RunConfig::default()
    };
    let report = explore_elect_with_fault(&bc, cfg, &explore_cfg(32, 4), fault);
    let ce = report
        .counterexamples
        .into_iter()
        .next()
        .expect("fault surfaces");

    let replay = qelect_agentsim::RunConfig::new(cfg.seed)
        .engine(Engine::Gated)
        .record_trace(true)
        .replay(ce.schedule.clone(), true);
    let replayed = qelect_agentsim::run(&bc, &replay, &ElectProtocol { fault })
        .expect("replay run failed")
        .report;
    assert_eq!(replayed.outcomes, ce.report.outcomes);
    assert_eq!(replayed.leader, ce.report.leader);
    assert_eq!(replayed.trace, ce.schedule);
}

#[test]
fn lockstep_policy_is_one_of_the_explored_schedules() {
    // Sanity link between the policy world and the exploration world:
    // the round-robin grant sequence (what Lockstep degenerates to when
    // every agent is always ready) is exactly the branch-0 …-0 DFS path
    // with one preemption per tick, so exploring with a generous bound
    // covers it. Here we just confirm a lockstep run's schedule is a
    // valid replayable witness.
    let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
    let cfg = RunConfig {
        seed: 5,
        policy: Policy::Lockstep,
        record_trace: true,
        ..RunConfig::default()
    };
    let (report, trace) = run_elect_recorded(&bc, cfg, "lockstep witness");
    assert!(report.clean_election());
    let replayed = replay_elect(&bc, &trace, true);
    assert_eq!(replayed.outcomes, report.outcomes);
}
