//! The effectual election protocol for Cayley graphs (Theorem 4.1).
//!
//! After MAP-DRAWING, every agent tests whether its map is a Cayley graph
//! ("it is time-consuming, but decidable") by searching `Aut(G)` for
//! regular subgroups. Then:
//!
//! * if **any** regular subgroup has a nontrivial color-preserving
//!   translation (translation-class gcd `d > 1`), election is impossible:
//!   the paper's marking construction turns the natural generator
//!   labeling into a Theorem 2.1 witness — the agents unanimously report
//!   `Unsolvable`;
//! * otherwise the agents fall back to the class reductions of plain
//!   ELECT, which elect whenever `gcd(|C_1|, …, |C_k|) = 1`
//!   (Theorem 3.1).
//!
//! **Faithfulness note** (see the `qelect-group` crate docs): the paper
//! fixes one translation group, but regular subgroups can disagree about
//! `d` (e.g. `C₄` with adjacent agents: `Z₄` says 1, the Klein group
//! says 2 — and election there is indeed impossible). Testing every
//! subgroup strengthens the impossibility direction without affecting
//! the election direction. If all subgroups report `d = 1` *and* the
//! automorphism classes still have gcd > 1, the protocol cannot decide
//! and returns [`AgentOutcome::Undecided`]; the experiment suite (E5)
//! probes exhaustively whether that corner is ever reached on Cayley
//! instances (empirically it is not — subgroup gcds and class gcds agree
//! on all instances tested).
//!
//! Because the decision is a deterministic function of the (shared,
//! isomorphism-invariant) map, all agents reach the same verdict; no
//! extra communication is needed for the impossibility branch.

use crate::elect::{compute_local_view_async, elect_from_view_async};
use qelect_agentsim::{AgentOutcome, Interrupt, MobileCtxAsync};
use qelect_group::recognition::{regular_subgroups, RecognitionBudget};

/// Outcome of the local Cayley analysis on the drawn map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CayleyVerdict {
    /// Not a Cayley graph (the protocol targets the Cayley class).
    NotCayley,
    /// Some regular subgroup certifies impossibility (gcd `d > 1`).
    Impossible {
        /// The witnessing translation gcd.
        d: usize,
    },
    /// All found subgroups have gcd 1; proceed with class reductions.
    Proceed,
    /// Recognition exceeded its budget (explicitly inconclusive).
    Inconclusive,
}

/// Analyze a drawn map: Cayley recognition + per-subgroup translation
/// gcds. `homebases` are map-node indices of the home-bases.
pub fn analyze_cayley(bc: &qelect_graph::Bicolored, budget: RecognitionBudget) -> CayleyVerdict {
    let rec = regular_subgroups(bc.graph(), budget);
    match rec.is_cayley() {
        None => CayleyVerdict::Inconclusive,
        Some(false) => CayleyVerdict::NotCayley,
        Some(true) => {
            let (d, _) = rec
                .max_translation_gcd(bc.homebases())
                .expect("at least one subgroup");
            if d > 1 {
                CayleyVerdict::Impossible { d }
            } else {
                CayleyVerdict::Proceed
            }
        }
    }
}

/// The effectual protocol for Cayley graphs, run by one agent.
pub async fn translation_elect_async<C: MobileCtxAsync>(
    ctx: &mut C,
) -> Result<AgentOutcome, Interrupt> {
    translation_elect_async_with_budget(ctx, RecognitionBudget::default()).await
}

/// [`translation_elect_async`] with an explicit recognition budget.
pub async fn translation_elect_async_with_budget<C: MobileCtxAsync>(
    ctx: &mut C,
    budget: RecognitionBudget,
) -> Result<AgentOutcome, Interrupt> {
    crate::elect::recovery_span_open(ctx);
    let view = compute_local_view_async(ctx).await?;
    let bc = view.map.to_bicolored();
    ctx.checkpoint("cayley recognition start");
    let verdict = analyze_cayley(&bc, budget);
    ctx.checkpoint("cayley recognition done");
    match verdict {
        CayleyVerdict::NotCayley | CayleyVerdict::Inconclusive => {
            // Outside the protocol's class (or out of budget): explicit.
            Ok(AgentOutcome::Undecided)
        }
        CayleyVerdict::Impossible { .. } => {
            // Every agent computes the same verdict from its own map; no
            // coordination needed.
            Ok(AgentOutcome::Unsolvable)
        }
        CayleyVerdict::Proceed => {
            if view.schedule.elects() {
                elect_from_view_async(ctx, view).await
            } else {
                // The documented gray zone: subgroup gcds say "possible",
                // class gcds say "cannot reduce to one".
                Ok(AgentOutcome::Undecided)
            }
        }
    }
}

/// The effectual Cayley protocol as a [`Protocol`](qelect_agentsim::Protocol)
/// for the unified engine front door.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslationElectProtocol;

impl qelect_agentsim::Protocol for TranslationElectProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        translation_elect_async(ctx).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::{RunConfig, RunReport};
    use qelect_graph::{families, Bicolored};

    fn run(bc: &Bicolored, seed: u64) -> RunReport {
        qelect_agentsim::run(bc, &RunConfig::new(seed), &TranslationElectProtocol)
            .expect("run failed")
            .report
    }

    #[test]
    fn elects_on_solvable_cycle() {
        // C5 with one agent: trivially solvable.
        let bc = Bicolored::new(families::cycle(5).unwrap(), &[0]).unwrap();
        let report = run(&bc, 1);
        assert!(report.clean_election());
    }

    #[test]
    fn elects_with_asymmetric_trio() {
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
        let report = run(&bc, 2);
        assert!(report.clean_election(), "{:?}", report.outcomes);
    }

    #[test]
    fn reports_impossible_on_antipodal_cycle() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = run(&bc, 3);
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn reports_impossible_on_c4_adjacent_pair() {
        // The corner the paper's single-subgroup reading would miss: Z4
        // sees gcd 1, the Klein subgroup sees gcd 2 → Unsolvable.
        let bc = Bicolored::new(families::cycle(4).unwrap(), &[0, 1]).unwrap();
        let report = run(&bc, 4);
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn reports_impossible_on_hypercube_antipodal() {
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap();
        let report = run(&bc, 5);
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn undecided_on_petersen() {
        // Petersen is not Cayley: the protocol explicitly declines.
        let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
        let report = run(&bc, 6);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == AgentOutcome::Undecided));
    }

    #[test]
    fn verdicts_match_direct_analysis() {
        for (hbs, expect_solvable) in [
            (vec![0usize], true),
            (vec![0, 3], false),
            (vec![0, 2, 3], true),
        ] {
            let bc = Bicolored::new(families::cycle(6).unwrap(), &hbs).unwrap();
            let verdict = analyze_cayley(&bc, RecognitionBudget::default());
            match verdict {
                CayleyVerdict::Impossible { .. } => assert!(!expect_solvable, "{hbs:?}"),
                CayleyVerdict::Proceed => assert!(expect_solvable, "{hbs:?}"),
                other => panic!("unexpected verdict {other:?} for {hbs:?}"),
            }
        }
    }
}
