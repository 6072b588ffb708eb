//! The quantitative baseline: universal election with comparable labels.
//!
//! "If agents are labeled with distinct elements that are also comparable
//! then there is a universal election protocol: during phase 1, every
//! agent performs a traversal of the graph to collect all agent labels;
//! during phase 2, every agent elects the agent of maximum label as the
//! leader." (§1.3)
//!
//! Here agents carry `u64` identifiers *in addition to* their colors —
//! the quantitative model's totally ordered labels. Each agent posts its
//! ID at its home-base as its very first action; traversing agents wait
//! at a home-base until its resident's ID sign appears (the resident
//! posts unconditionally, so the wait is deadlock-free). This protocol
//! succeeds on **every** instance — the top row of Table 1 — and serves
//! as the cost baseline for ELECT.

use crate::mapdraw::map_drawing_async;
use crate::reduce::Courier;
use qelect_agentsim::{AgentOutcome, Interrupt, MobileCtxAsync, Protocol, SignKind};
use std::sync::Arc;

/// The `Custom` sign kind carrying a quantitative ID (payload: `[id]`).
pub const ID_SIGN: SignKind = SignKind::Custom(1);

/// The universal quantitative protocol with one externally assigned
/// label per agent: agent `i` (the `i`-th home-base) runs with label
/// `ids[i]`, selected by [`Protocol::for_agent`]. Labels are the
/// quantitative model's comparable identities, so this is the one
/// protocol whose agents are told apart by the runner.
#[derive(Debug, Clone)]
pub struct QuantitativeProtocol {
    ids: Arc<[u64]>,
    agent: usize,
}

impl QuantitativeProtocol {
    /// A protocol assigning `ids[i]` to agent `i`. The labels must be
    /// pairwise distinct (the model's first requirement); duplicates are
    /// an error.
    pub fn new(ids: &[u64]) -> Result<QuantitativeProtocol, String> {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != ids.len() {
            return Err(format!("quantitative labels must be distinct, got {ids:?}"));
        }
        Ok(QuantitativeProtocol {
            ids: ids.into(),
            agent: 0,
        })
    }
}

impl Protocol for QuantitativeProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        let id = *self.ids.get(self.agent).unwrap_or_else(|| {
            panic!(
                "agent {} has no label ({} labels assigned)",
                self.agent,
                self.ids.len()
            )
        });
        quantitative_elect_async(ctx, id).await
    }

    fn for_agent(&self, agent: usize) -> Self {
        QuantitativeProtocol {
            ids: Arc::clone(&self.ids),
            agent,
        }
    }
}

/// The universal quantitative protocol, run by an agent with label `id`.
pub async fn quantitative_elect_async<C: MobileCtxAsync>(
    ctx: &mut C,
    id: u64,
) -> Result<AgentOutcome, Interrupt> {
    // Publish my label before anything else.
    let me = ctx.color();
    ctx.with_board(move |wb| wb.post(qelect_agentsim::Sign::with_payload(me, ID_SIGN, vec![id])))
        .await?;
    // Phase 1: traverse and collect.
    let map = map_drawing_async(ctx).await?;
    ctx.checkpoint("map-drawing done");
    let homes: Vec<usize> = map.homebases().iter().map(|&(v, _)| v).collect();
    let mut cr = Courier::new(ctx, map);
    let mut labels: Vec<u64> = Vec::with_capacity(homes.len());
    for home in homes {
        cr.goto(home).await?;
        // Wait for the resident's ID (it posts first thing).
        cr.ctx
            .wait_until(|wb| wb.signs().iter().any(|s| s.kind == ID_SIGN))
            .await?;
        let signs = cr.ctx.read_board().await?;
        let label = signs
            .iter()
            .find(|s| s.kind == ID_SIGN)
            .and_then(|s| s.word())
            .expect("waited for it");
        labels.push(label);
    }
    cr.goto(0).await?;
    cr.ctx.checkpoint("labels collected");
    // Phase 2: the maximum label wins.
    let max = *labels.iter().max().expect("r >= 1");
    Ok(if max == id {
        AgentOutcome::Leader
    } else {
        AgentOutcome::Defeated
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::{run, Engine, RunConfig, RunReport};
    use qelect_graph::{families, Bicolored};

    fn check(bc: &Bicolored, ids: &[u64], seed: u64) -> RunReport {
        let protocol = QuantitativeProtocol::new(ids).unwrap();
        let report = run(bc, &RunConfig::new(seed), &protocol).unwrap().report;
        assert!(
            report.clean_election(),
            "{:?} ({:?})",
            report.outcomes,
            report.interrupted
        );
        let gated = run(bc, &RunConfig::new(seed).engine(Engine::Gated), &protocol).unwrap();
        assert_eq!(
            gated.report.fingerprint(),
            report.fingerprint(),
            "gated vs sim"
        );
        report
    }

    #[test]
    fn max_id_wins_on_cycle() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 4]).unwrap();
        let report = check(&bc, &[10, 99, 55], 1);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn universal_on_symmetric_instances() {
        // The instances where ELECT fails are exactly where the
        // quantitative baseline shines: antipodal agents on C6.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = check(&bc, &[7, 3], 2);
        assert_eq!(report.leader, Some(0));

        // K2 with two agents — the paper's minimal counterexample for
        // the qualitative world — is solvable with comparable labels.
        let bc = Bicolored::new(families::complete(2).unwrap(), &[0, 1]).unwrap();
        let report = check(&bc, &[1, 2], 3);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn universal_on_petersen_pair() {
        let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
        let report = check(&bc, &[5, 6], 4);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn works_across_schedulers_and_seeds() {
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap();
        for seed in 0..4 {
            let report = check(&bc, &[40, 2], seed);
            assert_eq!(report.leader, Some(0));
        }
    }

    #[test]
    fn rejects_duplicate_ids() {
        let err = QuantitativeProtocol::new(&[5, 5]).unwrap_err();
        assert!(
            err.contains("distinct"),
            "distinctness is required (the paper's first failure mode): {err}"
        );
    }
}
