//! Anonymous agents: the executable §1.3 impossibility argument.
//!
//! With *anonymous* agents (no colors at all — modeled by giving every
//! agent the **same** color), no effectual election protocol exists. The
//! paper's argument compares two instances:
//!
//! * `G₁ = C₃` with one agent — election is trivially possible;
//! * `G₂ = C₆` with two agents at distance 3 — under a synchronous
//!   scheduler that moves symmetric agents identically, both agents stay
//!   in the same state forever, so no protocol can elect.
//!
//! An agent behaves identically in both, so any protocol that elects on
//! `G₁` misbehaves on `G₂`. [`ring_probe_async`] is such a protocol: it walks
//! forward dropping its (shared-color) marks and concludes "I am alone
//! on a ring of length L" when it first re-encounters a mark. On `C₃`
//! alone that is correct; on `C₆` with a lockstep twin, each agent finds
//! the *other's* indistinguishable mark after 3 hops and both declare
//! themselves leader — the protocol violation the theory predicts.

use qelect_agentsim::sched::Policy;
use qelect_agentsim::{
    run, AgentOutcome, ColorRegistry, Engine, Interrupt, MobileCtxAsync, Protocol, RunConfig, Sign,
    SignKind,
};
use qelect_graph::Bicolored;

/// The mark an anonymous ring-prober drops.
pub const PROBE_MARK: SignKind = SignKind::Custom(11);

/// A plausible anonymous election protocol for rings: drop a mark, walk
/// forward (never back through the entry port), and claim leadership
/// upon meeting a mark — "I went all the way around, I am alone."
///
/// Sound for a lone agent; unsound with indistinguishable companions.
pub async fn ring_probe_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    let me = ctx.color();
    ctx.with_board(move |wb| wb.post(Sign::tag(me, PROBE_MARK)))
        .await?;
    loop {
        let entry = ctx.entry();
        let fwd = ctx
            .ports()
            .into_iter()
            .find(|&p| Some(p) != entry)
            .expect("ring nodes have degree 2");
        ctx.move_via(fwd).await?;
        let marked = ctx.read_board().await?.iter().any(|s| s.kind == PROBE_MARK);
        if marked {
            // "That is my mark — I have circled the whole ring alone."
            return Ok(AgentOutcome::Leader);
        }
        let me = ctx.color();
        ctx.with_board(move |wb| wb.post(Sign::tag(me, PROBE_MARK)))
            .await?;
    }
}

/// [`ring_probe_async`] as a [`Protocol`] for the unified engine front
/// door. Agents run it with **anonymous** marks: the probe never
/// compares colors, so distinctness of the runtime colors is immaterial
/// — what matters is that the *marks* are indistinguishable, which
/// [`PROBE_MARK`] tags achieve (the paper's "anonymous" row in Table 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RingProbeProtocol;

impl Protocol for RingProbeProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        ring_probe_async(ctx).await
    }
}

/// The shared color anonymous demos use for illustration.
pub fn shared_color(seed: u64) -> qelect_agentsim::Color {
    ColorRegistry::new(seed).fresh()
}

/// The §1.3 impossibility argument as a recorded artifact: run the ring
/// probe with lockstep twins on `C_n` (agents antipodal) and return the
/// instance together with the double-election trace. The `n = 6` trace
/// is committed under `tests/traces/c6_two_leaders.json` and replayed
/// by the regression suite; `qelectctl explore --emit-trace` regenerates
/// it.
///
/// `n` must be even and ≥ 4 so that the antipodal placement is
/// symmetric.
pub fn ring_probe_counterexample(n: usize) -> (Bicolored, qelect_agentsim::Trace) {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "need an even cycle for the antipodal twins"
    );
    let bc = Bicolored::new(
        qelect_graph::families::cycle(n).expect("cycle builds"),
        &[0, n / 2],
    )
    .expect("antipodal home-bases are valid");
    // Recorded on the gated oracle, as the committed corpus always was.
    let cfg = RunConfig::new(0)
        .engine(Engine::Gated)
        .policy(Policy::Lockstep)
        .record_trace(true);
    let report = run(&bc, &cfg, &RingProbeProtocol)
        .expect("the ring probe runs on a cycle")
        .report;
    let leaders = report
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    debug_assert_eq!(leaders, 2, "lockstep twins must double-elect");
    let trace = report.to_trace(
        &bc,
        cfg.seed,
        &format!("C{n} lockstep twins: both ring-probe agents elect themselves (§1.3)"),
    );
    (bc, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::RunReport;
    use qelect_graph::families;

    fn probe(bc: &Bicolored, cfg: &RunConfig) -> RunReport {
        run(bc, cfg, &RingProbeProtocol).expect("run failed").report
    }

    #[test]
    fn lone_agent_on_c3_elects_correctly() {
        let bc = Bicolored::new(families::cycle(3).unwrap(), &[0]).unwrap();
        let report = probe(&bc, &RunConfig::default());
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert!(report.clean_election());
    }

    #[test]
    fn twins_on_c6_both_claim_leadership() {
        // The §1.3 scheduler: lockstep. Both agents walk three hops, each
        // finds the other's indistinguishable mark, and both elect
        // themselves — two leaders, protocol violated.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = probe(&bc, &RunConfig::default().policy(Policy::Lockstep));
        let leaders = report
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        assert_eq!(
            leaders, 2,
            "symmetry forces a double election: {:?}",
            report.outcomes
        );
        assert!(!report.clean_election());
    }

    #[test]
    fn violation_shows_under_many_symmetric_lengths() {
        for n in [4usize, 6, 8, 10] {
            let bc = Bicolored::new(families::cycle(n).unwrap(), &[0, n / 2]).unwrap();
            let report = probe(&bc, &RunConfig::default().policy(Policy::Lockstep));
            let leaders = report
                .outcomes
                .iter()
                .filter(|o| **o == AgentOutcome::Leader)
                .count();
            assert_eq!(leaders, 2, "n = {n}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn counterexample_trace_replays_to_double_election() {
        let (bc, trace) = ring_probe_counterexample(6);
        assert_eq!(trace.agents, 2);
        assert_eq!(trace.nodes, 6);
        let report = crate::replay::replay_ring_probe(&bc, &trace, true);
        let leaders = report
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        assert_eq!(leaders, 2);
    }

    #[test]
    fn lone_agent_walk_length_matches_ring_size() {
        let bc = Bicolored::new(families::cycle(5).unwrap(), &[1]).unwrap();
        let report = probe(&bc, &RunConfig::default());
        assert_eq!(report.metrics.total_moves(), 5, "one full circuit");
    }
}
