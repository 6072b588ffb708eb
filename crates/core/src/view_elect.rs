//! View-ordered election — the quantitative world's second weapon.
//!
//! Section 2 of the paper observes that with *integer* port labels "one
//! can fix a priori an arbitrary ordering of the views, and this
//! ordering gives a way to elect a leader, provided that the
//! symmetricity of the graph is 1" — no agent IDs needed at all. This
//! module implements that protocol: after MAP-DRAWING, every agent
//! computes the (absolute, labeling-determined) views of all home-bases
//! and the ≺-minimum view's owner is the leader; if several home-bases
//! share the minimal view, the instance is unsolvable *under this
//! labeling* and the agents report it.
//!
//! Because views are a function of the labeled graph alone, all agents
//! reach the same verdict with **zero communication** after map drawing.
//!
//! Two caveats the test-suite demonstrates:
//!
//! * the protocol is *quantitative*: it requires globally comparable
//!   port labels, so it must run with port scrambling disabled (the
//!   `view` registry entry does) — under qualitative per-agent encodings
//!   the computed "views" would not be common knowledge;
//! * unlike ELECT, the verdict **depends on the labeling** (Fig. 2's
//!   very point): the same `(G, p)` can be solvable under an asymmetric
//!   labeling and unsolvable under a symmetric one, whereas ELECT's
//!   verdict is labeling-invariant.

use crate::mapdraw::map_drawing_async;
use qelect_agentsim::{AgentOutcome, Interrupt, MobileCtxAsync, Protocol};
use qelect_graph::view::ViewTree;

/// The view-ordered election protocol (quantitative port labels: run it
/// with port scrambling disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewElectProtocol;

impl Protocol for ViewElectProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        view_elect_async(ctx).await
    }
}

/// The view-ordered election protocol (quantitative port labels).
pub async fn view_elect_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    let map = map_drawing_async(ctx).await?;
    let bc = map.to_bicolored();
    let depth = bc.n().saturating_sub(1); // Norris depth
    let my_home = 0usize;

    // Views of every home-base, compared by the total order on trees.
    let mut best: Option<(ViewTree, Vec<usize>)> = None;
    for &(home, _) in &map.homebases() {
        let view = ViewTree::build(&bc, home, depth);
        match &mut best {
            None => best = Some((view, vec![home])),
            Some((b, owners)) => match view.cmp(b) {
                std::cmp::Ordering::Less => best = Some((view, vec![home])),
                std::cmp::Ordering::Equal => owners.push(home),
                std::cmp::Ordering::Greater => {}
            },
        }
    }
    let (_, owners) = best.expect("r >= 1");
    if owners.len() > 1 {
        // Minimal view shared: the labeling does not break the symmetry.
        return Ok(AgentOutcome::Unsolvable);
    }
    Ok(if owners[0] == my_home {
        AgentOutcome::Leader
    } else {
        AgentOutcome::Defeated
    })
}

#[cfg(test)]
mod tests {
    use qelect_agentsim::{Engine, RunConfig, RunReport};
    use qelect_graph::{families, Bicolored, GraphBuilder, Port};

    /// The `view` registry entry (quantitative labels, so no
    /// scrambling), run on both engines: gated is the oracle, so the
    /// sim report must match it exactly.
    fn run_view(bc: &Bicolored, cfg: RunConfig) -> RunReport {
        let entry = crate::registry::resolve("view").unwrap();
        let on = |engine| entry.run(bc, &cfg.clone().engine(engine)).unwrap().report;
        let (gated, sim) = (on(Engine::Gated), on(Engine::Sim));
        assert_eq!(gated.fingerprint(), sim.fingerprint(), "gated vs sim");
        sim
    }

    #[test]
    fn elects_on_asymmetric_placement_without_ids() {
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
        let report = run_view(&bc, RunConfig::default());
        assert!(report.clean_election(), "{:?}", report.outcomes);
    }

    #[test]
    fn symmetric_labeling_defeats_view_election() {
        // C6 antipodal under the rotation-invariant Cayley labeling: the
        // two home-bases have identical views.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = run_view(&bc, RunConfig::default());
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn asymmetric_labeling_rescues_the_same_instance() {
        // The same placement, but a hand-made asymmetric labeling: in the
        // quantitative world the Theorem 2.1 condition is also
        // *sufficient* per labeling, so view election succeeds — the
        // verdict depends on the labeling, unlike ELECT's.
        let mut b = GraphBuilder::new(6);
        // Canonical orientation everywhere except node 0, whose two
        // ports are swapped — a local anomaly that kills every
        // label-preserving symmetry.
        b.add_edge_with_ports(0, 1, Port(1), Port(1)).unwrap(); // flipped at 0
        b.add_edge_with_ports(1, 2, Port(0), Port(1)).unwrap();
        b.add_edge_with_ports(2, 3, Port(0), Port(1)).unwrap();
        b.add_edge_with_ports(3, 4, Port(0), Port(1)).unwrap();
        b.add_edge_with_ports(4, 5, Port(0), Port(1)).unwrap();
        b.add_edge_with_ports(5, 0, Port(0), Port(0)).unwrap(); // flipped at 0
        let g = b.finish().unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        // Guard: the two home-bases really have distinct views now.
        let part = qelect_graph::view::view_partition(&bc);
        assert_ne!(
            part.class[0], part.class[3],
            "labeling must split the homes"
        );
        let report = run_view(&bc, RunConfig::default());
        assert!(
            report.clean_election(),
            "asymmetric labeling must allow view election: {:?}",
            report.outcomes
        );
    }

    #[test]
    fn single_agent_trivially_wins() {
        let bc = Bicolored::new(families::petersen().unwrap(), &[4]).unwrap();
        let report = run_view(&bc, RunConfig::default());
        assert_eq!(report.leader, Some(0));
    }

    #[test]
    fn agrees_with_symmetricity_oracle() {
        // Verdict ⟺ the home-bases' views are pairwise distinct at least
        // at the minimum — cross-check against the view partition.
        for (hbs, _label) in [
            (vec![0usize, 2], "C8 distance-2"),
            (vec![0, 4], "C8 antipodal"),
        ] {
            let bc = Bicolored::new(families::cycle(8).unwrap(), &hbs).unwrap();
            let part = qelect_graph::view::view_partition(&bc);
            let mut classes: Vec<u32> = hbs.iter().map(|&h| part.class[h]).collect();
            classes.sort_unstable();
            classes.dedup();
            let distinct = classes.len() == hbs.len();
            let report = run_view(&bc, RunConfig::default());
            if distinct {
                assert!(report.clean_election(), "{hbs:?}: {:?}", report.outcomes);
            } else {
                assert!(
                    report.unanimous_unsolvable(),
                    "{hbs:?}: {:?}",
                    report.outcomes
                );
            }
        }
    }
}
