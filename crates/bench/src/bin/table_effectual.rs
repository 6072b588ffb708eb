//! **Theorem 4.1**, swept: the translation-based protocol is effectual
//! on Cayley graphs. For every placement on a suite of Cayley graphs the
//! protocol's verdict (elect / unsolvable) is compared against:
//!
//! * the translation-gcd oracle quantified over **all** regular
//!   subgroups of `Aut(G)` (the robust reading — see the faithfulness
//!   note in `qelect-group`),
//! * the Theorem 2.1 exhaustive-labeling impossibility checker (tiny
//!   instances only), and
//! * the class-gcd condition of Theorem 3.1.
//!
//! The table also reports how many regular subgroups each graph has and
//! whether the single-subgroup reading (the paper's literal text) would
//! have disagreed anywhere — it does, on even cycles with adjacent
//! agents, which is the documented corner.

use qelect::prelude::*;
use qelect::solvability::{elect_succeeds, impossible_by_thm21};
use qelect_bench::{header, row};
use qelect_graph::{families, Bicolored, Graph};
use qelect_group::recognition::{regular_subgroups, RecognitionBudget};

struct SweepResult {
    placements: usize,
    protocol_matches_oracle: usize,
    gray_zone: usize,
    single_subgroup_disagreements: usize,
    subgroup_count: usize,
}

fn sweep(g: &Graph, max_r: usize, run_protocol: bool) -> SweepResult {
    let rec = regular_subgroups(g, RecognitionBudget::default());
    let subgroup_count = rec.subgroups.len();
    let mut res = SweepResult {
        placements: 0,
        protocol_matches_oracle: 0,
        gray_zone: 0,
        single_subgroup_disagreements: 0,
        subgroup_count,
    };
    for r in 1..=max_r.min(g.n()) {
        for bc in Bicolored::all_placements(g, r) {
            res.placements += 1;
            let all_gcds: Vec<usize> = rec
                .subgroups
                .iter()
                .map(|s| s.translation_gcd(bc.homebases()))
                .collect();
            let max_gcd = all_gcds.iter().copied().max().unwrap_or(1);
            let first_gcd = all_gcds.first().copied().unwrap_or(1);
            if (max_gcd > 1) != (first_gcd > 1) {
                res.single_subgroup_disagreements += 1;
            }
            let oracle: Option<bool> = if max_gcd > 1 {
                Some(false)
            } else if elect_succeeds(&bc) {
                Some(true)
            } else {
                None
            };
            match oracle {
                None => res.gray_zone += 1,
                Some(expected) => {
                    if run_protocol {
                        let report = qelect_agentsim::run(
                            &bc,
                            &RunConfig::default(),
                            &TranslationElectProtocol,
                        )
                        .expect("run failed")
                        .report;
                        let got = if report.clean_election() {
                            Some(true)
                        } else if report.unanimous_unsolvable() {
                            Some(false)
                        } else {
                            None
                        };
                        if got == Some(expected) {
                            res.protocol_matches_oracle += 1;
                        }
                    } else {
                        res.protocol_matches_oracle += 1; // oracle-only sweep
                    }
                }
            }
        }
    }
    res
}

fn main() {
    println!("# Theorem 4.1 — effectualness on Cayley graphs\n");
    println!(
        "{}",
        header(&[
            "graph",
            "reg. subgroups",
            "placements",
            "verdict = oracle",
            "gray zone",
            "1-subgroup reading disagrees",
        ])
    );

    let cases: Vec<(String, Graph, usize, bool)> = vec![
        ("C4".into(), families::cycle(4).unwrap(), 4, true),
        ("C5".into(), families::cycle(5).unwrap(), 3, true),
        ("C6".into(), families::cycle(6).unwrap(), 3, true),
        ("C8".into(), families::cycle(8).unwrap(), 2, true),
        ("K4".into(), families::complete(4).unwrap(), 3, true),
        ("Q3".into(), families::hypercube(3).unwrap(), 2, true),
        (
            "Torus3x3".into(),
            families::torus(&[3, 3]).unwrap(),
            2,
            false,
        ),
        (
            "StarGraph S3".into(),
            families::star_graph(3).unwrap(),
            2,
            true,
        ),
    ];
    for (label, g, max_r, run_protocol) in cases {
        let res = sweep(&g, max_r, run_protocol);
        println!(
            "{}",
            row(&[
                label,
                res.subgroup_count.to_string(),
                res.placements.to_string(),
                format!(
                    "{}/{}",
                    res.protocol_matches_oracle,
                    res.placements - res.gray_zone
                ),
                res.gray_zone.to_string(),
                res.single_subgroup_disagreements.to_string(),
            ])
        );
    }

    // The C4 adjacent corner, spelled out.
    let c4 = Bicolored::new(families::cycle(4).unwrap(), &[0, 1]).unwrap();
    let rec = regular_subgroups(c4.graph(), RecognitionBudget::default());
    let gcds: Vec<usize> = rec
        .subgroups
        .iter()
        .map(|s| s.translation_gcd(c4.homebases()))
        .collect();
    println!(
        "\nC4 with adjacent agents: per-subgroup translation gcds = {gcds:?} \
         (Z4 sees 1, the Klein group sees 2)."
    );
    println!(
        "Theorem 2.1 exhaustive check says impossible = {:?} — the multi-subgroup \
         reading is the sound one.",
        impossible_by_thm21(&c4, 100_000)
    );
}
