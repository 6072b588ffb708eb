//! The canonicalization-kernel benchmark behind `qelectctl canonbench`
//! and the committed `BENCH_canon.json` scaling curve.
//!
//! One workload, two kernels: for every instance in the ladder the
//! surrounding `S(0)` (Definition 3.1) is canonicalized cold by the
//! frozen pre-worklist oracle ([`qelect_graph::oracle`]) and by the
//! production kernel ([`qelect_graph::canon`]). Because the kernels are
//! byte-identical by contract (DESIGN §13), the benchmark doubles as a
//! differential check: the oracle and production results must agree
//! exactly — forms, labelings, generators and orbits — and any
//! disagreement fails the whole report.
//!
//! Numbers are a record of the machine that produced them (like
//! `BENCH_sim.json`): CI re-runs a fresh canonbench and gates the
//! committed report on schema validity and `passed`, never on exact
//! timings. `passed` additionally requires the cold speedup on the
//! ladder's *largest* instance to reach 3× — the headline the worklist
//! kernel exists for, with margin to spare on every machine tried.

use std::time::Instant;

use qelect_agentsim::json;
use qelect_graph::canon::canonicalize;
use qelect_graph::oracle;
use qelect_graph::surrounding::surrounding;
use qelect_graph::Bicolored;

use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every canonbench JSON document (the shared
/// envelope declaration, [`json::envelope::CANONBENCH`]).
pub const CANONBENCH_SCHEMA: &str = json::envelope::CANONBENCH;

/// Cold speedup the largest ladder instance must reach for the report
/// to pass (the ROADMAP "canonicalization that scales" acceptance bar).
pub const REQUIRED_LARGEST_SPEEDUP: f64 = 3.0;

/// Configuration of one kernel comparison.
#[derive(Debug, Clone)]
pub struct CanonBenchConfig {
    /// The instance ladder (typically Cayley families of growing size).
    pub instances: Vec<AuditInstance>,
    /// Timed passes per measurement (the mean is reported).
    pub repeats: usize,
}

impl Default for CanonBenchConfig {
    fn default() -> Self {
        CanonBenchConfig {
            instances: Vec::new(),
            repeats: 3,
        }
    }
}

/// One instance's timings across both kernels.
#[derive(Debug, Clone)]
pub struct InstanceCanonBench {
    /// Instance key (`family-spec@agents`).
    pub key: String,
    /// Node count.
    pub n: usize,
    /// Arc count of the timed surrounding `S(0)`.
    pub arcs: usize,
    /// Mean cold canonicalization of `S(0)` by the frozen oracle, ms.
    pub oracle_ms: f64,
    /// Mean cold canonicalization of `S(0)` by the production kernel, ms.
    pub cold_ms: f64,
    /// Leaves the production search visited on `S(0)`.
    pub leaves: usize,
    /// Subtrees the quotient lower bound cut on `S(0)`.
    pub pruned: usize,
    /// Oracle and production results on `S(0)` agreed byte-for-byte
    /// (forms, labelings, generators and orbits).
    pub identical: bool,
}

impl InstanceCanonBench {
    /// Oracle-over-production cold-canonicalization ratio.
    pub fn cold_speedup(&self) -> f64 {
        if self.cold_ms > 0.0 {
            self.oracle_ms / self.cold_ms
        } else {
            0.0
        }
    }
}

/// The full kernel-comparison report.
#[derive(Debug, Clone)]
pub struct CanonBenchReport {
    /// Per-instance timings, in ladder order.
    pub instances: Vec<InstanceCanonBench>,
    /// Timed passes per measurement.
    pub repeats: usize,
}

impl CanonBenchReport {
    /// The ladder's largest instance (by node count; latest wins ties).
    pub fn largest(&self) -> Option<&InstanceCanonBench> {
        self.instances.iter().max_by_key(|i| i.n)
    }

    /// Cold speedup on the largest instance (0.0 when empty).
    pub fn largest_cold_speedup(&self) -> f64 {
        self.largest().map_or(0.0, InstanceCanonBench::cold_speedup)
    }

    /// Whether every instance passed the built-in differential check
    /// and the largest instance reached [`REQUIRED_LARGEST_SPEEDUP`].
    pub fn passed(&self) -> bool {
        !self.instances.is_empty()
            && self.instances.iter().all(|i| i.identical)
            && self.largest_cold_speedup() >= REQUIRED_LARGEST_SPEEDUP
    }

    /// The largest per-instance cold speedup observed.
    pub fn max_cold_speedup(&self) -> f64 {
        self.instances
            .iter()
            .map(InstanceCanonBench::cold_speedup)
            .fold(0.0, f64::max)
    }

    /// Geometric-mean cold speedup across instances (0.0 when empty).
    pub fn geomean_cold_speedup(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self
            .instances
            .iter()
            .map(|i| i.cold_speedup().max(1e-12).ln())
            .sum();
        (log_sum / self.instances.len() as f64).exp()
    }

    /// Render the human-facing scaling table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "instance",
            "n",
            "oracle ms",
            "cold ms",
            "speedup",
            "leaves",
            "pruned",
            "identical",
        ]));
        out.push('\n');
        for i in &self.instances {
            out.push_str(&row(&[
                i.key.clone(),
                i.n.to_string(),
                format!("{:.3}", i.oracle_ms),
                format!("{:.3}", i.cold_ms),
                format!("{:.1}x", i.cold_speedup()),
                i.leaves.to_string(),
                i.pruned.to_string(),
                i.identical.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "cold speedup: geomean {:.1}x, max {:.1}x, largest rung {:.1}x (gate ≥ {:.0}x) — {}\n",
            self.geomean_cold_speedup(),
            self.max_cold_speedup(),
            self.largest_cold_speedup(),
            REQUIRED_LARGEST_SPEEDUP,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }

    /// Serialize as the schema-versioned `qelect-canonbench/1` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(CANONBENCH_SCHEMA));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str("  \"instances\": [\n");
        for (idx, i) in self.instances.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"key\": {}, \"n\": {}, \"arcs\": {}, \"oracle_ms\": {:.4}, \
                 \"cold_ms\": {:.4}, \"cold_speedup\": {:.2}, \
                 \"leaves\": {}, \"pruned\": {}, \"identical\": {}}}{}\n",
                json::escape(&i.key),
                i.n,
                i.arcs,
                i.oracle_ms,
                i.cold_ms,
                i.cold_speedup(),
                i.leaves,
                i.pruned,
                i.identical,
                if idx + 1 < self.instances.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"geomean_cold_speedup\": {:.2},\n",
            self.geomean_cold_speedup()
        ));
        s.push_str(&format!(
            "  \"max_cold_speedup\": {:.2},\n",
            self.max_cold_speedup()
        ));
        s.push_str(&format!(
            "  \"largest_cold_speedup\": {:.2},\n",
            self.largest_cold_speedup()
        ));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// Mean wall-clock milliseconds of `repeats` calls to `f`.
fn timed_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let reps = repeats.max(1);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Run the kernel comparison.
///
/// Per instance: one untimed pass of every measured path establishes
/// the byte-identity verdict (and warms allocators), then each path is
/// timed over `repeats` passes.
pub fn run_canonbench(cfg: &CanonBenchConfig) -> CanonBenchReport {
    let mut instances = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents).expect("valid instance");
        let d0 = surrounding(&bc, 0);

        // Differential pass (untimed): full byte-identity on S(0).
        let slow = oracle::canonicalize(&d0);
        let fast = canonicalize(&d0);
        let identical = slow.form == fast.form
            && slow.labeling == fast.labeling
            && slow.generators == fast.generators
            && slow.orbits == fast.orbits;

        let oracle_ms = timed_ms(cfg.repeats, || {
            let _ = oracle::canonicalize(&d0);
        });
        let cold_ms = timed_ms(cfg.repeats, || {
            let _ = canonicalize(&d0);
        });

        instances.push(InstanceCanonBench {
            key: inst.key(),
            n: bc.n(),
            arcs: d0.arc_count(),
            oracle_ms,
            cold_ms,
            leaves: fast.leaves_visited,
            pruned: fast.pruned_branches,
            identical,
        });
    }
    CanonBenchReport {
        instances,
        repeats: cfg.repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn cfg() -> CanonBenchConfig {
        CanonBenchConfig {
            instances: vec![
                AuditInstance {
                    spec: "circulant:34:1,3".into(),
                    graph: families::circulant(34, &[1, 3]).unwrap(),
                    agents: vec![0, 17],
                },
                AuditInstance {
                    spec: "circulant:40:1,3".into(),
                    graph: families::circulant(40, &[1, 3]).unwrap(),
                    agents: vec![0, 1],
                },
            ],
            repeats: 1,
        }
    }

    #[test]
    fn canonbench_kernels_agree() {
        let report = run_canonbench(&cfg());
        assert_eq!(report.instances.len(), 2);
        for i in &report.instances {
            assert!(i.identical, "{} diverged", i.key);
            assert!(i.oracle_ms > 0.0 && i.cold_ms > 0.0, "{}", i.key);
        }
        assert_eq!(report.largest().unwrap().n, 40);
    }

    #[test]
    fn canonbench_json_roundtrips_with_envelope() {
        let report = run_canonbench(&cfg());
        let doc = report.to_json();
        let fields = json::envelope::check_document(&doc, CANONBENCH_SCHEMA).unwrap();
        let items = json::get(&fields, "instances")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(items.len(), 2);
        let largest = json::get(&fields, "largest_cold_speedup")
            .and_then(json::Value::as_num)
            .unwrap();
        assert!(largest > 0.0);
        assert!(json::get(&fields, "passed")
            .and_then(json::Value::as_bool)
            .is_some());
    }

    #[test]
    fn render_has_one_row_per_instance_and_a_verdict() {
        let report = run_canonbench(&cfg());
        let text = report.render();
        assert_eq!(text.matches("circulant:").count(), 2, "{text}");
        assert!(text.contains("cold speedup: geomean"), "{text}");
    }

    #[test]
    fn empty_report_does_not_pass() {
        let report = run_canonbench(&CanonBenchConfig::default());
        assert!(!report.passed());
        assert_eq!(report.largest_cold_speedup(), 0.0);
    }
}
