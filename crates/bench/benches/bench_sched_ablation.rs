//! E8 ablation — scheduler policy impact on protocol ELECT: the verdict
//! must be identical under every policy (effectualness is adversary-
//! independent); what varies is wall time and the interleaving length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qelect::prelude::*;
use qelect_agentsim::sched::Policy;
use qelect_graph::{families, Bicolored};

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/elect-policies");
    let bc = Bicolored::new(families::cycle(10).unwrap(), &[0, 1, 3]).unwrap();
    for policy in [
        Policy::Random,
        Policy::RoundRobin,
        Policy::Lockstep,
        Policy::GreedyLowest,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &bc,
            |b, bc| {
                b.iter(|| {
                    let report = run_election(bc, &RunConfig::default().policy(policy))
                        .unwrap()
                        .report;
                    assert!(report.clean_election());
                    report.metrics.steps
                })
            },
        );
    }
    group.finish();
}

fn bench_port_scrambling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/port-scrambling");
    let bc = Bicolored::new(families::cycle(10).unwrap(), &[0, 1, 3]).unwrap();
    for scramble in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if scramble { "scrambled" } else { "plain" }),
            &bc,
            |b, bc| {
                b.iter(|| {
                    let report = run_election(bc, &RunConfig::default().scramble_ports(scramble))
                        .unwrap()
                        .report;
                    assert!(report.clean_election());
                    report.metrics.total_work()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_policies, bench_port_scrambling
}
criterion_main!(benches);
