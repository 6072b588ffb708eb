//! E8 ablation — cost of the Lemma 3.1 machinery: canonical forms,
//! automorphism orbits, and the full COMPUTE & ORDER class computation
//! (the paper's own remark flags these as the protocol's computational
//! bottleneck).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qelect_graph::canon::canonicalize;
use qelect_graph::surrounding::{ordered_classes, surrounding};
use qelect_graph::{families, oracle, Bicolored, ColoredDigraph};

fn bench_canonical_forms(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon/form");
    let cases = vec![
        ("C32", families::cycle(32).unwrap()),
        ("Q4", families::hypercube(4).unwrap()),
        ("petersen", families::petersen().unwrap()),
        ("K8", families::complete(8).unwrap()),
        ("rand24", families::random_connected(24, 0.2, 7).unwrap()),
    ];
    for (label, g) in cases {
        let bc = Bicolored::new(g, &[0]).unwrap();
        let d = ColoredDigraph::from_bicolored(&bc);
        group.bench_with_input(BenchmarkId::from_parameter(label), &d, |b, d| {
            b.iter(|| canonicalize(d).orbit_count)
        });
    }
    group.finish();
}

fn bench_compute_and_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon/compute-and-order");
    let cases = vec![
        (
            "C16-r3",
            Bicolored::new(families::cycle(16).unwrap(), &[0, 1, 3]).unwrap(),
        ),
        (
            "Q3-r2",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
        ),
        (
            "petersen-r2",
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
        ),
    ];
    for (label, bc) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(label), &bc, |b, bc| {
            b.iter(|| ordered_classes(bc).k())
        });
    }
    group.finish();
}

/// Head-to-head: the retained IR oracle vs the worklist/pruned kernel
/// on the same surrounding digraphs (what `qelectctl canonbench` times).
fn bench_oracle_vs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon/kernel-vs-oracle");
    let cases = vec![
        (
            "circulant64",
            Bicolored::new(families::circulant(64, &[1, 3]).unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "torus8x8",
            Bicolored::new(families::torus(&[8, 8]).unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "Q6",
            Bicolored::new(families::hypercube(6).unwrap(), &[0, 1]).unwrap(),
        ),
    ];
    for (label, bc) in cases {
        let d = surrounding(&bc, 0);
        group.bench_with_input(BenchmarkId::new("oracle", label), &d, |b, d| {
            b.iter(|| oracle::canonicalize(d).orbit_count)
        });
        group.bench_with_input(BenchmarkId::new("kernel", label), &d, |b, d| {
            b.iter(|| canonicalize(d).orbit_count)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_canonical_forms, bench_compute_and_order, bench_oracle_vs_kernel
}
criterion_main!(benches);
