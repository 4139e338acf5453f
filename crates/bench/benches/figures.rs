//! Criterion wrappers around reduced-size versions of every figure run.
//!
//! `cargo bench` measures the wall-clock cost of regenerating each paper
//! artifact on the deterministic simulator (the artifacts themselves are
//! printed by the `hts-bench` binaries — see README). Windows are shrunk
//! so the whole suite completes in minutes; the simulated *shapes* are
//! asserted in `hts-bench`'s unit tests instead.

use criterion::{criterion_group, criterion_main, Criterion};
use hts_baselines::fig1::run_fig1;
use hts_bench::{latency_ring, run_abd, run_chain, run_ring, run_tob, Params};
use hts_core::Config;
use hts_sim::Nanos;
use std::hint::black_box;

fn quick(n: u16, readers: u32, writers: u32) -> Params {
    Params {
        n,
        readers_per_server: readers,
        writers_per_server: writers,
        value_size: 16 * 1024,
        warmup: Nanos::from_millis(100),
        measure: Nanos::from_millis(300),
        ..Params::default()
    }
}

fn bench_fig1(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1");
    g.sample_size(20);
    g.bench_function("algorithm_a_quorum", |b| {
        b.iter(|| black_box(run_fig1(true, 3, 4, 300)))
    });
    g.bench_function("algorithm_b_local", |b| {
        b.iter(|| black_box(run_fig1(false, 3, 4, 300)))
    });
    g.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("chart1_reads_n4", |b| {
        b.iter(|| black_box(run_ring(&quick(4, 2, 0))))
    });
    g.bench_function("chart2_writes_n4", |b| {
        b.iter(|| black_box(run_ring(&quick(4, 0, 4))))
    });
    g.bench_function("chart3_contention_n4", |b| {
        b.iter(|| black_box(run_ring(&quick(4, 2, 4))))
    });
    g.bench_function("chart4_shared_net_n4", |b| {
        b.iter(|| {
            black_box(run_ring(&Params {
                shared_network: true,
                ..quick(4, 2, 4)
            }))
        })
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.bench_function("latency_n4", |b| {
        b.iter(|| black_box(latency_ring(4, 16 * 1024, 3)))
    });
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("compare_baselines");
    g.sample_size(10);
    g.bench_function("abd_reads_n4", |b| {
        b.iter(|| black_box(run_abd(&quick(4, 2, 0))))
    });
    g.bench_function("chain_reads_n4", |b| {
        b.iter(|| black_box(run_chain(&quick(4, 2, 0))))
    });
    g.bench_function("tob_reads_n4", |b| {
        b.iter(|| black_box(run_tob(&quick(4, 2, 0))))
    });
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("a2_fast_path_reads", |b| {
        b.iter(|| {
            black_box(run_ring(&Params {
                config: Config {
                    read_fast_path: true,
                    ..Config::default()
                },
                ..quick(4, 2, 2)
            }))
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig1,
    bench_fig3,
    bench_fig4,
    bench_baselines,
    bench_ablations
);
criterion_main!(figures);
