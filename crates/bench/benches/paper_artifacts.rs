//! One Criterion target per paper artifact: times the exact data-producing
//! function behind each table and figure at quick scale (the full-scale
//! commands of `crates/experiments` print the actual numbers; run
//! `cargo run --release -p experiments -- all` to regenerate them).

use anon_core::mix::MixStrategy;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::experiments::{
    eq4_data, fig1_data, fig2_data, fig3_data, fig4_data, fig5_data, tab1_data, tab2_data,
    tab3_data, tab4_data, Scale,
};
use std::hint::black_box;

fn bench_analytic_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_analytic");
    g.sample_size(10);
    g.bench_function("fig1_lifetime_cdf", |b| {
        b.iter(|| black_box(fig1_data(20_000, 1)))
    });
    g.bench_function("fig2_observations", |b| {
        b.iter(|| black_box(fig2_data(10_000, 2)))
    });
    g.bench_function("fig3_replication_factors", |b| {
        b.iter(|| black_box(fig3_data(10_000, 3)))
    });
    g.bench_function("fig4_bandwidth", |b| {
        b.iter(|| black_box(fig4_data(2_000, 4)))
    });
    g.bench_function("eq4_anonymity", |b| {
        b.iter(|| black_box(eq4_data(1024, 3, 20_000, 5)))
    });
    g.finish();
}

fn bench_simulation_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables_simulation");
    g.sample_size(10);
    g.bench_function("tab1_setup_rates", |b| {
        b.iter(|| black_box(tab1_data(Scale::Quick, 1)))
    });
    g.bench_function("fig5_setup_vs_k_random", |b| {
        b.iter(|| black_box(fig5_data(MixStrategy::Random, Scale::Quick, 1)))
    });
    g.bench_function("tab2_performance", |b| {
        b.iter(|| black_box(tab2_data(Scale::Quick, 1)))
    });
    g.bench_function("tab3_churn_sweep", |b| {
        b.iter(|| black_box(tab3_data(Scale::Quick, 1)))
    });
    g.bench_function("tab4_distributions", |b| {
        b.iter(|| black_box(tab4_data(Scale::Quick, 1)))
    });
    g.finish();
}

criterion_group!(benches, bench_analytic_figures, bench_simulation_tables);
criterion_main!(benches);
