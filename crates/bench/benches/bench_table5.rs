//! Benchmarks regeneration of Table 5 (correlated releases): one run
//! (four workloads share the structure; run 1 is representative) across
//! the three paper timeouts at 2,000 requests, plus the two halves of a
//! paper-scale run — planning its 10,000 demands once, and simulating
//! one timeout column over that plan.

use std::hint::black_box;
use wsu_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsu_core::middleware::MiddlewareConfig;
use wsu_experiments::midsim::{plan_run, simulate_cell, simulate_run};
use wsu_experiments::table5::run_table5_with;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

fn table5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5");
    group.sample_size(10);
    for spec in RunSpec::all() {
        let gen = CorrelatedOutcomes::from_run(&spec);
        group.bench_with_input(BenchmarkId::new("run", spec.run), &spec.run, |b, _| {
            b.iter(|| {
                black_box(simulate_run(
                    &gen,
                    ExecTimeModel::paper(),
                    2_000,
                    &PAPER_TIMEOUTS,
                    DEFAULT_SEED,
                    "bench",
                ))
            });
        });
    }
    group.bench_function("full_table_2k", |b| {
        b.iter(|| {
            black_box(run_table5_with(
                DEFAULT_SEED,
                2_000,
                &PAPER_TIMEOUTS,
                ExecTimeModel::paper(),
            ))
        });
    });
    group.finish();
}

fn midsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments/midsim");
    group.sample_size(10);
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run1());
    let timing = ExecTimeModel::paper();
    group.bench_function(BenchmarkId::new("plan_run", PAPER_REQUESTS), |b| {
        b.iter(|| {
            black_box(plan_run(
                &gen,
                timing,
                PAPER_REQUESTS,
                DEFAULT_SEED,
                "table5/run1",
            ))
        });
    });
    let plan = plan_run(&gen, timing, PAPER_REQUESTS, DEFAULT_SEED, "table5/run1");
    group.bench_function(BenchmarkId::new("simulate_cell", PAPER_REQUESTS), |b| {
        b.iter(|| {
            black_box(simulate_cell(
                &plan,
                MiddlewareConfig::paper(2.0),
                DEFAULT_SEED,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, table5, midsim);
criterion_main!(benches);
