//! Benchmarks regeneration of Table 6 (independent releases).

use std::hint::black_box;
use wsu_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsu_experiments::midsim::{simulate_run, ObsSinks};
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_TIMEOUTS};
use wsu_simcore::par::Jobs;
use wsu_workload::outcomes::IndependentOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

fn table6(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6");
    group.sample_size(10);
    for spec in RunSpec::all() {
        let gen = IndependentOutcomes::from_run(&spec);
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
            black_box(run_table6_jobs(
                DEFAULT_SEED,
                2_000,
                &PAPER_TIMEOUTS,
                ExecTimeModel::paper(),
                &ObsSinks::default(),
                Jobs::new(1),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, table6);
criterion_main!(benches);
