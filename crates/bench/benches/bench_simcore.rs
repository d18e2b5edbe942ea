//! Micro-benchmarks of the simulation substrate: RNG streams, event
//! queue, a closed-loop engine run, and the metric-handle fast path the
//! demand loop writes through (string-keyed lookup vs pre-resolved id).

use std::hint::black_box;
use wsu_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsu_obs::metrics::MetricsRegistry;
use wsu_simcore::dist::Exponential;
use wsu_simcore::engine::{Engine, Handler};
use wsu_simcore::queue::EventQueue;
use wsu_simcore::rng::StreamRng;
use wsu_simcore::time::{SimDuration, SimTime};

fn rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("simcore/rng");
    group.bench_function("next_u64", |b| {
        let mut rng = StreamRng::from_seed(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function("exponential_sample", |b| {
        let mut rng = StreamRng::from_seed(2);
        let exp = Exponential::with_mean(0.7);
        b.iter(|| black_box(exp.sample(&mut rng)));
    });
    group.bench_function("pick_weighted_3", |b| {
        let mut rng = StreamRng::from_seed(3);
        let weights = [0.7, 0.15, 0.15];
        b.iter(|| black_box(rng.pick_weighted(&weights)));
    });
    group.finish();
}

fn queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("simcore/queue");
    for n in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut rng = StreamRng::from_seed(4);
                for i in 0..n {
                    q.push(SimTime::from_secs(rng.next_f64() * 100.0), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum += e;
                }
                black_box(sum)
            });
        });
    }
    // Hold model: `n` events in flight; each op pops the earliest and
    // schedules its successor an exponential delay (mean 1.4 s, the
    // paper's response time) later. One in flight is the closed demand
    // loop; 64 is the capacity study's shape.
    for n in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("hold", n), &n, |b, &n| {
            let delay = Exponential::with_mean(1.4);
            let mut rng = StreamRng::from_seed(5);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_secs(delay.sample(&mut rng)), i);
            }
            b.iter(|| {
                let (now, e) = q.pop().expect("hold keeps the queue non-empty");
                q.push(now + delay.sample_duration(&mut rng), e);
            });
        });
    }
    group.finish();
}

struct Loop {
    remaining: u64,
}

impl Handler<()> for Loop {
    fn handle(&mut self, engine: &mut Engine<()>, _event: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            engine.schedule_in(SimDuration::from_secs(1.0), ());
        }
    }
}

fn engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simcore/engine");
    group.bench_function("closed_loop_10k_events", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            engine.schedule_at(SimTime::ZERO, ());
            let mut world = Loop { remaining: 10_000 };
            black_box(engine.run(&mut world))
        });
    });
    group.finish();
}

fn metric_handles(c: &mut Criterion) {
    let mut group = c.benchmark_group("simcore/metric_handles");
    let labels = [("release", "1.0"), ("class", "CR")];
    group.bench_function("inc_counter_string_keyed", |b| {
        let mut reg = MetricsRegistry::new();
        b.iter(|| {
            reg.inc_counter("wsu_responses_total", &labels);
        });
    });
    group.bench_function("inc_counter_id", |b| {
        let mut reg = MetricsRegistry::new();
        let id = reg.counter_id("wsu_responses_total", &labels);
        b.iter(|| reg.inc_counter_id(black_box(id)));
    });
    group.bench_function("observe_string_keyed", |b| {
        let mut reg = MetricsRegistry::new();
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.37) % 5.0;
            reg.observe("wsu_exec_time_seconds", &labels[..1], x);
        });
    });
    group.bench_function("observe_id", |b| {
        let mut reg = MetricsRegistry::new();
        let id = reg.histogram_id("wsu_exec_time_seconds", &labels[..1]);
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.37) % 5.0;
            reg.observe_id(black_box(id), x);
        });
    });
    group.finish();
}

criterion_group!(benches, rng, queue, engine, metric_handles);
criterion_main!(benches);
