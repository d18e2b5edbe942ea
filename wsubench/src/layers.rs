//! Per-layer timings. Each times one public call of one crate (the
//! median ns per call over several batches), with inputs derived from
//! the workload seed. Every traced run reports all of them through
//! [`Layers`], whichever workload it is, so a change to one layer shows
//! as the same row on every workload; the workloads' end-to-end metrics
//! tell where that layer carries weight.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Mutex;

use wsu_core::adjudicate::CollectedResponse;
use wsu_core::release::ReleaseId;
use wsu_core::serve::ServeSpec;
use wsu_experiments::bayes_study::{run_study, Detection, StudyConfig};
use wsu_experiments::scalestudy::scale_spec;
use wsu_obs::http::{HttpConn, Response};
use wsu_obs::metrics::MetricsRegistry;
use wsu_simcore::dist::Exponential;
use wsu_simcore::queue::EventQueue;
use wsu_simcore::rng::MasterSeed;
use wsu_simcore::time::SimTime;
use wsu_workload::outcomes::{CorrelatedOutcomes, OutcomePairGen};
use wsu_workload::runs::RunSpec;
use wsu_workload::scenario::Scenario;
use wsu_wstack::endpoint::{ServiceEndpoint, SyntheticService};
use wsu_wstack::message::Envelope;

use crate::repro;
use crate::run::{ns_per_call, Run};
use crate::serve::{self, Mem, VERDICTS};
use crate::stats::median;

const BATCHES: usize = 7;

/// `workload` on the Bayes study: one true outcome of Scenario 1.
pub fn truth_sample_ns(seed: MasterSeed) -> f64 {
    let truth = Scenario::one().truth;
    let mut rng = seed.stream("bayes-study/truth/scenario1");
    ns_per_call(BATCHES, 200_000, |_| {
        black_box(truth.sample(&mut rng));
    })
}

/// `workload` in the middleware simulation: one correlated outcome
/// pair of Table 5's Run 2.
pub fn pair_sample_ns(seed: MasterSeed) -> f64 {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let mut rng = seed.stream("bench/pairs");
    ns_per_call(BATCHES, 200_000, |_| {
        black_box(gen.sample_pair(&mut rng));
    })
}

/// `detect`: one observation by each of the paper's three detection
/// regimes, per regime, over Scenario 1's true outcomes.
pub fn observe_ns(seed: MasterSeed) -> f64 {
    let truth = Scenario::one().truth;
    let mut truth_rng = seed.stream("bench/detect-truth");
    let outcomes: Vec<_> = (0..4096).map(|_| truth.sample(&mut truth_rng)).collect();
    let mut detectors: Vec<_> = Detection::paper_regimes()
        .iter()
        .map(|d| d.build())
        .collect();
    let mut rng = seed.stream("bench/detect");
    let per_demand = ns_per_call(BATCHES, 100_000, |i| {
        let truth = outcomes[(i % 4096) as usize];
        for detector in &mut detectors {
            black_box(detector.observe(truth, &mut rng));
        }
    });
    per_demand / detectors.len() as f64
}

/// `simcore` event queue under the hold model: `in_flight` pending
/// events; each op pops the earliest and schedules a successor an
/// exponential delay (mean 1.4 s, the paper's response time) later.
pub fn queue_hold_ns(in_flight: usize, seed: MasterSeed) -> f64 {
    let delay = Exponential::with_mean(1.4);
    let mut rng = seed.stream("bench/hold");
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..in_flight {
        queue.push(SimTime::from_secs(delay.sample(&mut rng)), i as u32);
    }
    ns_per_call(BATCHES, 100_000, |_| {
        let (now, event) = queue.pop().expect("hold keeps the queue non-empty");
        let due = SimTime::from_secs(now.as_secs() + delay.sample(&mut rng));
        queue.push(due, black_box(event));
    })
}

/// `simcore` RNG: deriving one demand's indexed stream and drawing
/// from it, as the sharded demand path does per demand.
pub fn indexed_stream_ns(seed: MasterSeed) -> f64 {
    ns_per_call(BATCHES, 200_000, |i| {
        black_box(seed.indexed_stream("serve-demand", i).next_u64());
    })
}

/// `wstack`: one invocation of the spec's first release.
pub fn invoke_ns(spec: &ServeSpec) -> f64 {
    let release = &spec.releases[0];
    let mut service = SyntheticService::builder(&release.service, &release.release)
        .outcomes(release.outcomes)
        .exec_time(release.exec_time)
        .build();
    let request = Envelope::request(&spec.operation);
    let mut rng = MasterSeed::new(spec.seed).stream("bench/invoke");
    ns_per_call(BATCHES, 100_000, |_| {
        black_box(service.invoke(&request, &mut rng));
    })
}

/// `core`: one demand through worker 0's middleware, on its
/// sequential stream (the serving path).
pub fn demand_ns(spec: &ServeSpec) -> f64 {
    let mut worker = spec.worker(0);
    ns_per_call(BATCHES, 50_000, |_| {
        black_box(worker.demand().expect("the spec deploys releases"));
    })
}

/// `core`: one demand keyed by a global id (the sharded fleet path).
pub fn fleet_demand_ns(spec: &ServeSpec) -> f64 {
    let mut worker = spec.worker(0);
    ns_per_call(BATCHES, 50_000, |i| {
        black_box(worker.demand_indexed(i).expect("the spec deploys releases"));
    })
}

/// `core`: adjudicating one demand's collected responses, sampled
/// from the spec's release profiles.
pub fn adjudicate_ns(spec: &ServeSpec) -> f64 {
    let mut rng = MasterSeed::new(spec.seed).stream("bench/adjudicate");
    let demands: Vec<Vec<CollectedResponse>> = (0..1024)
        .map(|_| {
            spec.releases
                .iter()
                .enumerate()
                .map(|(i, r)| CollectedResponse {
                    release: ReleaseId::new(i),
                    class: r.outcomes.sample(&mut rng),
                    exec_time: r.exec_time.sample(&mut rng),
                })
                .collect()
        })
        .collect();
    let adjudicator = spec.middleware.adjudicator;
    ns_per_call(BATCHES, 100_000, |i| {
        black_box(adjudicator.adjudicate(&demands[(i % 1024) as usize], &mut rng));
    })
}

/// `obs` per-demand registry work, as the front does it: three short
/// critical sections bumping pre-resolved ids.
fn bump_ns(spec: &ServeSpec) -> f64 {
    let mut registry = MetricsRegistry::new();
    let w = [("worker", "0")];
    let requests = registry.counter_id(
        "wsu_http_requests_total",
        &[("route", "demand"), ("worker", "0")],
    );
    let demands = registry.counter_id("wsu_http_demands_total", &w);
    let verdicts = VERDICTS.map(|v| {
        registry.counter_id(
            "wsu_http_verdicts_total",
            &[("verdict", v), ("worker", "0")],
        )
    });
    let virt = registry.sketch_id("wsu_http_virtual_response_seconds", &w);
    let service = registry.sketch_id("wsu_http_service_seconds", &w);
    let mut worker = spec.worker(0);
    let outcomes: Vec<(usize, f64)> = (0..4096)
        .map(|_| {
            let o = worker.demand().expect("the paper spec deploys releases");
            let v = VERDICTS
                .iter()
                .position(|l| *l == o.verdict_label())
                .unwrap_or(3);
            (v, o.response_time)
        })
        .collect();
    let registry = Mutex::new(registry);
    ns_per_call(7, 100_000, |i| {
        let (v, response_time) = outcomes[(i % 4096) as usize];
        registry
            .lock()
            .expect("registry poisoned")
            .inc_counter_id(requests);
        {
            let mut r = registry.lock().expect("registry poisoned");
            r.inc_counter_id(demands);
            r.inc_counter_id(verdicts[v]);
            r.observe_sketch_id(virt, response_time);
        }
        registry
            .lock()
            .expect("registry poisoned")
            .observe_sketch_id(service, 2e-5);
    })
}

/// `obs::http` costs of one `/demand` exchange over in-memory bytes:
/// `(recv_ns, send_ns)`.
fn http_ns(request: &[u8], body: &[u8]) -> (f64, f64) {
    const N: u64 = 50_000;
    let input: Vec<u8> = request.repeat(8 * N as usize + 8);
    let mut conn = HttpConn::new(Mem::new(input, false));
    let recv = ns_per_call(7, N, |_| {
        std::hint::black_box(conn.recv().expect("well-formed pipelined requests"));
    });
    let response = Response::json(200, String::from_utf8_lossy(body));
    let mut out = HttpConn::new(Mem::new(Vec::new(), false));
    let send = ns_per_call(7, N, |_| {
        out.send(&response, true)
            .expect("writing to memory cannot fail");
    });
    (recv, send)
}

/// `bayes`: one `PosteriorUpdater::update_to` plus the three percentile
/// queries, replaying the checkpoints of Scenario 1 studies (5,000
/// demands, checkpoints every 500, paper resolution) under each of the
/// paper's detection regimes. A replay that does not reproduce the
/// recorded percentiles bit for bit fails the run.
pub fn checkpoint_ns(run: &mut Run) -> f64 {
    let (base, _) = repro::study_configs(run.master());
    let config = StudyConfig {
        demands: 5_000,
        ..base
    };
    let mut times = Vec::new();
    for detection in Detection::paper_regimes() {
        let study = run_study(&Scenario::one(), detection, &config);
        for _ in 0..3 {
            let (identical, more) = repro::replay_study(&study, &config);
            run.check(identical, || {
                format!("checkpoint replay under {detection:?} is not bit-identical")
            });
            times.extend(more);
        }
    }
    median(&times)
}

/// Every per-layer timing, in `BENCHMARK.json` order.
#[derive(Debug, Clone)]
pub struct Layers {
    /// `bayes.checkpoint_ns`.
    pub checkpoint_ns: f64,
    /// `workload.truth_sample_ns`: one Scenario 1 true outcome.
    pub truth_sample_ns: f64,
    /// `workload.pair_sample_ns`: one Run 2 correlated outcome pair.
    pub pair_sample_ns: f64,
    /// `detect.observe_ns`.
    pub observe_ns: f64,
    /// `simcore.queue.hold1_ns`: the closed-loop shape.
    pub hold1_ns: f64,
    /// `simcore.queue.hold64_ns`: the capacity study's shape.
    pub hold64_ns: f64,
    /// `simcore.rng.indexed_stream_ns`.
    pub indexed_stream_ns: f64,
    /// `wstack.invoke_ns` (scale spec).
    pub invoke_ns: f64,
    /// `core.demand_ns` (paper serving spec, sequential stream).
    pub demand_ns: f64,
    /// `core.fleet_demand_ns` (scale spec, indexed streams).
    pub fleet_demand_ns: f64,
    /// `core.adjudicate_ns` (paper serving spec).
    pub adjudicate_ns: f64,
    /// `obs.http.recv_ns`: parsing the exact `/demand` request.
    pub http_recv_ns: f64,
    /// `obs.http.send_ns`: writing a real `/demand` response.
    pub http_send_ns: f64,
    /// `obs.metrics.bump_ns`: the front's per-demand registry updates.
    pub bump_ns: f64,
    /// `obs.metrics.render_us`: one merged `/metrics` render.
    pub render_us: f64,
}

impl Layers {
    /// Measures every layer for the run's seed. The HTTP rows use the
    /// request bytes and a response body of a short-lived front.
    pub fn measure(run: &mut Run) -> Layers {
        let seed = run.master();
        let paper = ServeSpec::paper(seed.value());
        let scale = scale_spec(seed.value());
        let (request, body, render_us) = match serve::front_sample(seed.value()) {
            Ok(sample) => sample,
            Err(e) => {
                run.check(false, || format!("sample front failed: {e}"));
                let addr = SocketAddr::from(([127, 0, 0, 1], 9));
                (
                    serve::request_bytes("POST", "/demand", addr),
                    Vec::new(),
                    f64::NAN,
                )
            }
        };
        let (http_recv_ns, http_send_ns) = http_ns(&request, &body);
        Layers {
            checkpoint_ns: checkpoint_ns(run),
            truth_sample_ns: truth_sample_ns(seed),
            pair_sample_ns: pair_sample_ns(seed),
            observe_ns: observe_ns(seed),
            hold1_ns: queue_hold_ns(1, seed),
            hold64_ns: queue_hold_ns(64, seed),
            indexed_stream_ns: indexed_stream_ns(seed),
            invoke_ns: invoke_ns(&scale),
            demand_ns: demand_ns(&paper),
            fleet_demand_ns: fleet_demand_ns(&scale),
            adjudicate_ns: adjudicate_ns(&paper),
            http_recv_ns,
            http_send_ns,
            bump_ns: bump_ns(&paper),
            render_us,
        }
    }

    /// Reports every layer as a metric.
    pub fn report(&self, run: &mut Run) {
        let rows = [
            ("bayes.checkpoint_ns", self.checkpoint_ns, "ns"),
            ("workload.truth_sample_ns", self.truth_sample_ns, "ns"),
            ("workload.pair_sample_ns", self.pair_sample_ns, "ns"),
            ("detect.observe_ns", self.observe_ns, "ns"),
            ("simcore.queue.hold1_ns", self.hold1_ns, "ns"),
            ("simcore.queue.hold64_ns", self.hold64_ns, "ns"),
            (
                "simcore.rng.indexed_stream_ns",
                self.indexed_stream_ns,
                "ns",
            ),
            ("wstack.invoke_ns", self.invoke_ns, "ns"),
            ("core.demand_ns", self.demand_ns, "ns"),
            ("core.fleet_demand_ns", self.fleet_demand_ns, "ns"),
            ("core.adjudicate_ns", self.adjudicate_ns, "ns"),
            ("obs.http.recv_ns", self.http_recv_ns, "ns"),
            ("obs.http.send_ns", self.http_send_ns, "ns"),
            ("obs.metrics.bump_ns", self.bump_ns, "ns"),
            ("obs.metrics.render_us", self.render_us, "us"),
        ];
        for (name, value, unit) in rows {
            run.metric(name, value, unit);
        }
    }
}
