//! End-to-end test: `wsu-loadgen`'s closed loop against `wsu-serve`'s
//! front, over real sockets, with at least two worker threads — the
//! in-process version of the CI http-smoke job. The keep-alive tests at
//! the end pin the front's read path at the socket: the worker polls
//! for [`SPIN_BUDGET`] before it parks in a blocking read, and none of
//! that may change what a client sees.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use wsu_core::serve::ServeSpec;
use wsu_experiments::loadgen::{render_bench_json, run_load, scrape_demand_total, LoadgenConfig};
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_obs::http::{http_get, HttpClient, HttpConn, SPIN_BUDGET};

fn start_front(workers: usize) -> HttpFront {
    HttpFront::start(FrontConfig::new(
        "127.0.0.1:0",
        workers,
        ServeSpec::deterministic(23),
    ))
    .expect("start front")
}

#[test]
fn closed_loop_roundtrip_against_two_workers() {
    let front = start_front(2);
    let addr = front.local_addr();
    let config = LoadgenConfig {
        addr,
        connections: 2,
        requests_per_conn: 200,
        warmup_per_conn: 20,
        timeout: Duration::from_secs(5),
        open_rate: None,
    };
    let summary = run_load(&config).expect("load run");

    // Every demand against the deterministic spec must succeed.
    assert_eq!(summary.errors, 0, "no request may fail on loopback");
    assert_eq!(summary.ok, 400);
    assert_eq!(summary.warmup_ok, 40);
    assert!(summary.requests_per_sec > 0.0);
    assert!(summary.latency.count() == 400);
    assert!(summary.latency_ns(0.50) > 0);
    assert!(summary.latency_ns(0.999) >= summary.latency_ns(0.50));

    // Server-side books must agree exactly with the client's count.
    let server_total = scrape_demand_total(addr).expect("scrape");
    assert_eq!(
        server_total,
        summary.ok + summary.warmup_ok,
        "server demand counter must match the client-side 200 count"
    );
    assert_eq!(front.demands(), server_total);

    // The deterministic spec answers every demand correctly: the
    // verdict counters must show nothing but CR.
    let metrics = front.metrics_text();
    let cr: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_verdicts_total{verdict=\"CR\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(cr, server_total, "all verdicts must be CR");
    // The other verdict series are pre-registered but must stay zero.
    let non_cr: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_verdicts_total") && !l.contains("verdict=\"CR\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(non_cr, 0, "no non-CR verdicts on the deterministic spec");

    // Both workers must actually have served demands: two closed-loop
    // connections occupy two workers for the whole run, so neither
    // counter can be zero.
    let per_worker: Vec<u64> = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_demands_total{worker="))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .collect();
    assert_eq!(per_worker.len(), 2, "both workers must appear in /metrics");
    assert!(
        per_worker.iter().all(|&c| c > 0),
        "both workers must serve demands, got {per_worker:?}"
    );

    // The bench report renders from a real run.
    let json = render_bench_json(&summary);
    assert!(json.contains("\"bench\": \"BENCH_http\""));
    assert!(json.contains("http/demand/latency_p999"));

    front.shutdown();
}

#[test]
fn open_loop_reports_drops_under_overload_and_none_when_feasible() {
    let front = start_front(2);
    let addr = front.local_addr();
    let base = LoadgenConfig {
        addr,
        connections: 2,
        requests_per_conn: 150,
        warmup_per_conn: 10,
        timeout: Duration::from_secs(5),
        open_rate: None,
    };

    // A feasible rate: loopback serves a demand in well under 20 ms,
    // so a 100/s schedule keeps up. (Oversleeps under a loaded test
    // harness can still shed the odd slot — the claim is statistical:
    // nearly everything is sent, and every slot is accounted for.)
    let feasible = LoadgenConfig {
        open_rate: Some(100.0),
        requests_per_conn: 20,
        ..base.clone()
    };
    let summary = run_load(&feasible).expect("load run");
    assert_eq!(summary.errors, 0);
    assert_eq!(
        summary.ok + summary.dropped,
        40,
        "every slot is accounted for"
    );
    assert!(
        summary.drop_rate() < 0.5,
        "a feasible schedule mostly sends, got drop_rate {}",
        summary.drop_rate()
    );
    // The schedule paces the run: 20 slots at 20 ms each ≈ 400 ms
    // (shortened only by whatever slots were shed).
    assert!(summary.elapsed.as_secs_f64() > 0.15);
    assert!(summary.latency_ns(0.50) > 0);

    // An absurd rate: the schedule outruns loopback service time, so
    // slots are dropped and every sent request still succeeds.
    let overload = LoadgenConfig {
        open_rate: Some(50_000_000.0),
        ..base.clone()
    };
    let summary = run_load(&overload).expect("load run");
    assert_eq!(summary.errors, 0);
    assert!(
        summary.drop_rate() > 0.5,
        "a 50M/s schedule must shed most load, got ok={} dropped={}",
        summary.ok,
        summary.dropped
    );
    assert_eq!(summary.ok + summary.dropped, 300);
    // The bench report carries the drop accounting.
    let json = render_bench_json(&summary);
    assert!(json.contains("\"requests_dropped\":"));
    assert!(json.contains("\"drop_rate\":"));

    // A non-positive rate is a config error, not a hang.
    let bad = LoadgenConfig {
        open_rate: Some(0.0),
        ..base
    };
    assert!(run_load(&bad).is_err());

    front.shutdown();
}

#[test]
fn demand_outcomes_are_deterministic_json() {
    let front = start_front(1);
    let mut client =
        HttpClient::connect(front.local_addr(), Duration::from_secs(5)).expect("connect");
    // One worker, one connection: the outcome stream is exactly the
    // deterministic spec's, so the first responses are predictable.
    for seq in 0..3 {
        let resp = client.request("POST", "/demand", b"").expect("demand");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body
                .contains(&format!("\"seq\":{seq},\"worker\":0,\"verdict\":\"CR\"")),
            "unexpected outcome JSON: {}",
            resp.body
        );
        assert!(resp.body.contains("\"response_time\":0.15"));
        assert!(resp.body.contains("\"responders\":2"));
    }
    front.shutdown();
}

#[test]
fn serving_front_route_semantics() {
    let front = start_front(2);
    let addr = front.local_addr();

    let health = http_get(addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");

    // GET on the POST route: 405 with Allow: POST.
    let resp = client.request("GET", "/demand", b"").expect("GET /demand");
    assert_eq!(resp.status, 405);
    // POST on a GET route: 405 with Allow: GET.
    let resp = client
        .request("POST", "/health", b"")
        .expect("POST /health");
    assert_eq!(resp.status, 405);
    // Unknown path: 404.
    let resp = client
        .request("GET", "/missing", b"")
        .expect("GET /missing");
    assert_eq!(resp.status, 404);
    // The connection survived all three errors (keep-alive intact).
    let resp = client
        .request("POST", "/demand", b"")
        .expect("POST /demand");
    assert_eq!(resp.status, 200);

    let snap = http_get(addr, "/snapshot").expect("snapshot");
    assert_eq!(snap.status, 200);
    assert!(snap.body.contains("\"demands\":1"));
    front.shutdown();
}

#[test]
fn front_shutdown_is_prompt_and_clean() {
    use std::sync::mpsc;
    let front = start_front(4);
    let addr = front.local_addr();
    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(
        client
            .request("POST", "/demand", b"")
            .expect("demand")
            .status,
        200
    );
    drop(client);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        front.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("front shutdown hung");
}

/// The per-connection timeout of the keep-alive tests: short, so a
/// timeout shows within the test, and far above [`SPIN_BUDGET`].
const IO_TIMEOUT: Duration = Duration::from_millis(400);

/// A one-worker deterministic front whose connections time out after
/// [`IO_TIMEOUT`].
fn start_short_timeout_front() -> HttpFront {
    HttpFront::start(FrontConfig {
        io_timeout: IO_TIMEOUT,
        ..FrontConfig::new("127.0.0.1:0", 1, ServeSpec::deterministic(23))
    })
    .expect("start front")
}

/// A raw client connection that waits far longer than the front does.
fn raw_client(front: &HttpFront) -> TcpStream {
    let stream = TcpStream::connect(front.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

#[test]
fn requests_across_an_idle_gap_share_one_connection() {
    let front = start_short_timeout_front();
    let mut client =
        HttpClient::connect(front.local_addr(), Duration::from_secs(5)).expect("connect");
    let local = client.local_addr().expect("local addr");
    // Each gap outlasts the spin budget, so the worker parks, and stays
    // under the front's timeout, so the connection must survive it.
    for gap in [Duration::ZERO, Duration::from_millis(5), IO_TIMEOUT / 2] {
        assert!(gap.is_zero() || gap > SPIN_BUDGET * 10);
        std::thread::sleep(gap);
        let resp = client
            .request("POST", "/demand", b"")
            .expect("demand after a gap");
        assert_eq!(
            resp.status, 200,
            "no 408 after a {gap:?} gap: {}",
            resp.body
        );
        assert!(
            resp.keep_alive,
            "the connection must stay open after a {gap:?} gap"
        );
        assert_eq!(client.local_addr().expect("local addr"), local);
    }
    assert_eq!(front.demands(), 3);
    front.shutdown();
}

#[test]
fn partial_head_stalled_past_the_timeout_gets_408() {
    let front = start_short_timeout_front();
    let mut stream = raw_client(&front);
    stream
        .write_all(b"POST /demand HTTP/1.1\r\nHost: x\r\n")
        .expect("write partial head");
    let started = Instant::now();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read until close");
    let waited = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "stalled head must get 408, got {text:?}"
    );
    assert!(text.contains("Connection: close\r\n"));
    assert!(
        waited >= IO_TIMEOUT * 3 / 4,
        "the 408 came after {waited:?}, before the {IO_TIMEOUT:?} timeout"
    );
    assert_eq!(front.demands(), 0);
    front.shutdown();
}

#[test]
fn idle_keep_alive_connection_closes_after_the_timeout_without_a_response() {
    let front = start_short_timeout_front();
    let addr = front.local_addr();
    let mut conn = HttpConn::new(raw_client(&front));
    conn.send_request("POST", "/demand", &addr.to_string(), b"", true)
        .expect("send");
    let resp = conn.recv_response().expect("response");
    assert_eq!(resp.status, 200);
    assert!(resp.keep_alive);
    let started = Instant::now();
    let mut rest = Vec::new();
    let mut stream: &TcpStream = conn.get_ref();
    stream.read_to_end(&mut rest).expect("read until close");
    let waited = started.elapsed();
    assert!(
        rest.is_empty(),
        "an idle close owes no response, got {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert!(
        waited >= IO_TIMEOUT * 3 / 4 && waited < Duration::from_secs(5),
        "idle connection closed after {waited:?}, expected about {IO_TIMEOUT:?}"
    );
    // The worker is free again for the next client.
    assert_eq!(http_get(addr, "/health").expect("health").status, 200);
    front.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let front = start_short_timeout_front();
    let mut conn = HttpConn::new(raw_client(&front));
    let demand = "POST /demand HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
    let health = "GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
    let last = "POST /demand HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    let batch = [demand, demand, health, demand, last].concat();
    let mut stream: &TcpStream = conn.get_ref();
    stream.write_all(batch.as_bytes()).expect("write batch");
    for seq in 0..2 {
        let resp = conn.recv_response().expect("demand response");
        assert!(
            resp.body.contains(&format!("\"seq\":{seq},")),
            "{}",
            resp.body
        );
    }
    let resp = conn.recv_response().expect("health response");
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    for seq in 2..4 {
        let resp = conn.recv_response().expect("demand response");
        assert!(
            resp.body.contains(&format!("\"seq\":{seq},")),
            "{}",
            resp.body
        );
    }
    let mut rest = Vec::new();
    let mut stream: &TcpStream = conn.get_ref();
    stream.read_to_end(&mut rest).expect("read until close");
    assert!(rest.is_empty(), "nothing follows the closing response");
    assert_eq!(front.demands(), 4);
    front.shutdown();
}
