//! `serve`: the HTTP front. An in-process `HttpFront` runs
//! `ServeSpec::paper(seed)` on one worker thread over loopback; the
//! generator (this thread) drives one keep-alive connection, first in
//! a closed loop (one request in flight) and then in an open loop at
//! the fixed rate [`OPEN_RATE`], pipelining requests on the schedule
//! whatever the responses do. In the open loop one request in 1000 is
//! a `GET /metrics` scrape, so metric reads run beside the per-demand
//! writes.
//!
//! Correctness: every `/demand` answers 200 with a parseable verdict;
//! the client's count of 200s equals the scraped
//! `wsu_http_demands_total`; and the verdict counts equal an
//! in-process replay of `ServeSpec::paper(seed).worker(0)` over as many
//! demands. A run whose generator ran later than [`LATE_P99_BOUND_US`]
//! at p99 is invalid: its latencies would measure the generator.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wsu_core::serve::ServeSpec;
use wsu_experiments::loadgen::scrape_demand_total;
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_obs::http::HttpConn;

use crate::layers::Layers;
use crate::run::{timed_setup, Run};
use crate::sched::{lateness_ns, wait_plan, Schedule, Wait};
use crate::stats::{median, sorted, tail};

/// The open-loop rate, requests per second: about 55% of the closed-
/// loop capacity of one front worker (44k req/s) on the machine the
/// benchmark was defined on, a 2-vCPU Xeon VM.
pub const OPEN_RATE: f64 = 24_000.0;
/// Every this many open-loop slots, one is a `/metrics` scrape.
const SCRAPE_EVERY: u64 = 1000;
/// Closed-loop requests of each set-up's warm-up.
const WARMUP: u64 = 2_000;
/// Share of the run's seconds spent in the closed loop.
const CLOSED_SHARE: f64 = 0.4;
/// Window over which one closed-loop throughput sample is taken.
const WINDOW: Duration = Duration::from_millis(250);
/// A run is invalid when the generator's p99 lateness exceeds this.
pub const LATE_P99_BOUND_US: f64 = 500.0;
/// How long the open loop waits for outstanding responses after the
/// last due instant: long enough for a front slower than the fixed rate
/// to work off its backlog, so overload shows as latency, not failure.
const DRAIN: Duration = Duration::from_secs(30);
/// How long a closed-loop exchange waits for its response.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(5);
/// Verdict labels, in the front's order.
pub const VERDICTS: [&str; 4] = ["CR", "ER", "NER", "NRDT"];

/// An in-memory stream: reads come from `input`; writes are kept when
/// `keep` is set and dropped otherwise.
pub struct Mem {
    input: Vec<u8>,
    pos: usize,
    keep: bool,
    output: Vec<u8>,
}

impl Mem {
    pub fn new(input: Vec<u8>, keep: bool) -> Mem {
        Mem {
            input,
            pos: 0,
            keep,
            output: Vec::new(),
        }
    }
}

impl Read for Mem {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Mem {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.keep {
            self.output.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The exact bytes the shared HTTP layer writes for a keep-alive
/// request to `addr`.
pub fn request_bytes(method: &str, path: &str, addr: SocketAddr) -> Vec<u8> {
    let mut conn = HttpConn::new(Mem::new(Vec::new(), true));
    conn.send_request(method, path, &addr.to_string(), b"", true)
        .expect("writing to memory cannot fail");
    conn.get_ref().output.clone()
}

/// One parsed response frame within a receive buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    /// Bytes the frame occupies, head and body.
    len: usize,
    status: u16,
    /// Body range within the buffer.
    body: (usize, usize),
}

/// Parses the first complete response in `buf`: `Ok(None)` when more
/// bytes are needed, `Err` on a frame the front should never send (no
/// `Content-Length`, or a closing connection).
fn parse_frame(buf: &[u8]) -> Result<Option<Frame>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("bad status line")?;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or("bad header")?;
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.trim().parse::<usize>().map_err(|_| "bad length")?);
        } else if name.eq_ignore_ascii_case("connection") && value.trim() == "close" {
            return Err("front closed the connection".into());
        }
    }
    let length = length.ok_or("no content-length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(Frame {
        len: body_start + length,
        status,
        body: (body_start, body_start + length),
    }))
}

/// The verdict index of a `/demand` body, if it holds one.
fn verdict_of(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"verdict\":\"")?.1;
    let label = rest.split_once('"')?.0;
    VERDICTS.iter().position(|v| *v == label)
}

/// The generator's end of the keep-alive connection.
struct Pipe {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Buffer range of the last frame's body.
    last_body: (usize, usize),
}

impl Pipe {
    /// Connects a nonblocking stream: the generator polls it and never
    /// blocks, so its core never halts between requests.
    fn connect(addr: SocketAddr) -> io::Result<Pipe> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Pipe {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            last_body: (0, 0),
        })
    }

    /// Pops the next complete frame already buffered.
    fn next_frame(&mut self) -> Result<Option<(u16, Option<usize>)>, String> {
        match parse_frame(&self.buf[self.start..self.end])? {
            None => Ok(None),
            Some(f) => {
                self.last_body = (self.start + f.body.0, self.start + f.body.1);
                let verdict = verdict_of(&self.buf[self.last_body.0..self.last_body.1]);
                self.start += f.len;
                Ok(Some((f.status, verdict)))
            }
        }
    }

    /// Reads once; `Ok(0)` on a would-block read of a nonblocking
    /// stream, an error on EOF.
    fn fill(&mut self) -> Result<usize, String> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err("front closed the connection".into()),
            Ok(n) => {
                self.end += n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Writes all of `buf` to the nonblocking stream. While the socket
    /// buffer is full it reads instead, so a backlogged front is never
    /// stuck writing responses the generator is not reading.
    fn send(&mut self, buf: &[u8]) -> Result<(), String> {
        let mut written = 0;
        while written < buf.len() {
            match self.stream.write(&buf[written..]) {
                Ok(0) => return Err("front closed the connection".into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.fill()?;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }

    /// One closed-loop exchange, busy-polling for the response:
    /// `(status, verdict)`.
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Option<usize>), String> {
        self.send(request)?;
        let sent = Instant::now();
        loop {
            if let Some((status, verdict)) = self.next_frame()? {
                return Ok((status, verdict));
            }
            if self.fill()? == 0 {
                if sent.elapsed() > EXCHANGE_TIMEOUT {
                    return Err("no response".into());
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// Client-side books of everything sent on the kept connection.
#[derive(Debug, Default)]
struct Books {
    /// `/demand` requests answered 200 with a parseable verdict.
    ok: u64,
    /// `/demand` requests that failed (status, verdict or I/O).
    failed: u64,
    verdicts: [u64; 4],
}

impl Books {
    fn demand(&mut self, result: &Result<(u16, Option<usize>), String>) -> bool {
        match result {
            Ok((200, Some(v))) => {
                self.ok += 1;
                self.verdicts[*v] += 1;
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }
}

/// A started front with its warmed-up connection. Fields drop in
/// order: the connection closes before the front joins its worker,
/// which serves the connection until it closes.
struct Served {
    pipe: Pipe,
    front: HttpFront,
    demand: Vec<u8>,
    scrape: Vec<u8>,
    /// The body of the last warm-up `/demand` response.
    body: Vec<u8>,
    books: Books,
}

fn setup(spec_seed: u64) -> io::Result<Served> {
    let front = HttpFront::start(FrontConfig::new(
        "127.0.0.1:0",
        1,
        ServeSpec::paper(spec_seed),
    ))?;
    let addr = front.local_addr();
    let mut served = Served {
        pipe: Pipe::connect(addr)?,
        demand: request_bytes("POST", "/demand", addr),
        scrape: request_bytes("GET", "/metrics", addr),
        front,
        body: Vec::new(),
        books: Books::default(),
    };
    for _ in 0..WARMUP {
        let result = served.pipe.exchange(&served.demand);
        served.books.demand(&result);
    }
    let (from, to) = served.pipe.last_body;
    served.body = served.pipe.buf[from..to].to_vec();
    Ok(served)
}

/// Closed-loop phase of `secs`: per-window throughputs of completed
/// requests and each request's round trip in ns (`+inf` if failed). Records one span per request when
/// `trace` is set.
fn closed_loop(run: &mut Run, s: &mut Served, secs: f64, trace: bool) -> (Vec<f64>, Vec<f64>) {
    let mut window_rps = Vec::new();
    let mut rtts = Vec::new();
    let started = Instant::now();
    let mut window_start = started;
    let mut in_window = 0u64;
    while started.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        let result = s.pipe.exchange(&s.demand);
        let t1 = Instant::now();
        if trace {
            run.tracer
                .record("serve.request", t0, t1, None, s.books.ok + s.books.failed);
        }
        if s.books.demand(&result) {
            rtts.push((t1 - t0).as_nanos() as f64);
            in_window += 1;
        } else {
            rtts.push(f64::INFINITY);
        }
        let window = t1 - window_start;
        if window >= WINDOW {
            window_rps.push(in_window as f64 / window.as_secs_f64());
            window_start = t1;
            in_window = 0;
        }
    }
    (window_rps, rtts)
}

/// What the open loop measured.
struct OpenLoop {
    /// `/demand` latency from the due instant, ns (`+inf` if failed).
    latency: Vec<f64>,
    /// `/metrics` scrape latency from the due instant, ns.
    scrape: Vec<f64>,
    /// Generator lateness per slot, ns.
    late: Vec<f64>,
    /// Scrapes answered 200.
    scrapes_ok: u64,
}

/// Open-loop phase of `secs` at [`OPEN_RATE`] on the kept connection.
fn open_loop(s: &mut Served, secs: f64) -> OpenLoop {
    let schedule = Schedule::new(OPEN_RATE);
    let slots = schedule.slots_in((secs * 1e9) as u64) as usize;
    let due = |k: usize| schedule.due_ns(k as u64);
    let is_scrape = |k: usize| k as u64 % SCRAPE_EVERY == SCRAPE_EVERY - 1;
    // Per slot: when it was answered (ns from the origin), the status
    // and the verdict.
    let mut answered: Vec<Option<(u64, u16, Option<usize>)>> = vec![None; slots];
    let mut late = Vec::with_capacity(slots);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut broken = false;
    let origin = Instant::now() + Duration::from_millis(1);
    let now_ns = || Instant::now().saturating_duration_since(origin).as_nanos() as u64;
    let deadline = due(slots) + DRAIN.as_nanos() as u64;
    let mut next = 0;
    while !broken && (next < slots || !pending.is_empty()) && now_ns() < deadline {
        let now = now_ns();
        while next < slots && due(next) <= now {
            let request = if is_scrape(next) {
                &s.scrape
            } else {
                &s.demand
            };
            broken |= s.pipe.send(request).is_err();
            late.push(lateness_ns(due(next), now) as f64);
            pending.push_back(next);
            next += 1;
        }
        let plan = if next < slots {
            wait_plan(now_ns(), due(next), pending.len())
        } else {
            Wait::Spin
        };
        let read = match plan {
            Wait::Send => Ok(0),
            Wait::Sleep(ns) => {
                std::thread::sleep(Duration::from_nanos(ns));
                Ok(0)
            }
            Wait::Spin => s.pipe.fill(),
        };
        broken |= read.is_err();
        let at = now_ns();
        loop {
            match s.pipe.next_frame() {
                Ok(Some((status, verdict))) => match pending.pop_front() {
                    Some(slot) => answered[slot] = Some((at, status, verdict)),
                    None => broken = true,
                },
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
    }
    let mut result = OpenLoop {
        latency: Vec::new(),
        scrape: Vec::new(),
        late,
        scrapes_ok: 0,
    };
    for (k, answer) in answered.into_iter().enumerate() {
        if is_scrape(k) {
            let (latency, ok) = match answer {
                Some((at, 200, _)) => (at.saturating_sub(due(k)) as f64, 1),
                _ => (f64::INFINITY, 0),
            };
            result.scrape.push(latency);
            result.scrapes_ok += ok;
            continue;
        }
        match answer {
            Some((at, 200, Some(v))) => {
                s.books.ok += 1;
                s.books.verdicts[v] += 1;
                result.latency.push(at.saturating_sub(due(k)) as f64);
            }
            _ => {
                s.books.failed += 1;
                result.latency.push(f64::INFINITY);
            }
        }
    }
    result
}

/// Checks the server's books and an in-process replay against the
/// client's.
fn reconcile(run: &mut Run, spec_seed: u64, addr: SocketAddr, books: &Books) {
    run.tally(
        books.ok + books.failed,
        books.failed,
        "/demand requests failed",
    );
    match scrape_demand_total(addr) {
        Ok(total) => {
            run.check(total == books.ok, || {
                format!("front counted {total} demands, the client {}", books.ok)
            });
        }
        Err(e) => {
            run.check(false, || format!("final scrape failed: {e}"));
        }
    }
    let mut worker = ServeSpec::paper(spec_seed).worker(0);
    let mut replay = [0u64; 4];
    for _ in 0..books.ok + books.failed {
        let outcome = worker.demand().expect("the paper spec deploys releases");
        let v = VERDICTS
            .iter()
            .position(|l| *l == outcome.verdict_label())
            .expect("known verdict label");
        replay[v] += 1;
    }
    run.check(replay == books.verdicts, || {
        format!(
            "verdicts {:?} differ from the replay {replay:?}",
            books.verdicts
        )
    });
}

/// A short-lived front, warmed up like a run's: the exact `/demand`
/// request bytes, one response body, and the median wall time of a
/// merged `/metrics` render in us.
pub fn front_sample(spec_seed: u64) -> io::Result<(Vec<u8>, Vec<u8>, f64)> {
    let s = setup(spec_seed)?;
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(s.front.metrics_text());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let Served {
        front,
        pipe,
        demand,
        body,
        ..
    } = s;
    drop(pipe);
    front.shutdown();
    Ok((demand, body, median(&times)))
}

/// Runs the workload: `wall_s` is the time of 10,000 closed-loop
/// requests at the median throughput, `latency_us` the open loop's p50.
pub fn run(run: &mut Run) {
    let spec_seed = run.master().value();
    run.note("open_loop_rate_rps", OPEN_RATE);
    run.note("late_p99_bound_us", LATE_P99_BOUND_US);
    let (setup_s, served) = timed_setup(|| setup(spec_seed));
    let mut s = match served {
        Ok(s) => s,
        Err(e) => {
            run.check(false, || format!("front set-up failed: {e}"));
            return;
        }
    };
    let closed_s = run.seconds * CLOSED_SHARE;
    let traced = run.traced();
    // A traced run splits the closed loop into an untraced and a
    // traced half; the tracing overhead compares them.
    let (rps, rtts, traced_rps) = if traced {
        let (rps, mut rtts) = closed_loop(run, &mut s, closed_s / 2.0, false);
        let (traced_rps, more) = closed_loop(run, &mut s, closed_s / 2.0, true);
        rtts.extend(more);
        (rps, rtts, traced_rps)
    } else {
        let (rps, rtts) = closed_loop(run, &mut s, closed_s, false);
        (rps, rtts, Vec::new())
    };
    let OpenLoop {
        latency,
        scrape,
        late,
        scrapes_ok,
    } = open_loop(&mut s, run.seconds - closed_s);
    let late_p99_us = tail(&sorted(late), 0.99).map_or(f64::INFINITY, |t| t.1 / 1e3);
    // Lateness is not a failed operation, but past the bound the
    // latencies measure the generator: the run is marked invalid.
    let valid = late_p99_us <= LATE_P99_BOUND_US;
    if !valid {
        eprintln!(
            "serve: generator p99 lateness {late_p99_us:.1} us exceeds {LATE_P99_BOUND_US} us: run invalid"
        );
    }
    run.note("open_loop_valid", valid);
    run.note("gen_late_p99_us", late_p99_us);
    run.tally(
        scrape.len() as u64,
        scrape.len() as u64 - scrapes_ok,
        "scrapes failed",
    );
    let addr = s.front.local_addr();
    let Served {
        front, pipe, books, ..
    } = s;
    drop(pipe);
    reconcile(run, spec_seed, addr, &books);
    front.shutdown();

    let latency = sorted(latency);
    let p50 = tail(&latency, 0.5).map_or(f64::INFINITY, |t| t.1 / 1e3);
    let p99 = tail(&latency, 0.99);
    run.check(p99.is_some_and(|(q, _)| q == 0.99), || {
        format!("{} open-loop samples do not support p99", latency.len())
    });
    run.note("open_loop_p99_us", p99.map_or(f64::INFINITY, |t| t.1 / 1e3));
    run.note(
        "scrape_p50_us",
        tail(&sorted(scrape), 0.5).map_or(f64::INFINITY, |t| t.1 / 1e3),
    );
    run.note("open_loop_demands", latency.len());
    run.note("closed_loop_requests", rtts.len());
    run.note("closed_loop_rps", median(&rps));
    if !traced {
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", 1e4 / median(&rps), "s");
        run.metric("latency_us", p50, "us");
        return;
    }
    let layers = Layers::measure(run);
    layers.report(run);
    let rtt_p50 = tail(&sorted(rtts), 0.5).map_or(f64::INFINITY, |t| t.1);
    let attributed = layers.http_recv_ns + layers.http_send_ns + layers.demand_ns + layers.bump_ns;
    run.note("rtt_p50_ns", rtt_p50);
    run.note("attributed_ns", attributed);
    run.metric(
        "ledger.unattributed_share",
        1.0 - attributed / rtt_p50,
        "share",
    );
    run.metric(
        "trace.overhead_share",
        median(&rps) / median(&traced_rps) - 1.0,
        "share",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\nConnection: keep-alive\r\n\r\n{\"verdict\":\"ER\"}";

    #[test]
    fn frames_split_pipelined_responses() {
        let mut two = OK.to_vec();
        two.extend_from_slice(OK);
        let first = parse_frame(&two).expect("valid").expect("complete");
        assert_eq!(first.status, 200);
        assert_eq!(first.len, OK.len());
        assert_eq!(verdict_of(&two[first.body.0..first.body.1]), Some(1));
        let second = parse_frame(&two[first.len..])
            .expect("valid")
            .expect("complete");
        assert_eq!(second, first);
    }

    #[test]
    fn partial_frames_wait_and_bad_frames_fail() {
        for cut in [10, OK.len() - 1] {
            assert_eq!(parse_frame(&OK[..cut]), Ok(None));
        }
        let closing = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        assert!(parse_frame(closing).is_err());
        assert!(parse_frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert_eq!(verdict_of(b"{\"verdict\":\"XX\"}"), None);
    }

    #[test]
    fn request_bytes_are_what_the_front_parses() {
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("address");
        let bytes = request_bytes("POST", "/demand", addr);
        let mut conn = HttpConn::new(Mem::new(bytes.repeat(2), false));
        for _ in 0..2 {
            let request = conn.recv().expect("well-formed request");
            assert_eq!(
                (request.method.as_str(), request.path.as_str()),
                ("POST", "/demand")
            );
            assert!(request.keep_alive());
        }
    }
}
