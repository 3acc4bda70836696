//! `fetch_mix`: model distribution, `ModelClient` → reactor → catalog
//! response cache → client decode.
//!
//! One server (`serve`, auto reactor pool) holds the seven evaluation
//! models at epoch 1. One load thread sends requests open loop, with
//! Poisson arrivals at 1,000/s, mixing two kinds:
//!
//! * 90 % refreshes: a long-lived client that already holds every channel
//!   delta-fetches a random channel unscoped, which the pre-encoded
//!   all-`Unchanged` tail answers (the response-cache hit path);
//! * 10 % new devices: a fresh client, so a new connection, fetches the
//!   channel scoped to 5 km around a random point, which the server
//!   encodes per request and the client decodes in full.
//!
//! At this rate the reactors idle between requests, so their idle
//! back-off (sleeps up to 2 ms) is on every request's path. Heavier load
//! is left out: at 8,000/s, and in a closed stream, the latency on two
//! cores moved with thread placement from run to run by far more than a
//! bound could allow (see README.md). Latency runs from the time a
//! request was due, so a stalled generator is charged to the result.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waldo_serve::{serve, ModelCatalog, ModelClient, ServeConfig, ServerHandle};

use crate::pace::{wait_until, Arrivals};
use crate::report::Report;
use crate::setup::Fixture;
use crate::trace::{self, Recorder};

/// Epoch every model is published at.
const PUBLISHED_EPOCH: u64 = 1;
/// Mean arrival rate.
const RATE_PER_S: f64 = 1_000.0;
/// Share of requests that are new devices.
const NEW_DEVICE_SHARE: f64 = 0.10;
/// Scope radius of a new device's fetch.
const NEW_DEVICE_RADIUS_KM: f64 = 5.0;
/// The study region, km.
const REGION_KM: (f64, f64) = (35.0, 20.0);
/// Client I/O timeout.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Untimed closed-loop warm-up before the timed load.
const WARMUP: Duration = Duration::from_millis(500);
/// Salts of the request stream and of the arrival times.
const REQUEST_SALT: u64 = 0xfe7c_0002;
const ARRIVAL_SALT: u64 = 0xa771_0004;

/// Spans whose self-time budget the traced run prints.
pub const BUDGET_ROOTS: &[&str] = &["fetch.request"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Refresh,
    NewDevice,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Refresh => "client.refresh",
            Kind::NewDevice => "client.new_device",
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Kind::Refresh => "refresh",
            Kind::NewDevice => "new_device",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    kind: Kind,
    channel: u8,
    x_km: f64,
    y_km: f64,
}

/// The seeded request stream.
struct Requests {
    rng: StdRng,
    channels: Vec<u8>,
}

impl Requests {
    fn next(&mut self) -> Request {
        let kind =
            if self.rng.gen::<f64>() < NEW_DEVICE_SHARE { Kind::NewDevice } else { Kind::Refresh };
        let channel = self.channels[self.rng.gen_range(0..self.channels.len())];
        let x_km = self.rng.gen_range(0.0..REGION_KM.0);
        let y_km = self.rng.gen_range(0.0..REGION_KM.1);
        Request { kind, channel, x_km, y_km }
    }
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

impl Sample {
    /// Latency from the due time, ms; failed requests miss every limit.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// The load generator's clients and tallies.
struct Loader {
    addr: SocketAddr,
    refresh: ModelClient,
    new_device_retries: u64,
    failures: Vec<String>,
}

impl Loader {
    /// Issues one request and checks its output: status Ok, the published
    /// epoch, and a model with at least one locality.
    fn fetch(&mut self, req: Request) -> bool {
        let outcome = match req.kind {
            Kind::Refresh => self.refresh.fetch(req.channel, 0.0, 0.0, 0.0),
            Kind::NewDevice => {
                let mut client = ModelClient::new(self.addr, TIMEOUT);
                let outcome = client.fetch(req.channel, req.x_km, req.y_km, NEW_DEVICE_RADIUS_KM);
                self.new_device_retries += client.retries_total();
                outcome
            }
        };
        let problem = match outcome {
            Err(e) => Some(format!("{:?} fetch of channel {} failed: {e}", req.kind, req.channel)),
            Ok((_, report)) if report.epoch != PUBLISHED_EPOCH => Some(format!(
                "{:?} fetch of channel {} returned epoch {}, published {PUBLISHED_EPOCH}",
                req.kind, req.channel, report.epoch
            )),
            Ok((model, _)) if model.locality_count() == 0 => {
                Some(format!("{:?} fetch of channel {} has no locality", req.kind, req.channel))
            }
            Ok(_) => None,
        };
        if let Some(p) = problem {
            if self.failures.len() < 5 {
                self.failures.push(p);
            }
            return false;
        }
        true
    }
}

/// One pass's measurements.
struct Pass {
    samples: Vec<Sample>,
    elapsed_s: f64,
    stats: waldo_serve::StatsSnapshot,
    retries: u64,
    failures: Vec<String>,
}

impl Pass {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_ms).collect()
    }

    /// Counts the pass's requests and failed checks into `report`.
    fn count_into(&self, report: &mut Report, prefix: &str) {
        report.attempted += self.samples.len() as u64;
        report.failed += self.samples.iter().filter(|s| !s.ok).count() as u64;
        for f in &self.failures {
            report.check(false, || format!("{prefix}{f}"));
        }
    }
}

/// Starts a server over the fixture's models.
fn start_server(fixture: &Fixture) -> ServerHandle {
    let catalog = Arc::new(RwLock::new(ModelCatalog::new()));
    {
        let mut c = catalog.write().expect("fresh catalog lock");
        for (channel, model) in &fixture.models {
            let epoch = c.publish(channel.number(), model);
            assert_eq!(epoch, PUBLISHED_EPOCH, "a fresh catalog publishes epoch 1");
        }
    }
    serve("127.0.0.1:0", catalog, ServeConfig::baseline()).expect("bind a loopback port")
}

fn run_pass(fixture: &Fixture, seed: u64, seconds: f64, mut rec: Option<&mut Recorder>) -> Pass {
    let mut server = start_server(fixture);
    let channels: Vec<u8> = fixture.models.iter().map(|(c, _)| c.number()).collect();
    let mut loader = Loader {
        addr: server.addr(),
        refresh: ModelClient::new(server.addr(), TIMEOUT),
        new_device_retries: 0,
        failures: Vec::new(),
    };
    // The refresh client starts out holding every channel.
    for &channel in &channels {
        if let Err(e) = loader.refresh.fetch(channel, 0.0, 0.0, 0.0) {
            loader.failures.push(format!("initial fetch of channel {channel} failed: {e}"));
        }
    }
    let mut requests = Requests { rng: StdRng::seed_from_u64(seed ^ REQUEST_SALT), channels };
    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        let req = requests.next();
        loader.fetch(req);
    }

    let mut samples = Vec::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut arrivals = Arrivals::new(seed ^ ARRIVAL_SALT, RATE_PER_S, start);
    for id in 0u64.. {
        let due = arrivals.next_due();
        if due >= end {
            break;
        }
        wait_until(due);
        let req = requests.next();
        let sent = Instant::now();
        let ok = loader.fetch(req);
        let done = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            let root = rec.record("fetch.request", req.kind.tag(), id, None, due, done);
            rec.record(req.kind.span(), req.kind.tag(), id, Some(root), sent, done);
        }
        samples.push(Sample { due, sent, done, ok });
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = server.stats_snapshot();
    server.shutdown();
    Pass {
        samples,
        elapsed_s,
        stats,
        retries: loader.refresh.retries_total() + loader.new_device_retries,
        failures: loader.failures,
    }
}

/// Runs `fetch_mix` for `seconds`, then (with `trace`) a traced rerun on
/// the same seed, filling `report`.
pub fn run(
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    trace: Option<&mut Recorder>,
    report: &mut Report,
) {
    let pass = run_pass(fixture, seed, seconds, None);
    pass.count_into(report, "");
    let latency_ms = pass.latencies_ms();
    report.set_quantile("op_ms_p50", &latency_ms, 0.50);
    report.set_quantile("op_ms_p90", &latency_ms, 0.90);
    report.info_quantile("op_ms_p99", &latency_ms, 0.99);
    report.fact("reactors", pass.stats.reactors);
    report.fact("requests", pass.samples.len());
    report.fact("fetches_per_s", pass.samples.len() as f64 / pass.elapsed_s);

    let Some(rec) = trace else { return };
    let traced = run_pass(fixture, seed, seconds, Some(&mut *rec));
    traced.count_into(report, "traced: ");
    let spans = rec.spans();
    let client = |kind: Kind| trace::durations_us(spans, kind.span(), None);
    report.set_quantile("client.refresh_us_p50", &client(Kind::Refresh), 0.50);
    report.set_quantile("client.refresh_us_p90", &client(Kind::Refresh), 0.90);
    report.set_quantile("client.new_device_us_p50", &client(Kind::NewDevice), 0.50);
    report.set_quantile("client.new_device_us_p90", &client(Kind::NewDevice), 0.90);
    let (wait, total) = traced.samples.iter().fold((0.0, 0.0), |(w, t), s| {
        (w + (s.sent - s.due).as_secs_f64(), t + (s.done - s.due).as_secs_f64())
    });
    report.set("fetch.wait_frac", wait / total);
    let late: Vec<f64> =
        traced.samples.iter().map(|s| (s.sent - s.due).as_secs_f64() * 1e6).collect();
    report.set_quantile("loadgen.late_us_p99", &late, 0.99);
    set_serve_stats(report, std::slice::from_ref(&traced.stats));
    report.set("client.retries_total", traced.retries as f64);
    let p50 = |p: &Pass| crate::stats::median(&p.latencies_ms());
    report.set("trace.overhead_frac", p50(&traced) / p50(&pass) - 1.0);
}

/// Sets the `serve.*` metrics from the servers' counters: totals summed
/// over servers, reactors per server.
pub fn set_serve_stats(report: &mut Report, servers: &[waldo_serve::StatsSnapshot]) {
    let sum = |f: fn(&waldo_serve::StatsSnapshot) -> u64| servers.iter().map(f).sum::<u64>() as f64;
    let hits = sum(|s| s.cache_hits);
    let misses = sum(|s| s.cache_misses);
    report.set(
        "serve.cache_hit_frac",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    report.set("serve.accepted_total", sum(|s| s.accepted_total));
    report.set("serve.requests_total", sum(|s| s.requests_total));
    report.set("serve.errors_total", sum(|s| s.errors_total));
    report.set("serve.busy_rejections", sum(|s| s.busy_rejections));
    report.set("serve.reactors", servers.iter().map(|s| s.reactors).max().unwrap_or(0) as f64);
}
