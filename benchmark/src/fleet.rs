//! `fleet_loop`: the crowd-sourcing loop, upload → WAL → checkpoint →
//! relabel → retrain → publish → replicate → first follower read.
//!
//! A leader (`serve_with_ingest` with an `IngestPlane` for channel 47)
//! and a follower (`serve` fed by a `ReplicaFollower`) run in this
//! process. A round starts every 500 ms: the main thread uploads 16
//! batches of 24 campaign ch-47 readings (±200 m jitter) over one
//! connection, then calls `IngestPlane::run_refit_now` and
//! `ReplicaFollower::sync_once` itself — the background workers' poll
//! intervals would otherwise set the freshness, not the program's work. A second thread refreshes from
//! the follower at 1,000/s throughout, so reads run beside the writes.
//!
//! The end-to-end operation is a follower read made while the loop
//! writes. Freshness — the time from a round's last upload ack to the
//! first follower read that returns the epoch that round published — is
//! reported per layer, because the store lives on the checkout's
//! filesystem: where that is a disk, each refit waits on several file
//! unlinks and renames whose latency drifts with the host, not with the
//! program. The fixed round schedule keeps that drift out of the reads:
//! back-to-back rounds would load the CPU more whenever the disk is fast.
//!
//! The store grows with every round, so rounds run in cycles of a fixed
//! length, each on a fresh leader, follower, and store directory: every
//! cycle repeats the same growth curve, whatever the run length.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waldo::wire::ReadingBatch;
use waldo_data::Labeler;
use waldo_geo::Point;
use waldo_rf::TvChannel;
use waldo_sensors::{ReadingSample, SensorKind};
use waldo_serve::{
    serve, serve_with_ingest, IngestPlane, ModelCatalog, ModelClient, ReplicaFollower, ServeConfig,
    StatsSnapshot,
};
use waldo_store::RefitEngine;

use crate::fetch::set_serve_stats;
use crate::pace::{wait_until, Arrivals};
use crate::report::Report;
use crate::setup::{constructor, Fixture};
use crate::stats::{self, ThreadIo};
use crate::trace::{self, Recorder};

/// The ingesting channel.
const CHANNEL: u8 = 47;
/// Rounds per cycle (one fresh store each).
const ROUNDS_PER_CYCLE: usize = 10;
/// Upload batches per round, and readings per batch.
const BATCHES_PER_ROUND: usize = 16;
const READINGS_PER_BATCH: usize = 24;
/// Uniform jitter applied to each campaign reading's location, m.
const JITTER_M: f64 = 200.0;
/// Follower read rate (Poisson arrivals).
const READS_PER_S: f64 = 1_000.0;
/// Client I/O timeout.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Rounds start on this fixed schedule. It is longer than a round takes
/// even when the store's disk is slow, so the CPU the loop takes from the
/// readers per second does not depend on disk latency.
const ROUND_PERIOD: Duration = Duration::from_millis(500);
/// How long a round waits for the reader to see its new epoch.
const OBSERVE_LIMIT: Duration = Duration::from_secs(2);
/// Salts of the upload stream and of each cycle's read arrivals.
const UPLOAD_SALT: u64 = 0xf1ee_0003;
const READ_SALT: u64 = 0x4ead_0005;

/// Spans whose self-time budget the traced run prints.
pub const BUDGET_ROOTS: &[&str] = &["fleet.freshness"];

/// A round's timeline, ns from the pass origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundMark {
    /// Epoch the round's refit published.
    pub epoch: u64,
    /// Last upload ack.
    pub ack_ns: u64,
    /// Refit start and end.
    pub refit_ns: (u64, u64),
    /// Replica sync start and end.
    pub sync_ns: (u64, u64),
}

/// A completed follower read, ns from the pass origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadMark {
    /// When its response was decoded.
    pub done_ns: u64,
    /// The epoch it returned (0 for a failed read).
    pub epoch: u64,
}

/// For each round of one cycle, the completion time of the first read
/// that returned exactly the round's epoch after the round's last ack.
/// A round no read observed is an error: its freshness is unknown.
pub fn join_freshness(rounds: &[RoundMark], reads: &[ReadMark]) -> Result<Vec<u64>, String> {
    rounds
        .iter()
        .map(|round| {
            reads
                .iter()
                .filter(|r| r.epoch == round.epoch && r.done_ns >= round.ack_ns)
                .map(|r| r.done_ns)
                .min()
                .ok_or_else(|| format!("no follower read observed epoch {}", round.epoch))
        })
        .collect()
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    rounds: u64,
    round_loop_s: f64,
    freshness_ms: Vec<f64>,
    observe_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    upload_us: Vec<f64>,
    read_us: Vec<f64>,
    read_s: f64,
    reads_failed: u64,
    uploads: u64,
    upload_bytes: u64,
    readings: u64,
    total_rows_last: u64,
    changed_localities: u64,
    installs: u64,
    full_resyncs: u64,
    sync_errors: u64,
    ingest_uploads: u64,
    ingest_duplicates: u64,
    servers: Vec<StatsSnapshot>,
    failures: Vec<String>,
    cycles: u64,
    /// Traced only: growth of the store directory over the rounds'
    /// uploads (the WAL appends), and the write counters of the thread
    /// running each refit (checkpoint, manifest, WAL truncation).
    wal_bytes: u64,
    refit_io: ThreadIo,
}

impl Pass {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Counts the pass's uploads and reads and its failed checks into
    /// `report`.
    fn count_into(&self, report: &mut Report, prefix: &str) {
        report.attempted += self.uploads + self.read_us.len() as u64;
        let bad_uploads = self.uploads - self.readings / READINGS_PER_BATCH as u64;
        report.failed += self.reads_failed + bad_uploads;
        for f in &self.failures {
            report.check(false, || format!("{prefix}{f}"));
        }
    }
}

/// What one cycle's reader returns: each read with its latency in µs
/// (infinite when it failed), the seconds it ran, and its spans.
type ReaderOutput = (Vec<(ReadMark, f64)>, f64, Option<Recorder>);

/// One open-loop follower reader, run on its own thread for a cycle.
fn read_loop(
    addr: SocketAddr,
    arrival_seed: u64,
    origin: Instant,
    stop: &AtomicBool,
    observed: &AtomicU64,
    mut rec: Option<Recorder>,
) -> ReaderOutput {
    let mut client = ModelClient::new(addr, TIMEOUT);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let start = Instant::now();
    let mut arrivals = Arrivals::new(arrival_seed, READS_PER_S, start);
    let mut reads = Vec::new();
    for k in 0u64.. {
        let due = arrivals.next_due();
        wait_until(due);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        let epoch = match client.fetch(CHANNEL, 0.0, 0.0, 0.0) {
            Ok((_, report)) => report.epoch,
            Err(_) => 0,
        };
        let done = Instant::now();
        if epoch > 0 {
            observed.fetch_max(epoch, Ordering::SeqCst);
        }
        if let Some(rec) = rec.as_mut() {
            rec.record("client.fetch", "read", k, None, sent, done);
        }
        let latency_us = if epoch > 0 { (done - due).as_secs_f64() * 1e6 } else { f64::INFINITY };
        reads.push((ReadMark { done_ns: ns(done), epoch }, latency_us));
    }
    (reads, start.elapsed().as_secs_f64(), rec)
}

/// The pass's inputs: upload batches drawn by seed from the campaign's
/// ch-47 readings, each cycle's read arrival times, and the round
/// schedule, which runs on across cycles.
struct Inputs<'a> {
    seed: u64,
    rng: StdRng,
    source: &'a waldo_data::ChannelDataset,
    next_id: u64,
    next_round: Instant,
}

impl Inputs<'_> {
    /// Seed of the follower reads' arrival times in `cycle`.
    fn read_seed(&self, cycle: u64) -> u64 {
        self.seed ^ READ_SALT ^ cycle
    }

    fn batch(&mut self) -> ReadingBatch {
        let readings = (0..READINGS_PER_BATCH)
            .map(|_| {
                let m = &self.source.measurements()[self.rng.gen_range(0..self.source.len())];
                let dx = self.rng.gen_range(-JITTER_M..JITTER_M);
                let dy = self.rng.gen_range(-JITTER_M..JITTER_M);
                ReadingSample {
                    location: Point::new(m.location.x + dx, m.location.y + dy),
                    rss_dbm: m.observation.rss_dbm,
                    features: m.observation.features,
                }
            })
            .collect();
        self.next_id += 1;
        ReadingBatch { batch_id: self.next_id, channel: CHANNEL, readings }
    }
}

fn epoch_of(catalog: &RwLock<ModelCatalog>) -> u64 {
    catalog.read().expect("catalog lock").channel(CHANNEL).map_or(0, |c| c.epoch)
}

/// Epoch and per-locality digests of a catalog's channel.
fn digests_of(catalog: &RwLock<ModelCatalog>) -> (u64, Vec<u64>) {
    let guard = catalog.read().expect("catalog lock");
    guard
        .channel(CHANNEL)
        .map_or((0, Vec::new()), |c| (c.epoch, c.slots.iter().map(|s| s.digest).collect()))
}

/// One cycle: a fresh leader, follower and store, then
/// [`ROUNDS_PER_CYCLE`] rounds, or fewer (at least one) if the next round
/// would start after `deadline`.
fn run_cycle(
    fixture: &Fixture,
    inputs: &mut Inputs<'_>,
    dir: &Path,
    origin: Instant,
    deadline: Instant,
    mut rec: Option<&mut Recorder>,
    pass: &mut Pass,
) -> std::io::Result<()> {
    let channel = TvChannel::new(CHANNEL).expect("a valid channel");
    let model = fixture.model(channel);
    let _ = std::fs::remove_dir_all(dir);
    let leader_catalog = Arc::new(RwLock::new(ModelCatalog::new()));
    leader_catalog.write().expect("catalog lock").publish(CHANNEL, model);
    let base = inputs.source.clone();
    let engine = RefitEngine::new(constructor(), Labeler::new(), base, model.clone());
    let plane = IngestPlane::open(dir, Arc::clone(&leader_catalog), CHANNEL, engine)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut leader = serve_with_ingest(
        "127.0.0.1:0",
        Arc::clone(&leader_catalog),
        ServeConfig::baseline(),
        Some(Arc::clone(&plane)),
    )?;
    let follower_catalog = Arc::new(RwLock::new(ModelCatalog::new()));
    let mut follower_server =
        serve("127.0.0.1:0", Arc::clone(&follower_catalog), ServeConfig::baseline())?;
    let mut follower = ReplicaFollower::new(
        vec![leader.addr()],
        Arc::clone(&follower_catalog),
        vec![CHANNEL],
        TIMEOUT,
    );
    if follower.sync_once() != 1 {
        pass.fail("the follower did not install the leader's first epoch".into());
    }
    let mut uploader = ModelClient::new(leader.addr(), TIMEOUT);
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    let reader_rec = rec.as_ref().map(|r| Recorder::new(r.origin()));
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;

    let mut marks = Vec::with_capacity(ROUNDS_PER_CYCLE);
    let arrival_seed = inputs.read_seed(pass.cycles);
    let follower_addr = follower_server.addr();
    let (reads, read_s, reader_rec) = std::thread::scope(|s| {
        let reader = s
            .spawn(|| read_loop(follower_addr, arrival_seed, origin, &stop, &observed, reader_rec));
        let loop_start = Instant::now();
        while marks.len() < ROUNDS_PER_CYCLE && (marks.is_empty() || inputs.next_round < deadline) {
            wait_until(inputs.next_round);
            inputs.next_round += ROUND_PERIOD;
            let round_id = pass.rounds;
            let store_before = rec.is_some().then(|| dir_bytes(dir));
            let mut last_ack = Instant::now();
            for _ in 0..BATCHES_PER_ROUND {
                let batch = inputs.batch();
                pass.upload_bytes += batch.encode().len() as u64;
                let t0 = Instant::now();
                let ack = uploader.upload(&batch);
                last_ack = Instant::now();
                pass.upload_us.push((last_ack - t0).as_secs_f64() * 1e6);
                if let Some(rec) = rec.as_deref_mut() {
                    rec.record("client.upload", "", round_id, None, t0, last_ack);
                }
                pass.uploads += 1;
                match ack {
                    Ok(a) if !a.duplicate && a.readings as usize == READINGS_PER_BATCH => {
                        pass.readings += u64::from(a.readings);
                    }
                    Ok(a) => pass.fail(format!("upload acked as {a:?}, expected a fresh batch")),
                    Err(e) => pass.fail(format!("upload failed: {e}")),
                }
            }
            if let Some(before) = store_before {
                pass.wal_bytes += dir_bytes(dir).saturating_sub(before);
            }
            let before = epoch_of(&leader_catalog);
            let io_before = rec.is_some().then(ThreadIo::now);
            let refit_start = Instant::now();
            let refit = plane.run_refit_now();
            let refit_end = Instant::now();
            if let Some(io) = io_before {
                pass.refit_io += ThreadIo::now() - io;
            }
            match refit {
                Ok(Some(report)) => {
                    pass.total_rows_last = report.total_rows as u64;
                    pass.changed_localities += report.changed_localities.len() as u64;
                }
                Ok(None) => pass.fail("a refit over new uploads published nothing".into()),
                Err(e) => pass.fail(format!("refit failed: {e}")),
            }
            let epoch = epoch_of(&leader_catalog);
            if epoch != before + 1 {
                pass.fail(format!("refit moved the epoch from {before} to {epoch}"));
            }
            let sync_start = Instant::now();
            let installed = follower.sync_once();
            let sync_end = Instant::now();
            if installed != 1 || follower.snapshot().max_installed_epoch != epoch {
                pass.fail(format!(
                    "sync installed {installed} channels up to epoch {}, leader at {epoch}",
                    follower.snapshot().max_installed_epoch
                ));
            }
            while observed.load(Ordering::SeqCst) < epoch {
                if sync_end.elapsed() > OBSERVE_LIMIT {
                    pass.fail(format!(
                        "no follower read saw epoch {epoch} within {OBSERVE_LIMIT:?}"
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            marks.push(RoundMark {
                epoch,
                ack_ns: ns(last_ack),
                refit_ns: (ns(refit_start), ns(refit_end)),
                sync_ns: (ns(sync_start), ns(sync_end)),
            });
            pass.rounds += 1;
        }
        pass.round_loop_s += loop_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("the reader thread does not panic")
    });

    let read_marks: Vec<ReadMark> = reads.iter().map(|(m, _)| *m).collect();
    pass.reads_failed += reads.iter().filter(|(m, _)| m.epoch == 0).count() as u64;
    pass.read_us.extend(reads.iter().map(|(_, us)| *us));
    pass.read_s += read_s;
    match join_freshness(&marks, &read_marks) {
        Ok(observed_ns) => {
            let first_round = pass.rounds - marks.len() as u64;
            for (i, (round, obs)) in marks.iter().zip(observed_ns).enumerate() {
                pass.freshness_ms.push((obs - round.ack_ns) as f64 / 1e6);
                pass.observe_ms.push(obs.saturating_sub(round.sync_ns.1) as f64 / 1e6);
                pass.refit_ms.push((round.refit_ns.1 - round.refit_ns.0) as f64 / 1e6);
                pass.sync_ms.push((round.sync_ns.1 - round.sync_ns.0) as f64 / 1e6);
                if let Some(rec) = rec.as_deref_mut() {
                    let at = |ns: u64| origin + Duration::from_nanos(ns);
                    let id = first_round + i as u64;
                    let root =
                        rec.record("fleet.freshness", "", id, None, at(round.ack_ns), at(obs));
                    for (name, (from, to)) in [
                        ("ingest.refit", round.refit_ns),
                        ("replica.sync", round.sync_ns),
                        ("fleet.observe", (round.sync_ns.1, obs)),
                    ] {
                        rec.record(name, "", id, Some(root), at(from), at(to));
                    }
                }
            }
        }
        Err(e) => pass.fail(e),
    }
    if let (Some(rec), Some(reader_rec)) = (rec, reader_rec) {
        rec.absorb(reader_rec);
    }

    let leader_state = digests_of(&leader_catalog);
    let follower_state = digests_of(&follower_catalog);
    if leader_state != follower_state {
        pass.fail(format!(
            "follower at epoch {} does not mirror the leader at epoch {}",
            follower_state.0, leader_state.0
        ));
    }
    let snapshot = plane.snapshot();
    let uploaded = (marks.len() * BATCHES_PER_ROUND * READINGS_PER_BATCH) as u64;
    if snapshot.stored_readings != uploaded || snapshot.duplicates_total != 0 {
        pass.fail(format!(
            "store holds {} readings with {} duplicates; {uploaded} were uploaded",
            snapshot.stored_readings, snapshot.duplicates_total
        ));
    }
    pass.ingest_uploads += snapshot.uploads_total;
    pass.ingest_duplicates += snapshot.duplicates_total;
    let sync = follower.snapshot();
    pass.installs += sync.installs_total;
    pass.full_resyncs += sync.full_resyncs_total;
    pass.sync_errors += sync.sync_errors_total;
    pass.servers.push(leader.stats_snapshot());
    pass.servers.push(follower_server.stats_snapshot());
    leader.shutdown();
    follower_server.shutdown();
    drop(leader);
    drop(plane);
    pass.cycles += 1;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Rounds on the schedule until `seconds` have passed (at least one).
fn run_pass(
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    store_root: &Path,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let source = fixture
        .campaign
        .dataset(SensorKind::RtlSdr, TvChannel::new(CHANNEL).expect("a valid channel"))
        .expect("the campaign drives channel 47");
    let mut inputs = Inputs {
        seed,
        rng: StdRng::seed_from_u64(seed ^ UPLOAD_SALT),
        source,
        next_id: 0,
        next_round: Instant::now(),
    };
    let mut pass = Pass::default();
    let origin = rec.as_ref().map_or_else(Instant::now, |r| r.origin());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while pass.cycles == 0 || inputs.next_round < deadline {
        let dir = store_root.join(format!("cycle-{}", pass.cycles));
        let cycle =
            run_cycle(fixture, &mut inputs, &dir, origin, deadline, rec.as_deref_mut(), &mut pass);
        if let Err(e) = cycle {
            pass.fail(format!("cycle set-up failed: {e}"));
            break;
        }
    }
    pass
}

/// Bytes in the regular files under `dir`, recursively (0 if unreadable).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs `fleet_loop` for `seconds`, then (with `trace`) a traced rerun
/// on the same seed, filling `report`.
pub fn run(
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    trace: Option<&mut Recorder>,
    report: &mut Report,
) {
    let store_root = crate::out_dir().join(format!("fleet-store-{}", std::process::id()));
    let fstype = std::fs::create_dir_all(&store_root)
        .and_then(|()| store_root.canonicalize())
        .ok()
        .and_then(|path| {
            let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
            stats::parse_mount_fstype(&mounts, path.to_str()?)
        })
        .unwrap_or_else(|| "unknown".into());
    report.fact("store_fstype", fstype);

    let pass = run_pass(fixture, seed, seconds, &store_root, None);
    pass.count_into(report, "");
    let read_ms: Vec<f64> = pass.read_us.iter().map(|us| us / 1e3).collect();
    report.fact("reads_per_s", pass.read_us.len() as f64 / pass.read_s);
    report.set_quantile("op_ms_p50", &read_ms, 0.50);
    report.set_quantile("op_ms_p90", &read_ms, 0.90);
    report.fact("cycles", pass.cycles);
    report.fact("rounds", pass.rounds);
    report.fact("rounds_per_cycle", ROUNDS_PER_CYCLE as u64);
    report.fact("uploads", pass.uploads);
    report.fact("reads", pass.read_us.len() as u64);
    report.fact("reactors", pass.servers.first().map_or(0, |s| s.reactors));
    report.fact("rounds_per_s", pass.rounds as f64 / pass.round_loop_s);
    report.info_quantile("read_ms_p99", &read_ms, 0.99);
    report.info_quantile("freshness_ms_p50", &pass.freshness_ms, 0.50);

    if let Some(rec) = trace {
        let traced = run_pass(fixture, seed, seconds, &store_root, Some(&mut *rec));
        traced.count_into(report, "traced: ");
        report.set_quantile("client.upload_us_p50", &traced.upload_us, 0.50);
        report.set_quantile("client.upload_us_p90", &traced.upload_us, 0.90);
        report.set_quantile("ingest.refit_ms_p50", &traced.refit_ms, 0.50);
        report.set("ingest.refit_s_total", traced.refit_ms.iter().sum::<f64>() / 1e3);
        report.set_quantile("replica.sync_ms_p50", &traced.sync_ms, 0.50);
        report.set_quantile("fleet.observe_ms_p50", &traced.observe_ms, 0.50);
        report.set(
            "fleet.unattributed_frac",
            trace::unattributed_frac(rec.spans(), "fleet.freshness"),
        );
        report.set_quantile("fleet.freshness_ms_p50", &traced.freshness_ms, 0.50);
        report.set("fleet.rounds_per_s", traced.rounds as f64 / traced.round_loop_s);
        let upload_bytes = traced.upload_bytes.max(1) as f64;
        report.set("store.wal_bytes_per_upload_byte", traced.wal_bytes as f64 / upload_bytes);
        report.set(
            "store.refit_write_bytes_per_upload_byte",
            traced.refit_io.wchar as f64 / upload_bytes,
        );
        report.set(
            "store.refit_write_syscalls_per_refit",
            traced.refit_io.syscw as f64 / traced.rounds.max(1) as f64,
        );
        report.set("refit.total_rows_last", traced.total_rows_last as f64);
        report.set("refit.changed_localities_total", traced.changed_localities as f64);
        report.set("replica.installs_total", traced.installs as f64);
        report.set("replica.full_resyncs_total", traced.full_resyncs as f64);
        report.set("replica.sync_errors_total", traced.sync_errors as f64);
        report.set("ingest.uploads_total", traced.ingest_uploads as f64);
        report.set("ingest.duplicates_total", traced.ingest_duplicates as f64);
        set_serve_stats(report, &traced.servers);
        let p50 = |p: &Pass| stats::median(&p.read_us);
        report.set("trace.overhead_frac", p50(&traced) / p50(&pass) - 1.0);
    }
    let _ = std::fs::remove_dir_all(&store_root);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(epoch: u64, ack_ns: u64) -> RoundMark {
        RoundMark {
            epoch,
            ack_ns,
            refit_ns: (ack_ns + 1, ack_ns + 30),
            sync_ns: (ack_ns + 31, ack_ns + 35),
        }
    }

    fn read(done_ns: u64, epoch: u64) -> ReadMark {
        ReadMark { done_ns, epoch }
    }

    #[test]
    fn freshness_joins_each_round_to_its_first_read() {
        let rounds = [round(2, 100), round(3, 200)];
        let reads =
            [read(90, 1), read(120, 1), read(140, 2), read(150, 2), read(260, 3), read(240, 3)];
        assert_eq!(join_freshness(&rounds, &reads).unwrap(), vec![140, 240]);
    }

    #[test]
    fn a_round_never_observed_is_an_error() {
        // Epoch 3 was published, but the reader jumped from 2 to 4.
        let rounds = [round(2, 100), round(3, 200), round(4, 300)];
        let reads = [read(140, 2), read(350, 4)];
        let err = join_freshness(&rounds, &reads).unwrap_err();
        assert!(err.contains("epoch 3"), "{err}");
    }

    #[test]
    fn reads_before_the_ack_do_not_count() {
        // A stale clock or a reused epoch number: a read at the round's
        // epoch that finished before the ack cannot observe its uploads.
        let rounds = [round(2, 100)];
        assert!(join_freshness(&rounds, &[read(50, 2)]).is_err());
        assert_eq!(join_freshness(&rounds, &[read(50, 2), read(130, 2)]).unwrap(), vec![130]);
    }
}
