//! `device_scan`: the phone path, sensors → iq → detector → decision.
//!
//! One closed loop of channel scans. A scan is what a phone does at one
//! place: it calls `PhoneScanner::sense_channel_audited` for each of the
//! seven evaluation channels and then knows which are free there. Scan
//! sites are the campaign's route points, where the ground-truth series
//! of every channel was measured, visited in a seeded order: every route
//! point once, then again in a new order. So every seed scans the same
//! mix of vacant, fringe and covered sites, and the seed moves only the
//! order and the sensor noise. No network or disk is touched: a change to
//! the capture, feature or detector code shows here and nowhere else.
//!
//! The scan, not the single decision, is the timed operation: a decision
//! takes a whole number of captures (~150 µs each), so single-decision
//! percentiles jump by a capture whenever the site mix shifts a little;
//! the sum over seven channels does not.
//!
//! Safety is an output check: over the first visit of every route point,
//! safe calls at sites whose ground truth is NotSafe must stay at or
//! under [`INCORRECT_SAFE_CEILING`] of those sites.
//!
//! The traced run replays the same decisions through the public calls
//! `PhoneScanner` makes (capture, extract, push), with a span around each,
//! and must reproduce every decision and capture count exactly. The
//! replay mirrors the private loop of `PhoneScanner::sense_with_trajectory`
//! in `crates/core/src/device.rs` (calibration offset, detector set-up,
//! one RNG draw order); a change to that loop fails the replay check until
//! this file follows it.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use waldo::device::{PhoneConfig, PhoneScanner, CI_TRAJECTORY_CAP};
use waldo::{DecisionAuditLog, DecisionRecord, DetectorOutcome, WhiteSpaceDetector};
use waldo_data::{ChannelDataset, Safety};
use waldo_geo::Point;
use waldo_iq::window::Window;
use waldo_iq::FeatureVector;
use waldo_rf::TvChannel;
use waldo_sensors::{Calibration, Observation, SensorModel};

use crate::report::Report;
use crate::setup::Fixture;
use crate::stats::median;
use crate::trace::{self, Recorder};

/// Epoch stamped on every audited decision (the set-up's models are
/// epoch 1 of their channel).
const MODEL_EPOCH: u64 = 1;
/// Audit-ring capacity; totals survive eviction.
const AUDIT_CAPACITY: usize = 256;
/// Salt separating the site stream from the scanner's capture stream.
const SITE_SALT: u64 = 0x5c4e_0001;
/// Most incorrect-safe calls allowed, as a share of the NotSafe sites of
/// the first visit of every route point. Every seed visits the same
/// sites, so only sensor noise moves the share: over seeds 1–20 it read
/// 0.0437–0.0442. The ceiling sits 6 % above the highest, so a detector
/// change that makes more unsafe calls fails the run.
pub const INCORRECT_SAFE_CEILING: f64 = 0.047;

/// Spans whose self-time budget the traced run prints.
pub const BUDGET_ROOTS: &[&str] = &["device.decision"];

/// One decision's input.
#[derive(Debug, Clone, Copy)]
struct Site {
    channel: TvChannel,
    location: Point,
    true_rss_dbm: Option<f64>,
    truth: Safety,
}

/// The seeded stream of scan sites: every route point of the campaign
/// once in a shuffled order, then again in a new order, and so on.
struct Sites<'a> {
    rng: StdRng,
    truths: Vec<(TvChannel, &'a ChannelDataset)>,
    order: Vec<usize>,
}

impl<'a> Sites<'a> {
    fn new(fixture: &'a Fixture, seed: u64) -> Self {
        let truths: Vec<_> =
            fixture.models.iter().map(|(c, _)| (*c, fixture.campaign.ground_truth(*c))).collect();
        assert!(
            truths.iter().all(|(_, t)| t.len() == truths[0].1.len()),
            "every channel is measured along the same route"
        );
        Self { rng: StdRng::seed_from_u64(seed ^ SITE_SALT), truths, order: Vec::new() }
    }

    /// Route points, so scans per visit of the whole route.
    fn route_len(&self) -> usize {
        self.truths[0].1.len()
    }

    /// Decisions per visit of the whole route.
    fn visit_decisions(&self) -> usize {
        self.route_len() * self.truths.len()
    }

    /// The next scan: one site per evaluation channel, all at one route
    /// point.
    fn next_scan(&mut self) -> Vec<Site> {
        if self.order.is_empty() {
            self.order = (0..self.route_len()).collect();
            self.order.shuffle(&mut self.rng);
        }
        let k = self.order.pop().expect("a refilled visit order");
        self.truths
            .iter()
            .map(|&(channel, truth)| {
                let m = &truth.measurements()[k];
                Site {
                    channel,
                    location: m.location,
                    true_rss_dbm: m.true_rss_dbm.is_finite().then_some(m.true_rss_dbm),
                    truth: truth.labels()[k],
                }
            })
            .collect()
    }
}

/// What one decision produced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    safety: Safety,
    captures: usize,
}

/// One pass over the site stream.
#[derive(Default)]
struct Pass {
    decisions: Vec<Decision>,
    truths: Vec<Safety>,
    /// Wall time of each scan, ms.
    scan_ms: Vec<f64>,
    elapsed_s: f64,
    audit_total: u64,
    /// Decisions in the first visit of every route point.
    first_visit: usize,
}

impl Pass {
    fn record(&mut self, site: &Site, decision: Decision) {
        self.decisions.push(decision);
        self.truths.push(site.truth);
    }

    fn captures(&self) -> usize {
        self.decisions.iter().map(|d| d.captures).sum()
    }

    /// Safe calls at sites whose ground truth is NotSafe, over those
    /// sites, in the first visit of every route point (or as much of it
    /// as the pass made).
    fn incorrect_safe_frac(&self) -> f64 {
        let first = self.first_visit.min(self.decisions.len());
        let truths = &self.truths[..first];
        let not_safe = truths.iter().filter(|t| t.is_not_safe()).count();
        let wrong = self.decisions[..first]
            .iter()
            .zip(truths)
            .filter(|(d, t)| t.is_not_safe() && d.safety == Safety::Safe)
            .count();
        if not_safe == 0 {
            0.0
        } else {
            wrong as f64 / not_safe as f64
        }
    }
}

/// Closed loop of scans through `PhoneScanner` until `budget` runs out.
fn run_scanner(fixture: &Fixture, seed: u64, budget: Duration) -> Pass {
    let mut scanner = PhoneScanner::new(PhoneConfig::default(), SensorModel::rtl_sdr(), seed);
    let mut log = DecisionAuditLog::new(AUDIT_CAPACITY);
    let mut sites = Sites::new(fixture, seed);
    let mut pass = Pass { first_visit: sites.visit_decisions(), ..Pass::default() };
    let start = Instant::now();
    while start.elapsed() < budget {
        let scan = sites.next_scan();
        let t0 = Instant::now();
        for site in &scan {
            let run = scanner.sense_channel_audited(
                fixture.model(site.channel),
                site.location,
                site.true_rss_dbm,
                site.channel.number(),
                MODEL_EPOCH,
                None,
                &mut log,
            );
            pass.record(site, Decision { safety: run.safety, captures: run.captures });
        }
        pass.scan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.audit_total = log.total();
    pass
}

/// The first `scans` scans of [`run_scanner`]'s stream, replayed through
/// the public calls `PhoneScanner::sense_channel_audited` makes, with a
/// span around each layer call. The loop body restates
/// `PhoneScanner::sense_with_trajectory`, which is private; keep the two
/// in step (the caller checks that every decision matches).
fn replay(fixture: &Fixture, seed: u64, scans: usize, rec: &mut Recorder) -> Pass {
    let config = PhoneConfig::default();
    let sensor = SensorModel::rtl_sdr();
    let calibration = Calibration::factory(&sensor);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = DecisionAuditLog::new(AUDIT_CAPACITY);
    let mut sites = Sites::new(fixture, seed);
    let mut pass = Pass { first_visit: sites.visit_decisions(), ..Pass::default() };
    let start = Instant::now();
    for s in 0..scans as u64 {
        let scan = sites.next_scan();
        let t_scan = Instant::now();
        let scan_span = rec.open("device.scan", "", s, None, t_scan);
        for site in &scan {
            let model = fixture.model(site.channel);
            let id = pass.decisions.len() as u64;
            let root = rec.open("device.decision", "", id, Some(scan_span), Instant::now());
            let mut detector = WhiteSpaceDetector::new(model.clone(), config.alpha_db)
                .max_readings(config.max_captures);
            let mut trajectory = Vec::new();
            let mut captures = 0usize;
            let (safety, converged) = loop {
                let t0 = Instant::now();
                let batch = sensor.capture_reading_batch(site.true_rss_dbm, &mut rng);
                let t1 = Instant::now();
                let extraction = FeatureVector::extract_from_batch(&batch, Window::Hann);
                let t2 = Instant::now();
                let raw_pilot = extraction.pilot_db;
                let observation = Observation {
                    rss_dbm: calibration.to_dbm(raw_pilot) + 12.0,
                    features: extraction.features.shifted_db(calibration.to_dbm(0.0)),
                    raw_pilot_db: raw_pilot,
                };
                let t3 = Instant::now();
                let outcome = detector.push(site.location, &observation);
                let t4 = Instant::now();
                rec.record("sensors.capture", "", id, Some(root), t0, t1);
                rec.record("iq.extract", "", id, Some(root), t1, t2);
                rec.record("core.detector_push", "", id, Some(root), t3, t4);
                captures += 1;
                if let DetectorOutcome::NeedMoreReadings { ci_span_db: Some(span) } = outcome {
                    if trajectory.len() >= CI_TRAJECTORY_CAP {
                        trajectory.remove(0);
                    }
                    trajectory.push(span);
                }
                match outcome {
                    DetectorOutcome::Converged { safety, readings_used } => {
                        break (safety, readings_used < config.max_captures);
                    }
                    DetectorOutcome::NeedMoreReadings { .. } if captures >= config.max_captures => {
                        break (Safety::NotSafe, false);
                    }
                    DetectorOutcome::NeedMoreReadings { .. } => {}
                }
            };
            log.push(DecisionRecord {
                seq: 0,
                channel: site.channel.number(),
                locality: model.locality_for(site.location),
                model_epoch: MODEL_EPOCH,
                readings_used: captures,
                ci_trajectory_db: trajectory,
                decided: safety,
                gated: safety,
                converged,
            });
            rec.close(root, Instant::now());
            pass.record(site, Decision { safety, captures });
        }
        let t_end = Instant::now();
        rec.close(scan_span, t_end);
        pass.scan_ms.push((t_end - t_scan).as_secs_f64() * 1e3);
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.audit_total = log.total();
    pass
}

/// Runs `device_scan` for `seconds`, then (with `trace`) its traced
/// replay, filling `report`.
pub fn run(
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    trace: Option<&mut Recorder>,
    report: &mut Report,
) {
    let pass = run_scanner(fixture, seed, Duration::from_secs_f64(seconds));
    let (scans, n) = (pass.scan_ms.len(), pass.decisions.len());
    report.attempted += n as u64;
    report.check(pass.audit_total == n as u64, || {
        format!("audit log holds {} decisions, the loop made {n}", pass.audit_total)
    });
    report.set_quantile("op_ms_p50", &pass.scan_ms, 0.50);
    report.set_quantile("op_ms_p90", &pass.scan_ms, 0.90);
    report.fact("scans", scans);
    report.fact("decisions", n);
    report.fact("decisions_per_s", n as f64 / pass.elapsed_s);
    report.fact("captures", pass.captures());
    report.fact("route_visited_frac", n as f64 / pass.first_visit as f64);
    let incorrect_safe = pass.incorrect_safe_frac();
    report.fact("incorrect_safe_frac", incorrect_safe);
    report.check(incorrect_safe <= INCORRECT_SAFE_CEILING, || {
        format!(
            "{incorrect_safe:.4} of NotSafe sites were called safe; at most \
             {INCORRECT_SAFE_CEILING} may be"
        )
    });
    report.info_quantile("scan_ms_p99", &pass.scan_ms, 0.99);

    let Some(rec) = trace else { return };
    let traced = replay(fixture, seed, scans, rec);
    let mismatches = pass.decisions.iter().zip(&traced.decisions).filter(|(a, b)| a != b).count();
    report.check(mismatches == 0 && traced.decisions.len() == n, || {
        format!("{mismatches} of {n} traced decisions differ from the untraced run")
    });
    report.check(traced.audit_total == n as u64, || {
        format!("traced audit log holds {} decisions, expected {n}", traced.audit_total)
    });
    let spans = rec.spans();
    let mean_us = |name| crate::stats::mean(&trace::durations_us(spans, name, None));
    report.set("sensors.capture_us", mean_us("sensors.capture"));
    report.set("iq.extract_us", mean_us("iq.extract"));
    report.set("core.detector_push_us", mean_us("core.detector_push"));
    report.set("device.captures_per_decision", traced.captures() as f64 / n.max(1) as f64);
    report.set("device.unattributed_frac", trace::unattributed_frac(spans, "device.decision"));
    report.set("device.incorrect_safe_frac", traced.incorrect_safe_frac());
    report.set("device.decisions_per_s", n as f64 / traced.elapsed_s);
    report.set("trace.overhead_frac", median(&traced.scan_ms) / median(&pass.scan_ms) - 1.0);
}
