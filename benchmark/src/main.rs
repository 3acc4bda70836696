//! The Waldo benchmark: three workloads over the system's user-visible
//! paths (device scans, model fetches, the crowd-sourcing loop), each
//! measured end to end and, in a traced run, layer by layer.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
//! benchmark spread [--runs <n>] [--seed <u64>] [--vary-seed] [--seconds <s>]
//!           [--workload <name>]
//! ```
//!
//! Each workload prints a detailed JSON report (host facts, sample
//! counts, every metric with its support, the layer budget when traced)
//! and then, as its last line, the result object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (untraced) or the per-layer
//! metrics (`--trace 1`). Any failed output check exits nonzero.
//! See README.md for the workloads and metrics.

mod device;
mod fetch;
mod fleet;
mod pace;
mod report;
mod setup;
mod spread;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use setup::Fixture;
use trace::Recorder;

/// The workloads, in the order `all` and `spread` run them.
pub const WORKLOADS: [&str; 3] = ["device_scan", "fetch_mix", "fleet_loop"];

/// The benchmark definition this binary measures against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: benchmark --workload <device_scan|fetch_mix|fleet_loop|all> \
                     --seed <u64> [--seconds <s>] [--trace <0|1>]\n       \
                     benchmark spread [--runs <n>] [--seed <u64>] [--vary-seed] \
                     [--seconds <s>] [--workload <name>]";

/// Where spans and the fleet store go: `out/` beside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `run_seconds` from `BENCHMARK.json`, the default run length.
pub fn default_seconds() -> f64 {
    serde_json::from_str::<serde_json::Value>(BENCHMARK_JSON)
        .ok()
        .and_then(|v| v["run_seconds"].as_f64())
        .unwrap_or(10.0)
}

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = default_seconds();
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let workloads = match workload.as_str() {
            "all" => WORKLOADS.to_vec(),
            name => vec![*WORKLOADS
                .iter()
                .find(|w| **w == name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?],
        };
        Ok(Self { workloads, seed: seed.ok_or("--seed is required")?, seconds, trace })
    }
}

fn run_workload(workload: &'static str, o: &Options) -> Report {
    let mut report = Report::new(workload);
    let (fixture, setup_times) = Fixture::build_timed();
    report.set("setup_s", stats::median(&setup_times));
    report.fact("setup_s_samples", serde_json::json!(setup_times));
    report.fact("nproc", std::thread::available_parallelism().map_or(1, usize::from));
    report.fact("seed", o.seed);
    report.fact("seconds", o.seconds);
    report.fact("traced", o.trace);

    let mut rec = o.trace.then(|| Recorder::new(Instant::now()));
    let cpu_start = stats::cpu_s();
    type Run = fn(&Fixture, u64, f64, Option<&mut Recorder>, &mut Report);
    let (run, roots): (Run, &[&str]) = match workload {
        "device_scan" => (device::run, device::BUDGET_ROOTS),
        "fetch_mix" => (fetch::run, fetch::BUDGET_ROOTS),
        _ => (fleet::run, fleet::BUDGET_ROOTS),
    };
    run(&fixture, o.seed, o.seconds, rec.as_mut(), &mut report);
    report.set("proc.cpu_s", stats::cpu_s() - cpu_start);
    report.set("proc.rss_peak_mb", stats::rss_peak_mb());

    if let Some(rec) = rec {
        report.set_budget(trace::budget(rec.spans(), roots));
        let path = out_dir().join(format!("{workload}.spans.jsonl"));
        match rec.write_jsonl(&path) {
            Ok(()) => report.fact("spans", path.display().to_string()),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    report.require_end_to_end();
    report
}

fn to_line(value: &serde_json::Value) -> String {
    serde_json::to_string(value).expect("reports hold only finite numbers and strings")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spread") {
        std::process::exit(spread::main(&args[1..]));
    }
    let options = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut correct = true;
    for &workload in &options.workloads {
        let report = run_workload(workload, &options);
        if options.trace {
            eprintln!("{workload} layer budget:\n{}", trace::budget_table(report.budget_rows()));
        }
        println!("{}", to_line(&report.detail_json(options.trace)));
        println!("{}", to_line(&report.result_json(options.trace)));
        correct &= report.correct();
    }
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let json: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        json[section]
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
            .iter()
            .map(|m| {
                (m["name"].as_str().unwrap().to_owned(), m["unit"].as_str().unwrap().to_owned())
            })
            .collect()
    }

    fn emitted(defs: &[report::MetricDef]) -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_owned(), d.unit.to_owned())).collect()
    }

    #[test]
    fn benchmark_json_names_match_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), emitted(report::END_TO_END));
        assert_eq!(declared("per_layer"), emitted(report::PER_LAYER));
        let json: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_workload_result_carries_exactly_the_declared_metrics() {
        let mut r = Report::new("device_scan");
        for d in report::END_TO_END {
            r.set(d.name, 1.0);
        }
        r.require_end_to_end();
        for (traced, defs) in [(false, report::END_TO_END), (true, report::PER_LAYER)] {
            let line = r.result_json(traced);
            let keys: Vec<&String> = line.as_object().unwrap().iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> =
                line["metrics"].as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
        }
        assert!(r.correct());
    }

    #[test]
    fn unmeasured_end_to_end_metrics_fail_the_run() {
        let mut r = Report::new("fetch_mix");
        r.set("setup_s", 1.0);
        r.require_end_to_end();
        assert!(!r.correct());
    }

    #[test]
    fn options_parse_the_command_line() {
        let args: Vec<String> =
            ["--workload", "fleet_loop", "--seed", "7", "--seconds", "3", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!((o.workloads, o.seed, o.seconds, o.trace), (vec!["fleet_loop"], 7, 3.0, true));
        let bad = |a: &[&str]| {
            Options::parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>()).is_err()
        };
        assert!(bad(&["--workload", "nope", "--seed", "1"]));
        assert!(bad(&["--workload", "all"]));
        assert!(bad(&["--workload", "all", "--seed", "1", "--trace", "2"]));
    }
}
