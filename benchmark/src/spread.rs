//! `spread`: run-to-run noise of every end-to-end metric against its
//! bound.
//!
//! Each repetition runs every selected workload once, each in a fresh
//! child process, in turn — so host drift during the repetitions hits
//! every workload alike. For each (metric, workload) it prints the
//! median, the quartiles, the interquartile spread and the max − min
//! spread as shares of the median, and the metric's bound from
//! `BENCHMARK.json`. A metric whose interquartile spread exceeds its
//! bound is marked unresolved: a change of that size could not be told
//! from noise. The exit code is nonzero if a run failed or a metric is
//! unresolved.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::stats::{median, quartiles};
use crate::{default_seconds, BENCHMARK_JSON, WORKLOADS};

struct Options {
    runs: usize,
    seed: u64,
    vary_seed: bool,
    seconds: f64,
    workloads: Vec<&'static str>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 5,
        seed: 1,
        vary_seed: false,
        seconds: default_seconds(),
        workloads: WORKLOADS.to_vec(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--runs" => o.runs = value()?.parse().map_err(|_| "--runs takes a count")?,
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--vary-seed" => o.vary_seed = true,
            "--seconds" => o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS.iter().find(|w| *w == name).ok_or("unknown workload")?;
                o.workloads = vec![*w];
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(o)
}

/// `(name, bound)` of every end-to-end metric.
fn bounds() -> Vec<(String, f64)> {
    let json: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    json["end_to_end"]
        .as_array()
        .expect("an end_to_end list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or_default().to_owned(),
                m["bound"].as_f64().unwrap_or(f64::NAN),
            )
        })
        .collect()
}

/// Runs one workload in a child process and returns its metric values.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!("{workload} seed {seed} failed ({}): {last}", output.status));
    }
    let metrics = result["metrics"].as_object().ok_or("result without metrics")?;
    Ok(metrics.iter().filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?))).collect())
}

/// Entry point of `benchmark spread`; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut failures = 0;
    for rep in 0..o.runs {
        let seed = if o.vary_seed { o.seed + rep as u64 } else { o.seed };
        for &workload in &o.workloads {
            eprintln!("spread: run {}/{} {workload} seed {seed}", rep + 1, o.runs);
            match run_child(workload, seed, o.seconds) {
                Ok(metrics) => {
                    eprintln!("spread: {workload} seed {seed}: {metrics:?}");
                    for (name, v) in metrics {
                        values.entry((workload, name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("spread: {e}");
                    failures += 1;
                }
            }
        }
    }

    println!(
        "{:<12} {:<12} {:>5} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median", "q1", "q3", "iqr%", "range%", "bound%"
    );
    let mut unresolved = 0;
    for &workload in &o.workloads {
        for (name, bound) in bounds() {
            let Some(v) = values.get(&(workload, name.clone())) else { continue };
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            let iqr = (q3 - q1) / med;
            let range = (max - min) / med;
            let verdict = if iqr <= bound { "ok" } else { "unresolved" };
            if iqr > bound {
                unresolved += 1;
            }
            println!(
                "{workload:<12} {name:<12} {:>5} {med:>12.5} {q1:>12.5} {q3:>12.5} {:>7.2}% {:>7.2}% {:>5.1}%  {verdict}",
                v.len(),
                iqr * 100.0,
                range * 100.0,
                bound * 100.0
            );
        }
    }
    println!("spread: {failures} failed runs, {unresolved} unresolved metrics");
    i32::from(failures > 0 || unresolved > 0)
}
