//! The metric registry and one workload run's report.
//!
//! Every workload reports every metric: end-to-end metrics are defined
//! per workload (the "operation" is a scan, a fetch, or a follower read),
//! and a per-layer metric of a layer a workload does not run
//! reads 0. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::stats::{self, Quantile};
use crate::trace::BudgetRow;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured untraced. The operation is a
/// seven-channel scan on `device_scan`, a model fetch at 1,000/s on
/// `fetch_mix`, and a follower read at 1,000/s made while the upload →
/// refit → replicate loop runs on `fleet_loop`.
pub const END_TO_END: &[MetricDef] =
    &[m("setup_s", "s"), m("op_ms_p50", "ms"), m("op_ms_p90", "ms")];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // device_scan
    m("sensors.capture_us", "us"),
    m("iq.extract_us", "us"),
    m("core.detector_push_us", "us"),
    m("device.captures_per_decision", "count"),
    m("device.unattributed_frac", "frac"),
    m("device.incorrect_safe_frac", "frac"),
    m("device.decisions_per_s", "1/s"),
    // fetch_mix
    m("client.refresh_us_p50", "us"),
    m("client.refresh_us_p90", "us"),
    m("client.new_device_us_p50", "us"),
    m("client.new_device_us_p90", "us"),
    m("fetch.wait_frac", "frac"),
    m("loadgen.late_us_p99", "us"),
    m("client.retries_total", "count"),
    // fetch_mix and fleet_loop
    m("serve.cache_hit_frac", "frac"),
    m("serve.accepted_total", "count"),
    m("serve.requests_total", "count"),
    m("serve.errors_total", "count"),
    m("serve.busy_rejections", "count"),
    m("serve.reactors", "count"),
    // fleet_loop
    m("client.upload_us_p50", "us"),
    m("client.upload_us_p90", "us"),
    m("ingest.refit_ms_p50", "ms"),
    m("ingest.refit_s_total", "s"),
    m("replica.sync_ms_p50", "ms"),
    m("fleet.observe_ms_p50", "ms"),
    m("fleet.unattributed_frac", "frac"),
    m("fleet.freshness_ms_p50", "ms"),
    m("fleet.rounds_per_s", "1/s"),
    m("store.wal_bytes_per_upload_byte", "ratio"),
    m("store.refit_write_bytes_per_upload_byte", "ratio"),
    m("store.refit_write_syscalls_per_refit", "count"),
    m("refit.total_rows_last", "count"),
    m("refit.changed_localities_total", "count"),
    m("replica.installs_total", "count"),
    m("replica.full_resyncs_total", "count"),
    m("replica.sync_errors_total", "count"),
    m("ingest.uploads_total", "count"),
    m("ingest.duplicates_total", "count"),
    // every workload
    m("proc.cpu_s", "s"),
    m("proc.rss_peak_mb", "MB"),
    m("trace.overhead_frac", "frac"),
];

fn def(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// A measured value with its percentile support, if it is a percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reading {
    value: f64,
    support: Option<(usize, usize)>,
}

/// One workload run's results, checks, and facts.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, Reading>,
    info: Map,
    facts: Map,
    budget: Vec<BudgetRow>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            info: Map::new(),
            facts: Map::new(),
            budget: Vec::new(),
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every output check passed and every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Sets a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        def(name);
        self.check(value.is_finite(), || format!("{name} is not finite ({value})"));
        self.values.insert(name, Reading { value, support: None });
    }

    /// Sets a declared percentile metric from raw samples; too little
    /// support or a failed operation at the rank fails the run.
    pub fn set_quantile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        def(name);
        match stats::quantile(samples, q) {
            Ok(Quantile { value, samples, beyond }) => {
                self.values.insert(name, Reading { value, support: Some((samples, beyond)) });
            }
            Err(e) => self.failures.push(format!("{name}: {e}")),
        }
    }

    /// An undeclared percentile printed for information only.
    pub fn info_quantile(&mut self, name: &str, samples: &[f64], q: f64) {
        let value = match stats::quantile(samples, q) {
            Ok(p) => json!({"value": p.value, "samples": p.samples, "beyond": p.beyond}),
            Err(e) => json!({"error": e}),
        };
        self.info.insert(name, value);
    }

    /// A host fact, phase length, or count carried in the detailed report.
    pub fn fact(&mut self, key: &str, value: impl Into<Value>) {
        self.facts.insert(key, value.into());
    }

    /// Attaches the traced run's path budget.
    pub fn set_budget(&mut self, rows: Vec<BudgetRow>) {
        self.budget = rows;
    }

    /// End-to-end metrics a workload did not set are failures.
    pub fn require_end_to_end(&mut self) {
        for d in END_TO_END {
            if !self.values.contains_key(d.name)
                && !self.failures.iter().any(|f| f.starts_with(d.name))
            {
                self.failures.push(format!("{} was not measured", d.name));
            }
        }
    }

    fn metric_json(&self, d: &MetricDef, detail: bool) -> Value {
        let reading =
            self.values.get(d.name).copied().unwrap_or(Reading { value: 0.0, support: None });
        let mut o = Map::new();
        o.insert("value", reading.value.into());
        o.insert("unit", d.unit.into());
        if detail {
            if let Some((samples, beyond)) = reading.support {
                o.insert("samples", samples.into());
                o.insert("beyond", beyond.into());
            }
        }
        Value::Object(o)
    }

    fn metrics_json(&self, defs: &[MetricDef], detail: bool) -> Value {
        let mut o = Map::new();
        for d in defs {
            o.insert(d.name, self.metric_json(d, detail));
        }
        Value::Object(o)
    }

    /// The detailed report: every metric with its support, the facts,
    /// the budget, and every failed check.
    pub fn detail_json(&self, traced: bool) -> Value {
        let mut o = Map::new();
        o.insert("workload", self.workload.into());
        o.insert("correct", self.correct().into());
        o.insert("attempted", self.attempted.into());
        o.insert("failed", self.failed.into());
        o.insert(
            "failures",
            Value::Array(self.failures.iter().map(|f| f.as_str().into()).collect()),
        );
        o.insert("facts", Value::Object(self.facts.clone()));
        o.insert("end_to_end", self.metrics_json(END_TO_END, true));
        o.insert("info", Value::Object(self.info.clone()));
        if traced {
            o.insert("per_layer", self.metrics_json(PER_LAYER, true));
            o.insert("budget", crate::trace::budget_json(&self.budget));
        }
        Value::Object(o)
    }

    /// The one-line result: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_json(&self, traced: bool) -> Value {
        let metrics = if traced {
            self.metrics_json(PER_LAYER, false)
        } else {
            self.metrics_json(END_TO_END, false)
        };
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }

    /// The traced run's budget rows (empty when untraced).
    pub fn budget_rows(&self) -> &[BudgetRow] {
        &self.budget
    }
}
