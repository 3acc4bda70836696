//! In-memory spans recorded around the benchmark's calls into each
//! layer, their JSONL dump, and the per-path self-time budget.
//!
//! A span's self time is its duration minus the part of its interval its
//! child spans cover. A path's budget lists, for each root span name, the
//! total time of each child layer and the root's own self time — the part
//! no named layer call accounts for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call (`sensors.capture`) or path root (`device.decision`).
    pub name: &'static str,
    /// Phase or request kind the span belongs to (`""` when none).
    pub tag: &'static str,
    /// Round, decision, or request id shared by the spans of one operation.
    pub id: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store with one shared time origin, so recorders on
/// different threads can be merged.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from the origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span { name, tag, id, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span at `start` so children can name it as their parent
    /// before it ends; [`close`](Self::close) sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.record(name, tag, id, parent, start, start)
    }

    /// Ends the span at `index`.
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = self.ns(end);
    }

    /// Moves `other`'s spans in, re-basing their parent indices. Both
    /// recorders must share one origin.
    pub fn absorb(&mut self, other: Recorder) {
        debug_assert_eq!(self.origin, other.origin, "merged recorders share an origin");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// One row of a path budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Root span name (the path).
    pub path: &'static str,
    /// Root span tag (phase or request kind).
    pub tag: &'static str,
    /// Child layer call, or `"(self)"` for the root's unattributed time.
    pub layer: &'static str,
    /// Child spans (or roots, for the self row) counted.
    pub calls: u64,
    /// Their summed duration (self time for the self row), ns.
    pub total_ns: u64,
    /// Share of the summed root duration.
    pub share: f64,
}

/// Label of the budget row holding a root's self time.
const SELF_ROW: &str = "(self)";

/// Budget of every root span named in `roots`, grouped by (root name,
/// tag): each direct child layer's summed duration and the roots' summed
/// self time, each as a share of the summed root duration. Sorted by
/// path, tag, then descending time.
pub fn budget(spans: &[Span], roots: &[&'static str]) -> Vec<BudgetRow> {
    let selfs = self_times(spans);
    // (path, tag) -> (root count, root total, self total, layer -> (calls, ns))
    type Acc = (u64, u64, u64, BTreeMap<&'static str, (u64, u64)>);
    let mut groups: BTreeMap<(&'static str, &'static str), Acc> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if roots.contains(&s.name) {
            let g = groups.entry((s.name, s.tag)).or_default();
            g.0 += 1;
            g.1 += s.dur_ns();
            g.2 += selfs[i];
        }
    }
    for s in spans {
        let Some(parent) = s.parent.map(|p| &spans[p]) else { continue };
        if let Some(g) = groups.get_mut(&(parent.name, parent.tag)) {
            let layer = g.3.entry(s.name).or_default();
            layer.0 += 1;
            layer.1 += s.dur_ns();
        }
    }
    let mut rows = Vec::new();
    for ((path, tag), (count, total, self_ns, layers)) in groups {
        let share = |ns: u64| if total == 0 { 0.0 } else { ns as f64 / total as f64 };
        let mut group: Vec<BudgetRow> = layers
            .into_iter()
            .map(|(layer, (calls, ns))| BudgetRow {
                path,
                tag,
                layer,
                calls,
                total_ns: ns,
                share: share(ns),
            })
            .collect();
        group.push(BudgetRow {
            path,
            tag,
            layer: SELF_ROW,
            calls: count,
            total_ns: self_ns,
            share: share(self_ns),
        });
        group.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        rows.extend(group);
    }
    rows
}

/// The unattributed share of the roots named `path` (all tags pooled).
pub fn unattributed_frac(spans: &[Span], path: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut unattributed) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == path {
            total += s.dur_ns();
            unattributed += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        unattributed as f64 / total as f64
    }
}

/// Durations in microseconds of the spans named `name` (and tagged
/// `tag`, unless `tag` is `None`).
pub fn durations_us(spans: &[Span], name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The budget as JSON rows for the report.
pub fn budget_json(rows: &[BudgetRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                json!({
                    "path": r.path,
                    "tag": r.tag,
                    "layer": r.layer,
                    "calls": r.calls,
                    "total_ms": r.total_ns as f64 / 1e6,
                    "share": r.share,
                })
            })
            .collect(),
    )
}

/// The budget as an aligned text table, for stderr.
pub fn budget_table(rows: &[BudgetRow]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<18} {:<10} {:<22} {:>9} {:>12} {:>7}\n",
        "path", "tag", "layer", "calls", "total ms", "share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<10} {:<22} {:>9} {:>12.3} {:>6.1}%",
            r.path,
            r.tag,
            r.layer,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.share * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, tag: "", id: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),  // overlaps a: union is 10..50
            span("c", Some(0), 90, 120), // clipped to the root's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn budget_rows_sum_to_the_root_total() {
        let spans = [
            span("decision", None, 0, 100),
            span("capture", Some(0), 0, 60),
            span("push", Some(0), 60, 90),
            span("decision", None, 200, 300),
            span("capture", Some(3), 200, 280),
        ];
        let rows = budget(&spans, &["decision"]);
        let total: u64 = rows.iter().map(|r| r.total_ns).sum();
        assert_eq!(total, 200);
        assert_eq!(rows[0].layer, "capture");
        assert_eq!((rows[0].calls, rows[0].total_ns), (2, 140));
        let own = rows.iter().find(|r| r.layer == SELF_ROW).unwrap();
        assert_eq!((own.calls, own.total_ns), (2, 30));
        assert!((unattributed_frac(&spans, "decision") - 0.15).abs() < 1e-12);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.record("x", "", 1, None, origin, origin);
        let mut b = Recorder::new(origin);
        let root = b.record("root", "", 2, None, origin, origin);
        b.record("child", "", 2, Some(root), origin, origin);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
