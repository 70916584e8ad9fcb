//! Perf baseline store: named metric sets written by the bench bins and
//! diffed across runs (`snetctl bench diff`).
//!
//! A baseline file is one JSON object (schema [`BASELINE_SCHEMA`])
//! holding the producing run's [`RunManifest`](crate::RunManifest)
//! fields — so a regression can always be traced to a toolchain, commit,
//! or thread-count change — and a flat `metrics` map. Comparison
//! direction is inferred from the metric name (see [`Direction::of`]):
//! throughputs regress when they drop, wall times when they rise, and
//! workload-size metrics (node counts) are reported but never fail a
//! diff on their own.

use crate::event::fmt_f64;
use crate::json::{num, obj, str_map};
use serde::de::{self, read_field, Source, Token};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeMap;

/// Schema tag stamped into every baseline file.
pub const BASELINE_SCHEMA: &str = "snet-bench-baseline/1";

/// A named set of scalar metrics from one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Always [`BASELINE_SCHEMA`] on files this code writes; preserved
    /// verbatim on load so future readers can branch on it.
    pub schema: String,
    /// Scenario name, e.g. `search_n6` — also the default file stem.
    pub name: String,
    /// The producing run's manifest fields (tool, commit, host, …).
    pub manifest: Vec<(String, String)>,
    /// Metric name → value. Sorted map so files serialize stably.
    pub metrics: BTreeMap<String, f64>,
}

impl Baseline {
    /// An empty baseline capturing the current run's manifest.
    pub fn new(name: &str, manifest: &crate::RunManifest) -> Self {
        Baseline {
            schema: BASELINE_SCHEMA.to_string(),
            name: name.to_string(),
            manifest: manifest.fields(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds one metric (builder form).
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// Serializes to the baseline file format (pretty enough to diff in
    /// version control).
    pub fn to_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("a value tree always serializes");
        out.push('\n');
        out
    }

    /// Parses a baseline file; `Err` explains what is malformed.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Writes the baseline to `path`, creating parent directories.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a baseline file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Serialize for Baseline {
    fn serialize(&self) -> Value {
        let metrics = self.metrics.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
        obj(vec![
            ("schema", self.schema.serialize()),
            ("name", self.name.serialize()),
            ("manifest", str_map(&self.manifest)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// Lenient about content, strict about identity: unknown keys,
/// non-string manifest values and non-numeric metrics are skipped, but
/// the file must be an object carrying a `snet-bench-baseline/*` schema
/// and a name. The first of repeated top-level keys counts, and the last
/// of a metric's repeated values.
impl Deserialize for Baseline {
    fn read<S: Source>(src: &mut S) -> Result<Self, Error> {
        if !matches!(src.next()?, Token::Object) {
            return Err(Error::custom("baseline file is not a JSON object"));
        }
        let (mut schema, mut name, mut manifest, mut metrics) = (None, None, None, None);
        de::fields(src, &["schema", "name", "manifest", "metrics"], |src, i| match i {
            0 => read_field(src, &mut schema, String::read),
            1 => read_field(src, &mut name, String::read),
            2 => read_field(src, &mut manifest, |src| entries(src, String::read)),
            _ => read_field(src, &mut metrics, |src| entries(src, f64::read)),
        })?;
        let baseline = Baseline {
            schema: or_default(schema),
            name: or_default(name),
            manifest: or_default(manifest),
            metrics: or_default(metrics).into_iter().collect(),
        };
        if baseline.schema.is_empty() {
            return Err(Error::custom("baseline file has no schema field"));
        }
        if !baseline.schema.starts_with("snet-bench-baseline/") {
            return Err(Error::custom(format!(
                "unrecognized baseline schema {:?}",
                baseline.schema
            )));
        }
        if baseline.name.is_empty() {
            return Err(Error::custom("baseline file has no name field"));
        }
        Ok(baseline)
    }
}

/// A lenient field's value: what decoded, else the default.
fn or_default<T: Default>(slot: Option<Result<T, Error>>) -> T {
    slot.and_then(Result::ok).unwrap_or_default()
}

/// The members of an object whose values decode with `read`, in document
/// order (the others are skipped); anything but an object is an error.
fn entries<S: Source, T>(
    src: &mut S,
    mut read: impl FnMut(&mut S) -> Result<T, Error>,
) -> Result<Vec<(String, T)>, Error> {
    if !matches!(src.next()?, Token::Object) {
        return Err(Error::custom("not an object"));
    }
    let mut out = Vec::new();
    while let Some(key) = src.next_key()? {
        let key = key.into_owned();
        let mut value = None;
        read_field(src, &mut value, &mut read)?;
        if let Some(Ok(value)) = value {
            out.push((key, value));
        }
    }
    Ok(out)
}

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a significant drop is a regression.
    HigherBetter,
    /// Latency-like: a significant rise is a regression.
    LowerBetter,
    /// Workload-size-like: reported, never a regression by itself.
    Neutral,
}

impl Direction {
    /// Infers the direction from the metric name: `*_ms`/`*_us`/`*_ns`
    /// are durations (lower is better); `*_total` counts (node counts,
    /// a pass's ops/size/depth) and bare `nodes`/`states` describe the
    /// workload (neutral: reported, never failed); everything else —
    /// rates, hit ratios, speedups — is higher-better.
    pub fn of(metric: &str) -> Direction {
        if metric.ends_with("_ms") || metric.ends_with("_us") || metric.ends_with("_ns") {
            Direction::LowerBetter
        } else if metric.ends_with("_total") || metric == "nodes" || metric == "states" {
            Direction::Neutral
        } else {
            Direction::HigherBetter
        }
    }
}

/// One metric's comparison between two baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Value in the reference (old) baseline, if present.
    pub old: Option<f64>,
    /// Value in the candidate (new) baseline, if present.
    pub new: Option<f64>,
    /// Signed percent change new vs. old (`None` unless both present
    /// and old ≠ 0).
    pub pct: Option<f64>,
    /// True iff the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// The result of [`diff`]: per-metric deltas plus the regression count.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDiff {
    /// Per-metric rows, sorted by metric name.
    pub deltas: Vec<MetricDelta>,
    /// Threshold used, in percent.
    pub fail_pct: f64,
}

impl BaselineDiff {
    /// Metrics that regressed beyond the threshold.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// Compares `new` against the reference `old`. A metric regresses when
/// it moves more than `fail_pct` percent in its bad direction (see
/// [`Direction::of`]); metrics present on only one side are listed but
/// never regress.
pub fn diff(old: &Baseline, new: &Baseline, fail_pct: f64) -> BaselineDiff {
    let mut names: Vec<&String> = old.metrics.keys().chain(new.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let deltas = names
        .into_iter()
        .map(|name| {
            let old_v = old.metrics.get(name).copied();
            let new_v = new.metrics.get(name).copied();
            let pct = match (old_v, new_v) {
                (Some(o), Some(n)) if o != 0.0 => Some((n - o) / o * 100.0),
                _ => None,
            };
            let regressed = match (Direction::of(name), pct) {
                (Direction::HigherBetter, Some(p)) => p < -fail_pct,
                (Direction::LowerBetter, Some(p)) => p > fail_pct,
                _ => false,
            };
            MetricDelta { metric: name.clone(), old: old_v, new: new_v, pct, regressed }
        })
        .collect();
    BaselineDiff { deltas, fail_pct }
}

/// Renders a diff as an aligned table with a verdict line.
pub fn render_diff(old: &Baseline, new: &Baseline, d: &BaselineDiff) -> String {
    let mut rows: Vec<[String; 4]> =
        vec![["metric".to_string(), "old".to_string(), "new".to_string(), "change".to_string()]];
    let fmt_opt = |v: Option<f64>| v.map(|v| fmt_f64((v * 1000.0).round() / 1000.0));
    for delta in &d.deltas {
        let change = match delta.pct {
            Some(p) => {
                let mark = if delta.regressed { "  REGRESSED" } else { "" };
                format!("{p:+.1}%{mark}")
            }
            None if delta.old.is_none() => "new metric".to_string(),
            None => "removed".to_string(),
        };
        rows.push([
            delta.metric.clone(),
            fmt_opt(delta.old).unwrap_or_else(|| "-".to_string()),
            fmt_opt(delta.new).unwrap_or_else(|| "-".to_string()),
            change,
        ]);
    }
    let mut widths = [0usize; 4];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("baseline diff: {} (old) vs {} (new)\n", old.name, new.name);
    for (k, v) in &old.manifest {
        if k == "commit" || k == "threads" {
            let new_v = new.manifest.iter().find(|(nk, _)| nk == k).map(|(_, v)| v.as_str());
            if new_v.is_some_and(|nv| nv != v) {
                out.push_str(&format!("  note: {k} changed {v} -> {}\n", new_v.unwrap()));
            }
        }
    }
    for row in &rows {
        out.push_str(&format!(
            "  {:<w0$}  {:>w1$}  {:>w2$}  {}\n",
            row[0],
            row[1],
            row[2],
            row[3],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
        ));
    }
    let regressions = d.regressions();
    if regressions.is_empty() {
        out.push_str(&format!("  OK: no metric regressed more than {}%\n", d.fail_pct));
    } else {
        out.push_str(&format!(
            "  FAIL: {} metric(s) regressed more than {}%\n",
            regressions.len(),
            d.fail_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, states_per_sec: f64, wall_ms: f64) -> Baseline {
        Baseline::new(name, &crate::RunManifest::capture("bench-test"))
            .metric("states_per_sec", states_per_sec)
            .metric("tt_hit_rate", 0.5)
            .metric("wall_ms", wall_ms)
            .metric("nodes_total", 1000.0)
    }

    #[test]
    fn json_roundtrips() {
        let b = sample("search_n6", 1.25e6, 420.5);
        let back = Baseline::parse(&b.to_json()).expect("parses back");
        assert_eq!(back, b);
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"schema\":\"wrong/1\",\"name\":\"x\"}").is_err());
    }

    #[test]
    fn directions_infer_from_names() {
        assert_eq!(Direction::of("states_per_sec"), Direction::HigherBetter);
        assert_eq!(Direction::of("tt_hit_rate"), Direction::HigherBetter);
        assert_eq!(Direction::of("wall_ms"), Direction::LowerBetter);
        assert_eq!(Direction::of("task_p99_us"), Direction::LowerBetter);
        assert_eq!(Direction::of("nodes_total"), Direction::Neutral);
        // The IR pass baselines: sizes are reported, pass times gated.
        assert_eq!(Direction::of("relayer_depth_after_total"), Direction::Neutral);
        assert_eq!(Direction::of("final_size_total"), Direction::Neutral);
        assert_eq!(Direction::of("redundant_elim_ns"), Direction::LowerBetter);
        assert_eq!(Direction::of("speedup"), Direction::HigherBetter);
    }

    #[test]
    fn clean_rerun_passes_and_injected_regression_fails() {
        let old = sample("search_n6", 1e6, 400.0);
        let same = sample("search_n6", 1.02e6, 395.0);
        assert!(diff(&old, &same, 10.0).regressions().is_empty());

        // Throughput drop beyond threshold.
        let slow = sample("search_n6", 0.5e6, 400.0);
        let d = diff(&old, &slow, 10.0);
        let regressions = d.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "states_per_sec");
        assert!(render_diff(&old, &slow, &d).contains("REGRESSED"));

        // Wall-time rise beyond threshold.
        let slow_wall = sample("search_n6", 1e6, 600.0);
        assert_eq!(diff(&old, &slow_wall, 10.0).regressions()[0].metric, "wall_ms");

        // Workload growth alone is not a regression.
        let mut bigger = sample("search_n6", 1e6, 400.0);
        bigger.metrics.insert("nodes_total".into(), 5000.0);
        assert!(diff(&old, &bigger, 10.0).regressions().is_empty());
    }

    #[test]
    fn one_sided_metrics_never_regress() {
        let old = sample("search_n6", 1e6, 400.0);
        let mut new = sample("search_n6", 1e6, 400.0);
        new.metrics.remove("wall_ms");
        new.metrics.insert("steal_ratio".into(), 0.1);
        let d = diff(&old, &new, 10.0);
        assert!(d.regressions().is_empty());
        let rendered = render_diff(&old, &new, &d);
        assert!(rendered.contains("new metric"));
        assert!(rendered.contains("removed"));
        assert!(rendered.contains("OK:"));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("snet-obs-tests").join("baselines");
        let path = dir.join("unit.json");
        let b = sample("unit", 2e6, 100.0);
        b.save(&path).expect("saves");
        let back = Baseline::load(&path).expect("loads");
        assert_eq!(back, b);
        assert!(Baseline::load(&dir.join("missing.json")).is_err());
    }
}
