//! The perf-regression diff engine behind `tangled metrics diff`.
//!
//! Compares two metrics documents — `metrics.json`
//! (`tangled-metrics/v1`/`v2`) or a `tangled-benchmark/v1` result set — by
//! flattening every numeric leaf to a dotted path and checking each
//! shared key's *relative* change against a threshold. The gate is a
//! change detector, deliberately direction-agnostic: a deterministic
//! baseline should not drift either way, and a drop in a
//! higher-is-better key is exactly as suspicious as a rise in a
//! lower-is-better one. Keys that disappeared from the current document
//! count as regressions; newly added keys are informational.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// Diff policy: a default relative threshold plus per-key-prefix
/// overrides and ignored prefixes.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Allowed relative change (`|cur - base| / |base|`) for keys with
    /// no specific override. 0.0 demands byte-exact values.
    pub default_threshold: f64,
    /// `(prefix, threshold)` overrides; the *longest* matching prefix
    /// wins. Use a looser threshold for wall-clock keys and 0.0 for
    /// keys that must not move at all.
    pub per_key: Vec<(String, f64)>,
    /// Key prefixes excluded from the comparison entirely (timing noise
    /// such as `*_ns` measurements).
    pub ignore: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { default_threshold: 0.05, per_key: Vec::new(), ignore: Vec::new() }
    }
}

impl DiffOptions {
    fn ignored(&self, key: &str) -> bool {
        self.ignore.iter().any(|p| key.starts_with(p.as_str()))
    }

    fn threshold_for(&self, key: &str) -> f64 {
        self.per_key
            .iter()
            .filter(|(p, _)| key.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.default_threshold)
    }
}

/// How one key fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within threshold.
    Ok,
    /// Relative change exceeded the key's threshold.
    Regression,
    /// Present in the baseline, absent in the current document — a
    /// silently vanished metric is a regression.
    Missing,
    /// Present only in the current document (informational).
    Added,
}

/// One compared key.
#[derive(Clone, Debug)]
pub struct KeyDiff {
    /// Dotted path of the numeric leaf.
    pub key: String,
    /// Baseline value (`NaN` for [`DiffStatus::Added`]).
    pub base: f64,
    /// Current value (`NaN` for [`DiffStatus::Missing`]).
    pub current: f64,
    /// `|current - base| / |base|`; infinite when the baseline is 0 and
    /// the current value is not.
    pub rel: f64,
    /// The threshold this key was held to.
    pub threshold: f64,
    /// Verdict.
    pub status: DiffStatus,
}

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared/added/missing key in sorted order.
    pub entries: Vec<KeyDiff>,
}

impl DiffReport {
    /// Keys whose change (or disappearance) breaches policy.
    pub fn regressions(&self) -> impl Iterator<Item = &KeyDiff> {
        self.entries
            .iter()
            .filter(|e| matches!(e.status, DiffStatus::Regression | DiffStatus::Missing))
    }

    /// True when the gate should fail.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Human-readable report: a summary line, then one line per
    /// regression/missing/added key (passing keys stay silent).
    pub fn render(&self) -> String {
        let compared = self
            .entries
            .iter()
            .filter(|e| matches!(e.status, DiffStatus::Ok | DiffStatus::Regression))
            .count();
        let regressions = self.regressions().count();
        let added = self.entries.iter().filter(|e| e.status == DiffStatus::Added).count();
        let mut out = format!(
            "metrics diff: {compared} keys compared, {regressions} regression{}, {added} added\n",
            if regressions == 1 { "" } else { "s" }
        );
        for e in &self.entries {
            match e.status {
                DiffStatus::Ok => {}
                DiffStatus::Regression => {
                    let _ = writeln!(
                        out,
                        "  REGRESS {}  base {}  current {}  delta {:.1}% > {:.1}%",
                        e.key,
                        fmt_num(e.base),
                        fmt_num(e.current),
                        e.rel * 100.0,
                        e.threshold * 100.0
                    );
                }
                DiffStatus::Missing => {
                    let _ = writeln!(
                        out,
                        "  MISSING {}  base {}  current -",
                        e.key,
                        fmt_num(e.base)
                    );
                }
                DiffStatus::Added => {
                    let _ = writeln!(out, "  ADDED   {}  current {}", e.key, fmt_num(e.current));
                }
            }
        }
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Flatten every numeric leaf of a JSON document to a dotted path
/// (array elements become `path.<index>`). Strings, booleans, and
/// nulls — schema tags, mode names — carry no perf signal and are
/// skipped.
pub fn flatten(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    fn go(v: &Json, path: &str, out: &mut BTreeMap<String, f64>) {
        match v {
            Json::Num(n) => {
                out.insert(path.to_string(), *n);
            }
            Json::Obj(m) => {
                for (k, x) in m {
                    let p = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    go(x, &p, out);
                }
            }
            Json::Arr(a) => {
                for (i, x) in a.iter().enumerate() {
                    go(x, &format!("{path}.{i}"), out);
                }
            }
            Json::Null | Json::Bool(_) | Json::Str(_) => {}
        }
    }
    go(doc, "", &mut out);
    out
}

/// Compare two parsed documents under a policy.
pub fn diff_docs(base: &Json, current: &Json, opts: &DiffOptions) -> DiffReport {
    let base = flatten(base);
    let current = flatten(current);
    let mut entries = Vec::new();
    for (key, &b) in &base {
        if opts.ignored(key) {
            continue;
        }
        let threshold = opts.threshold_for(key);
        match current.get(key) {
            None => entries.push(KeyDiff {
                key: key.clone(),
                base: b,
                current: f64::NAN,
                rel: f64::INFINITY,
                threshold,
                status: DiffStatus::Missing,
            }),
            Some(&c) => {
                let rel = if b == c {
                    0.0
                } else if b == 0.0 {
                    f64::INFINITY
                } else {
                    (c - b).abs() / b.abs()
                };
                let status =
                    if rel > threshold { DiffStatus::Regression } else { DiffStatus::Ok };
                entries.push(KeyDiff { key: key.clone(), base: b, current: c, rel, threshold, status });
            }
        }
    }
    for (key, &c) in &current {
        if opts.ignored(key) || base.contains_key(key) {
            continue;
        }
        entries.push(KeyDiff {
            key: key.clone(),
            base: f64::NAN,
            current: c,
            rel: f64::INFINITY,
            threshold: opts.threshold_for(key),
            status: DiffStatus::Added,
        });
    }
    DiffReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn identical_docs_pass_at_zero_threshold() {
        let a = doc(r#"{"counters": {"x": 10, "y": 0}, "schema": "tangled-metrics/v2"}"#);
        let opts = DiffOptions { default_threshold: 0.0, ..Default::default() };
        let report = diff_docs(&a, &a, &opts);
        assert!(!report.has_regressions(), "{}", report.render());
        assert_eq!(report.entries.len(), 2); // schema string skipped
    }

    #[test]
    fn over_threshold_change_is_a_regression() {
        let base = doc(r#"{"counters": {"cycles": 100}}"#);
        let cur = doc(r#"{"counters": {"cycles": 120}}"#);
        let report = diff_docs(&base, &cur, &DiffOptions::default());
        assert!(report.has_regressions());
        let r = report.regressions().next().unwrap();
        assert_eq!(r.key, "counters.cycles");
        assert!((r.rel - 0.2).abs() < 1e-12);
        // Direction-agnostic: an equal-sized improvement also trips.
        let better = doc(r#"{"counters": {"cycles": 80}}"#);
        assert!(diff_docs(&base, &better, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn within_threshold_change_passes() {
        let base = doc(r#"{"counters": {"cycles": 100}}"#);
        let cur = doc(r#"{"counters": {"cycles": 104}}"#);
        assert!(!diff_docs(&base, &cur, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn per_key_override_longest_prefix_wins() {
        let base = doc(r#"{"a": {"slow": 100, "fast": 100}}"#);
        let cur = doc(r#"{"a": {"slow": 140, "fast": 140}}"#);
        let opts = DiffOptions {
            default_threshold: 0.05,
            per_key: vec![("a.".into(), 0.1), ("a.slow".into(), 0.5)],
            ignore: Vec::new(),
        };
        let report = diff_docs(&base, &cur, &opts);
        let failing: Vec<&str> =
            report.regressions().map(|e| e.key.as_str()).collect();
        assert_eq!(failing, ["a.fast"], "{}", report.render());
    }

    #[test]
    fn missing_key_is_a_regression_added_is_not() {
        let base = doc(r#"{"x": 1, "y": 2}"#);
        let cur = doc(r#"{"y": 2, "z": 3}"#);
        let report = diff_docs(&base, &cur, &DiffOptions::default());
        let missing: Vec<&str> = report
            .entries
            .iter()
            .filter(|e| e.status == DiffStatus::Missing)
            .map(|e| e.key.as_str())
            .collect();
        let added: Vec<&str> = report
            .entries
            .iter()
            .filter(|e| e.status == DiffStatus::Added)
            .map(|e| e.key.as_str())
            .collect();
        assert_eq!(missing, ["x"]);
        assert_eq!(added, ["z"]);
        assert!(report.has_regressions());
    }

    #[test]
    fn zero_baseline_growth_is_infinite_change() {
        let base = doc(r#"{"errors": 0}"#);
        let cur = doc(r#"{"errors": 7}"#);
        let report = diff_docs(&base, &cur, &DiffOptions::default());
        assert!(report.has_regressions());
        assert!(report.regressions().next().unwrap().rel.is_infinite());
    }

    #[test]
    fn ignored_prefixes_are_skipped_and_arrays_flatten() {
        let base = doc(r#"{"t_ns": 100, "shape": [1, 2]}"#);
        let cur = doc(r#"{"t_ns": 900, "shape": [1, 2]}"#);
        let opts = DiffOptions {
            default_threshold: 0.0,
            per_key: Vec::new(),
            ignore: vec!["t_ns".into()],
        };
        let report = diff_docs(&base, &cur, &opts);
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(report.entries.iter().any(|e| e.key == "shape.0"));
    }
}
