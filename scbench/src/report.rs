//! Result collection, statistics and the output format.
//!
//! Every run prints two lines on standard output, rendered with the
//! service's JSON value type: a `report` object with
//! the effective configuration and every figure the run measured (under
//! the names the benchmark's note uses), and — last — the result object
//! with the metrics `BENCHMARK.json` declares for the run's trace mode.

use scflow_serve::json::{obj, Json};

/// An ordered set of named, unit-tagged figures.
#[derive(Default)]
pub struct Figures {
    items: Vec<(String, f64, &'static str)>,
}

impl Figures {
    /// Records `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.items.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.items.push((name, value, unit)),
        }
    }

    /// The value and unit recorded under `name`.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// Appends every figure of `other`.
    pub fn extend(&mut self, other: Figures) {
        for (n, v, u) in other.items {
            self.set(n, v, u);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.items
                .iter()
                .map(|(n, v, u)| {
                    let figure = obj([("value", num(*v)), ("unit", Json::Str((*u).to_owned()))]);
                    (n.clone(), figure)
                })
                .collect(),
        )
    }

    /// Names of figures whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (the JSON value type holds integers only, so floats are spliced in).
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Raw(format!("{v:?}"))
    } else {
        Json::Null
    }
}

/// Operations attempted and failed (a failed correctness check counts as
/// a failed operation).
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose result was wrong or refused.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` also counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of `xs` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The process's peak resident set size in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
