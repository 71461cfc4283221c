//! A run's outcome: the result line every run ends with, and the record
//! file (`--record`) that `compare` reads back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every timed run reports, in order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "latency_p50_ms",
    "goodput_rps",
    "cpu_us_per_req",
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and how many of its output checks failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed, were wrong, or never answered.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations, percent.
    pub fn fail_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// metric with its unit, values printed with all their digits.
    ///
    /// # Panics
    /// Panics on a non-finite metric value, which has no JSON form.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }

    /// The record file: workload, host facts and metrics, one `key value`
    /// pair per line.
    pub fn record(&self, workload: &str, seed: u64, host: &BTreeMap<&'static str, String>) -> String {
        let mut out = format!("workload {workload}\nseed {seed}\n");
        for (k, v) in host {
            let _ = writeln!(out, "host.{k} {v}");
        }
        let _ = writeln!(out, "attempted {}\nfailed {}", self.attempted, self.failed);
        for m in &self.metrics {
            let _ = writeln!(out, "metric.{} {} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// A parsed record file.
#[derive(Debug, Default)]
pub struct Record {
    pub fields: BTreeMap<String, String>,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_record(text: &str) -> Result<Record, String> {
    let mut record = Record::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap_or_default();
        let value = parts.next().ok_or_else(|| format!("line {}: no value", i + 1))?;
        if let Some(name) = key.strip_prefix("metric.") {
            let v = value
                .parse::<f64>()
                .map_err(|e| format!("line {}: {name}: {e}", i + 1))?;
            record.metrics.insert(name.to_string(), v);
        } else {
            record.fields.insert(key.to_string(), value.to_string());
        }
    }
    Ok(record)
}

/// Compares two records metric by metric (`after / before`). Refuses when
/// the workloads or any host fact differ: such results do not measure the
/// same thing.
pub fn compare(before: &Record, after: &Record) -> Result<String, String> {
    let keys = |r: &Record| -> Vec<(String, String)> {
        r.fields
            .iter()
            .filter(|(k, _)| k.starts_with("host.") || *k == "workload")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    let (a, b) = (keys(before), keys(after));
    if a != b {
        return Err(format!("records are not comparable: {a:?} vs {b:?}"));
    }
    let mut out = String::new();
    for (name, &x) in &before.metrics {
        if let Some(&y) = after.metrics.get(name) {
            let ratio = if x != 0.0 { y / x } else { f64::NAN };
            let _ = writeln!(out, "{name:36} {x:>14.6} {y:>14.6} {ratio:>8.3}x");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome { attempted: 70, failed: 0, metrics: Vec::new() };
        o.push("wall_s", 17.25, "s");
        o
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let line = outcome().json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 70, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 17.25, \"unit\": \"s\"}}}"
        );
        let failed = Outcome { failed: 2, ..outcome() };
        assert!(failed.json_line().starts_with("{\"correct\": false"));
        assert!((failed.fail_pct() - 100.0 * 2.0 / 70.0).abs() < 1e-12);
    }

    /// The `name`s of one section of `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        let ledger: Vec<&str> =
            crate::ledger::LAYERS.iter().flat_map(|l| l.metrics.iter().map(|(n, _)| *n)).collect();
        assert_eq!(declared("per_layer"), ledger);
        assert_eq!(declared("workloads"), ["table02", "serve-heavy", "serve-light"]);
    }

    #[test]
    fn records_round_trip_and_refuse_other_hosts() {
        let mut host = BTreeMap::from([("nproc", "2".to_string()), ("simd", "avx2".to_string())]);
        let a = parse_record(&outcome().record("table02", 1, &host)).unwrap();
        assert_eq!(a.metrics["wall_s"], 17.25);
        assert_eq!(a.fields["host.nproc"], "2");
        let same = parse_record(&outcome().record("table02", 2, &host)).unwrap();
        assert!(compare(&a, &same).unwrap().contains("wall_s"));
        host.insert("nproc", "1".to_string());
        let other_host = parse_record(&outcome().record("table02", 1, &host)).unwrap();
        assert!(compare(&a, &other_host).is_err());
        let other_workload = parse_record(&outcome().record("serve-light", 1, &host)).unwrap();
        assert!(compare(&other_host, &other_workload).is_err());
    }
}
