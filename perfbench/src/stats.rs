//! Percentiles, failure accounting, process memory, and the result line.

use std::fmt::Write as _;

pub use monster_util::stats::mean;

/// Percentile `p` in `[0, 1]`, interpolating between the closest ranks;
/// 0 when nothing was measured.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    monster_util::stats::try_percentile(values, p).unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations attempted and failed, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub attempted: u64,
    /// Socket errors: connect, write, read, framing.
    pub transport: u64,
    /// Non-2xx statuses other than 429.
    pub status: u64,
    /// 429 from admission control.
    pub rejected: u64,
    /// Bodies that differ from the in-process reference.
    pub mismatch: u64,
    /// `Db::write_batch` or `Db::recover` errors, lost acked batches, and
    /// statistics that differ after recovery.
    pub storage: u64,
}

impl Failures {
    pub fn failed(&self) -> u64 {
        self.transport + self.status + self.rejected + self.mismatch + self.storage
    }

    pub fn frac(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// Keep only the named metrics, in the given order.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names.iter().filter_map(|n| self.0.iter().find(|(m, _, _)| m == n).cloned()).collect(),
        )
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, failures: &Failures) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failures.failed() == 0,
            failures.attempted.max(1),
            failures.failed()
        )
        .expect("write to String");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_measured_reads_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5, "s");
        m.put("x", f64::NAN, "count");
        let f = Failures { attempted: 10, rejected: 1, ..Failures::default() };
        assert_eq!(
            m.result_line(&f),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
