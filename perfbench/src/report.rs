//! The result of one run: correctness census, metrics and run stamp, and
//! their rendering as human-readable lines plus the final JSON object.

use crate::trace::Span;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises (0 for a count or a ratio of totals).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: updates, reads and output checks.
    pub attempted: u64,
    /// Operations that failed (an output check that did not hold).
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Run stamp: the settings the numbers depend on.
    pub stamp: Vec<(&'static str, String)>,
    /// Free-form diagnostic lines (layer sums, tracing overhead, spans).
    pub notes: Vec<String>,
    /// Recorded spans, per recording thread.
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

impl Outcome {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Record `n` operations that completed.
    pub fn attempted_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Append a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable report: stamp, metrics with units and sample counts,
    /// `error_rate`, notes and errors.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.stamp {
            let _ = writeln!(out, "# {k} = {v}");
        }
        for m in &self.metrics {
            let _ = write!(out, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            if m.samples > 0 {
                let _ = write!(out, "  (n={})", m.samples);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16.6} ratio  ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "! {e}");
        }
        out
    }

    /// The run stamp as one JSON object line.
    pub fn render_stamp_json(&self) -> String {
        let mut out = String::from("{\"stamp\":{");
        for (i, (k, v)) in self.stamp.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", escape(v));
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn render_result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `{:?}` prints every digit and a form JSON accepts (`3.0`,
            // `1e-7`); a non-finite value already makes the run incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.attempted_ok(3);
        o.metric("setup_s", 0.25, "s", 4);
        let line = o.render_result_json();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "boom".into());
        assert!(!o.correct());
        assert_eq!(o.error_rate(), 0.5);
    }
}
