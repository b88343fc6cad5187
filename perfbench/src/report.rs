//! What one run reports: named metrics with units and sample counts, the
//! operation tally, and the output checks that failed.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single measurement or count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: partition jobs, or update batches and read batches.
    pub attempted: u64,
    /// Operations that failed: job errors, refused or rejected batches, failed
    /// repartitions, lagged analytics, failed reads. Failed checks are added on top.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists under `end_to_end` (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Further user-visible metrics of this workload, printed but not gated.
    pub extra: Vec<Metric>,
    /// The metrics `BENCHMARK.json` lists under `per_layer` (traced runs).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Record a check; a failing one is kept with its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Failed operations plus failed checks.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.check_failures.len() as u64
    }

    /// The run's human-readable lines followed by the one-line JSON result.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = String::new();
        let shown = metrics
            .iter()
            .chain(if traced { [].iter() } else { self.extra.iter() });
        for m in shown {
            let _ = writeln!(
                out,
                "{workload}: {:<40} {:>16} {:<6} (n={})",
                m.name,
                fmt_number(m.value),
                m.unit,
                m.samples
            );
        }
        let failed = self.failed_total();
        let attempted = self.attempted.max(1);
        let _ = writeln!(
            out,
            "{workload}: {:<40} {:>16} {:<6} (n={attempted})",
            "failed_frac",
            fmt_number(failed as f64 / attempted as f64),
            "ratio"
        );
        for failure in &self.check_failures {
            let _ = writeln!(out, "{workload}: CHECK FAILED: {failure}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            body.join(", ")
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values have no JSON form and are written as 0.
fn fmt_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_result() {
        let mut o = Outcome {
            attempted: 4,
            end_to_end: vec![Metric::new("latency_s", 1.25, "s", 4)],
            ..Outcome::default()
        };
        o.check(false, || "parts out of range".to_string());
        let text = o.render("w", false);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"latency_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("CHECK FAILED: parts out of range"));
    }
}
