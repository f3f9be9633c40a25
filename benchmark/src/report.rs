//! Metric rows, and the line protocol an engine child reports to the
//! parent over its standard output.
//!
//! ```text
//! metric <name> <value> <unit> <samples>
//! count attempted|failed <n>
//! violation <text>
//! ```
//! Anything else a child prints is passed through as a note.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind a latency or throughput figure (0: not a sampled
    /// figure).
    pub samples: u64,
}

/// Everything one engine child measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric rows in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted over every pass and probe.
    pub attempted: u64,
    /// Operations that neither committed nor missed by the spec.
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    /// Adds a figure backed by `samples` timed operations.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Adds a per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.sampled(name, value, unit, 0);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Serialises the report in the child line protocol.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} {} {} {}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(out, "count attempted {}", self.attempted);
        let _ = writeln!(out, "count failed {}", self.failed);
        for v in &self.violations {
            let _ = writeln!(out, "violation {}", v.replace('\n', " "));
        }
        out
    }

    /// Folds one line of a child's output into the report; returns the
    /// line back if it is not part of the protocol.
    pub fn absorb_line<'a>(&mut self, line: &'a str) -> Option<&'a str> {
        let mut words = line.split(' ');
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(value), Some(unit), Some(samples)) =
                    (words.next(), words.next(), words.next(), words.next())
                else {
                    return Some(line);
                };
                let (Ok(value), Ok(samples)) = (value.parse(), samples.parse()) else {
                    return Some(line);
                };
                self.sampled(name, value, unit, samples);
            }
            Some("count") => {
                let (Some(which), Some(Ok(n))) =
                    (words.next(), words.next().map(str::parse::<u64>))
                else {
                    return Some(line);
                };
                match which {
                    "attempted" => self.attempted += n,
                    "failed" => self.failed += n,
                    _ => return Some(line),
                }
            }
            Some("violation") => self
                .violations
                .push(line["violation".len()..].trim().to_string()),
            _ => return Some(line),
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut child = Report::default();
        child.sampled("dora.tps", 140_123.456_789, "1/s", 1_400_000);
        child.layer("dora.engine.busy_frac", 0.0, "ratio");
        child.attempted = 77;
        child.failed = 1;
        child.violation("call-forwarding ledger off by 1".into());

        let mut parent = Report::default();
        let mut notes = Vec::new();
        for line in child.to_lines().lines().chain(["# a note"]) {
            if let Some(note) = parent.absorb_line(line) {
                notes.push(note.to_string());
            }
        }
        assert_eq!(parent.metrics, child.metrics);
        assert_eq!((parent.attempted, parent.failed), (77, 1));
        assert_eq!(parent.violations, child.violations);
        assert_eq!(notes, ["# a note"]);
        assert_eq!(parent.get("dora.tps"), Some(140_123.456_789));
    }
}
