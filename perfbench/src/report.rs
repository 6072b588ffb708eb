//! Sample statistics and the result line.

use std::collections::HashMap;

use qelect_agentsim::json::escape;

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice of samples (0 when there are none).
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A ratio that reads 0 instead of NaN when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are wrong answers (oracle disagreements, broken
    /// invariants), as opposed to counted request failures.
    pub errors: Vec<String>,
    /// Measured metric values by name.
    pub values: HashMap<String, f64>,
    /// Environment and operation counts: key → JSON value text.
    pub env: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A metric's value: 0 when the run did not measure it, or when it
    /// is not a finite number.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }

    pub fn env_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.env.push((key.to_string(), value.to_string()));
    }

    pub fn env_str(&mut self, key: &str, value: &str) {
        self.env.push((key.to_string(), escape(value)));
    }

    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The run's full record (metrics, environment, errors).
    pub fn record_json(&self, declared: &[(String, String)]) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{}: {v}", escape(k)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| escape(e)).collect();
        format!(
            "{{\"env\": {{{}}}, \"errors\": [{}], \"result\": {}}}\n",
            env.join(", "),
            errors.join(", "),
            self.result_json(declared)
        )
    }

    /// The last line of standard output: the declared `(name, unit)`
    /// metrics, in declaration order.
    pub fn result_json(&self, declared: &[(String, String)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    self.value(name),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("latency_p50_ms", 1.25);
        let line = out.result_json(&[
            ("latency_p50_ms".into(), "ms".into()),
            ("setup_s".into(), "s".into()),
        ]);
        let value = qelect_agentsim::json::parse(&line).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
