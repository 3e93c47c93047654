//! The one JSON object a run prints as the last line of its standard output.

use serde::Value;

use crate::spec::MetricSpec;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness gate of the run passed.
    pub correct: bool,
    /// Jobs offered over all timed repetitions.
    pub attempted: u64,
    /// Of those: shed, failed, degraded, cancelled, unconverged, or (refined jobs)
    /// above their true-residual target.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Pairs `values` with the metric table; every listed metric must be given, and
    /// a value that is not finite reads 0 (JSON has no NaN).
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &[MetricSpec],
        values: &[(&str, f64)],
    ) -> Self {
        let metrics = table
            .iter()
            .map(|spec| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == spec.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", spec.name))
                    .1;
                Metric {
                    name: spec.name.to_string(),
                    value: if value.is_finite() { value } else { 0.0 },
                    unit: spec.unit.to_string(),
                }
            })
            .collect();
        assert_eq!(values.len(), table.len(), "a measured metric is not listed");
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let object = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&object).expect("rendering never fails")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |name: &str| value.field(name).map_err(|e| e.to_string());
        let number = |v: &Value, what: &str| match v {
            Value::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected a number, found {}", other.kind())),
        };
        let correct = match field("correct")? {
            Value::Bool(b) => *b,
            other => return Err(format!("correct: expected a bool, found {}", other.kind())),
        };
        let Value::Object(entries) = field("metrics")? else {
            return Err("metrics: expected an object".to_string());
        };
        let metrics = entries
            .iter()
            .map(|(name, entry)| {
                let unit = match entry.field("unit").map_err(|e| e.to_string())? {
                    Value::Str(s) => s.clone(),
                    other => return Err(format!("{name}.unit: found {}", other.kind())),
                };
                Ok(Metric {
                    name: name.clone(),
                    value: number(entry.field("value").map_err(|e| e.to_string())?, name)?,
                    unit,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct,
            attempted: number(field("attempted")?, "attempted")? as u64,
            failed: number(field("failed")?, "failed")? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn a_result_round_trips_through_json_with_all_its_digits() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.0 / 3.0 + i as f64 * 1e-13))
            .collect();
        let result = RunResult::new(true, 1200, 3, END_TO_END, &values);
        let text = result.to_json();
        assert!(!text.contains('\n'), "the result is one line");
        assert_eq!(RunResult::from_json(&text).unwrap(), result);
        assert_eq!(result.metric("setup_s"), Some(1.0 / 3.0));
        assert!(text.starts_with("{\"correct\":true,\"attempted\":1200,\"failed\":3,\"metrics\":{"));
    }

    #[test]
    fn a_non_finite_value_reads_zero_and_malformed_text_is_an_error() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, f64::NAN)).collect();
        let result = RunResult::new(false, 1, 1, END_TO_END, &values);
        assert!(result.metrics.iter().all(|m| m.value == 0.0));
        assert!(RunResult::from_json("{\"correct\":1}").is_err());
        assert!(RunResult::from_json("not json").is_err());
    }
}
