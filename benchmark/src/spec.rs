//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are written down. The run emits
//! exactly these metrics in this order, and `compare` judges with these
//! bounds, so the three cannot drift apart.

use crate::json::{as_array, as_f64, as_str, get, parse};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let text = |v, key| {
            get(v, key)
                .and_then(as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metrics = |key| {
            as_array(get(&doc, key).expect("BENCHMARK.json: metric list"))
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: match text(m, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("BENCHMARK.json: better = {other:?}"),
                    },
                    bound: get(m, "bound").and_then(as_f64),
                })
                .collect()
        };
        Spec {
            workloads: as_array(get(&doc, "workloads").expect("BENCHMARK.json: workloads"))
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map_or("", |(_, why)| why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn spec_names_the_workloads_the_code_defines() {
        let spec = Spec::load();
        let in_spec: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let in_code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(in_spec, in_code);
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        let spec = Spec::load();
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
    }
}
