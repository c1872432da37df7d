//! What a run prints and writes: the metric lines and the driver's
//! result line of one workload, and the result document of a whole
//! `csbench run`.

use crate::json::{arr, num, obj, s, uint};
use crate::measure::{Metric, RunResult};
use crate::spec::{MetricSpec, Spec};
use crate::sys;
use crate::workload::{sharded_workers, Workload};
use serde::Value;

pub const RESULT_SCHEMA: &str = "csbench-result/v1";

/// The run's metrics in the spec's order. Panics when the code and
/// `BENCHMARK.json` disagree on the metric set — a bug in this package,
/// caught by the unit tests before any run.
fn in_spec_order<'a>(
    specs: &'a [MetricSpec],
    measured: &'a [Metric],
) -> Vec<(&'a MetricSpec, &'a Metric)> {
    assert_eq!(
        specs.len(),
        measured.len(),
        "BENCHMARK.json and the code list different metrics"
    );
    specs
        .iter()
        .map(|spec| {
            let m = measured
                .iter()
                .find(|m| m.name == spec.name)
                .unwrap_or_else(|| {
                    panic!("metric {} is in BENCHMARK.json but not measured", spec.name)
                });
            assert_eq!(m.unit, spec.unit, "unit of {}", spec.name);
            (spec, m)
        })
        .collect()
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Every metric by name with its unit, one per line.
pub fn print_metrics(result: &RunResult, spec: &Spec) {
    let w = &result.workload;
    println!(
        "# {} seed {}: {} jobs in {:.1} s (warm-up {:.2} s), population {} x {} iterations",
        w.name,
        result.seed,
        result.attempted,
        result.measured_s,
        result.warmup_s,
        w.population,
        w.iterations
    );
    for (sp, m) in in_spec_order(&spec.end_to_end, &result.end_to_end) {
        let (q1, q3) = m.quartiles();
        println!(
            "{:<44} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {} ({} is better, bound {})",
            m.name,
            m.value,
            m.unit,
            q1,
            q3,
            m.samples.len(),
            sp.better.as_str(),
            w.bound(m.name, sp.bound.unwrap_or(0.0))
        );
    }
    for (_, m) in in_spec_order(&spec.per_layer, &result.per_layer) {
        let note = if m.name == "core.step_wall_ms_tail" {
            format!(" (p{})", result.tail_percentile)
        } else {
            String::new()
        };
        println!("{:<44} {:>16.6} {}{}", m.name, m.value, m.unit, note);
    }
    for failure in &result.check_failures {
        println!("CHECK FAILED: {failure}");
    }
}

/// The driver's result line: the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one.
pub fn contract_line(result: &RunResult, spec: &Spec) -> String {
    let chosen = if result.traced {
        in_spec_order(&spec.per_layer, &result.per_layer)
    } else {
        in_spec_order(&spec.end_to_end, &result.end_to_end)
    };
    let metrics = Value::Object(
        chosen
            .into_iter()
            .map(|(_, m)| {
                (
                    m.name.to_string(),
                    obj([("value", num(finite(m.value))), ("unit", s(m.unit))]),
                )
            })
            .collect(),
    );
    crate::json::compact(&obj([
        ("correct", Value::Bool(result.correct())),
        ("attempted", uint(result.attempted.max(1))),
        ("failed", uint(result.failed)),
        ("metrics", metrics),
    ]))
}

fn size_json(w: &Workload) -> Value {
    obj([
        ("population", uint(w.population)),
        ("k", uint(w.k)),
        ("gossip_cycles", uint(w.gossip_cycles)),
        ("iterations", uint(w.iterations)),
        ("modulus_bits", w.modulus_bits.map_or(Value::Null, uint)),
        ("churn", Value::Bool(w.churn)),
    ])
}

/// One workload's entry of the result document.
pub fn workload_json(result: &RunResult, spec: &Spec, quick: bool) -> Value {
    let w = &result.workload;
    let end_to_end = in_spec_order(&spec.end_to_end, &result.end_to_end)
        .into_iter()
        .map(|(sp, m)| {
            let (q1, q3) = m.quartiles();
            obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(sp.better.as_str())),
                ("bound", num(w.bound(m.name, sp.bound.unwrap_or(0.0)))),
                ("n", uint(m.samples.len())),
                ("median", num(finite(m.value))),
                ("q1", num(finite(q1))),
                ("q3", num(finite(q3))),
                ("values", arr(m.samples.iter().map(|&v| num(finite(v))))),
            ])
        });
    let per_layer = in_spec_order(&spec.per_layer, &result.per_layer)
        .into_iter()
        .map(|(sp, m)| {
            obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(sp.better.as_str())),
                ("value", num(finite(m.value))),
            ])
        });
    obj([
        ("name", s(w.name)),
        ("why", s(spec.why(w.name))),
        ("seed", Value::U64(result.seed)),
        ("quick", Value::Bool(quick)),
        ("traced", Value::Bool(result.traced)),
        ("deterministic", Value::Bool(w.deterministic())),
        ("size", size_json(w)),
        ("jobs", uint(result.attempted)),
        ("failed_jobs", uint(result.failed)),
        ("correct", Value::Bool(result.correct())),
        (
            "check_failures",
            arr(result.check_failures.iter().map(|f| s(f))),
        ),
        ("warmup_s", num(result.warmup_s)),
        ("measured_s", num(result.measured_s)),
        ("step_wall_tail_percentile", num(result.tail_percentile)),
        ("end_to_end", arr(end_to_end)),
        ("per_layer", arr(per_layer)),
    ])
}

/// The machine and build the numbers were taken on.
pub fn env_json() -> Value {
    obj([
        ("nproc", uint(sys::nproc())),
        ("cpu_model", s(&sys::cpu_model())),
        ("rustc", s(&sys::first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            s(&sys::first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("sharded_workers", uint(sharded_workers())),
    ])
}
