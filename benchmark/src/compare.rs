//! `csbench compare <a.json> <b.json>`: is document `b` no worse than
//! baseline `a`?
//!
//! Every (workload, end-to-end metric) pair gets one row, judged with the
//! metric's bound from `BENCHMARK.json` (or the workload's tighter one,
//! `Workload::bound`):
//!
//! * `ok` — `b`'s median is not worse than `a`'s by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the baseline's own spread (quartile distance over
//!   median) exceeds the bound, so the pair cannot tell, unless every
//!   value of `b` is better than every value of `a`.
//!
//! On the deterministic workloads the count metrics must also be exactly
//! equal when both documents ran the same seed and job count; a
//! difference is reported as `differs` and fails like `worse`.

use crate::json::{as_array, as_f64, as_str, get, parse};
use crate::spec::{Better, Spec};
use crate::workload;
use serde::Value;

/// Counts that repeat exactly on a deterministic workload.
const EXACT_END_TO_END: [&str; 2] = ["wire_bytes_per_node_iter", "completed_node_steps_share"];
const EXACT_PER_LAYER: [&str; 8] = [
    "net.messages_per_step",
    "crypto.ops_encrypt_per_node_step",
    "crypto.ops_add_per_node_step",
    "crypto.ops_pow2_scale_per_node_step",
    "crypto.ops_rerandomize_per_node_step",
    "crypto.ops_partial_decrypt_per_node_step",
    "crypto.ops_combine_per_node_step",
    "kmeans.ari_vs_central",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// Judges one metric from both documents' per-job values.
pub fn judge(better: Better, bound: f64, a: &Sample, b: &Sample) -> Verdict {
    // Positive when `b` is worse than `a`.
    let worsening = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let scale = a.median.abs().max(f64::MIN_POSITIVE);
    let spread = (a.q3 - a.q1).abs() / scale;
    if spread > bound {
        let all_better = !a.values.is_empty()
            && !b.values.is_empty()
            && a.values.iter().all(|&x| {
                b.values.iter().all(|&y| match better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
            });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound * scale {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

fn sample(metric: &Value) -> Sample {
    let f = |key| get(metric, key).and_then(as_f64).unwrap_or(0.0);
    Sample {
        median: f("median"),
        q1: f("q1"),
        q3: f("q3"),
        values: as_array(get(metric, "values").unwrap_or(&Value::Null))
            .iter()
            .filter_map(as_f64)
            .collect(),
    }
}

fn named<'a>(list: Option<&'a Value>, name: &str) -> Option<&'a Value> {
    as_array(list?)
        .iter()
        .find(|m| get(m, "name").and_then(as_str) == Some(name))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no row is `worse` or `differs`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads_b = get(&b, "workloads");
    let mut pass = true;
    println!(
        "{:<22} {:<28} {:>14} {:>14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "bound"
    );
    for wa in as_array(get(&a, "workloads").ok_or("a: no workloads")?) {
        let name = get(wa, "name").and_then(as_str).unwrap_or("?");
        let Some(wb) = named(workloads_b, name) else {
            println!("{name:<22} missing from {path_b}");
            pass = false;
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(ma), Some(mb)) = (
                named(get(wa, "end_to_end"), &m.name),
                named(get(wb, "end_to_end"), &m.name),
            ) else {
                println!("{name:<22} {:<28} missing", m.name);
                pass = false;
                continue;
            };
            let (sa, sb) = (sample(ma), sample(mb));
            let in_spec = m.bound.unwrap_or(0.0);
            let bound = workload::find(name).map_or(in_spec, |w| w.bound(&m.name, in_spec));
            let verdict = judge(m.better, bound, &sa, &sb);
            pass &= verdict != Verdict::Worse;
            println!(
                "{name:<22} {:<28} {:>14.6} {:>14} {:>14.6} {:>14} {:>7}  {}",
                m.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                bound,
                verdict.as_str()
            );
        }

        // Exact equality only means something for the same jobs.
        let same_jobs = ["seed", "jobs", "quick"]
            .iter()
            .all(|key| get(wa, key).is_some() && get(wa, key) == get(wb, key));
        let deterministic = get(wa, "deterministic") == Some(&Value::Bool(true));
        if !deterministic {
            continue;
        }
        if !same_jobs {
            println!(
                "{name:<22} counts not compared: the documents ran different seeds or job counts"
            );
            continue;
        }
        let exact = EXACT_END_TO_END
            .iter()
            .map(|n| (*n, "end_to_end", "median"))
            .chain(EXACT_PER_LAYER.iter().map(|n| (*n, "per_layer", "value")));
        for (metric, list, field) in exact {
            let value = |w| {
                named(get(w, list), metric)
                    .and_then(|m| get(m, field))
                    .and_then(as_f64)
            };
            let (va, vb) = (value(wa), value(wb));
            let verdict = if va.is_some() && va == vb {
                Verdict::Ok
            } else {
                Verdict::Differs
            };
            pass &= verdict == Verdict::Ok;
            println!(
                "{name:<22} {:<28} {:>14} {:>14} {:>14} {:>14} {:>7}  {}",
                format!("{metric} =="),
                va.map_or("missing".to_string(), |v| format!("{v:.6}")),
                "",
                vb.map_or("missing".to_string(), |v| format!("{v:.6}")),
                "",
                "exact",
                verdict.as_str()
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_of(values: &[f64]) -> Sample {
        let (q1, q3) = crate::stats::quartiles(values);
        Sample {
            median: crate::stats::median(values),
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_worse() {
        let a = sample_of(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sample_of(&[1.05, 1.06, 1.04])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sample_of(&[1.2, 1.21, 1.19])),
            Verdict::Worse
        );
        // The same move is an improvement when higher is better.
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sample_of(&[1.2, 1.21, 1.19])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sample_of(&[0.8, 0.81, 0.79])),
            Verdict::Worse
        );
    }

    /// `run --traced` takes only the `traced_only` metrics from the traced
    /// child, whose untraced jobs are every other seed; the counts compared
    /// for equality must come from the child that ran every seed.
    #[test]
    fn exact_counts_are_never_taken_from_the_traced_child() {
        for name in EXACT_PER_LAYER {
            assert!(!crate::measure::traced_only(name), "{name}");
        }
    }

    #[test]
    fn wide_baseline_spread_is_unresolved_unless_every_value_wins() {
        let a = sample_of(&[1.0, 1.5, 0.7, 1.3]);
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sample_of(&[1.4, 1.0, 1.2])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sample_of(&[0.5, 0.6])),
            Verdict::Ok
        );
    }
}
