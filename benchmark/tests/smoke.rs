//! End-to-end smoke test: builds the benchmark the way the driver does
//! (`bash benchmark/run.sh`), runs every workload at its `--quick` size,
//! and validates what comes out — the result document against
//! `BENCHMARK.json`, the trace files' span structure, and the driver's
//! result line.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use csbench::json::{as_array, as_f64, as_str, get, parse};
use csbench::spec::Spec;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Runs `bash benchmark/run.sh <args>` from the repository root and
/// returns (success, stdout).
fn csbench(args: &[&str]) -> (bool, String) {
    let out = Command::new("bash")
        .arg("benchmark/run.sh")
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn u(v: &Value, key: &str) -> u64 {
    get(v, key)
        .and_then(as_f64)
        .unwrap_or_else(|| panic!("span field {key}")) as u64
}

/// Spans nest without gaps: every span but the roots (`job`, `probes`)
/// has a parent and lies inside it, and a job's children cover at least
/// 98 % of it.
fn check_trace(path: &Path) {
    let doc = read_json(path);
    let spans = as_array(get(&doc, "spans").expect("spans"));
    assert!(!spans.is_empty(), "{}: no spans", path.display());
    let mut jobs = 0;
    for (id, span) in spans.iter().enumerate() {
        let name = get(span, "name").and_then(as_str).expect("span name");
        assert_eq!(u(span, "id") as usize, id);
        assert!(
            u(span, "start_ns") <= u(span, "end_ns"),
            "{name} ends before it starts"
        );
        match get(span, "parent") {
            Some(Value::Null) => assert!(name == "job" || name == "probes", "{name} has no parent"),
            Some(parent) => {
                let parent = &spans[as_f64(parent).expect("parent id") as usize];
                assert!(
                    u(parent, "start_ns") <= u(span, "start_ns")
                        && u(span, "end_ns") <= u(parent, "end_ns"),
                    "{name} sticks out of its parent"
                );
                assert_eq!(u(parent, "job"), u(span, "job"), "{name} changes job id");
            }
            None => panic!("{name}: no parent field"),
        }
        if name == "job" {
            jobs += 1;
            let duration = u(span, "end_ns") - u(span, "start_ns");
            let covered = duration - u(span, "self_ns");
            assert!(
                covered as f64 >= 0.98 * duration as f64,
                "{}: children cover {covered} of {duration} ns of a job",
                path.display()
            );
            let children: Vec<&str> = spans
                .iter()
                .filter(|c| get(c, "parent").and_then(as_f64) == Some(id as f64))
                .filter_map(|c| get(c, "name").and_then(as_str))
                .collect();
            for expected in [
                "setup.dataset",
                "setup.substrate",
                "engine.run",
                "teardown",
                "quality",
            ] {
                assert!(children.contains(&expected), "job without {expected}");
            }
        }
    }
    assert!(jobs >= 1, "{}: no job span", path.display());
}

#[test]
fn quick_traced_run_produces_a_valid_document_and_traces() {
    let spec = Spec::load();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out_dir_arg = out_dir.to_str().expect("utf-8 path");
    let (ok, _) = csbench(&[
        "run",
        "--quick",
        "--traced",
        "--seed",
        "7",
        "--out-dir",
        out_dir_arg,
    ]);
    assert!(ok, "csbench run --quick --traced failed");

    let doc = read_json(&out_dir.join("result.json"));
    assert_eq!(
        get(&doc, "schema").and_then(as_str),
        Some("csbench-result/v1")
    );
    let env = get(&doc, "env").expect("env");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "sharded_workers",
    ] {
        assert!(get(env, key).is_some(), "env.{key}");
    }
    assert!(
        get(&doc, "total_run_s")
            .and_then(as_f64)
            .expect("total_run_s")
            > 0.0
    );

    assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    let workloads = as_array(get(&doc, "workloads").expect("workloads"));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| get(w, "name").and_then(as_str).expect("workload name"))
        .collect();
    let expected: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected);

    for w in workloads {
        let name = get(w, "name").and_then(as_str).unwrap();
        assert_eq!(
            get(w, "correct"),
            Some(&Value::Bool(true)),
            "{name}: output checks"
        );
        assert!(
            get(w, "warmup_s").and_then(as_f64).is_some(),
            "{name}: warmup_s"
        );
        assert!(
            !get(w, "why").and_then(as_str).unwrap_or("").is_empty(),
            "{name}: why"
        );

        let end_to_end = as_array(get(w, "end_to_end").expect("end_to_end"));
        assert_eq!(end_to_end.len(), spec.end_to_end.len(), "{name}");
        for (m, sp) in end_to_end.iter().zip(&spec.end_to_end) {
            let metric = get(m, "name").and_then(as_str).expect("metric name");
            assert_eq!(metric, sp.name);
            assert!(valid_name(metric));
            assert_eq!(get(m, "unit").and_then(as_str), Some(sp.unit.as_str()));
            assert_eq!(get(m, "better").and_then(as_str), Some(sp.better.as_str()));
            let in_spec = sp.bound.expect("end-to-end bound");
            let bound = csbench::workload::find(name)
                .unwrap()
                .bound(metric, in_spec);
            assert!(bound <= in_spec);
            assert_eq!(get(m, "bound").and_then(as_f64), Some(bound));
            assert!(
                get(m, "n").and_then(as_f64).expect("n") >= 1.0,
                "{name}.{metric}: n"
            );
            let median = get(m, "median").and_then(as_f64).expect("median");
            // A quick job can be shorter than one 10 ms tick of the CPU
            // clock, so its CPU time alone may legitimately read 0.
            assert!(
                median > 0.0 || metric == "cpu_s_per_node_iter",
                "{name}.{metric} must never be 0, got {median}"
            );
        }
        assert!(end_to_end
            .iter()
            .any(|m| get(m, "name").and_then(as_str) == Some("setup_s")));

        let per_layer = as_array(get(w, "per_layer").expect("per_layer"));
        assert_eq!(per_layer.len(), spec.per_layer.len(), "{name}");
        for (m, sp) in per_layer.iter().zip(&spec.per_layer) {
            let metric = get(m, "name").and_then(as_str).expect("metric name");
            assert_eq!(metric, sp.name);
            assert!(valid_name(metric));
            assert!(
                get(m, "value").and_then(as_f64).is_some(),
                "{name}.{metric}"
            );
        }
        // The layer-stress matrix, on the traced table: only real-crypto
        // workloads decrypt, and only they run the crypto probes.
        let value = |metric: &str| {
            per_layer
                .iter()
                .find(|m| get(m, "name").and_then(as_str) == Some(metric))
                .and_then(|m| get(m, "value"))
                .and_then(as_f64)
                .unwrap()
        };
        let real_crypto = get(get(w, "size").unwrap(), "modulus_bits") != Some(&Value::Null);
        for metric in [
            "core.phase_decrypt_share_cpu_ms_per_step",
            "core.phase_unpack_cpu_ms_per_step",
            "crypto.partial_decrypt_us",
            "bigint.pow_mod_us",
        ] {
            assert_eq!(value(metric) > 0.0, real_crypto, "{name}.{metric}");
        }
        assert!(value("net.wire_roundtrip_us") > 0.0, "{name}: probes ran");

        check_trace(&out_dir.join(format!("trace-{name}.json")));
    }
}

#[test]
fn driver_form_ends_with_the_result_line() {
    let spec = Spec::load();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-one");
    let out_dir_arg = out_dir.to_str().expect("utf-8 path");
    for (trace, expected) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let (ok, stdout) = csbench(&[
            "--workload",
            "sim_cer_4k",
            "--quick",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out-dir",
            out_dir_arg,
        ]);
        assert!(ok);
        let line = parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let Value::Object(fields) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
        assert!(get(&line, "attempted").and_then(as_f64).unwrap() >= 1.0);
        let Some(Value::Object(metrics)) = get(&line, "metrics") else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, wanted);
        for ((_, m), sp) in metrics.iter().zip(expected.iter()) {
            assert_eq!(get(m, "unit").and_then(as_str), Some(sp.unit.as_str()));
            assert!(get(m, "value").and_then(as_f64).is_some());
        }
    }
    // A workload the benchmark does not know is refused, not guessed at.
    let (ok, _) = csbench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
}
