//! Command line of `csbench`.
//!
//! ```text
//! csbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! csbench run [--quick] [--traced] [--seed <n>]                     every workload, one child process each
//! csbench compare <a.json> <b.json>                                  is b no worse than a?
//! ```

use crate::json::{arr, as_array, as_f64, as_str, get, num, obj, parse, pretty, s};
use crate::measure::{run_workload, traced_only, Limit};
use crate::report::{contract_line, env_json, print_metrics, workload_json, RESULT_SCHEMA};
use crate::spec::Spec;
use crate::workload::{self, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage:
  csbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>] [--quick] [--out <file>] [--out-dir <dir>]
  csbench run [--quick] [--traced] [--seed <n>] [--out-dir <dir>]
  csbench compare <a.json> <b.json>";

/// Where trace files and result documents go, relative to the working
/// directory (the repository root, where the driver runs the command).
const DEFAULT_OUT_DIR: &str = "benchmark/out";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    jobs: Option<usize>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                let v = value("a number")?;
                parsed.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                parsed.seconds = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--jobs" => {
                let v = value("a number")?;
                parsed.jobs = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => parsed.trace = true,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => parsed.out_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(run_all),
        Some("compare") => match &args[1..] {
            [a, b] => crate::compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => parse_args(&args).and_then(run_one),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("csbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, pretty(value) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. Prints every metric by name, then the
/// driver's result line last; `Ok(false)` when an output check failed.
fn run_one(args: Args) -> Result<bool, String> {
    let name = args.workload.ok_or(USAGE)?;
    let mut w = workload::find(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    if args.quick {
        w = w.quick();
    }
    let seed = args.seed.ok_or("--seed is required")?;
    let limit = match (args.jobs, args.seconds) {
        (Some(jobs), _) => Limit::Jobs(jobs.max(1)),
        (None, Some(seconds)) => Limit::Seconds(seconds),
        (None, None) => return Err("--seconds (or --jobs) is required".to_string()),
    };
    let out_dir = args
        .out_dir
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT_DIR));
    let spec = Spec::load();

    let result = run_workload(&w, seed, limit, args.trace)?;
    print_metrics(&result, &spec);
    if result.traced {
        write_json(
            &out_dir.join(format!("trace-{}.json", w.name)),
            &result.recorder.to_json(w.name),
        )?;
    }
    if let Some(doc) = &args.out {
        write_json(doc, &workload_json(&result, &spec, args.quick))?;
    }
    println!("{}", contract_line(&result, &spec));
    Ok(result.correct())
}

/// One row per workload, one column per end-to-end metric (medians).
fn print_summary(document: &Value) {
    let spec = Spec::load();
    print!("\n{:<22}", "workload");
    for m in &spec.end_to_end {
        print!(
            " {:>20}",
            format!("{} [{}]", m.name.trim_end_matches("_share"), m.unit)
        );
    }
    println!();
    for w in as_array(get(document, "workloads").unwrap_or(&Value::Null)) {
        print!("{:<22}", get(w, "name").and_then(as_str).unwrap_or("?"));
        for m in as_array(get(w, "end_to_end").unwrap_or(&Value::Null)) {
            print!(
                " {:>20.6}",
                get(m, "median").and_then(as_f64).unwrap_or(0.0)
            );
        }
        println!();
    }
}

/// Every workload, one after another, each in a fresh child process so
/// that peak memory, allocator state and thread pools do not leak from
/// one workload into the next. Writes the result document.
fn run_all(args: Args) -> Result<bool, String> {
    // Fixed job counts, so that two same-seed documents ran the same jobs.
    if args.workload.is_some()
        || args.seconds.is_some()
        || args.jobs.is_some()
        || args.out.is_some()
    {
        return Err(USAGE.to_string());
    }
    let started = Instant::now();
    let seed = args.seed.unwrap_or(1);
    let out_dir = args
        .out_dir
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT_DIR));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let w = if args.quick { w.quick() } else { w };
        let child = |traced: bool| -> Result<Value, String> {
            let doc = out_dir.join(format!(
                "run-{}{}.json",
                w.name,
                if traced { "-traced" } else { "" }
            ));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&out_dir)
                .arg("--out")
                .arg(&doc)
                .args(["--jobs", &w.jobs.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("spawn csbench: {e}"))?;
            let text = std::fs::read_to_string(&doc)
                .map_err(|e| format!("{} (child exited with {status}): {e}", doc.display()))?;
            parse(&text)
        };
        let mut entry = child(false)?;
        if args.trace {
            let traced = child(true)?;
            // End-to-end numbers and the observed per-layer metrics stay
            // those of the untraced run, which ran seeds s..s+jobs; the
            // traced run, whose untraced jobs are every other seed,
            // contributes only what it alone measures. Both tables are in
            // the spec's order.
            if let (Value::Object(fields), Some(theirs)) = (&mut entry, get(&traced, "per_layer")) {
                for (key, value) in fields.iter_mut() {
                    if let ("per_layer", Value::Array(ours)) = (key.as_str(), value) {
                        for (mine, theirs) in ours.iter_mut().zip(as_array(theirs)) {
                            if get(mine, "name").and_then(as_str).is_some_and(traced_only) {
                                *mine = theirs.clone();
                            }
                        }
                    }
                }
                // Relative to the output directory the document sits in.
                fields.push((
                    "trace_file".to_string(),
                    s(&format!("trace-{}.json", w.name)),
                ));
            }
            all_correct &= get(&traced, "correct") == Some(&Value::Bool(true));
        }
        all_correct &= get(&entry, "correct") == Some(&Value::Bool(true));
        workloads.push(entry);
    }

    let document = obj([
        ("schema", s(RESULT_SCHEMA)),
        ("env", env_json()),
        ("seed", Value::U64(seed)),
        ("quick", Value::Bool(args.quick)),
        ("traced", Value::Bool(args.trace)),
        ("total_run_s", num(started.elapsed().as_secs_f64())),
        ("workloads", arr(workloads)),
    ]);
    print_summary(&document);
    let out = out_dir.join("result.json");
    write_json(&out, &document)?;
    println!(
        "[result document written to {}; all output checks passed: {all_correct}]",
        out.display()
    );
    Ok(all_correct)
}
