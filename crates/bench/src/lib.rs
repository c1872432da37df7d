//! # cs-bench — experiment harness for the Chiaroscuro reproduction
//!
//! Shared plumbing for the `exp_*` binaries, each of which regenerates one
//! measurable artifact of the ICDE 2016 demonstration (see DESIGN.md §5 and
//! EXPERIMENTS.md):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `exp_centroid_evolution` | E1 — Fig. 3(4): participants' closest centroid along iterations |
//! | `exp_noise_impact` | E2 — Fig. 3(5): noise impact on centroids along iterations |
//! | `exp_quality_vs_privacy` | E3 — quality vs ε against centralized k-means |
//! | `exp_crypto_costs` | E4 — encryption/decryption/network costs + 10⁶ extrapolation |
//! | `exp_gossip_convergence` | E5 — gossip error vs exchanges, failures, ablation |
//! | `exp_bob_usecase` | E6 — Fig. 3(6): Bob's subsequence → closest profiles |
//! | `exp_population_scaling` | E7 — population scaling & ε-rescaling rule |
//! | `exp_heuristics_ablation` | E8 — budget strategies × smoothing grid |
//!
//! Every binary prints an aligned table to stdout and, when `--csv DIR` is
//! passed, writes the same rows as CSV. `--quick` shrinks workloads for
//! smoke runs.

use std::fs;
use std::path::PathBuf;

pub mod datasets;

/// Minimal CLI: `--quick`, `--csv <dir>`, and `--json <dir>` are shared by
/// all experiments.
#[derive(Clone, Debug, Default)]
pub struct ExpArgs {
    /// Shrink the workload for a fast smoke run.
    pub quick: bool,
    /// Directory to write CSV outputs into.
    pub csv_dir: Option<PathBuf>,
    /// Directory to write machine-readable JSON outputs into.
    pub json_dir: Option<PathBuf>,
}

impl ExpArgs {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        let mut args = ExpArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--csv" => {
                    args.csv_dir = iter.next().map(PathBuf::from);
                }
                "--json" => {
                    args.json_dir = iter.next().map(PathBuf::from);
                }
                other => {
                    eprintln!(
                        "warning: ignoring unknown argument {other:?} \
                         (known: --quick, --csv DIR, --json DIR)"
                    );
                }
            }
        }
        args
    }
}

/// The command line of a binary that writes a committed document
/// (`bench_summary`, `bench_crypto`): the on/off `flags`, in order, and
/// `--out PATH` (default `committed`). `Err((code, message))` ends the process
/// before anything is measured or written ([`exit_with`]): code 0 with
/// `usage` for `--help` or `-h`, code 2 for an unknown flag, a missing
/// path, or `--quick` without `--out` (a smoke document must not replace
/// the committed full one). Running on would overwrite the committed
/// document.
pub fn doc_args<const N: usize>(
    args: impl IntoIterator<Item = String>,
    usage: &str,
    flags: [&str; N],
    committed: &str,
) -> Result<([bool; N], PathBuf), (i32, String)> {
    let mut on = [false; N];
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if let Some(i) = flags.iter().position(|f| *f == a) {
            on[i] = true;
            continue;
        }
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return Err((2, format!("error: --out requires a path\n{usage}"))),
            },
            "--help" | "-h" => return Err((0, usage.into())),
            other => return Err((2, format!("error: unknown argument {other:?}\n{usage}"))),
        }
    }
    let quick = flags.iter().zip(on).any(|(f, on)| on && *f == "--quick");
    match out {
        Some(out) => Ok((on, out)),
        None if quick => Err((
            2,
            format!("error: --quick needs --out PATH; it would overwrite {committed}\n{usage}"),
        )),
        None => Ok((on, PathBuf::from(committed))),
    }
}

/// Ends the process as [`doc_args`] decided: the message on stdout for
/// code 0, on stderr otherwise.
pub fn exit_with((code, message): (i32, String)) -> ! {
    match code {
        0 => println!("{message}"),
        _ => eprintln!("{message}"),
    }
    std::process::exit(code)
}

/// An aligned text table that doubles as a CSV document.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders a machine-readable JSON document
    /// (`{"title", "headers", "rows"}`) — the structured-log twin of
    /// [`Table::to_csv`], mirroring `ExecutionLog::to_json` on the engine
    /// side.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&TableDoc {
            title: self.title.clone(),
            headers: self.headers.clone(),
            rows: self.rows.clone(),
        })
        .expect("table serializes")
    }

    /// Prints the table and, if requested, writes `<dir>/<name>.csv` and/or
    /// `<dir>/<name>.json`.
    pub fn emit(&self, args: &ExpArgs, name: &str) {
        println!("{}", self.render());
        if let Some(dir) = &args.csv_dir {
            fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            fs::write(&path, self.to_csv()).expect("write csv");
            println!("[csv written to {}]", path.display());
        }
        if let Some(dir) = &args.json_dir {
            fs::create_dir_all(dir).expect("create json dir");
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, self.to_json()).expect("write json");
            println!("[json written to {}]", path.display());
        }
    }
}

/// Serialization shape of [`Table::to_json`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct TableDoc {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Formats a float with fixed precision (table cells).
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats bytes in a human unit.
pub fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new("demo", &["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("bbb"));
        assert_eq!(t.to_csv(), "a,bbb\n1,2\n");
    }

    #[test]
    fn table_json_roundtrips() {
        let mut t = Table::new("demo", &["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let doc: TableDoc = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(doc.title, "demo");
        assert_eq!(doc.headers, vec!["a", "bbb"]);
        assert_eq!(doc.rows, vec![vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    fn doc(args: &[&str]) -> Result<([bool; 2], PathBuf), (i32, String)> {
        let args = args.iter().map(|a| a.to_string());
        doc_args(args, "usage", ["--quick", "--check"], "DOC.json")
    }

    #[test]
    fn quick_without_out_exits_before_a_run() {
        let (code, msg) = doc(&["--quick", "--check"]).unwrap_err();
        assert_eq!(code, 2);
        assert!(msg.contains("DOC.json") && msg.ends_with("usage"), "{msg}");
        let (flags, out) = doc(&["--quick", "--out", "smoke.json"]).unwrap();
        assert_eq!((flags, out), ([true, false], PathBuf::from("smoke.json")));
        let (flags, out) = doc(&["--check"]).unwrap();
        assert_eq!((flags, out), ([false, true], PathBuf::from("DOC.json")));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(10.0), "10 B");
        assert_eq!(human_bytes(2_500.0), "2.50 kB");
        assert_eq!(human_bytes(3_000_000.0), "3.00 MB");
        assert_eq!(human_bytes(4.2e9), "4.20 GB");
    }
}
