//! What an experiment reports — text tables, `BENCH_*.json` dumps and its
//! gates as data — and the one driver behind `paper-experiments` that
//! prints reports, writes BENCH files, and sets the exit code. Experiments
//! never print or exit.

use std::fmt::Debug;
use std::io::Write;
use std::path::Path;

use presto_common::metrics::Histogram;
use presto_common::trace::json_escape;
use presto_common::Result;

/// A printable experiment table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)));
            padded.collect::<Vec<_>>().join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
        let rows: String = self.rows.iter().map(|row| line(row)).collect();
        format!("## {}\n{}{rule}\n{rows}", self.title, line(&self.headers))
    }
}

/// A JSON value, hand-rolled (the workspace vendors no serde). Enough for
/// the flat `BENCH_<experiment>.json` dumps CI diffs between runs.
pub enum Json {
    /// An unsigned integer.
    U64(u64),
    /// A string (escaped on render).
    Str(String),
    /// `true`/`false`.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so dumps diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        match self {
            Json::U64(v) => v.to_string(),
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Bool(b) => b.to_string(),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Summarize a [`Histogram`] as a JSON object with the quantiles the paper's
/// dashboards watch (p50/p95/p99).
pub fn histogram_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::U64(h.count())),
        ("sum".into(), Json::U64(h.sum())),
        ("mean".into(), Json::U64(h.mean())),
        ("min".into(), Json::U64(h.min())),
        ("max".into(), Json::U64(h.max())),
        ("p50".into(), Json::U64(h.quantile(0.50))),
        ("p95".into(), Json::U64(h.quantile(0.95))),
        ("p99".into(), Json::U64(h.quantile(0.99))),
    ])
}

/// Format a Duration as milliseconds with 2 decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1000.0)
}

/// Format a throughput in MB/s.
pub fn mbps(bytes: usize, d: std::time::Duration) -> String {
    format!("{:.1} MB/s", bytes as f64 / (1024.0 * 1024.0) / d.as_secs_f64().max(1e-9))
}

/// One pass/fail check an experiment makes on its own result.
#[derive(Debug)]
pub struct Gate {
    /// What the gate checks.
    pub name: String,
    /// Whether the check held.
    pub passed: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

impl Gate {
    /// A gate named `name` that passed iff `passed`.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Gate {
        Gate { name: name.into(), passed, detail: detail.into() }
    }
}

/// What one experiment printed, measured and checked.
#[derive(Default)]
pub struct Report {
    /// The rendered text, printed to stdout as is.
    pub text: String,
    /// `(name, json)` for `BENCH_<name>.json`.
    pub bench: Option<(String, Json)>,
    /// Every check the experiment made.
    pub gates: Vec<Gate>,
}

impl Report {
    /// A report whose text starts with `heading`.
    pub fn new(heading: impl AsRef<str>) -> Report {
        let mut report = Report::default();
        report.line(heading);
        report
    }

    /// Append one line of text.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }
}

/// An experiment, as the binary's table lists it.
pub type Experiment = fn() -> Result<Report>;

/// Run `run` twice: both results, and the gate that they agree on `key`.
pub fn replay<T, K: PartialEq + Debug>(
    label: &str,
    run: impl Fn() -> Result<T>,
    key: impl Fn(&T) -> K,
) -> Result<(T, T, Gate)> {
    let (a, b) = (run()?, run()?);
    let (ka, kb) = (key(&a), key(&b));
    let detail = if ka == kb { String::new() } else { format!("{ka:?} vs {kb:?}") };
    Ok((a, b, Gate::new(format!("{label}: same-seed replay"), ka == kb, detail)))
}

/// Run the experiments `args` names, in that order (the whole table for
/// `all` or no name), printing each report to `out` and writing its BENCH
/// file into `dir`; a failure does not stop the run. Returns the exit code:
/// 2 for an unknown name (nothing runs), 1 when any gate failed — an
/// experiment error or an unwritable BENCH file is a failed gate — with each
/// failed gate listed on `err`, else 0.
pub fn run(
    experiments: &[(&str, &[Experiment])],
    args: &[String],
    dir: &Path,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> i32 {
    let all: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
    let names: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = names.iter().find(|name| !all.contains(name)) {
        let usage = format!("usage: paper-experiments [{}|all] …", all.join("|"));
        let _ = writeln!(err, "unknown experiment '{unknown}'\n{usage}");
        return 2;
    }
    let mut failed: Vec<(&str, Gate)> = Vec::new();
    for (name, parts) in names.iter().filter_map(|n| experiments.iter().find(|(e, _)| e == n)) {
        for part in *parts {
            let mut report = part().unwrap_or_else(|e| Report {
                gates: vec![Gate::new("ran to completion", false, e.to_string())],
                ..Report::default()
            });
            let _ = out.write_all(report.text.as_bytes());
            if let Some((bench, json)) = &report.bench {
                match write_bench_json(dir, bench, json) {
                    Ok(file) => drop(writeln!(out, "wrote {file}\n")),
                    Err(gate) => report.gates.push(gate),
                }
            }
            failed.extend(report.gates.into_iter().filter(|g| !g.passed).map(|g| (*name, g)));
        }
    }
    for (name, gate) in &failed {
        let _ = writeln!(err, "paper-experiments: FAILED {name}: {}: {}", gate.name, gate.detail);
    }
    i32::from(!failed.is_empty())
}

/// Write `BENCH_<name>.json` into `dir` and return the file name, or the
/// failed gate. CI archives these so regressions show up as JSON diffs.
fn write_bench_json(dir: &Path, name: &str, json: &Json) -> std::result::Result<String, Gate> {
    let file = format!("BENCH_{name}.json");
    match std::fs::write(dir.join(&file), format!("{}\n", json.render())) {
        Ok(()) => Ok(file),
        Err(e) => Err(Gate::new(format!("wrote {file}"), false, e.to_string())),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use presto_common::PrestoError;

    /// Panic naming every failed gate: how a module's unit test calls the
    /// gate function its experiment calls.
    pub(crate) fn assert_gates(gates: &[Gate]) {
        let failed: Vec<&Gate> = gates.iter().filter(|g| !g.passed).collect();
        assert!(failed.is_empty(), "failed gates: {failed:#?}");
    }

    #[test]
    fn json_renders_escaped_and_ordered() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\" string".into())),
            ("n".into(), Json::U64(3)),
            ("xs".into(), Json::Arr(vec![Json::U64(1), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"name":"a \"quoted\" string","n":3,"xs":[1,true]}"#);
    }

    #[test]
    fn histogram_json_carries_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let text = histogram_json(&h).render();
        assert!(text.contains("\"count\":100"), "{text}");
        assert!(text.contains("\"p99\":"), "{text}");
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a much longer name".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("## Demo"));
        assert!(text.lines().count() >= 4);
    }

    fn passing() -> Result<Report> {
        let mut r = Report::new("passing ran");
        r.gates.push(Gate::new("holds", true, "fine"));
        Ok(r)
    }

    fn failing() -> Result<Report> {
        let mut r = Report::new("failing ran");
        r.gates.push(Gate::new("first check", false, "measured 3"));
        r.gates.push(Gate::new("second check", false, "measured 4"));
        Ok(r)
    }

    fn erroring() -> Result<Report> {
        Err(PrestoError::Execution("boom".into()))
    }

    fn with_bench() -> Result<Report> {
        let mut r = Report::new("bench ran");
        r.bench = Some(("demo".into(), Json::Obj(vec![("n".into(), Json::U64(3))])));
        Ok(r)
    }

    const TABLE: &[(&str, &[Experiment])] = &[
        ("failing", &[failing]),
        ("passing", &[passing]),
        ("erroring", &[erroring, passing]),
        ("bench", &[with_bench]),
    ];

    fn drive(args: &[&str], dir: &Path) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(TABLE, &args, dir, &mut out, &mut err);
        (code, String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap())
    }

    #[test]
    fn failed_gates_exit_1_once_at_the_end_naming_each_and_later_experiments_still_run() {
        let (code, out, err) = drive(&["failing", "passing"], Path::new("."));
        assert_eq!(code, 1);
        assert_eq!(out, "failing ran\npassing ran\n");
        assert!(err.contains("failing: first check: measured 3"), "{err}");
        assert!(err.contains("failing: second check: measured 4"), "{err}");
        assert!(!err.contains("holds"), "{err}");
    }

    #[test]
    fn an_error_is_a_failed_gate_naming_the_experiment() {
        let (code, out, err) = drive(&["erroring"], Path::new("."));
        assert_eq!(code, 1);
        assert_eq!(out, "passing ran\n", "the next part still runs");
        assert!(err.contains("erroring: ran to completion: EXECUTION_ERROR"), "{err}");
    }

    #[test]
    fn a_bench_file_that_cannot_be_written_is_a_failed_gate() {
        let tmp = std::env::temp_dir().join(format!("presto-bench-driver-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let (code, out, _) = drive(&["bench"], &tmp);
        assert_eq!(code, 0);
        assert_eq!(out, "bench ran\nwrote BENCH_demo.json\n\n");
        assert_eq!(std::fs::read_to_string(tmp.join("BENCH_demo.json")).unwrap(), "{\"n\":3}\n");
        std::fs::remove_dir_all(&tmp).unwrap();

        let (code, out, err) = drive(&["bench"], &tmp.join("missing"));
        assert_eq!(code, 1);
        assert_eq!(out, "bench ran\n");
        assert!(err.contains("FAILED bench: wrote BENCH_demo.json: "), "{err}");
    }

    #[test]
    fn an_unknown_name_exits_2_before_anything_runs() {
        let (code, out, err) = drive(&["passing", "nope"], Path::new("."));
        assert_eq!(code, 2);
        assert_eq!(out, "");
        assert!(err.contains("unknown experiment 'nope'"), "{err}");
        assert!(err.contains("failing|passing|erroring|bench|all"), "{err}");
    }

    #[test]
    fn all_and_no_name_run_the_table_in_order() {
        let dir = Path::new("/nonexistent-presto-bench-dir");
        for args in [&[][..], &["all"][..]] {
            let (code, out, _) = drive(args, dir);
            assert_eq!(code, 1);
            assert_eq!(out, "failing ran\npassing ran\npassing ran\nbench ran\n");
        }
    }

    #[test]
    fn replay_gates_on_the_key() {
        let (a, b, gate) = replay("same", || Ok(7), |v| *v).unwrap();
        assert_eq!((a, b), (7, 7));
        assert!(gate.passed);
        let calls = std::cell::Cell::new(0);
        let (_, _, gate) = replay(
            "drifts",
            || {
                calls.set(calls.get() + 1);
                Ok(calls.get())
            },
            |v| *v,
        )
        .unwrap();
        assert!(!gate.passed);
        assert_eq!(gate.name, "drifts: same-seed replay");
        assert_eq!(gate.detail, "1 vs 2");
    }
}
