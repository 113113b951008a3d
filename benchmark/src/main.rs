//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! presto-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! presto-benchmark all [--seed <n>] [--repeat <k>] [--quick] [--out <dir>]
//! presto-benchmark compare <a.json> <b.json>
//! presto-benchmark describe
//! ```

mod compare;
mod data;
mod digest;
mod fixture;
mod ingest;
mod json;
mod metrics;
mod probes;
mod rng;
mod run;
mod span;
mod speed;
mod sql_workload;
mod stats;
mod stepped;
mod sys;
mod templates;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fixture::Scale;
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use run::{Budget, Mode, RunConfig, RunReport};

const USAGE: &str = "usage:
  presto-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the last line of stdout is the result as one JSON object
  presto-benchmark all [--seed <n>] [--repeat <k>] [--quick] [--out <dir>]
      every workload, each in its own process; prints every metric and writes
      <dir>/results.json and <dir>/trace-<workload>.json (default: benchmark/out)
  presto-benchmark compare <a.json> <b.json>
      verdict per (workload, end-to-end metric); exit 1 on any regression
  presto-benchmark describe
      print the declaration of the benchmark (the content of BENCHMARK.json)
workloads: lake_adhoc mem_exec realtime_dash cluster_repeat ingest_write";

/// `--name value` pairs and bare words, in the order given.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("quick") => {
                    flags.insert("quick".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("--{name}: cannot read '{text}'")),
        }
    }

    fn scale(&self) -> Scale {
        Scale { quick: self.flags.contains_key("quick") }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let outcome = match args.words.first().map(String::as_str) {
        Some("all") => all(&args),
        Some("compare") => compare_files(&args),
        Some("child") => child(&args),
        Some("describe") => {
            print!("{}", metrics::declaration().pretty());
            Ok(ExitCode::SUCCESS)
        }
        None if args.flags.contains_key("workload") => contract(&args),
        _ => return usage_error("no command given"),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("presto-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("presto-benchmark: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn workload_arg(args: &Args) -> Result<String, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    if WORKLOADS.iter().any(|(w, _)| w == name) {
        Ok(name.clone())
    } else {
        Err(format!("unknown workload '{name}'"))
    }
}

/// The contract the driver runs: one workload, one metric group, one line.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let workload = workload_arg(args)?;
    let seconds: f64 = args.number("seconds", f64::from(metrics::RUN_SECONDS))?;
    let mode = match args.number("trace", 0u8)? {
        0 => Mode::EndToEnd,
        1 => Mode::PerLayer,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let (timed, traced) = run::contract_budgets(seconds, mode, &workload);
    let config = RunConfig {
        workload,
        seed: args.number("seed", 1)?,
        timed,
        traced,
        mode,
        scale: args.scale(),
    };
    let report = run::run(&config)?;
    let metrics = match mode {
        Mode::EndToEnd => metrics::to_json(&report.end_to_end, END_TO_END.iter().map(|m| m.name)),
        _ => metrics::to_json(&report.per_layer, PER_LAYER.iter().map(|m| m.name)),
    };
    println!("{}", result_line(&report, vec![("metrics", metrics)]).compact());
    Ok(ExitCode::SUCCESS)
}

fn result_line(report: &RunReport, rest: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
    ];
    pairs.extend(rest);
    Json::obj(pairs)
}

/// One workload of `all`, in its own process: fixed pass counts (or
/// `--seconds`), both metric groups, and the trace file.
fn child(args: &Args) -> Result<ExitCode, String> {
    let workload = workload_arg(args)?;
    let scale = args.scale();
    let (timed_passes, traced_passes) =
        if scale.quick { (1, 1) } else { run::default_passes(&workload) };
    let timed = match args.flags.get("seconds") {
        Some(_) => Budget::Seconds(args.number("seconds", f64::from(metrics::RUN_SECONDS))?),
        None => Budget::Passes(timed_passes),
    };
    let config = RunConfig {
        workload: workload.clone(),
        seed: args.number("seed", 1)?,
        timed,
        traced: Budget::Passes(traced_passes),
        mode: Mode::Both,
        scale,
    };
    let report = run::run(&config)?;
    if let Some(dir) = args.flags.get("out") {
        let path = Path::new(dir).join(format!("trace-{workload}.json"));
        let doc = Json::obj(vec![
            ("workload", Json::str(workload.as_str())),
            ("seed", Json::Num(config.seed as f64)),
            ("spans", span::spans_to_json(&report.spans)),
        ]);
        std::fs::write(&path, doc.compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = result_line(
        &report,
        vec![
            ("noisy", Json::Bool(report.noisy())),
            ("end_to_end", metrics::to_json(&report.end_to_end, END_TO_END.iter().map(|m| m.name))),
            ("per_layer", metrics::to_json(&report.per_layer, PER_LAYER.iter().map(|m| m.name))),
        ],
    );
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

/// Run `child` for one workload and parse its result line.
fn spawn_child(args: &Args, workload: &str, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.arg("child").args(["--workload", workload]);
    command.args(["--seed", &args.number("seed", 1u64)?.to_string()]);
    command.arg("--out").arg(out);
    if let Some(seconds) = args.flags.get("seconds") {
        command.args(["--seconds", seconds]);
    }
    if args.scale().quick {
        command.arg("--quick");
    }
    // `output` waits for the child and collects its stdout; stderr passes through
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} process ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload} printed no result"))?;
    Json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn all(args: &Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.flags.get("out").cloned().unwrap_or("benchmark/out".into()));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let repeat: usize = args.number("repeat", 1)?;
    let quick = args.scale().quick;
    let seed: u64 = args.number("seed", 1)?;

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::with_capacity(repeat);
        for round in 1..=repeat.max(1) {
            eprintln!("== {workload} (seed {seed}, run {round}/{repeat}) ==");
            runs.push(spawn_child(args, workload, &out)?);
        }
        let merged = merge_runs(&runs);
        all_correct &= merged.get("correct").and_then(Json::as_bool) == Some(true);
        print_workload(workload, &merged);
        workloads.push((workload.to_string(), merged));
    }
    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("repeat", Json::Num(repeat as f64)),
        ("threads_per_workload", Json::Num(1.0)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        // counts that a same-seed rerun must reproduce exactly
        (
            "exact_metrics",
            Json::Arr(PER_LAYER.iter().filter(|m| m.exact).map(|m| Json::str(m.name)).collect()),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// One document per workload out of `repeat` runs: every metric's value is
/// the median of its repeats, which are kept alongside.
fn merge_runs(runs: &[Json]) -> Json {
    let total = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
    let any = |key: &str| runs.iter().any(|r| r.get(key).and_then(Json::as_bool) == Some(true));
    let group = |key: &str| {
        let first = runs[0].get(key).and_then(Json::as_obj).unwrap_or(&[]);
        Json::Obj(
            first
                .iter()
                .map(|(name, entry)| {
                    let repeats: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| r.get(key)?.get(name)?.get("value")?.as_f64())
                        .collect();
                    let merged = Json::obj(vec![
                        ("value", Json::Num(stats::median(&repeats))),
                        ("unit", entry.get("unit").cloned().unwrap_or(Json::Null)),
                        ("repeats", Json::Arr(repeats.into_iter().map(Json::Num).collect())),
                    ]);
                    (name.clone(), merged)
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("correct", Json::Bool(runs.iter().all(|r| r.get("correct") == Some(&Json::Bool(true))))),
        ("attempted", Json::Num(total("attempted"))),
        ("failed", Json::Num(total("failed"))),
        ("noisy", Json::Bool(any("noisy"))),
        ("end_to_end", group("end_to_end")),
        ("per_layer", group("per_layer")),
    ])
}

fn print_workload(workload: &str, merged: &Json) {
    let flag = |key: &str| merged.get(key).and_then(Json::as_bool) == Some(true);
    println!(
        "\n{workload}: correct={} attempted={} failed={}{}",
        flag("correct"),
        merged.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        merged.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        if flag("noisy") { "  [noisy: off-CPU share of the timed section above 5%]" } else { "" },
    );
    for group in ["end_to_end", "per_layer"] {
        for (name, entry) in merged.get(group).and_then(Json::as_obj).unwrap_or(&[]) {
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            // a layer the workload never reaches reports 0; leave those lines out
            if group == "end_to_end" || value != 0.0 {
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {name:<42} {value:>16.4} {unit}");
            }
        }
    }
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(compare::Verdict::Ok),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved)
    );
    Ok(if count(compare::Verdict::Regressed) > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
