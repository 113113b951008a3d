//! `compare a.json b.json`: one row per (workload, end-to-end metric) with
//! both medians, their ratio and its base, the metric's bound, and a verdict.
//!
//! - `regressed`: `b` is worse than `a` by more than the bound, and both
//!   inputs' own repeats agree to within the bound.
//! - `unresolved`: the repeats of `a` or of `b` spread wider than the bound,
//!   so a difference of that size cannot be told from noise.
//! - `ok`: otherwise.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// Share of `a` by which `b` is worse (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the repeats of the two inputs.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match (ma != 0.0, better) {
        (false, _) => 0.0,
        (true, "higher") => (ma - mb) / ma.abs(),
        (true, _) => (mb - ma) / ma.abs(),
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, if ma != 0.0 { mb / ma } else { 0.0 }, spread, verdict)
}

/// The repeats of `metric` on `workload` in a results document.
fn repeats(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    match entry.get("repeats").and_then(Json::as_arr) {
        Some(items) if !items.is_empty() => items.iter().map(Json::as_f64).collect(),
        _ => entry.get("value").and_then(Json::as_f64).map(|v| vec![v]),
    }
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!("the {label} input is a --quick run (or not a results file)"));
        }
    }
    let workloads =
        a.get("workloads").and_then(Json::as_obj).ok_or("no workloads in first input")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (repeats(a, workload, m.name), repeats(b, workload, m.name))
            else {
                return Err(format!("{workload}.{} is missing from one input", m.name));
            };
            let (worse_by, ratio, spread, verdict) = judge(&ra, &rb, m.better, m.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                unit: m.unit,
                a: median(&ra),
                b: median(&rb),
                ratio,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<14} {:>12} {:>12} {:>6}  {:>18} {:>8} {:>7} {:>7}  {}\n",
        "workload",
        "metric",
        "a",
        "b",
        "unit",
        "ratio (base a)",
        "worse",
        "spread",
        "bound",
        "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<14} {:>12.4} {:>12.4} {:>6}  {:>7.4} of {:<8.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}\n",
            r.workload, r.metric, r.a, r.b, r.unit, r.ratio, r.a,
            r.worse_by * 100.0, r.spread * 100.0, r.bound * 100.0, r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(quick: bool, p50: &[f64], ops: &[f64]) -> Json {
        let metric = |repeats: &[f64]| {
            Json::obj(vec![
                ("value", Json::Num(median(repeats))),
                ("unit", Json::str("x")),
                ("repeats", Json::Arr(repeats.iter().map(|v| Json::Num(*v)).collect())),
            ])
        };
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let value = match m.name {
                "op_p50_ms" => metric(p50),
                "ops_per_s" => metric(ops),
                _ => metric(&[1.0, 1.0, 1.0]),
            };
            end_to_end.push((m.name.to_string(), value));
        }
        Json::obj(vec![
            ("quick", Json::Bool(quick)),
            (
                "workloads",
                Json::obj(vec![("w", Json::obj(vec![("end_to_end", Json::Obj(end_to_end))]))]),
            ),
        ])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (p50_bound, ops_bound) = (bound("op_p50_ms"), bound("ops_per_s"));
        let around = |centre: f64| [centre, centre * 1.01, centre * 0.99];
        let base = results(false, &around(10.0), &around(100.0));
        // p50 slower by its bound + 2 points, throughput lower by half its bound
        let slower = results(
            false,
            &around(10.0 * (1.0 + p50_bound + 0.02)),
            &around(100.0 * (1.0 - ops_bound / 2.0)),
        );
        let rows = compare(&base, &slower).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "ok_frac"), Verdict::Ok);
        let p50 = rows.iter().find(|r| r.metric == "op_p50_ms").unwrap();
        assert!((p50.ratio - (1.0 + p50_bound + 0.02)).abs() < 1e-9);
        assert!((p50.worse_by - (p50_bound + 0.02)).abs() < 1e-9);

        // a higher-is-better metric that fell by twice its bound
        let starved = results(false, &around(10.0), &around(100.0 * (1.0 - 2.0 * ops_bound)));
        assert_eq!(verdict_of(&compare(&base, &starved).unwrap(), "ops_per_s"), Verdict::Regressed);
        // faster is never a regression
        assert_eq!(verdict_of(&compare(&slower, &base).unwrap(), "op_p50_ms"), Verdict::Ok);

        // repeats spread wider than the bound: the same difference cannot be resolved
        let wide = 10.0 * (1.0 + p50_bound + 0.02);
        let noisy = results(false, &[wide * 0.8, wide, wide * 1.2], &around(100.0));
        assert_eq!(verdict_of(&compare(&base, &noisy).unwrap(), "op_p50_ms"), Verdict::Unresolved);
        assert_eq!(verdict_of(&compare(&noisy, &base).unwrap(), "op_p50_ms"), Verdict::Unresolved);
    }

    #[test]
    fn quick_runs_and_foreign_files_are_refused() {
        let full = results(false, &[1.0], &[1.0]);
        let quick = results(true, &[1.0], &[1.0]);
        assert!(compare(&full, &quick).is_err());
        assert!(compare(&quick, &full).is_err());
        assert!(compare(&Json::obj(vec![]), &full).is_err());
        assert!(compare(&full, &full).is_ok());
    }

    #[test]
    fn a_failed_op_breaks_the_ok_frac_bound() {
        // 1 failure in 500 ops: ok_frac 0.998, worse by 0.2% against a 0.1% bound
        let (worse_by, _, _, verdict) = judge(&[1.0], &[0.998], "higher", 0.001);
        assert!(worse_by > 0.001);
        assert_eq!(verdict, Verdict::Regressed);
    }
}
