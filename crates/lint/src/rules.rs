//! The rule set: the three invariants that need the whole workspace at
//! once. Each reads every file's summary, so no per-crate compiler lint
//! can check it. What rustc, Cargo and clippy already enforce (wall clock,
//! unwrap, `// SAFETY:`, layering, sleep/print, guard leaks, the error
//! taxonomy) lives in `clippy.toml` and the manifests, not here.

use crate::engine::Diagnostic;
use crate::summary::FileSummary;
use crate::{graph, taint};

/// Metadata for one rule, used by `--rules` and the docs.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the tool ships.
pub const RULES: &[Rule] = &[
    Rule {
        id: "lock-order",
        summary: "the workspace-global lock-order graph must be acyclic, and no guard may be \
                  held across .await (a cycle means two threads can deadlock; the diagnostic \
                  carries the full cross-file witness path)",
    },
    Rule {
        id: "map-iter-in-digest",
        summary: "no unordered HashMap/HashSet iteration reaching a digest/report sink without \
                  an intervening sort (iteration order varies run-to-run and breaks the \
                  same-seed digest CI gates)",
    },
    Rule {
        id: "metrics-registry",
        summary: "counter/histogram/time-series/gauge names at record sites (incr, add, record, \
                  observe, sample, sample_for, set_gauge, gauge) must be metrics::names \
                  constants, never string literals (a typo silently splits a metric), and \
                  registry constants must not share values",
    },
];

/// Pass 2: the rules that need the whole workspace's summaries — the
/// lock-order graph, the nondeterminism taint, and the metrics registry.
/// Suppression is applied by the caller (it owns the per-file contexts).
pub fn check_global(summaries: &[FileSummary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(graph::check(summaries));
    out.extend(taint::check(summaries));
    out.extend(metrics_registry(summaries));
    out
}

/// The file that owns the canonical metric-name registry.
const METRICS_REGISTRY_FILE: &str = "crates/common/src/metrics.rs";

/// `metrics-registry`: every counter/histogram name recorded anywhere must
/// be a `metrics::names` constant — a string literal at a record site is a
/// typo waiting to silently split a metric — and no two registry constants
/// may share a value (that silently *merges* two metrics).
fn metrics_registry(summaries: &[FileSummary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in summaries {
        if f.file == METRICS_REGISTRY_FILE || matches!(f.crate_name.as_str(), "lint" | "bench") {
            continue;
        }
        for (method, name, line) in &f.metric_literals {
            out.push(Diagnostic {
                rule: "metrics-registry",
                path: f.file.clone(),
                line: *line,
                message: format!(
                    ".{method}(\"{name}\", ...) passes a string literal as a metric name; add a \
                     constant to presto_common::metrics::names and use it (a typo here silently \
                     splits the metric)"
                ),
            });
        }
    }
    // duplicate values inside the registry itself
    for f in summaries.iter().filter(|f| f.file == METRICS_REGISTRY_FILE) {
        let mut seen: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
        for (name, value, line) in &f.registry_consts {
            if let Some(first) = seen.get(value.as_str()) {
                out.push(Diagnostic {
                    rule: "metrics-registry",
                    path: f.file.clone(),
                    line: *line,
                    message: format!(
                        "registry constant `{name}` duplicates the value \"{value}\" of `{first}`; \
                         two constants naming one metric silently merge unrelated series"
                    ),
                });
            } else {
                seen.insert(value.as_str(), name.as_str());
            }
        }
    }
    out
}
