//! The rule set. Each rule guards one operational invariant from the
//! paper's §XII (running Presto as a fleet): determinism, error
//! propagation, memory-accounting hygiene, and strict layering.

use crate::engine::{Diagnostic, FileClass, FileCtx};
use crate::lexer::{Tok, TokKind};
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
        id: "wall-clock",
        summary: "no Instant::now/SystemTime::now outside presto-common::clock and crates/bench \
                  (determinism: simulated latency must come from the virtual SimClock)",
    },
    Rule {
        id: "no-unwrap",
        summary:
            "no unwrap()/expect() in non-test code of exec, expr, resource, cluster, core, sim \
                  (errors must propagate as PrestoError, not take down the engine loop)",
    },
    Rule {
        id: "unsafe-needs-safety",
        summary: "every `unsafe` requires an adjacent `// SAFETY:` comment",
    },
    Rule {
        id: "layering",
        summary: "presto_* imports must respect the declared crate DAG \
                  (common -> {storage, parquet, expr} -> exec -> core -> cluster)",
    },
    Rule {
        id: "no-sleep-print",
        summary: "no thread::sleep/println!/eprintln! in library crates \
                  (use the virtual Clock and CounterSet metrics)",
    },
    Rule {
        id: "guard-leak",
        summary: "no mem::forget/Box::leak in library code \
                  (leaking an RAII reservation guard silently loses pool memory)",
    },
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
    Rule {
        id: "error-taxonomy",
        summary: "every PrestoError variant must be explicitly classified in is_retryable \
                  (no wildcard arm), so retry loops never meet an unclassified error",
    },
];

/// Crates whose non-test code must propagate `PrestoError` instead of
/// panicking: the engine loop, the expression evaluator on its hot path,
/// resource manager, cluster, and coordinator.
const NO_UNWRAP_CRATES: &[&str] = &["exec", "expr", "resource", "cluster", "core", "sim"];

/// The declared crate DAG (mirrors each crate's `Cargo.toml`): which
/// `presto_*` crates each crate may reference. `common` sits at the bottom;
/// `cluster` at the top. Connectors see the SPI layers only — never `exec`
/// internals.
const LAYERING: &[(&str, &[&str])] = &[
    ("common", &[]),
    ("storage", &["presto_common"]),
    ("expr", &["presto_common"]),
    ("geo", &["presto_common"]),
    ("parquet", &["presto_common", "presto_storage"]),
    ("cache", &["presto_common", "presto_storage", "presto_parquet"]),
    ("resource", &["presto_common", "presto_storage", "presto_parquet"]),
    (
        "connectors",
        &["presto_common", "presto_expr", "presto_storage", "presto_parquet", "presto_cache"],
    ),
    (
        "plan",
        &["presto_common", "presto_expr", "presto_connectors", "presto_geo", "presto_parquet"],
    ),
    ("sql", &["presto_common", "presto_expr", "presto_plan", "presto_connectors"]),
    (
        "exec",
        &[
            "presto_common",
            "presto_expr",
            "presto_plan",
            "presto_connectors",
            "presto_geo",
            "presto_resource",
        ],
    ),
    (
        "core",
        &[
            "presto_common",
            "presto_expr",
            "presto_sql",
            "presto_plan",
            "presto_exec",
            "presto_connectors",
            "presto_geo",
            "presto_storage",
            "presto_parquet",
            "presto_cache",
            "presto_resource",
        ],
    ),
    (
        "cluster",
        &[
            "presto_common",
            "presto_core",
            "presto_connectors",
            "presto_exec",
            "presto_plan",
            "presto_cache",
            "presto_resource",
        ],
    ),
    (
        "sim",
        &["presto_common", "presto_core", "presto_connectors", "presto_cluster", "presto_resource"],
    ),
];

/// The files allowed to read the real clock: the virtual-clock module
/// itself and the benchmark crate that measures real elapsed time.
fn wall_clock_exempt(ctx: &FileCtx) -> bool {
    ctx.rel_path == "crates/common/src/clock.rs" || ctx.crate_name() == Some("bench")
}

/// Run every rule over one file.
pub fn check(ctx: &FileCtx) -> Vec<Diagnostic> {
    if ctx.class == FileClass::TestOrExample {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        wall_clock(ctx, toks, i, &mut out);
        no_unwrap(ctx, toks, i, &mut out);
        unsafe_needs_safety(ctx, toks, i, &mut out);
        layering(ctx, toks, i, &mut out);
        no_sleep_print(ctx, toks, i, &mut out);
        guard_leak(ctx, toks, i, &mut out);
    }
    out.retain(|d| !ctx.is_allowed(d.rule, d.line));
    out
}

/// Pass 2: the rules that need the whole workspace's summaries — the
/// lock-order graph, the nondeterminism taint, and the metrics/error
/// registries. Suppression is applied by the caller (it owns the
/// per-file contexts).
pub fn check_global(summaries: &[FileSummary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(graph::check(summaries));
    out.extend(taint::check(summaries));
    out.extend(metrics_registry(summaries));
    out.extend(error_taxonomy(summaries));
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

/// `error-taxonomy`: in the file declaring `enum PrestoError`, every
/// variant must be named in `is_retryable` (exhaustively — no `_ =>` arm),
/// so a retry loop can never meet a variant nobody classified.
fn error_taxonomy(summaries: &[FileSummary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in summaries {
        let Some(enum_line) = f.error_enum_line else { continue };
        let Some(retryable) = &f.retryable else {
            out.push(Diagnostic {
                rule: "error-taxonomy",
                path: f.file.clone(),
                line: enum_line,
                message: "enum PrestoError has no is_retryable in this file; every variant needs \
                          an explicit retry classification"
                    .to_string(),
            });
            continue;
        };
        if let Some(line) = retryable.wildcard_line {
            out.push(Diagnostic {
                rule: "error-taxonomy",
                path: f.file.clone(),
                line,
                message: "is_retryable has a `_ =>` arm: a newly added PrestoError variant would \
                          be classified silently — match every variant explicitly"
                    .to_string(),
            });
        }
        for (variant, line) in &f.error_variants {
            if !retryable.idents.iter().any(|i| i == variant) {
                out.push(Diagnostic {
                    rule: "error-taxonomy",
                    path: f.file.clone(),
                    line: *line,
                    message: format!(
                        "PrestoError::{variant} is never named in is_retryable; classify it \
                         explicitly so retry loops don't meet an unclassified error"
                    ),
                });
            }
        }
    }
    out
}

fn push(out: &mut Vec<Diagnostic>, ctx: &FileCtx, rule: &'static str, line: u32, message: String) {
    out.push(Diagnostic { rule, path: ctx.rel_path.clone(), line, message });
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
}

/// `wall-clock`: `Instant::now` / `SystemTime::now` anywhere outside the
/// virtual-clock module. Wall time in engine code breaks deterministic
/// latency accounting (§VII/§IX experiments replay on the SimClock).
fn wall_clock(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if wall_clock_exempt(ctx) || ctx.in_test_code(i) {
        return;
    }
    let Some(head) = ident_at(toks, i) else { return };
    if (head == "Instant" || head == "SystemTime")
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::PathSep)
        && ident_at(toks, i + 2) == Some("now")
    {
        push(
            out,
            ctx,
            "wall-clock",
            toks[i].line,
            format!("{head}::now() reads the wall clock; use presto_common::SimClock so simulated latency stays deterministic"),
        );
    }
}

/// `no-unwrap`: `.unwrap()` / `.expect(` in the crates whose panics would
/// take down the engine loop. `unwrap_or*` / `unwrap_err` are different
/// identifiers and never match.
fn no_unwrap(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    let in_scope =
        matches!(&ctx.class, FileClass::Lib(n) if NO_UNWRAP_CRATES.contains(&n.as_str()));
    if !in_scope || ctx.in_test_code(i) {
        return;
    }
    let Some(name) = ident_at(toks, i) else { return };
    if (name == "unwrap" || name == "expect")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
    {
        push(
            out,
            ctx,
            "no-unwrap",
            toks[i].line,
            format!(".{name}() can panic mid-query; propagate a PrestoError (Internal for invariant violations) instead"),
        );
    }
}

/// `unsafe-needs-safety`: every `unsafe` keyword needs a `// SAFETY:`
/// comment on the same line or just above it.
fn unsafe_needs_safety(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if ident_at(toks, i) != Some("unsafe") {
        return;
    }
    let line = toks[i].line;
    if !ctx.has_safety_comment(line) {
        push(
            out,
            ctx,
            "unsafe-needs-safety",
            line,
            "`unsafe` without an adjacent `// SAFETY:` comment documenting the audited invariant"
                .to_string(),
        );
    }
}

/// `layering`: any `presto_*` path in crate C must be a declared dependency
/// of C. Catches `use` lines and fully-qualified call sites alike.
fn layering(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    let Some(crate_name) = ctx.crate_name() else { return };
    if matches!(crate_name, "root" | "bench" | "lint") {
        return;
    }
    let Some(referenced) = ident_at(toks, i) else { return };
    if !referenced.starts_with("presto_") {
        return;
    }
    let self_name = format!("presto_{crate_name}");
    if referenced == self_name {
        return;
    }
    let allowed =
        LAYERING.iter().find(|(name, _)| *name == crate_name).map(|(_, deps)| *deps).unwrap_or(&[]);
    if !allowed.contains(&referenced) {
        push(
            out,
            ctx,
            "layering",
            toks[i].line,
            format!(
                "crate `{crate_name}` may not reference `{referenced}`: it is not in its declared dependency DAG (see crates/lint/src/rules.rs LAYERING)"
            ),
        );
    }
}

/// `no-sleep-print`: real sleeps stall deterministic schedulers, and stdout
/// writes from library crates bypass the metrics pipeline.
fn no_sleep_print(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    let in_scope =
        matches!(&ctx.class, FileClass::Lib(n) if !matches!(n.as_str(), "bench" | "lint"));
    if !in_scope || ctx.in_test_code(i) {
        return;
    }
    let Some(name) = ident_at(toks, i) else { return };
    if name == "thread"
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::PathSep)
        && ident_at(toks, i + 2) == Some("sleep")
    {
        push(
            out,
            ctx,
            "no-sleep-print",
            toks[i].line,
            "thread::sleep in a library crate; advance the virtual SimClock instead".to_string(),
        );
        return;
    }
    if matches!(name, "println" | "eprintln" | "print" | "eprint" | "dbg")
        && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
    {
        push(
            out,
            ctx,
            "no-sleep-print",
            toks[i].line,
            format!("{name}! in a library crate; record a CounterSet metric or return data to the caller"),
        );
    }
}

/// `guard-leak`: `mem::forget` / `Box::leak` defeat RAII. Forgetting a
/// `Reservation` guard leaks pool bytes until the query is dropped —
/// the exact accounting drift the memory pool exists to prevent.
fn guard_leak(ctx: &FileCtx, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_code(i) {
        return;
    }
    let Some(name) = ident_at(toks, i) else { return };
    let leak = (name == "mem"
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::PathSep)
        && ident_at(toks, i + 2) == Some("forget"))
        || (name == "Box"
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::PathSep)
            && ident_at(toks, i + 2) == Some("leak"));
    if leak {
        let what = if name == "mem" { "mem::forget" } else { "Box::leak" };
        push(
            out,
            ctx,
            "guard-leak",
            toks[i].line,
            format!("{what} defeats RAII; a leaked reservation guard never returns its bytes to the MemoryPool"),
        );
    }
}
