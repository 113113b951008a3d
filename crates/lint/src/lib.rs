//! `presto-lint`: the workspace invariant checker.
//!
//! The paper's operational sections (§XII) describe keeping a very large
//! Presto fleet correct; this reproduction encodes the same invariants
//! (virtual clock, RAII memory reservations, a strict crate DAG, bit-
//! identical same-seed digests) and checks them mechanically so every PR
//! lands with them intact.
//!
//! The toolchain carries every invariant a per-crate lint can see, in
//! CI's `cargo clippy --workspace --all-targets -- -D warnings` step:
//! `clippy.toml` bans the wall clock, `thread::sleep`, `mem::forget` and
//! `Box::leak`; the workspace lint table denies prints, `dbg!` and
//! undocumented `unsafe`; the engine crates deny `unwrap`/`expect`;
//! `PrestoError::is_retryable` denies wildcard arms; and Cargo's declared
//! dependencies are the crate DAG. This tool keeps the three rules that
//! need every file at once:
//!
//! ```text
//! cargo run -p presto-lint -- --workspace
//! ```
//!
//! It prints `file:line: [rule-id] message` diagnostics (or a JSON array
//! with `--format json`) and exits nonzero if any are found.
//!
//! The analyzer runs in **two passes**. Pass 1 lexes every file and builds
//! per-function summaries ([`summary`]): locks acquired and in what order,
//! guards live across `.await`/send boundaries, calls made under a held
//! guard, string literals used as metric names, unordered-container
//! iteration sites, and which bodies touch a digest sink. Pass 2 stitches
//! the summaries into workspace-global diagnostics: the lock-order graph
//! ([`graph`]), the nondeterminism taint ([`taint`]), and the metrics
//! registry ([`rules::check_global`]).
//!
//! A violation that is genuinely intended can be suppressed with
//! `// lint:allow(<rule-id>)`: trailing on a line it covers that line; on
//! its own line it covers exactly the next statement (however many lines
//! it spans) and never leaks past it.
//!
//! The tool is dependency-free: a small lexer ([`lexer`]) produces a
//! line-annotated token stream (string literals kept as tokens, comments
//! collected separately), and everything above it is token-pattern
//! analysis.

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod summary;
pub mod taint;

use std::collections::HashMap;
use std::path::Path;

pub use engine::{Diagnostic, FileCtx};
pub use rules::{Rule, RULES};

/// Check a set of sources together with the workspace-global passes
/// (lock-order graph, nondeterminism taint, metrics registry).
/// `files` holds `(workspace-relative path, source text)` pairs; global
/// diagnostics can span files (a lock-order witness names every file on
/// its cycle).
pub fn check_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::new(p, s)).collect();
    let mut out = rules::check_global(&summary::summarize_all(&ctxs));
    // suppression: honor the owning file's allows
    let by_path: HashMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.rel_path.as_str(), c)).collect();
    out.retain(|d| !by_path.get(d.path.as_str()).is_some_and(|ctx| ctx.is_allowed(d.rule, d.line)));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup();
    out
}

/// Check one file's source text under its workspace-relative path (the
/// path decides its crate, and so which rules bind it), as a workspace of
/// that one file.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    check_sources(&[(rel_path.to_string(), src.to_string())])
}

/// Check every `.rs` file in the workspace rooted at `root`, in a
/// deterministic order, with the global passes seeing all files at once.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for (rel, path) in engine::collect_workspace_files(root)? {
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(check_sources(&files))
}

/// Render diagnostics as a JSON array (machine-readable CI artifact).
/// Hand-rolled — the tool is dependency-free by design.
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                r#"  {{"rule": "{}", "path": "{}", "line": {}, "message": "{}"}}"#,
                esc(d.rule),
                esc(&d.path),
                d.line,
                esc(&d.message)
            )
        })
        .collect();
    if items.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n]", items.join(",\n"))
    }
}

/// The workspace root when running via `cargo run -p presto-lint`
/// (two levels up from this crate's manifest).
pub fn default_workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).unwrap_or(manifest)
}
