//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p presto-lint -- --workspace               # lint the whole repo
//! cargo run -p presto-lint -- --workspace --format json # CI artifact output
//! cargo run -p presto-lint -- --rules                   # list the rules
//! cargo run -p presto-lint -- crates/exec               # lint one subtree
//! ```
#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a CLI reports on stdout/stderr")]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use presto_lint::{check_workspace, default_workspace_root, to_json, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "presto-lint: workspace invariant checker (two-pass, workspace-global: \
             lock-order, map-iter-in-digest, metrics-registry; the per-crate invariants \
             are clippy.toml, the workspace lint table and Cargo's dependencies)\n\n\
             USAGE:\n  presto-lint --workspace          lint the whole workspace\n  \
             presto-lint --rules              list rules\n  \
             presto-lint --format json        emit diagnostics as a JSON array\n  \
             presto-lint <path>...            lint files/subtrees under the workspace root\n\n\
             Suppress with `// lint:allow(<rule-id>)`: trailing covers its line; on its own \
             line it covers exactly the next statement."
        );
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--rules") {
        for rule in RULES {
            println!("{:<20} {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }
    let json = args.windows(2).any(|w| w[0] == "--format" && w[1] == "json")
        || args.iter().any(|a| a == "--format=json");

    #[allow(clippy::disallowed_methods, reason = "reports the analysis wall time")]
    let t0 = std::time::Instant::now();

    let root = default_workspace_root();
    let paths: Vec<PathBuf> =
        args.iter().filter(|a| !a.starts_with("--") && *a != "json").map(PathBuf::from).collect();
    let diagnostics = match check_workspace(root) {
        Ok(d) if paths.is_empty() => d,
        // Explicit paths: restrict the workspace scan to the given prefixes
        // (classification and the global passes still see the whole tree).
        Ok(d) => d
            .into_iter()
            .filter(|diag| paths.iter().any(|p| Path::new(&diag.path).starts_with(p)))
            .collect(),
        Err(e) => {
            eprintln!("presto-lint: cannot walk workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.elapsed();

    if json {
        // stdout is the artifact; the human summary goes to stderr
        println!("{}", to_json(&diagnostics));
        eprintln!(
            "presto-lint: {} violation(s), {} rules, {:.2}s",
            diagnostics.len(),
            RULES.len(),
            elapsed.as_secs_f64()
        );
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        if diagnostics.is_empty() {
            println!("presto-lint: clean ({} rules, {:.2}s)", RULES.len(), elapsed.as_secs_f64());
        } else {
            println!(
                "presto-lint: {} violation(s) ({:.2}s)",
                diagnostics.len(),
                elapsed.as_secs_f64()
            );
        }
    }
    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
