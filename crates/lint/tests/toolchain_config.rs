//! The per-crate invariants live in toolchain configuration, not in
//! presto-lint: `clippy.toml`, the workspace lint table, the crate
//! manifests and a few attributes. Dropping any piece switches an invariant
//! off with nothing failing, so each piece is pinned here.

use std::fs;

use presto_lint::default_workspace_root;

fn read(rel: &str) -> String {
    let path = default_workspace_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

/// The non-empty lines of a TOML table, whitespace removed.
fn table(toml: &str, header: &str) -> Vec<String> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn clippy_toml_bans_the_wall_clock_sleep_and_guard_leaks() {
    let toml = read("clippy.toml");
    let banned = toml.split("disallowed-methods = [").nth(1).and_then(|r| r.split("\n]").next());
    let banned = banned.expect("clippy.toml has no disallowed-methods list");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::sleep",
        "std::mem::forget",
        "std::boxed::Box::leak",
    ] {
        assert!(
            banned.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
    let keys: Vec<String> = toml.lines().map(|l| l.split_whitespace().collect()).collect();
    for what in ["unwrap", "expect", "print", "dbg"] {
        let key = format!("allow-{what}-in-tests=true");
        assert!(keys.contains(&key), "clippy.toml lacks {key}");
    }
}

#[test]
fn workspace_lint_table_denies_prints_dbg_and_undocumented_unsafe() {
    let lints = table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    for lint in ["print_stdout", "print_stderr", "dbg_macro", "undocumented_unsafe_blocks"] {
        assert!(
            lints.contains(&format!("{lint}=\"deny\"")),
            "workspace lints no longer deny {lint}"
        );
    }
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let dir = default_workspace_root().join("crates");
    let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut manifests: Vec<String> = entries
        .filter_map(|e| Some(format!("crates/{}/Cargo.toml", e.ok()?.file_name().to_str()?)))
        .collect();
    assert!(manifests.len() >= 16, "crate directories not found: {manifests:?}");
    manifests.push("Cargo.toml".to_string());
    for manifest in manifests {
        assert_eq!(table(&read(&manifest), "[lints]"), ["workspace=true"], "{manifest}");
    }
}

#[test]
fn engine_crates_deny_unwrap_and_expect() {
    for name in ["common", "exec", "expr", "resource", "cluster", "core", "sim"] {
        let lib = read(&format!("crates/{name}/src/lib.rs"));
        assert!(
            lib.lines().any(|l| l.trim() == "#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "crates/{name}/src/lib.rs no longer denies unwrap/expect"
        );
    }
}

#[test]
fn is_retryable_denies_wildcard_arms() {
    let src = read("crates/common/src/error.rs");
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let at = lines.iter().position(|l| l.starts_with("pub fn is_retryable("));
    let at = at.expect("PrestoError::is_retryable not found");
    assert_eq!(
        lines[at - 1],
        "#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]"
    );
}
