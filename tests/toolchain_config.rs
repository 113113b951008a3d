//! The workspace invariants live in toolchain configuration and in types:
//! `clippy.toml`, the workspace lint table, the crate manifests, a few
//! crate attributes and `presto_common::sync`. Dropping any piece switches
//! an invariant off with nothing failing, so each piece is pinned here.

use std::fs;
use std::path::Path;

use presto_common::sync::{Mutex, Rank, RwLock};

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
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

/// The body of `clippy.toml`'s `key = [ ... ]` list.
fn clippy_list(toml: &str, key: &str) -> String {
    let list = toml.split(&format!("{key} = [")).nth(1).and_then(|r| r.split("\n]").next());
    list.unwrap_or_else(|| panic!("clippy.toml has no {key} list")).to_string()
}

#[test]
fn clippy_toml_bans_the_wall_clock_sleep_and_guard_leaks() {
    let toml = read("clippy.toml");
    let banned = clippy_list(&toml, "disallowed-methods");
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
fn clippy_toml_bans_unordered_collections_and_unranked_locks() {
    let banned = clippy_list(&read("clippy.toml"), "disallowed-types");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "parking_lot::Mutex",
        "parking_lot::RwLock",
    ] {
        assert!(
            banned.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
}

#[test]
fn workspace_lint_table_denies_prints_dbg_undocumented_unsafe_and_hash_loops() {
    let lints = table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    for lint in [
        "print_stdout",
        "print_stderr",
        "dbg_macro",
        "undocumented_unsafe_blocks",
        "iter_over_hash_type",
    ] {
        assert!(
            lints.contains(&format!("{lint}=\"deny\"")),
            "workspace lints no longer deny {lint}"
        );
    }
    // the type ban binds only the crates that opt in below
    assert!(lints.contains(&"disallowed_types=\"allow\"".to_string()), "{lints:?}");
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut manifests: Vec<String> = entries
        .filter_map(|e| Some(format!("crates/{}/Cargo.toml", e.ok()?.file_name().to_str()?)))
        .collect();
    assert!(manifests.len() >= 15, "crate directories not found: {manifests:?}");
    manifests.push("Cargo.toml".to_string());
    for manifest in manifests {
        assert_eq!(table(&read(&manifest), "[lints]"), ["workspace=true"], "{manifest}");
    }
}

/// `crates/{name}/src/lib.rs` carries the crate-level attribute `attr`.
fn has_crate_attr(name: &str, attr: &str) -> bool {
    read(&format!("crates/{name}/src/lib.rs")).lines().any(|l| l.trim() == attr)
}

#[test]
fn engine_crates_deny_unwrap_and_expect() {
    for name in ["common", "exec", "expr", "resource", "cluster", "core", "sim"] {
        assert!(
            has_crate_attr(name, "#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "crates/{name}/src/lib.rs no longer denies unwrap/expect"
        );
    }
}

#[test]
fn digest_crates_deny_hash_maps() {
    for name in ["exec", "cluster", "resource", "sim", "common", "connectors", "storage", "cache"] {
        assert!(
            has_crate_attr(name, "#![deny(clippy::disallowed_types)]"),
            "crates/{name}/src/lib.rs no longer denies HashMap/HashSet"
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

#[test]
fn every_lock_is_ranked() {
    // `presto_common::sync` exports the ranked wrappers: a lock takes a rank
    let (mutex, rwlock) = (Mutex::new(Rank::Counters, 1), RwLock::new(Rank::Histograms, 2));
    assert_eq!(*mutex.lock() + *rwlock.read(), 3);
    // and only `presto-common` reaches the unranked ones
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let name = entry.expect("crate dir").file_name().to_string_lossy().into_owned();
        let deps = table(&read(&format!("crates/{name}/Cargo.toml")), "[dependencies]");
        let direct = deps.iter().any(|d| d.starts_with("parking_lot"));
        assert_eq!(direct, name == "common", "crates/{name} and parking_lot: {deps:?}");
    }
    let root = table(&read("Cargo.toml"), "[dependencies]");
    assert!(root.iter().all(|d| !d.starts_with("parking_lot")), "{root:?}");
}
