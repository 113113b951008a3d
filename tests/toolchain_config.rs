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
    for name in ["common", "sql", "plan", "exec", "expr", "resource", "cluster", "core", "sim"] {
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

/// No `.rs` file uses `crossbeam`, so no workspace manifest names it: not a
/// crate's dependencies, nor the root's `[workspace.dependencies]` or
/// `[patch.crates-io]`.
#[test]
fn no_workspace_manifest_names_crossbeam() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut manifests: Vec<String> = entries
        .filter_map(|e| Some(format!("crates/{}/Cargo.toml", e.ok()?.file_name().to_str()?)))
        .collect();
    manifests.push("Cargo.toml".to_string());
    for manifest in manifests {
        assert!(!read(&manifest).contains("crossbeam"), "{manifest} names crossbeam");
    }
}

/// The clock literals in one line of code: a `Duration::from_*` argument,
/// or the value of a `*_us` / `*_US` field or constant, that holds a number
/// but not `TASK_US`.
fn clock_literals(code: &str) -> Vec<String> {
    let has_number = |s: &str| {
        let mut prev = ' ';
        s.chars().any(|c| {
            let starts = c.is_ascii_digit() && !(prev.is_alphanumeric() || prev == '_');
            prev = c;
            starts
        })
    };
    let mut found = Vec::new();
    for unit in ["nanos", "micros", "millis", "secs"] {
        for (at, _) in code.match_indices(&format!("Duration::from_{unit}(")) {
            let arg = &code[at..];
            let arg = &arg[arg.find('(').map_or(0, |i| i + 1)..];
            let mut depth = 1;
            let end = arg
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '(' => 1,
                        ')' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(arg.len(), |(i, _)| i);
            let arg = &arg[..end];
            if has_number(arg) && !arg.contains("TASK_US") {
                found.push(arg.to_string());
            }
        }
    }
    for key in ["_us:", "_US: u64 ="] {
        for (at, _) in code.match_indices(key) {
            let value = code[at + key.len()..].trim_start();
            let value = value.split([',', ';']).next().unwrap_or(value);
            if value.starts_with(|c: char| c.is_ascii_digit()) && !value.contains("TASK_US") {
                found.push(value.to_string());
            }
        }
    }
    found
}

/// One edit of `presto_common::cost::COST` rescales the sim, elastic, SLO,
/// autoscaler, telemetry and retry experiments only while each of their
/// clocks is a multiple of `TASK_US`: a bare literal stays put when the
/// cost moves and shifts the offered load under every gate. Tests keep
/// their own configs below `#[cfg(test)]`.
#[test]
fn experiment_clocks_are_multiples_of_one_task() {
    for (code, want) in [
        ("const TICK_EVERY_US: u64 = 500;", vec!["500"]),
        ("cooldown: Duration::from_micros(10_000),", vec!["10_000"]),
        ("recovery_bound_us: 5_000_000,", vec!["5_000_000"]),
        ("x: Duration::from_micros(2 * TASK_US), y: Duration::from_millis(f(3)),", vec!["f(3)"]),
        ("const TICK_EVERY_US: u64 = 5 * TASK_US;", vec![]),
        ("p50_us: hist.quantile(0.5), at: Duration::from_micros(at),", vec![]),
    ] {
        assert_eq!(clock_literals(code), want, "{code}");
    }
    for rel in [
        "crates/sim/src/sim.rs",
        "crates/sim/src/slo.rs",
        "crates/bench/src/elastic.rs",
        "crates/cluster/src/autoscaler.rs",
        "crates/cluster/src/cluster.rs",
        "crates/common/src/telemetry.rs",
    ] {
        let src = read(rel);
        let code = src.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (n, line) in code.enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            let literals = clock_literals(code);
            assert!(literals.is_empty(), "{rel}:{}: clock {literals:?} is not in TASK_US", n + 1);
        }
    }
}
