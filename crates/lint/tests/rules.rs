//! Per-rule fixture corpus: one known-bad and one known-clean snippet per
//! rule, asserting exact rule ids and line numbers, plus the suppression
//! and whole-workspace checks.

use std::path::Path;

use presto_lint::{
    check_source, check_sources, check_workspace, default_workspace_root, Diagnostic, RULES,
};

fn fixture_src(fixture: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Load a fixture and check it under a synthetic workspace path (the path
/// decides crate and class, so fixtures can live outside the real tree).
fn check_fixture(fixture: &str, as_path: &str) -> Vec<Diagnostic> {
    check_source(as_path, &fixture_src(fixture))
}

/// Check several fixtures together as one synthetic workspace — the
/// cross-file rules (lock-order) need to see all of them at once.
fn check_fixtures(pairs: &[(&str, &str)]) -> Vec<Diagnostic> {
    let files: Vec<(String, String)> =
        pairs.iter().map(|(fix, path)| (path.to_string(), fixture_src(fix))).collect();
    check_sources(&files)
}

fn rule_lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn wall_clock_bad_and_clean() {
    let bad = check_fixture("wall_clock/bad.rs", "crates/exec/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "wall-clock"), vec![5, 10]);
    assert_eq!(bad.len(), 2, "unexpected extra diagnostics: {bad:?}");

    let clean = check_fixture("wall_clock/clean.rs", "crates/exec/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn wall_clock_exemptions() {
    let src = "pub fn now_impl() { let _ = Instant::now(); }";
    // the virtual-clock module itself may read the wall clock
    assert!(check_source("crates/common/src/clock.rs", src).is_empty());
    // so may the benchmark crate, which measures real elapsed time
    assert!(check_source("crates/bench/src/lib.rs", src).is_empty());
    // any other library crate may not
    assert_eq!(rule_lines(&check_source("crates/storage/src/x.rs", src), "wall-clock"), vec![1]);
}

#[test]
fn no_unwrap_bad_and_clean() {
    let bad = check_fixture("no_unwrap/bad.rs", "crates/exec/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "no-unwrap"), vec![5, 9]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("no_unwrap/clean.rs", "crates/exec/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn no_unwrap_only_guards_engine_crates() {
    // the same panicky source is fine in a crate outside the engine loop
    let clean = check_fixture("no_unwrap/bad.rs", "crates/parquet/src/fixture.rs");
    assert!(rule_lines(&clean, "no-unwrap").is_empty());
    // and in the engine crates it is not
    for krate in ["exec", "expr", "resource", "cluster", "core", "sim"] {
        let path = format!("crates/{krate}/src/fixture.rs");
        let bad = check_fixture("no_unwrap/bad.rs", &path);
        assert_eq!(rule_lines(&bad, "no-unwrap"), vec![5, 9], "crate {krate}");
    }
}

#[test]
fn no_unwrap_guards_the_expression_evaluator() {
    // an "infallible" `write!(..).unwrap()` and a helper *named* `expect`
    let bad = check_fixture("no_unwrap/expr_bad.rs", "crates/expr/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "no-unwrap"), vec![6, 20]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("no_unwrap/expr_clean.rs", "crates/expr/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn unsafe_needs_safety_bad_and_clean() {
    let bad = check_fixture("unsafe_safety/bad.rs", "crates/geo/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "unsafe-needs-safety"), vec![8, 11]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("unsafe_safety/clean.rs", "crates/geo/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn layering_bad_and_clean() {
    let bad = check_fixture("layering/bad.rs", "crates/storage/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "layering"), vec![3, 6]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("layering/clean.rs", "crates/storage/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn layering_connectors_must_not_reach_exec() {
    let src = "use presto_exec::execute;";
    let diags = check_source("crates/connectors/src/fixture.rs", src);
    assert_eq!(rule_lines(&diags, "layering"), vec![1]);
    // while exec itself may of course name exec
    assert!(check_source("crates/exec/src/fixture.rs", "use presto_exec::execute;").is_empty());
}

#[test]
fn sleep_print_bad_and_clean() {
    let bad = check_fixture("sleep_print/bad.rs", "crates/cache/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "no-sleep-print"), vec![6, 7, 11]);
    assert_eq!(bad.len(), 3);

    let clean = check_fixture("sleep_print/clean.rs", "crates/cache/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn guard_leak_bad_and_clean() {
    let bad = check_fixture("guard_leak/bad.rs", "crates/resource/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "guard-leak"), vec![7, 11]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("guard_leak/clean.rs", "crates/resource/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn allow_trailing_is_line_scoped_standalone_is_statement_scoped() {
    let diags = check_fixture("allow/mixed.rs", "crates/exec/src/fixture.rs");
    // line 6 is suppressed by its trailing directive; line 10 is bare; the
    // standalone directive on line 14 covers the whole builder statement on
    // lines 15-18 (the `.unwrap()` is on line 17) but NOT the next
    // statement on line 19
    assert_eq!(rule_lines(&diags, "no-unwrap"), vec![10, 19]);
    assert_eq!(diags.len(), 2);
}

#[test]
fn lock_order_cycle_detected_across_files() {
    let diags = check_fixtures(&[
        ("lock_order/bad_a.rs", "crates/exec/src/fixture_a.rs"),
        ("lock_order/bad_b.rs", "crates/exec/src/fixture_b.rs"),
    ]);
    let cycles: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "lock-order").collect();
    assert_eq!(cycles.len(), 1, "expected exactly one cycle report: {diags:?}");
    let d = cycles[0];
    // anchored at the inversion's smallest-node edge: `Pool::mem` acquired
    // on line 6 of bad_b.rs, then `Scheduler::queue`
    assert_eq!((d.path.as_str(), d.line), ("crates/exec/src/fixture_b.rs", 6));
    assert!(d.message.contains("Pool::mem") && d.message.contains("Scheduler::queue"), "{d:?}");
    // the witness path names BOTH files — that is what makes a cross-file
    // inversion actionable
    assert!(
        d.message.contains("fixture_a.rs") && d.message.contains("fixture_b.rs"),
        "witness must span both files: {}",
        d.message
    );
    assert_eq!(diags.len(), 1, "unexpected extra diagnostics: {diags:?}");
}

#[test]
fn lock_order_consistent_order_is_clean() {
    let diags = check_fixtures(&[
        ("lock_order/clean_a.rs", "crates/exec/src/fixture_a.rs"),
        ("lock_order/clean_b.rs", "crates/exec/src/fixture_b.rs"),
    ]);
    assert!(diags.is_empty(), "clean pair flagged: {diags:?}");
}

#[test]
fn map_iter_in_digest_bad_and_clean() {
    // flagged because the function feeds a digest sink (`mix64`), even
    // outside the determinism-critical crates
    let bad = check_fixture("map_iter_digest/bad.rs", "crates/parquet/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "map-iter-in-digest"), vec![6]);
    assert!(bad[0].message.contains("digest path"), "{bad:?}");
    assert_eq!(bad.len(), 1);

    // inside a determinism-critical crate the same site is flagged too
    let bad = check_fixture("map_iter_digest/bad.rs", "crates/exec/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "map-iter-in-digest"), vec![6]);

    // a sort between the iteration and the fold restores determinism
    let clean = check_fixture("map_iter_digest/clean.rs", "crates/exec/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn map_iter_in_a_scan_crate_is_flagged_without_a_sink() {
    // connector pages and storage virtual time feed every digest, so the
    // two crates are determinism-critical: a site with no sink is flagged
    for path in ["crates/connectors/src/fixture.rs", "crates/storage/src/fixture.rs"] {
        let bad = check_fixture("map_iter_digest/scan_page.rs", path);
        assert_eq!(rule_lines(&bad, "map-iter-in-digest"), vec![6], "{path}");
        assert!(bad[0].message.contains("determinism-critical crate"), "{bad:?}");
        assert_eq!(bad.len(), 1);
    }
    // the same site elsewhere reaches no digest and is left alone
    let clean = check_fixture("map_iter_digest/scan_page.rs", "crates/parquet/src/fixture.rs");
    assert!(clean.is_empty(), "no sink, no critical crate: {clean:?}");
}

#[test]
fn map_iter_order_insensitive_reduction_is_clean() {
    let src = "pub fn total(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }\n";
    let diags = check_source("crates/exec/src/fixture.rs", src);
    assert!(diags.is_empty(), "order-insensitive reduction flagged: {diags:?}");
}

#[test]
fn metrics_registry_bad_and_clean() {
    let bad = check_fixture("metrics_registry/bad.rs", "crates/cache/src/fixture.rs");
    assert_eq!(rule_lines(&bad, "metrics-registry"), vec![6]);
    assert!(bad[0].message.contains("fixture.hits"), "{bad:?}");
    assert_eq!(bad.len(), 1);

    let clean = check_fixture("metrics_registry/clean.rs", "crates/cache/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn metrics_registry_flags_duplicate_constants() {
    // the registry file itself may hold literals, but not two constants
    // with one value (that silently merges two series)
    let diags = check_fixture("metrics_registry/dup.rs", "crates/common/src/metrics.rs");
    assert_eq!(rule_lines(&diags, "metrics-registry"), vec![6]);
    assert!(diags[0].message.contains("INDEX_HITS"), "{diags:?}");
    assert_eq!(diags.len(), 1);
}

#[test]
fn error_taxonomy_bad_and_clean() {
    let bad = check_fixture("error_taxonomy/bad.rs", "crates/common/src/fixture.rs");
    // line 4: `Timeout` never named in is_retryable; line 11: wildcard arm
    assert_eq!(rule_lines(&bad, "error-taxonomy"), vec![4, 11]);
    assert_eq!(bad.len(), 2);

    let clean = check_fixture("error_taxonomy/clean.rs", "crates/common/src/fixture.rs");
    assert!(clean.is_empty(), "clean fixture flagged: {clean:?}");
}

#[test]
fn error_taxonomy_requires_is_retryable() {
    let src = "pub enum PrestoError {\n    Parse(String),\n}\n";
    let diags = check_source("crates/common/src/fixture.rs", src);
    assert_eq!(rule_lines(&diags, "error-taxonomy"), vec![1]);
    assert!(diags[0].message.contains("no is_retryable"), "{diags:?}");
}

#[test]
fn tests_benches_examples_are_exempt() {
    let src = "pub fn f() { let _ = Instant::now(); let x: Option<u32> = None; x.unwrap(); }";
    for path in [
        "tests/integration.rs",
        "examples/demo.rs",
        "crates/geo/benches/b.rs",
        "crates/exec/tests/t.rs",
    ] {
        assert!(check_source(path, src).is_empty(), "{path} should be exempt");
    }
}

#[test]
fn every_rule_has_fixture_coverage() {
    // keep RULES, the fixture corpus, and this test in sync
    let covered = [
        "wall-clock",
        "no-unwrap",
        "unsafe-needs-safety",
        "layering",
        "no-sleep-print",
        "guard-leak",
        "lock-order",
        "map-iter-in-digest",
        "metrics-registry",
        "error-taxonomy",
    ];
    assert_eq!(RULES.len(), covered.len());
    for rule in RULES {
        assert!(covered.contains(&rule.id), "rule {} lacks fixture coverage", rule.id);
    }
}

/// The acceptance gate: the workspace itself must lint clean, the same way
/// `cargo run -p presto-lint -- --workspace` checks it in CI.
#[test]
fn workspace_is_clean() {
    let diags = check_workspace(default_workspace_root()).expect("workspace walk failed");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
