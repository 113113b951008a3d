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
/// decides the crate, so fixtures can live outside the real tree).
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
fn allow_trailing_is_line_scoped_standalone_is_statement_scoped() {
    let diags = check_fixture("allow/mixed.rs", "crates/exec/src/fixture.rs");
    // line 6 is suppressed by its trailing directive; line 10 is bare; the
    // standalone directive on line 14 covers the whole `for` statement on
    // lines 15-18 (literals on lines 16 and 17) but NOT the next statement
    // on line 19
    assert_eq!(rule_lines(&diags, "metrics-registry"), vec![10, 19]);
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
fn tests_benches_examples_are_exempt() {
    let src = "pub fn f(m: &CounterSet) { m.incr(\"x\"); }";
    assert_eq!(rule_lines(&check_source("crates/exec/src/f.rs", src), "metrics-registry"), [1]);
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
    let covered = ["lock-order", "map-iter-in-digest", "metrics-registry"];
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
