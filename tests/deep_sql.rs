//! Statements nested past the parser's depth budget get a classified
//! "query too complex" error instead of overflowing the stack, and
//! statements just under it still answer. A stack overflow aborts the
//! whole test binary, not one test, so these probes live in a file of
//! their own. Each runs on a thread with a 2 MiB stack, the default for
//! spawned threads.

use presto_at_scale::fixtures::demo_platform;
use presto_common::{PrestoError, Result, Value};
use presto_core::{QueryResult, Session};
use presto_sql::parser::MAX_DEPTH;

fn on_small_stack<T: Send + 'static>(probe: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(probe);
    thread.expect("spawn probe thread").join().expect("probe thread panicked")
}

/// Run `sql` on the demo platform (50 trips a day), on a 2 MiB stack.
fn run(sql: String) -> Result<QueryResult> {
    on_small_stack(move || {
        let platform = demo_platform(50);
        platform.engine.execute_with_session(&sql, &Session::new("hive", "rawdata"))
    })
}

fn assert_too_complex(sql: String) {
    match run(sql) {
        Err(PrestoError::Parse(msg)) => assert!(msg.starts_with("query too complex: "), "{msg}"),
        other => panic!("expected a \"query too complex\" parse error, got {other:?}"),
    }
}

fn count(sql: String) -> Value {
    let result = run(sql).expect("a query under the depth budget answers");
    result.rows()[0][0].clone()
}

#[test]
fn a_thousand_nested_parentheses_are_too_complex() {
    let n = 1_000;
    assert_too_complex(format!("SELECT {}1{} FROM trips", "(".repeat(n), ")".repeat(n)));
}

#[test]
fn twenty_thousand_nots_are_too_complex() {
    assert_too_complex(format!(
        "SELECT count(*) FROM trips WHERE {}base.city_id = 1",
        "NOT ".repeat(20_000)
    ));
}

#[test]
fn a_hundred_thousand_term_sum_is_too_complex() {
    assert_too_complex(format!("SELECT 1{} FROM trips", " + 1".repeat(99_999)));
}

#[test]
fn queries_just_under_the_budget_answer() {
    let all = count("SELECT count(*) FROM trips WHERE base.city_id >= 0".to_string());
    assert_eq!(all, Value::Bigint(150));
    // the WHERE expression is one level; each operator, parenthesis or NOT
    // adds one more
    let levels = MAX_DEPTH - 1;
    let sum = format!("base.city_id{}", " + 0".repeat(levels));
    assert_eq!(count(format!("SELECT count(*) FROM trips WHERE {sum} >= 0")), all);
    let parens = format!("{}base.city_id >= 0{}", "(".repeat(levels), ")".repeat(levels));
    assert_eq!(count(format!("SELECT count(*) FROM trips WHERE {parens}")), all);
    let nots = format!("{}base.city_id < 0", "NOT ".repeat(levels));
    let expected = if levels % 2 == 1 { all.clone() } else { Value::Bigint(0) };
    assert_eq!(count(format!("SELECT count(*) FROM trips WHERE {nots}")), expected);
    let ands = vec!["base.city_id >= 0"; MAX_DEPTH].join(" AND ");
    assert_eq!(count(format!("SELECT count(*) FROM trips WHERE {ands}")), all);
    // one level more is refused
    assert_too_complex(format!("SELECT count(*) FROM trips WHERE {sum} + 0 >= 0"));
}
