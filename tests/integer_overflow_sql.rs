//! Integer arithmetic a user can write in SQL wraps in the width its type
//! declares — BIGINT at 64 bits, INTEGER at 32, like Java — and never
//! panics the engine or surfaces as an engine bug. Only a zero divisor is an
//! error, and it is the user's (`EXECUTION_ERROR`).

use std::sync::Arc;

use presto_common::Value;
use presto_connectors::tpch::TpchConnector;
use presto_core::{PrestoEngine, Session};

fn engine() -> (PrestoEngine, Session) {
    let engine = PrestoEngine::new();
    engine.register_catalog("tpch", Arc::new(TpchConnector::new()));
    (engine, Session::new("tpch", "tiny"))
}

/// `i64::MIN` and `-1` as column expressions the constant folder cannot
/// collapse, so the division runs in the vectorized kernel.
const MIN: &str = "(orderkey - orderkey - 9223372036854775807 - 1)";
const MINUS_ONE: &str = "(linenumber - linenumber - 1)";

#[test]
fn i64_min_over_minus_one_wraps_instead_of_aborting() {
    let (engine, session) = engine();
    for (op, expected) in [("/", i64::MIN), ("%", 0)] {
        // once per row (typed kernel) ...
        let sql = format!("SELECT max({MIN} {op} {MINUS_ONE}) FROM lineitem");
        let result = engine.execute_with_session(&sql, &session).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(expected)]], "{sql}");
        // ... and once at plan time (the scalar path folds the literals)
        let sql =
            format!("SELECT (0 - 9223372036854775807 - 1) {op} (0 - 1) FROM lineitem LIMIT 1");
        let result = engine.execute_with_session(&sql, &session).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(expected)]], "{sql}");
    }
    // a zero divisor is still the user's error, in both paths
    for sql in [
        format!("SELECT {MIN} / (linenumber - linenumber) FROM lineitem"),
        format!("SELECT {MIN} % (linenumber - linenumber) FROM lineitem"),
        "SELECT 1 / 0 FROM lineitem".to_string(),
    ] {
        let err = engine.execute_with_session(&sql, &session).unwrap_err();
        assert_eq!(err.code(), "EXECUTION_ERROR", "{sql}: {err}");
        assert!(err.message().contains("division by zero"), "{sql}: {err}");
    }
}

#[test]
fn integer_products_wrap_at_32_bits_and_keep_their_declared_type() {
    let (engine, session) = engine();
    let lines = engine.execute_with_session("SELECT max(linenumber) FROM lineitem", &session);
    let Value::Integer(widest) = lines.unwrap().rows()[0][0] else { panic!("INTEGER expected") };
    assert!(i64::from(widest).pow(17) > i64::from(i32::MAX), "the product must overflow");
    let product = vec!["linenumber"; 17].join(" * ");
    let result =
        engine.execute_with_session(&format!("SELECT max({product}) FROM lineitem"), &session);
    // was: Internal("value 4294967296 does not match block type integer")
    let expected = (1..=widest).map(|line| line.wrapping_pow(17)).max().unwrap();
    assert_eq!(result.unwrap().rows(), vec![vec![Value::Integer(expected)]]);
}
