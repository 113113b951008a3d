#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! SQL frontend: lexer → parser → AST → analyzer → logical plan (Fig 1:
//! "Presto coordinator parses incoming SQL, and tokenizes it into Abstract
//! Syntax Tree (AST). Analyzer generates logical plan from AST").
//!
//! Supported surface (everything the paper's example queries need, §V.C and
//! §VI.C, plus joins/subqueries/aggregations):
//!
//! ```sql
//! SELECT [DISTINCT] items FROM catalog.schema.table [alias]
//!   [ [LEFT|CROSS] JOIN t2 ON cond ] ...
//!   [WHERE cond] [GROUP BY exprs|ordinals] [HAVING cond]
//!   [ORDER BY exprs [DESC]] [LIMIT n]
//! ```
//!
//! with `UNION ALL` between SELECTs, nested field dereference
//! (`base.city_id`), IN lists, BETWEEN, LIKE, IS \[NOT\] NULL, CAST,
//! CASE WHEN, `coalesce`, arithmetic, function calls (including the plugin
//! functions `st_point` / `st_contains`), `count(*)`, and derived tables.
//!
//! SELECT, HAVING and ORDER BY take every one of these forms after a GROUP
//! BY as before it, over the GROUP BY items and aggregate calls; a column
//! outside both is an error. HAVING alone also makes a query aggregated.
//! An ORDER BY key is an ordinal, an output name, or an expression that
//! analyzes to a select item; a UNION ALL's ORDER BY takes ordinals and
//! output names only.

pub mod analyzer;
pub mod ast;
pub mod lexer;
pub mod parser;

pub use analyzer::{analyze, AnalyzerContext};
pub use ast::{Expr, Query, SelectItem, Statement, TableRef};
pub use parser::parse_sql;
