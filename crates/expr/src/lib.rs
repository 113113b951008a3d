#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! RowExpression — the self-contained expression IR of §IV.B / Table I.
//!
//! The paper replaced Presto's AST-based expression representation with
//! `RowExpression`, which is "completely self-contained and can be shared
//! across multiple systems" because function resolution information is stored
//! in the expression itself as a serializable `FunctionHandle`. That is what
//! makes arbitrary sub-expression pushdown to connectors possible.
//!
//! This crate provides:
//! - [`expression::RowExpression`] with exactly the paper's five subtypes
//!   (constant, variable reference, call, special form, lambda definition);
//! - [`expression::FunctionHandle`] — the serializable resolution record;
//! - a compact text serialization ([`expression::RowExpression::serialize`])
//!   demonstrating the "shareable across systems" property;
//! - [`registry::FunctionRegistry`] — built-in scalar functions plus the
//!   plugin extension point the geospatial plugin (§VI.E) uses;
//! - [`eval::Evaluator`] — vectorized evaluation over
//!   [`presto_common::Page`]s (Presto evaluates expressions vectorized, §III):
//!   typed loops over columns and scalar constants, boxed rows only for
//!   plugin functions and the built-ins without a typed form;
//! - [`aggregate::AggregateFunction`] — the aggregate vocabulary shared by
//!   the execution engine and connector aggregation pushdown.

pub mod aggregate;
pub mod eval;
pub mod expression;
mod kernels;
pub mod registry;

pub use aggregate::{Accumulator, AggregateFunction, GroupedAccumulator};
pub use eval::Evaluator;
pub use expression::{FunctionHandle, RowExpression, SpecialForm};
pub use registry::FunctionRegistry;
