#![warn(missing_docs)]

//! Benchmark workloads reproducing every figure and table of the paper's
//! evaluation (§X), plus the §VI/§VII/§VIII/§IX experiments reported in
//! prose. The `paper-experiments` binary drives these and prints
//! paper-claim-vs-measured tables; wall-clock performance is judged by the
//! standalone `benchmark/` package, not here.
//!
//! Scale disclaimer (DESIGN.md §2): the paper ran on 100–200-node clusters
//! against production petabytes. These workloads preserve the *mechanisms*
//! and report the *relative* numbers (who wins, by what factor); absolute
//! values are laptop-scale.

pub mod cache_exp;
pub mod chaos;
pub mod elastic;
pub mod fig16;
pub mod fig17;
pub mod geo_exp;
pub mod obs;
pub mod report;
pub mod resource_exp;
pub mod s3_exp;
pub mod telemetry;
pub mod writers;
