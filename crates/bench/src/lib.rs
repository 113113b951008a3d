#![warn(missing_docs)]

//! Benchmark workloads reproducing every figure and table of the paper's
//! evaluation (§X), plus the §VI/§VII/§VIII/§IX experiments reported in
//! prose. Each experiment returns a [`report::Report`] — its text, its
//! `BENCH_*.json` and its gates — and the `paper-experiments` binary runs
//! them through [`report::run`]; wall-clock performance is judged by the
//! standalone `benchmark/` package, not here.
//!
//! Scale disclaimer (DESIGN.md §2): the paper ran on 100–200-node clusters
//! against production petabytes. These workloads preserve the *mechanisms*
//! and report the *relative* numbers (who wins, by what factor); absolute
//! values are laptop-scale.

pub mod cache_exp;
pub mod chaos;
pub mod cluster_exp;
pub mod elastic;
pub mod fig16;
pub mod fig17;
pub mod geo_exp;
pub mod obs;
pub mod report;
pub mod resource_exp;
pub mod s3_exp;
pub mod sim_exp;
pub mod telemetry;
pub mod writers;
