//! `paper-experiments`: regenerate every table/figure of the paper's
//! evaluation and print paper-claim vs measured.
//!
//! Usage:
//! ```text
//! paper-experiments [name …]    # no name, or `all`: every experiment, in table order
//! ```
//! Run `--release`; the reader/writer figures measure real CPU work.
//!
//! Exit code 0 when every gate passed, 1 when any failed (each listed on
//! stderr after all named experiments ran), 2 for an unknown name.
//! `BENCH_<experiment>.json` files land in the current directory.

use std::path::Path;

use presto_bench::report::{self, Experiment};
use presto_bench::{
    cache_exp, chaos, cluster_exp, elastic, fig16, fig17, geo_exp, obs, resource_exp, s3_exp,
    sim_exp, telemetry, writers,
};
use presto_parquet::Codec;

const EXPERIMENTS: &[(&str, &[Experiment])] = &[
    ("fig16", &[fig16::report]),
    ("fig17", &[fig17::report]),
    ("fig18", &[|| writers::figure(Codec::Fast)]),
    ("fig19", &[|| writers::figure(Codec::Deep)]),
    ("fig20", &[|| writers::figure(Codec::None)]),
    ("geo", &[geo_exp::report]),
    ("cache", &[cache_exp::report]),
    ("s3", &[s3_exp::report]),
    ("shrink", &[cluster_exp::shrink_report]),
    ("gateway", &[cluster_exp::gateway_report]),
    ("resource", &[resource_exp::report]),
    ("chaos", &[chaos::report, chaos::speculation_report]),
    ("obs", &[obs::report]),
    ("sim", &[sim_exp::report]),
    ("elastic", &[elastic::report]),
    ("telemetry", &[telemetry::report]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    std::process::exit(report::run(EXPERIMENTS, &args, Path::new("."), &mut out, &mut err));
}
