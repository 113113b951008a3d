//! Pass 2: nondeterminism taint — `map-iter-in-digest`.
//!
//! CI gates on bit-identical same-seed `Trace::digest()` and `SimReport`
//! digests (PRs 4-6). The one bug class those gates can only catch *after*
//! the fact is unordered iteration leaking into a digested value:
//! `HashMap`/`HashSet` iteration order varies run-to-run (SipHash keys are
//! randomized), so any such iteration on a digest path is a latent
//! determinism break. This check flags unordered iteration sites inside
//! functions that can reach a digest/hash sink, unless the site provably
//! escapes: it feeds an order-insensitive reduction (`sum`, `count`,
//! `min`, `max`, ...) or an ordered collection (`BTreeMap`/`BTreeSet`) in
//! the same statement, or a sort intervenes later in the same function.
//!
//! Scope: a function is "on a digest path" when its body touches a sink
//! (`digest`, `DefaultHasher`, `mix64`, ...), when it transitively calls
//! one that does, or when it lives in a determinism-critical crate — the
//! crates whose entire observable behavior is digested by the chaos/sim CI
//! gates.

use std::collections::BTreeMap;

use crate::engine::Diagnostic;
use crate::summary::{FileSummary, FnSummary};

/// Crates whose whole behavior feeds the same-seed digest gates: the
/// engine loop, coordinator, resource manager, simulator, the common
/// layer that computes the digests themselves, and the connectors and
/// storage beneath every scan (their pages and virtual time are in every
/// digest).
const DIGEST_CRATES: &[&str] =
    &["exec", "cluster", "resource", "sim", "common", "connectors", "storage"];

/// Run the taint analysis over all summaries.
pub fn check(files: &[FileSummary]) -> Vec<Diagnostic> {
    let fns: Vec<&FnSummary> = files.iter().flat_map(|f| &f.fns).collect();
    let by_name: BTreeMap<&str, Vec<usize>> = {
        let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            m.entry(f.name.as_str()).or_default().push(i);
        }
        m
    };

    // sinky(f): f touches a sink directly or transitively calls one.
    let mut sinky: Vec<bool> = fns.iter().map(|f| f.has_sink).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            if sinky[i] {
                continue;
            }
            let reaches = fns[i].calls.iter().any(|c| {
                by_name
                    .get(c.callee.as_str())
                    .is_some_and(|cs| cs.iter().any(|&j| j != i && sinky[j]))
            });
            if reaches {
                sinky[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        let critical_crate = DIGEST_CRATES.contains(&f.crate_name.as_str());
        if !critical_crate && !sinky[i] {
            continue;
        }
        let why = if sinky[i] {
            "is on a digest path".to_string()
        } else {
            format!("is in determinism-critical crate `{}`", f.crate_name)
        };
        for site in &f.iter_sites {
            if site.escaped {
                continue;
            }
            out.push(Diagnostic {
                rule: "map-iter-in-digest",
                path: f.file.clone(),
                line: site.line,
                message: format!(
                    "unordered iteration over `{}` in `{}`, which {why}: HashMap/HashSet order \
                     varies run-to-run and breaks same-seed digest replay — sort the items, use a \
                     BTreeMap/BTreeSet, or reduce order-insensitively",
                    site.container, f.qual
                ),
            });
        }
    }
    out
}
