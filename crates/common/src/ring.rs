//! Consistent hashing over worker ids: the one ring every placement
//! decision in the workspace uses.
//!
//! §VII's soft-affinity design only keeps worker-side caches warm if a
//! split keeps landing on the worker that cached its result — across
//! queries, and across fleet changes. The scan scheduler therefore places
//! splits on a [`HashRing`] built over its worker snapshot, and a graceful
//! drain migrates the departing worker's fragment-cache entries to the
//! owners a survivors-only ring assigns. Both build the ring the same way
//! ([`HashRing::with_workers_default`]); there is no second hash path to
//! drift out of sync.
//!
//! The ring is the classic virtual-node construction: each worker
//! contributes `vnodes` points on a `u64` circle, a key is hashed to a
//! point, and its owner is the worker whose next point clockwise covers it.
//! A ring is immutable once built — a changed fleet builds a new one.
//! Properties placement and migration rely on:
//!
//! - **Deterministic**: point positions are pure functions of
//!   `(seed, worker, replica)` via [`crate::rng::mix64`], and key positions
//!   of `(seed, key bytes)` via the workspace FNV fold — same inputs, same
//!   ring, on every host and in every same-seed replay.
//! - **Order-independent**: membership is a set; listing workers in any
//!   order builds bit-identical state (point collisions, should they ever
//!   happen, keep the smaller worker id).
//! - **Minimal remap**: a ring without one worker only reassigns the keys
//!   that worker owned — everything else keeps its owner, which is exactly
//!   the property `tests/cache_distribution.rs` pins with a proptest.

use std::collections::{BTreeMap, BTreeSet};

use crate::metrics::Fnv;
use crate::rng::mix64;

/// Virtual nodes per worker when callers have no reason to choose: enough
/// that a four-worker fleet stays within a few percent of even shares,
/// small enough that a 32-worker ring is ~2k points.
pub const DEFAULT_VNODES: u32 = 64;

/// Ring seed used when callers have no reason to choose. Every consumer
/// that must agree on ownership (scan scheduler, fragment-cache migration)
/// uses this default.
pub const DEFAULT_RING_SEED: u64 = 0x5EED_0F1E_1D5E;

/// A seeded, deterministic, virtual-node consistent-hash ring over worker
/// ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    seed: u64,
    vnodes: u32,
    /// point on the circle → owning worker.
    points: BTreeMap<u64, u32>,
    workers: BTreeSet<u32>,
}

impl HashRing {
    /// A ring over `workers` (duplicates are fine). `vnodes` is clamped to
    /// at least 1.
    pub fn with_workers(
        seed: u64,
        vnodes: u32,
        workers: impl IntoIterator<Item = u32>,
    ) -> HashRing {
        let mut ring = HashRing {
            seed,
            vnodes: vnodes.max(1),
            points: BTreeMap::new(),
            workers: BTreeSet::new(),
        };
        for w in workers {
            ring.insert(w);
        }
        ring
    }

    /// [`HashRing::with_workers`] under the workspace defaults
    /// ([`DEFAULT_RING_SEED`], [`DEFAULT_VNODES`]) — what the scheduler and
    /// cache migration build.
    pub fn with_workers_default(workers: impl IntoIterator<Item = u32>) -> HashRing {
        HashRing::with_workers(DEFAULT_RING_SEED, DEFAULT_VNODES, workers)
    }

    /// The position of one of `worker`'s virtual nodes on the circle.
    fn vnode_point(&self, worker: u32, replica: u32) -> u64 {
        mix64(self.seed ^ mix64((u64::from(worker) << 32) | u64::from(replica)))
    }

    /// The position a key hashes to on the circle.
    fn key_point(&self, key: &str) -> u64 {
        let mut h = Fnv::new();
        h.write_str(key);
        mix64(self.seed ^ h.finish())
    }

    /// Add a worker's virtual nodes (a no-op if it is already on the ring).
    fn insert(&mut self, worker: u32) {
        if !self.workers.insert(worker) {
            return;
        }
        for replica in 0..self.vnodes {
            let point = self.vnode_point(worker, replica);
            // On the (astronomically unlikely) collision, the smaller id
            // keeps the point — a rule of the *values*, not the insertion
            // order, so membership order never changes the ring.
            self.points
                .entry(point)
                .and_modify(|w| {
                    if worker < *w {
                        *w = worker;
                    }
                })
                .or_insert(worker);
        }
    }

    /// The worker that owns `key`: the first virtual node at or clockwise
    /// of the key's point. `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<u32> {
        let point = self.key_point(key);
        self.points.range(point..).next().or_else(|| self.points.iter().next()).map(|(_, &w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/warehouse/t/part-{i}")).collect()
    }

    #[test]
    fn owner_is_deterministic_and_membership_order_independent() {
        let a = HashRing::with_workers(7, DEFAULT_VNODES, [0, 1, 2, 3]);
        let b = HashRing::with_workers(7, DEFAULT_VNODES, [3, 1, 0, 2, 1]);
        assert_eq!(a, b);
        for k in keys(200) {
            assert_eq!(a.owner(&k), b.owner(&k));
            assert!(a.owner(&k).is_some());
        }
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = HashRing::with_workers(DEFAULT_RING_SEED, DEFAULT_VNODES, [0, 1, 2, 3]);
        let mut counts = [0usize; 4];
        for k in keys(4000) {
            counts[ring.owner(&k).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 600, "expected a rough quarter of 4000, got {counts:?}");
        }
    }

    #[test]
    fn removing_a_worker_only_remaps_its_own_keys() {
        let full = HashRing::with_workers(11, DEFAULT_VNODES, 0..8);
        let without = HashRing::with_workers(11, DEFAULT_VNODES, (0..8).filter(|w| *w != 5));
        for k in keys(2000) {
            let before = full.owner(&k).unwrap();
            if before != 5 {
                assert_eq!(without.owner(&k), Some(before), "{k} moved without cause");
            } else {
                assert_ne!(without.owner(&k), Some(5));
            }
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::with_workers(1, 8, []);
        assert_eq!(ring.owner("/x"), None);
    }

    #[test]
    fn different_seeds_disagree() {
        let a = HashRing::with_workers(1, DEFAULT_VNODES, 0..8);
        let b = HashRing::with_workers(2, DEFAULT_VNODES, 0..8);
        let moved = keys(1000).iter().filter(|k| a.owner(k) != b.owner(k)).count();
        assert!(moved > 500, "seeds must shuffle ownership, moved {moved}");
    }
}
