//! Fragment result cache (§VII).
//!
//! [`FragmentResultCache`] is a **worker-side** cache of the pages a leaf
//! fragment produced for one (fragment, split) pair. Dashboards re-issue
//! the same scan shapes against the same sealed splits all day; a hit
//! skips the connector entirely.
//!
//! The cache is only useful while a split keeps landing on the worker that
//! holds its result. That is the cluster's job, not this module's: the
//! scan scheduler places splits on a `presto_common::HashRing` over its
//! worker snapshot (§VII affinity scheduling), and a graceful drain copies
//! the departing worker's entries to the owners a survivors-only ring
//! assigns ([`FragmentResultCache::entries`] / [`FragmentResultCache::put`]).
//!
//! A page shares its columns, so a put, a hit and a migrated entry hold the
//! scan's own columns: none of them copies data.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use presto_common::metrics::{names, CounterSet, Fnv};
use presto_common::Page;

use crate::lru::LruCache;

/// Cache key: a fingerprint of the fragment's plan (including every pushdown
/// in its scan request) plus the identity of the split it ran over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentKey {
    /// Fingerprint of the fragment plan (pushdowns included — two queries
    /// only share results if their pushed-down scans are identical).
    pub plan_fingerprint: u64,
    /// Split identity (e.g. the file path for a Hive split).
    pub split_identity: String,
}

/// Worker-side cache of leaf-fragment results.
///
/// Counters: `frc.hits`, `frc.misses`. Cloning shares the cache.
#[derive(Clone)]
pub struct FragmentResultCache {
    cache: LruCache<FragmentKey, Vec<Page>>,
    metrics: CounterSet,
}

impl FragmentResultCache {
    /// Cache holding at most `capacity` fragment results.
    pub fn new(capacity: usize, metrics: CounterSet) -> FragmentResultCache {
        FragmentResultCache { cache: LruCache::new(capacity), metrics }
    }

    /// Look up a (fragment, split) result.
    pub fn get(&self, key: &FragmentKey) -> Option<Arc<Vec<Page>>> {
        match self.cache.get(key) {
            Some(hit) => {
                self.metrics.incr(names::FRC_HITS);
                Some(hit)
            }
            None => {
                self.metrics.incr(names::FRC_MISSES);
                None
            }
        }
    }

    /// Store a (fragment, split) result. Only cache *sealed* data — the
    /// caller decides (open partitions must bypass, like §VII.A's file
    /// lists).
    pub fn put(&self, key: FragmentKey, pages: Vec<Page>) {
        self.cache.put(key, Arc::new(pages));
    }

    /// Snapshot of every cached entry, sorted by key (fingerprint, then
    /// split), so iteration is deterministic.
    pub fn entries(&self) -> Vec<(FragmentKey, Arc<Vec<Page>>)> {
        self.cache.entries()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Canonical FNV fold of the resident entries, in key order. Entries are
    /// represented by key + page count — enough to catch divergent
    /// placement or eviction between two same-seed runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        let entries = self.entries();
        h.write(entries.len() as u64);
        for (key, pages) in entries {
            h.write(key.plan_fingerprint);
            h.write_str(&key.split_identity);
            h.write(pages.len() as u64);
        }
        h.finish()
    }
}

/// Stable hash helper for fingerprints.
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::Block;

    fn sample_pages() -> Vec<Page> {
        vec![Page::new(vec![Block::bigint(vec![1, 2, 3])]).unwrap()]
    }

    #[test]
    fn hit_after_put_miss_before() {
        let cache = FragmentResultCache::new(16, CounterSet::new());
        let key = FragmentKey { plan_fingerprint: 42, split_identity: "/t/part-0".into() };
        assert!(cache.get(&key).is_none());
        cache.put(key.clone(), sample_pages());
        let hit = cache.get(&key).unwrap();
        assert_eq!(hit[0].positions(), 3);
        assert_eq!(cache.metrics().get(names::FRC_HITS), 1);
        assert_eq!(cache.metrics().get(names::FRC_MISSES), 1);
    }

    #[test]
    fn different_pushdowns_never_share_results() {
        let cache = FragmentResultCache::new(16, CounterSet::new());
        let a = FragmentKey { plan_fingerprint: 1, split_identity: "/t/part-0".into() };
        let b = FragmentKey { plan_fingerprint: 2, split_identity: "/t/part-0".into() };
        cache.put(a.clone(), sample_pages());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&a).is_some());
    }

    #[test]
    fn entries_are_sorted_and_a_migrated_entry_shares_its_columns() {
        let cache = FragmentResultCache::new(16, CounterSet::new());
        let b = FragmentKey { plan_fingerprint: 2, split_identity: "/t/part-0".into() };
        let a = FragmentKey { plan_fingerprint: 1, split_identity: "/t/part-9".into() };
        let a2 = FragmentKey { plan_fingerprint: 1, split_identity: "/t/part-1".into() };
        cache.put(b.clone(), sample_pages());
        cache.put(a.clone(), sample_pages());
        cache.put(a2.clone(), sample_pages());
        let keys: Vec<FragmentKey> = cache.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![a2, a.clone(), b]);

        let successor = FragmentResultCache::new(16, CounterSet::new());
        let pages = cache.get(&a).unwrap();
        successor.put(a.clone(), pages.as_ref().clone());
        let migrated = successor.get(&a).unwrap();
        assert!(Arc::ptr_eq(migrated[0].column(0), pages[0].column(0)));
    }
}
