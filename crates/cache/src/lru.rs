//! A small thread-safe LRU cache used by the worker-side caches.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

struct Inner<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    tick: u64,
    capacity: usize,
}

/// Thread-safe LRU cache with entry-count capacity. Values are shared via
/// `Arc` so hits avoid cloning payloads. Cloning the cache shares it.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    inner: Arc<Mutex<Inner<K, V>>>,
}

impl<K: Eq + Hash + Clone, V> Clone for LruCache<K, V> {
    fn clone(&self) -> Self {
        LruCache { inner: self.inner.clone() }
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
            })),
        }
    }

    /// Look up a key, refreshing its recency.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|(v, used)| {
            *used = tick;
            v.clone()
        })
    }

    /// Insert a value, evicting the least recently used entry when full.
    pub fn put(&self, key: K, value: Arc<V>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            // Evict the stalest entry. Linear scan is fine at the capacities
            // these caches run with (hundreds to a few thousand entries).
            if let Some(victim) =
                inner.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(key, (value, tick));
    }

    /// Remove one entry.
    pub fn invalidate(&self, key: &K) {
        self.inner.lock().map.remove(key);
    }

    /// Snapshot of every entry, without touching recency.
    ///
    /// The order is the backing map's iteration order and therefore
    /// unspecified — callers that need a stable order (e.g. deterministic
    /// cache migration on worker decommission) must sort by key.
    pub fn entries(&self) -> Vec<(K, Arc<V>)> {
        self.inner.lock().map.iter().map(|(k, (v, _))| (k.clone(), v.clone())).collect()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_and_capacity_eviction() {
        let cache: LruCache<&str, i32> = LruCache::new(2);
        cache.put("a", Arc::new(1));
        cache.put("b", Arc::new(2));
        assert_eq!(*cache.get(&"a").unwrap(), 1);
        // "b" is now least recently used; inserting "c" evicts it
        cache.put("c", Arc::new(3));
        assert!(cache.get(&"b").is_none());
        assert_eq!(*cache.get(&"a").unwrap(), 1);
        assert_eq!(*cache.get(&"c").unwrap(), 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache: LruCache<&str, i32> = LruCache::new(1);
        cache.put("a", Arc::new(1));
        cache.put("a", Arc::new(2));
        assert_eq!(*cache.get(&"a").unwrap(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_removes_one_entry() {
        let cache: LruCache<String, i32> = LruCache::new(4);
        cache.put("x".into(), Arc::new(1));
        cache.put("y".into(), Arc::new(2));
        cache.invalidate(&"x".to_string());
        assert!(cache.get(&"x".to_string()).is_none());
        assert_eq!(*cache.get(&"y".to_string()).unwrap(), 2);
    }

    #[test]
    fn shared_across_clones_and_threads() {
        let cache: LruCache<u32, u32> = LruCache::new(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..16 {
                        c.put(t * 16 + i, Arc::new(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.len(), 64);
    }
}
