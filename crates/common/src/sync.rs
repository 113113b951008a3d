//! Ranked locks. Two threads deadlock only if they take two locks in
//! opposite orders; every lock here has a [`Rank`], and a thread takes
//! locks in increasing rank order only, so no opposite order exists.
//!
//! In builds with `debug_assertions` (every `cargo test`), `lock`, `read`
//! and `write` panic, before blocking, if the thread already holds a lock
//! of equal or higher rank: an inverted pair fails on the first path that
//! takes it, and so does a second guard on one lock. Release builds
//! compile the check out and lock exactly as `parking_lot` does.
#![allow(
    clippy::disallowed_types,
    reason = "the ranked wrappers are the one place the unranked locks appear"
)]

use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub use parking_lot::WaitTimeoutResult;

macro_rules! ranks {
    ($( $(#[$doc:meta])* $rank:ident, )*) => {
        /// Every lock in the workspace, in acquisition order: a thread that
        /// holds a lock may only take locks declared *below* it here.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Rank {
            $( $(#[$doc])* $rank, )*
        }

        impl Rank {
            /// Every rank, outermost first.
            pub const ALL: &'static [Rank] = &[$(Rank::$rank),*];
        }
    };
}

ranks! {
    /// `PrestoGateway::clusters`: routing reads a cluster list, then asks
    /// the MySQL-backed routing table.
    GatewayClusters,
    /// `Autoscaler::state`: an evaluation reads the fleet under its state.
    AutoscalerState,
    /// `PrestoCluster::fragment_caches`: cache expansion, migration and the
    /// tick walk workers and their caches under it.
    ClusterFragmentCaches,
    /// `PrestoCluster::sampler`: a telemetry sample reads worker states.
    ClusterSampler,
    /// `PrestoCluster::pending_drains`.
    ClusterPendingDrains,
    /// `PrestoCluster::runtime_history`.
    ClusterRuntimeHistory,
    /// `PrestoCluster::workers`: the fleet list, read before any worker.
    ClusterWorkers,
    /// `Worker::inner`: one worker's task queue and lifecycle.
    WorkerInner,
    /// `Worker::health`: one worker's failure streak.
    WorkerHealth,
    /// `CatalogManager::catalogs`.
    Catalogs,
    /// `HiveConnector::tables`: a write updates the table, then its
    /// generation and the file-list cache.
    HiveTables,
    /// `HiveConnector::write_generations`.
    HiveWriteGenerations,
    /// `HiveConnector::reader_config`.
    HiveReaderConfig,
    /// `MySqlConnector::tables`.
    MySqlTables,
    /// `MemoryConnector::tables`.
    MemoryTables,
    /// `RealtimeConnector::tables`.
    RealtimeTables,
    /// `RealtimeConnector::last_scan_costs`.
    RealtimeScanCosts,
    /// `FunctionRegistry::custom`: user-registered scalar functions.
    CustomFunctions,
    /// `FileListCache::cache`.
    FileListCache,
    /// `LruCache::inner`: the fragment-result and footer caches.
    LruCache,
    /// `S3ObjectStore::pending_multipart`: completing an upload moves its
    /// parts into the object map.
    S3PendingMultipart,
    /// `S3ObjectStore::objects`.
    S3Objects,
    /// `MemoryFileSystem::files`.
    MemoryFiles,
    /// `ExecContext::remote_sources`: exchange inputs of one task.
    RemoteSources,
    /// `MemoryPool`'s state: reservations by query.
    MemoryPool,
    /// `FaultInjector::state`.
    FaultInjector,
    /// `TelemetryRegistry::inner`: its digest folds the series and gauges.
    Telemetry,
    /// `Trace::inner`.
    Trace,
    /// `CounterSet`'s counters.
    Counters,
    /// `GaugeSet`'s gauges.
    Gauges,
    /// `TimeSeriesSet`'s series.
    TimeSeries,
    /// `HistogramSet`'s histograms.
    Histograms,
}

const _: () = assert!(Rank::ALL.len() <= 64, "the held set is a u64 bitmask");

/// Proof that the thread registered a lock of `rank`; dropping it
/// unregisters. Zero-sized, with no work to do, in release builds.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds a lock of rank `r`.
    static HELD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Held {
    #[cfg(debug_assertions)]
    #[track_caller]
    fn acquire(rank: Rank) -> Held {
        // the panic is outside the closure so `track_caller` names the caller
        let mask = HELD.with(std::cell::Cell::get);
        if mask >> rank as u32 != 0 {
            let holding: Vec<Rank> =
                Rank::ALL.iter().copied().filter(|r| mask >> *r as u32 & 1 == 1).collect();
            panic!("lock order: taking {rank:?} while holding {holding:?}");
        }
        HELD.with(|held| held.set(mask | 1 << rank as u32));
        Held { rank }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn acquire(_rank: Rank) -> Held {
        Held {}
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard may outlive the thread-local during thread exit
        let _ = HELD.try_with(|held| held.set(held.get() & !(1 << self.rank as u32)));
    }
}

/// A `parking_lot` lock `L` with a [`Rank`]; use it as [`Mutex`] or
/// [`RwLock`].
#[derive(Debug)]
pub struct Ranked<L> {
    rank: Rank,
    lock: L,
}

/// A mutual-exclusion lock with a [`Rank`].
pub type Mutex<T> = Ranked<parking_lot::Mutex<T>>;
/// A readers-writer lock with a [`Rank`].
pub type RwLock<T> = Ranked<parking_lot::RwLock<T>>;

/// A `parking_lot` guard `G` that releases its rank on drop (after `G`
/// unlocks).
pub struct Guard<G> {
    guard: G,
    _held: Held,
}

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = Guard<parking_lot::MutexGuard<'a, T>>;
/// Shared guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = Guard<parking_lot::RwLockReadGuard<'a, T>>;
/// Exclusive guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = Guard<parking_lot::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<T> Mutex<T> {
    /// A mutex of `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Mutex<T> {
        Ranked { rank, lock: parking_lot::Mutex::new(value) }
    }

    /// Acquire the lock (debug builds first assert the rank order).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::acquire(self.rank);
        Guard { guard: self.lock.lock(), _held: held }
    }

    /// Mutable access through `&mut self`: no other thread can hold it.
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut()
    }
}

impl<T> RwLock<T> {
    /// A readers-writer lock of `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> RwLock<T> {
        Ranked { rank, lock: parking_lot::RwLock::new(value) }
    }

    /// Acquire a shared lock (debug builds first assert the rank order; a
    /// second `read` of a lock the thread already holds is refused).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = Held::acquire(self.rank);
        Guard { guard: self.lock.read(), _held: held }
    }

    /// Acquire the exclusive lock (debug builds first assert the rank order).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held::acquire(self.rank);
        Guard { guard: self.lock.write(), _held: held }
    }
}

/// A condition variable that waits on a ranked [`MutexGuard`]. The guard's
/// rank stays registered across the wait: the thread is parked, and it
/// holds the lock again when the wait returns.
#[derive(Debug, Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Condvar {
        Condvar(parking_lot::Condvar::new())
    }

    /// Release `guard`'s lock, block until notified or `timeout` elapses,
    /// then reacquire it.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.0.wait_for(&mut guard.guard, timeout)
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The two halves of a seeded deadlock: a scheduler taking its queue
    // then the pool's memory, and the pool taking them the other way round.
    struct Scheduler {
        queue: Mutex<Vec<u32>>,
    }

    struct Pool {
        mem: Mutex<u64>,
    }

    fn pair() -> (Scheduler, Pool) {
        (
            Scheduler { queue: Mutex::new(Rank::WorkerInner, Vec::new()) },
            Pool { mem: Mutex::new(Rank::MemoryPool, 0) },
        )
    }

    #[test]
    fn ranked_order_passes_and_guards_release_their_rank() {
        let (sched, pool) = pair();
        for _ in 0..2 {
            let q = sched.queue.lock();
            let m = pool.mem.lock();
            drop(m);
            drop(q);
        }
        // after both guards drop, the lower rank is free to take again
        let rw = RwLock::new(Rank::Counters, 1);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 2);
        assert_eq!(*pool.mem.lock(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: taking WorkerInner while holding [MemoryPool]")]
    fn an_inverted_pair_panics() {
        let (sched, pool) = pair();
        let m = pool.mem.lock();
        let q = sched.queue.lock();
        drop(q);
        drop(m);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: taking Counters while holding [Counters]")]
    fn a_reentrant_read_panics() {
        let rw = RwLock::new(Rank::Counters, 0);
        let first = rw.read();
        let second = rw.read();
        assert_eq!(*first, *second);
    }

    #[test]
    fn condvar_waits_on_a_ranked_guard() {
        let lock = Mutex::new(Rank::MemoryPool, 0u32);
        let freed = Condvar::new();
        let mut state = lock.lock();
        assert!(freed.wait_for(&mut state, Duration::from_millis(1)).timed_out());
        *state += 1;
        drop(state);
        assert_eq!(*lock.lock(), 1);
    }
}
