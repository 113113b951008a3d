//! The memory pool hierarchy: one cluster-level [`MemoryPool`] parceled out
//! to per-query [`QueryPool`]s, with RAII [`Reservation`] guards.
//!
//! §XII.C of the paper: interactive Presto gives each query a slice of a
//! fixed cluster memory pool; exceeding the per-query slice raises the
//! `"Insufficient Resource"` error, and exhausting the *cluster* pool wakes
//! the OOM arbiter, which (a) asks holders of *revocable* memory (hash
//! tables, sort buffers — state an operator can spill) to release it, and
//! (b) failing that, kills the single largest query so everyone else makes
//! progress.
//!
//! Accounting is done in `u128` so an unbudgeted session may reserve
//! near-`usize::MAX` without overflow (the legacy context API allowed it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use presto_common::sync::{Condvar, Mutex, Rank};
use presto_common::{PrestoError, Result};

/// What a reservation holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationKind {
    /// Memory attributed to user data (join builds, aggregation groups).
    User,
    /// Bookkeeping overhead (hash-table buckets, sort index vectors).
    System,
    /// Memory the owning operator can spill on request. Only revocable
    /// memory lets the arbiter avoid killing queries.
    Revocable,
}

/// Per-query flags the arbiter flips; checked lock-free on the hot path.
#[derive(Debug, Default)]
struct QueryFlags {
    killed: AtomicBool,
    revoke_requested: AtomicBool,
}

/// Per-query accounting inside the pool lock.
struct QuerySlot {
    total: u128,
    revocable: u128,
    peak: u128,
    flags: Arc<QueryFlags>,
}

struct PoolState {
    used: u128,
    /// Keyed by query id. A BTreeMap, not a HashMap: the OOM arbiter and
    /// the revoke arbiter pick victims with `max_by_key` over this map, and
    /// ties must break the same way on every same-seed run (highest query
    /// id wins) or the set of killed queries diverges between replays.
    queries: BTreeMap<u64, QuerySlot>,
}

struct PoolInner {
    budget: Option<u128>,
    state: Mutex<PoolState>,
    freed: Condvar,
    next_query: AtomicU64,
}

/// How long one arbiter wait round lasts and how many rounds we tolerate
/// before giving up on a victim unwinding.
const WAIT_STEP: Duration = Duration::from_millis(5);
const WAIT_ROUNDS: usize = 400;

/// The cluster-level pool. Cloning shares the pool.
#[derive(Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl MemoryPool {
    /// A pool capped at `budget` bytes (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> MemoryPool {
        MemoryPool {
            inner: Arc::new(PoolInner {
                budget: budget.map(|b| b as u128),
                state: Mutex::new(
                    Rank::MemoryPool,
                    PoolState { used: 0, queries: BTreeMap::new() },
                ),
                freed: Condvar::new(),
                next_query: AtomicU64::new(0),
            }),
        }
    }

    /// An unbounded pool (the default for standalone contexts).
    pub fn unbounded() -> MemoryPool {
        MemoryPool::new(None)
    }

    /// The cluster budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.inner.budget.map(|b| b.min(usize::MAX as u128) as usize)
    }

    /// Bytes currently reserved across all queries.
    pub fn used(&self) -> usize {
        self.inner.state.lock().used.min(usize::MAX as u128) as usize
    }

    /// Queries currently registered.
    pub fn query_count(&self) -> usize {
        self.inner.state.lock().queries.len()
    }

    /// Register a query with an optional per-query byte limit.
    pub fn register_query(&self, limit: Option<usize>) -> Arc<QueryPool> {
        let id = self.inner.next_query.fetch_add(1, Ordering::Relaxed);
        let flags = Arc::new(QueryFlags::default());
        self.inner
            .state
            .lock()
            .queries
            .insert(id, QuerySlot { total: 0, revocable: 0, peak: 0, flags: flags.clone() });
        Arc::new(QueryPool {
            parent: self.inner.clone(),
            id,
            limit: limit.map(|l| l as u128),
            flags,
        })
    }
}

impl std::fmt::Debug for MemoryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryPool")
            .field("budget", &self.budget())
            .field("used", &self.used())
            .finish()
    }
}

/// One query's slice of the cluster pool.
pub struct QueryPool {
    parent: Arc<PoolInner>,
    id: u64,
    limit: Option<u128>,
    flags: Arc<QueryFlags>,
}

impl QueryPool {
    /// This query's id within the pool.
    pub fn query_id(&self) -> u64 {
        self.id
    }

    /// The per-query limit, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit.map(|l| l.min(usize::MAX as u128) as usize)
    }

    /// Has the OOM arbiter killed this query?
    pub fn is_killed(&self) -> bool {
        self.flags.killed.load(Ordering::Relaxed)
    }

    /// Has the arbiter asked this query to spill its revocable memory?
    pub fn revoke_requested(&self) -> bool {
        self.flags.revoke_requested.load(Ordering::Relaxed)
    }

    /// Error out if the arbiter killed this query — operators call this at
    /// page boundaries so a victim unwinds promptly and frees its memory.
    pub fn check_killed(&self) -> Result<()> {
        if self.is_killed() {
            let state = self.parent.state.lock();
            return Err(self.killed_error(&state));
        }
        Ok(())
    }

    /// Bytes this query currently holds.
    pub fn reserved(&self) -> usize {
        let state = self.parent.state.lock();
        state.queries.get(&self.id).map(|s| s.total.min(usize::MAX as u128) as usize).unwrap_or(0)
    }

    /// High-water mark of this query's reservations.
    pub fn peak(&self) -> usize {
        let state = self.parent.state.lock();
        state.queries.get(&self.id).map(|s| s.peak.min(usize::MAX as u128) as usize).unwrap_or(0)
    }

    /// Take an RAII reservation of `bytes`. Dropping the guard releases it.
    pub fn reserve(self: &Arc<Self>, bytes: usize, kind: ReservationKind) -> Result<Reservation> {
        self.try_reserve(bytes, kind)?;
        Ok(Reservation { pool: self.clone(), kind, bytes })
    }

    /// The raw reservation behind a [`Reservation`] guard.
    fn try_reserve(&self, bytes: usize, kind: ReservationKind) -> Result<()> {
        let bytes = bytes as u128;
        let mut state = self.parent.state.lock();
        let mut rounds = 0usize;
        loop {
            if self.flags.killed.load(Ordering::Relaxed) {
                return Err(self.killed_error(&state));
            }
            let slot = state
                .queries
                .get(&self.id)
                .ok_or_else(|| PrestoError::Internal("query not registered in pool".into()))?;
            let total = slot.total + bytes;
            if let Some(limit) = self.limit {
                if total > limit {
                    return Err(PrestoError::InsufficientResources(format!(
                        "Insufficient Resource: query requires {total} bytes of memory, \
                         budget is {limit} bytes (consider running this query on Spark/Hive)"
                    )));
                }
            }
            // `Some(budget)` exactly when the cluster pool cannot take
            // `bytes` more — carrying the budget into the arbiter branch
            // avoids re-unwrapping it there.
            let over_cluster = match self.parent.budget {
                Some(budget) if state.used + bytes > budget => Some(budget),
                _ => None,
            };
            let Some(budget) = over_cluster else {
                let slot = state.queries.get_mut(&self.id).ok_or_else(|| {
                    PrestoError::Internal(format!(
                        "query {} vanished from the memory pool mid-reservation",
                        self.id
                    ))
                })?;
                slot.total += bytes;
                slot.peak = slot.peak.max(slot.total);
                if kind == ReservationKind::Revocable {
                    slot.revocable += bytes;
                }
                state.used += bytes;
                return Ok(());
            };
            // ---- OOM arbiter (cluster pool exhausted) ----
            // 1. The requester itself holds revocable memory: tell it to
            //    spill (synchronously, by failing this reservation — the
            //    spill-capable operator retries after writing to disk).
            if slot.revocable > 0 {
                self.flags.revoke_requested.store(true, Ordering::Relaxed);
                return Err(PrestoError::InsufficientResources(format!(
                    "Insufficient Resource: cluster memory pool exhausted \
                     ({used} of {budget} bytes in use); query holds {rev} revocable bytes",
                    used = state.used,
                    rev = slot.revocable,
                )));
            }
            // 2. Someone else holds revocable memory: ask the biggest
            //    revocable holder to spill and wait for memory to free.
            let revocable_holder = state
                .queries
                .iter()
                .filter(|(qid, s)| **qid != self.id && s.revocable > 0)
                .max_by_key(|(_, s)| s.revocable)
                .map(|(_, s)| s.flags.clone());
            if let Some(holder) = revocable_holder {
                holder.revoke_requested.store(true, Ordering::Relaxed);
            } else {
                // 3. Nothing revocable anywhere: kill the largest query.
                let (victim_id, victim_flags, victim_total) = {
                    let Some((qid, s)) = state.queries.iter().max_by_key(|(_, s)| s.total) else {
                        return Err(PrestoError::Internal(format!(
                            "query {}: OOM arbiter ran with no queries registered in the pool",
                            self.id
                        )));
                    };
                    (*qid, s.flags.clone(), s.total)
                };
                victim_flags.killed.store(true, Ordering::Relaxed);
                if victim_id == self.id {
                    return Err(self.killed_error(&state));
                }
                let _ = victim_total;
            }
            // Wait for the spiller/victim to free memory, then retry.
            rounds += 1;
            if rounds > WAIT_ROUNDS {
                return Err(PrestoError::InsufficientResources(format!(
                    "Insufficient Resource: cluster memory pool exhausted \
                     ({used} of {budget} bytes in use) and no memory was freed",
                    used = state.used,
                )));
            }
            self.parent.freed.wait_for(&mut state, WAIT_STEP);
        }
    }

    fn killed_error(&self, state: &PoolState) -> PrestoError {
        let held = state.queries.get(&self.id).map(|s| s.total).unwrap_or(0);
        let budget = self.parent.budget.unwrap_or(0);
        PrestoError::ExceededMemoryLimit(format!(
            "Query exceeded memory limit: killed by the OOM arbiter as the largest query \
             ({held} bytes reserved) with the cluster pool ({used} of {budget} bytes) \
             exhausted and nothing revocable",
            used = state.used,
        ))
    }

    /// Return a [`Reservation`] guard's bytes.
    fn release(&self, bytes: usize, kind: ReservationKind) {
        let bytes = bytes as u128;
        let mut state = self.parent.state.lock();
        if let Some(slot) = state.queries.get_mut(&self.id) {
            let freed = bytes.min(slot.total);
            slot.total -= freed;
            if kind == ReservationKind::Revocable {
                slot.revocable -= bytes.min(slot.revocable);
                if slot.revocable == 0 {
                    self.flags.revoke_requested.store(false, Ordering::Relaxed);
                }
            }
            state.used -= freed.min(state.used);
        }
        drop(state);
        self.parent.freed.notify_all();
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        let mut state = self.parent.state.lock();
        if let Some(slot) = state.queries.remove(&self.id) {
            state.used -= slot.total.min(state.used);
        }
        drop(state);
        self.parent.freed.notify_all();
    }
}

impl std::fmt::Debug for QueryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPool")
            .field("id", &self.id)
            .field("limit", &self.limit())
            .field("reserved", &self.reserved())
            .finish()
    }
}

/// An RAII memory reservation. Dropping it returns the bytes to the pool —
/// including on early-error unwinds, which is the whole point: a paired
/// reserve / release call leaks on a `?` return between the two.
pub struct Reservation {
    pool: Arc<QueryPool>,
    kind: ReservationKind,
    bytes: usize,
}

impl Reservation {
    /// Reserve `delta` more bytes on top of this guard.
    pub fn grow(&mut self, delta: usize) -> Result<()> {
        self.pool.try_reserve(delta, self.kind)?;
        self.bytes += delta;
        Ok(())
    }

    /// Bytes this guard holds.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Release everything now (spill paths free memory mid-operator while
    /// keeping the guard alive for the rebuild).
    pub fn release_all(&mut self) {
        if self.bytes > 0 {
            self.pool.release(self.bytes, self.kind);
            self.bytes = 0;
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.release_all();
    }
}

impl std::fmt::Debug for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation").field("kind", &self.kind).field("bytes", &self.bytes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_raii_release() {
        let pool = MemoryPool::new(Some(1000));
        let q = pool.register_query(None);
        {
            let mut r = q.reserve(300, ReservationKind::User).unwrap();
            r.grow(200).unwrap();
            assert_eq!(q.reserved(), 500);
            assert_eq!(pool.used(), 500);
        }
        assert_eq!(q.reserved(), 0);
        assert_eq!(pool.used(), 0);
        assert_eq!(q.peak(), 500);
    }

    #[test]
    fn per_query_budget_keeps_paper_message() {
        let pool = MemoryPool::unbounded();
        let q = pool.register_query(Some(100));
        let err = q.try_reserve(101, ReservationKind::User).unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
        assert!(err.message().contains("Insufficient Resource"), "{err}");
        assert!(err.message().contains("budget is 100 bytes"), "{err}");
        assert_eq!(q.reserved(), 0, "failed reservation rolled back");
    }

    #[test]
    fn unbudgeted_huge_reservation_survives() {
        let pool = MemoryPool::unbounded();
        let q = pool.register_query(None);
        q.try_reserve(usize::MAX / 2, ReservationKind::User).unwrap();
        q.try_reserve(usize::MAX / 2, ReservationKind::User).unwrap();
        q.release(usize::MAX / 2, ReservationKind::User);
        q.release(usize::MAX / 2, ReservationKind::User);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn requester_with_revocable_memory_is_told_to_spill() {
        let pool = MemoryPool::new(Some(100));
        let q = pool.register_query(None);
        let _rev = q.reserve(80, ReservationKind::Revocable).unwrap();
        let err = q.try_reserve(50, ReservationKind::User).unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
        assert!(err.message().contains("revocable"), "{err}");
        assert!(q.revoke_requested());
    }

    #[test]
    fn other_holders_get_revoke_requests() {
        let pool = MemoryPool::new(Some(100));
        let spiller = pool.register_query(None);
        let mut held = spiller.reserve(90, ReservationKind::Revocable).unwrap();
        let asker = pool.register_query(None);

        let spiller2 = spiller.clone();
        let waiter = std::thread::spawn(move || asker.try_reserve(50, ReservationKind::User));
        // the arbiter flags the revocable holder; simulate its spill
        for _ in 0..200 {
            if spiller2.revoke_requested() {
                break;
            }
            #[allow(clippy::disallowed_methods, reason = "the test polls the arbiter thread")]
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(spiller2.revoke_requested());
        held.release_all();
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn arbiter_kills_the_largest_query() {
        let pool = MemoryPool::new(Some(100));
        let big = pool.register_query(None);
        let small = pool.register_query(None);
        let _big_held = big.reserve(80, ReservationKind::User).unwrap();
        let _small_held = small.reserve(10, ReservationKind::User).unwrap();

        // small wants more than what's left; nothing is revocable → the
        // arbiter kills `big` (the largest), and small proceeds once big's
        // memory frees.
        let big2 = big.clone();
        let killer = std::thread::spawn(move || small.try_reserve(40, ReservationKind::User));
        for _ in 0..200 {
            if big2.is_killed() {
                break;
            }
            #[allow(clippy::disallowed_methods, reason = "the test polls the arbiter thread")]
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(big2.is_killed());
        // the killed query's next reservation fails with the structured error
        let err = big2.try_reserve(1, ReservationKind::User).unwrap_err();
        assert_eq!(err.code(), "EXCEEDED_MEMORY_LIMIT");
        // ... and unwinding (dropping its reservations) unblocks the waiter
        drop(_big_held);
        killer.join().unwrap().unwrap();
    }

    #[test]
    fn largest_requester_kills_itself() {
        let pool = MemoryPool::new(Some(100));
        let q = pool.register_query(None);
        let _held = q.reserve(90, ReservationKind::User).unwrap();
        let err = q.try_reserve(50, ReservationKind::User).unwrap_err();
        assert_eq!(err.code(), "EXCEEDED_MEMORY_LIMIT");
        assert!(q.is_killed());
    }

    #[test]
    fn query_drop_frees_everything() {
        let pool = MemoryPool::new(Some(100));
        let q = pool.register_query(None);
        q.try_reserve(60, ReservationKind::User).unwrap();
        assert_eq!(pool.used(), 60);
        drop(q);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.query_count(), 0);
    }
}
