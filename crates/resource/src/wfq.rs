//! Virtual-time weighted fair queuing across tenants, inside priority lanes.
//!
//! [`QueryPriority`] lanes solve one §XII problem — dashboards must not
//! wait behind batch — but inside a FIFO lane one tenant submitting
//! thousands of queries (the Zipf head of a multi-tenant cluster) starves
//! every light tenant in the same lane. [`WfqScheduler`] fixes that with *start-time fair
//! queuing*: each query is stamped with a virtual finish tag
//! `start + cost / weight`, where `start` chains per tenant
//! (`max(global virtual time, tenant's last finish)`), and dispatch
//! always serves the earliest finish tag in the most urgent lane.
//! A tenant's backlog therefore advances its own tags far into the
//! virtual future while a fresh light tenant's first query is tagged at
//! the current virtual time and jumps the backlog.
//!
//! **Fairness invariant** (checked by the simulator's property tests): the
//! virtual finish tag of the query being served never leads the global
//! virtual time by more than one *weighted quantum* — the largest cost
//! seen so far divided by the tenant's weight. No tenant gets more than
//! one quantum of service ahead of a backlogged competitor.
//!
//! Everything here is integer arithmetic on deterministic inputs, so a
//! schedule is a pure function of the push/pop sequence: same workload,
//! same dispatch order, on every host.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Scheduling lane for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryPriority {
    /// Scheduled / batch work: waits behind interactive traffic.
    #[default]
    Normal,
    /// Interactive traffic (dashboards): drains first.
    High,
    /// Best-effort background work: drains last, and the only lane a
    /// blacklisted worker on probation is allowed to serve.
    Low,
}

/// Virtual-time units per microsecond of cost at weight 1. The scale
/// keeps integer division by the weight from rounding small costs to 0.
const VIRTUAL_SCALE: u64 = 1024;

/// Burst allowance, in per-tenant strides (a stride is `cost / weight` in
/// virtual units). A tenant's first few queued queries keep fresh tags —
/// a short burst is served like independent arrivals, the way a
/// token-bucket regulator forgives σ of burst — and only a backlog deeper
/// than this chains into the virtual future and gets deferred behind
/// lighter tenants. Without the allowance, per-tenant fairness punishes
/// every 3-query burst as if it were a flood, and a batch tenant's p99
/// balloons past what a plain FIFO would have given it.
const BURST_ALLOWANCE_STRIDES: u64 = 5;

/// One query waiting for a dispatch slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedQuery {
    /// Tenant (fair-queuing flow) the query belongs to.
    pub tenant: u32,
    /// Priority lane (drains strictly before less urgent lanes).
    pub lane: QueryPriority,
    /// Opaque payload — the simulator's query index.
    pub item: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct TenantState {
    weight: u64,
    /// Virtual finish tag of the tenant's most recently *tagged* query
    /// (the end of its backlog in virtual time).
    last_finish: u64,
    /// Virtual finish tag of the tenant's most recently *served* query.
    served_finish: u64,
    queued: usize,
}

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    /// (lane rank, virtual finish tag, push sequence) — the dispatch key.
    key: (u8, u64, u64),
    start: u64,
    query: QueuedQuery,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Weighted fair queue: earliest virtual finish tag within the most
/// urgent non-empty lane wins.
#[derive(Debug, Default)]
pub struct WfqScheduler {
    heap: BinaryHeap<Reverse<Entry>>,
    tenants: BTreeMap<u32, TenantState>,
    vtime: u64,
    seq: u64,
    max_cost_us: u64,
}

impl WfqScheduler {
    /// An empty scheduler.
    pub fn new() -> WfqScheduler {
        WfqScheduler::default()
    }

    /// Enqueue one query for `tenant` with the given lane, estimated cost
    /// (virtual µs of service) and fair-share weight (≥ 1; a heavier
    /// weight means a larger share). The weight sticks to the tenant: the
    /// first push fixes it, later pushes reuse it — re-weighting mid-flight
    /// would invalidate the finish tags of queries already queued.
    pub fn push(&mut self, tenant: u32, weight: u64, lane: QueryPriority, cost_us: u64, item: u64) {
        self.max_cost_us = self.max_cost_us.max(cost_us);
        let state = self
            .tenants
            .entry(tenant)
            .or_insert_with(|| TenantState { weight: weight.max(1), ..TenantState::default() });
        let weight = state.weight;
        let stride = cost_us.saturating_mul(VIRTUAL_SCALE) / weight;
        // the chain accumulates the tenant's full backlog in virtual time…
        let chained = self.vtime.max(state.last_finish) + stride;
        state.last_finish = chained;
        // …but the dispatch tag forgives a burst-allowance of it: only
        // backlog deeper than the allowance is deferred past fresh tags
        let finish = (self.vtime + stride)
            .max(chained.saturating_sub(BURST_ALLOWANCE_STRIDES.saturating_mul(stride)));
        let start = finish - stride;
        state.queued += 1;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            key: (lane_rank(lane), finish, self.seq),
            start,
            query: QueuedQuery { tenant, lane, item },
        }));
    }

    /// Dispatch the next query: most urgent lane first, earliest virtual
    /// finish tag within it, push order as the tie-break. Advances the
    /// global virtual time to the served query's start tag.
    pub fn pop(&mut self) -> Option<QueuedQuery> {
        self.pop_if(|_| true)
    }

    /// Dispatch the virtual-time head *only if its resource demand fits*
    /// (`fits` decides). A blocked head keeps its tags and its units
    /// accumulate — no query behind it in the same or a less urgent lane
    /// may jump it, which is what saves a wide batch query from being
    /// starved by an endless stream of small ones. But a *more urgent*
    /// lane sorts ahead of the blocked head outright, so fresh interactive
    /// arrivals keep flowing while a batch grant waits — the naive FIFO's
    /// arrival-order head blocks those too.
    pub fn pop_if(&mut self, fits: impl Fn(&QueuedQuery) -> bool) -> Option<QueuedQuery> {
        let head = self.heap.peek()?;
        if !fits(&head.0.query) {
            return None;
        }
        self.serve()
    }

    /// Dispatch the first query in virtual-time order that passes `fits`,
    /// skipping past ones that don't. Skipped queries keep their tags and
    /// their place. This is the *backfill* path: when the virtual-time
    /// head's resource grant is too wide for the free capacity, the
    /// scheduler may run a smaller query behind it — the caller is
    /// responsible for only admitting backfills that cannot delay the
    /// blocked head (e.g. ones estimated to finish before the head's
    /// grant could be satisfied anyway), which is what keeps a wide query
    /// from being starved by a stream of narrow ones.
    pub fn pop_first_fit(
        &mut self,
        mut fits: impl FnMut(&QueuedQuery) -> bool,
    ) -> Option<QueuedQuery> {
        let mut skipped = Vec::new();
        let mut found = false;
        while let Some(head) = self.heap.peek() {
            if fits(&head.0.query) {
                found = true;
                break;
            }
            if let Some(entry) = self.heap.pop() {
                skipped.push(entry);
            }
        }
        let served = if found { self.serve() } else { None };
        for entry in skipped {
            self.heap.push(entry);
        }
        served
    }

    /// The first query in virtual-time order that *fails* `fits`, without
    /// dispatching anything. This is how a dispatcher finds the query a
    /// standing reservation should protect: the earliest-tag query whose
    /// resource grant is wider than the free capacity. Scanning only the
    /// head is not enough — under strict lane priority a stream of narrow
    /// urgent queries keeps the head fitting forever while a wide query
    /// one lane down waits for free capacity that is raided the moment it
    /// appears.
    pub fn peek_first_unfit(&mut self, fits: impl Fn(&QueuedQuery) -> bool) -> Option<QueuedQuery> {
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(entry) = self.heap.pop() {
            let query = entry.0.query;
            let fit = fits(&query);
            skipped.push(entry);
            if !fit {
                found = Some(query);
                break;
            }
        }
        for entry in skipped {
            self.heap.push(entry);
        }
        found
    }

    /// Pop the heap head and account it as served.
    fn serve(&mut self) -> Option<QueuedQuery> {
        let Reverse(entry) = self.heap.pop()?;
        self.vtime = self.vtime.max(entry.start);
        if let Some(state) = self.tenants.get_mut(&entry.query.tenant) {
            state.queued = state.queued.saturating_sub(1);
            state.served_finish = entry.key.1;
        }
        Some(entry.query)
    }

    /// The query at the virtual-time head, without dispatching it.
    pub fn peek(&self) -> Option<&QueuedQuery> {
        self.heap.peek().map(|e| &e.0.query)
    }

    /// Queries waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The global virtual time (start tag of the last served query).
    pub fn vtime(&self) -> u64 {
        self.vtime
    }

    /// Virtual finish tag of `tenant`'s most recently served query.
    pub fn served_finish(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map(|t| t.served_finish).unwrap_or(0)
    }

    /// Queries `tenant` still has waiting.
    pub fn backlog(&self, tenant: u32) -> usize {
        self.tenants.get(&tenant).map(|t| t.queued).unwrap_or(0)
    }

    /// One weighted quantum for `tenant`: the largest cost seen so far
    /// divided by the tenant's weight, in virtual units. The fairness
    /// invariant bounds any served query's finish-tag lead over
    /// [`WfqScheduler::vtime`] by this.
    pub fn quantum(&self, tenant: u32) -> u64 {
        let weight = self.tenants.get(&tenant).map(|t| t.weight.max(1)).unwrap_or(1);
        self.max_cost_us.saturating_mul(VIRTUAL_SCALE) / weight
    }
}

/// The naive counterfactual: one global FIFO queue that ignores lanes,
/// tenants, weights and costs — strict arrival order, §XII before
/// admission lanes existed. The simulator runs the same workload through
/// both disciplines to quantify what fair queuing buys.
#[derive(Debug, Default)]
pub struct FifoQueue {
    queue: VecDeque<QueuedQuery>,
}

impl FifoQueue {
    /// An empty queue.
    pub fn new() -> FifoQueue {
        FifoQueue::default()
    }

    /// Enqueue in arrival order.
    pub fn push(&mut self, query: QueuedQuery) {
        self.queue.push_back(query);
    }

    /// Dispatch the oldest arrival.
    pub fn pop(&mut self) -> Option<QueuedQuery> {
        self.queue.pop_front()
    }

    /// The oldest arrival, without dispatching it.
    pub fn peek(&self) -> Option<&QueuedQuery> {
        self.queue.front()
    }

    /// Dispatch the oldest arrival *only if its resource demand fits*.
    /// A strict FIFO cannot look past its head: when the oldest query
    /// needs more slots than are free, everything behind it waits and the
    /// free capacity idles — the head-of-line blocking that motivated
    /// replacing the naive admission queue.
    pub fn pop_if(&mut self, fits: impl Fn(&QueuedQuery) -> bool) -> Option<QueuedQuery> {
        if fits(self.queue.front()?) {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Dispatch the oldest arrival whose resource demand fits, skipping
    /// any that do not. This is the *greedy* work-conserving FIFO that
    /// pre-fair-sharing admission queues actually run: it never idles
    /// capacity, but a steady stream of narrow queries slips past a wide
    /// head forever — the large-query starvation that weighted fair
    /// queuing with a standing reservation exists to fix.
    pub fn pop_first_fit(&mut self, fits: impl Fn(&QueuedQuery) -> bool) -> Option<QueuedQuery> {
        let at = self.queue.iter().position(fits)?;
        self.queue.remove(at)
    }

    /// Queries waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

fn lane_rank(p: QueryPriority) -> u8 {
    match p {
        QueryPriority::High => 0,
        QueryPriority::Normal => 1,
        QueryPriority::Low => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_tenant_jumps_a_heavy_backlog() {
        let mut q = WfqScheduler::new();
        // tenant 1 floods 10 queries before tenant 2's single query arrives
        for i in 0..10 {
            q.push(1, 1, QueryPriority::Normal, 1000, i);
        }
        q.push(2, 1, QueryPriority::Normal, 1000, 100);
        // the burst allowance forgives tenant 1's first few queries, but
        // tenant 2's single query beats the rest of the flood
        let order: Vec<u64> = (0..11).filter_map(|_| q.pop().map(|x| x.item)).collect();
        let pos = order.iter().position(|&i| i == 100).unwrap();
        assert_eq!(pos, 1 + BURST_ALLOWANCE_STRIDES as usize, "{order:?}");
    }

    #[test]
    fn weights_scale_the_share() {
        let mut q = WfqScheduler::new();
        // deep equal backlogs; tenant 2 has 2x the weight. The burst
        // allowance forgives both tenants' first few queries outright, so
        // the 2:1 service ratio only emerges past that transient.
        for i in 0..30 {
            q.push(1, 1, QueryPriority::Normal, 100, i);
            q.push(2, 2, QueryPriority::Normal, 100, 100 + i);
        }
        let order: Vec<u32> = (0..60).filter_map(|_| q.pop().map(|x| x.tenant)).collect();
        let transient = 2 * (1 + BURST_ALLOWANCE_STRIDES as usize);
        let window = &order[transient..transient + 18];
        let tenant2 = window.iter().filter(|&&t| t == 2).count();
        assert_eq!(tenant2, 12, "{order:?}");
    }

    #[test]
    fn lanes_drain_strictly_in_priority_order() {
        let mut q = WfqScheduler::new();
        q.push(1, 1, QueryPriority::Low, 10, 0);
        q.push(1, 1, QueryPriority::Normal, 10, 1);
        q.push(2, 1, QueryPriority::High, 10, 2);
        let order: Vec<u64> = (0..3).filter_map(|_| q.pop().map(|x| x.item)).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn finish_tag_lead_is_bounded_by_one_weighted_quantum() {
        let mut q = WfqScheduler::new();
        for i in 0..50 {
            let tenant = u32::try_from(i % 5).unwrap();
            q.push(tenant, 1 + u64::from(tenant % 3), QueryPriority::Normal, 50 + i * 7, i);
        }
        while let Some(served) = q.pop() {
            let lead = q.served_finish(served.tenant).saturating_sub(q.vtime());
            assert!(
                lead <= q.quantum(served.tenant),
                "tenant {} leads by {lead} > quantum {}",
                served.tenant,
                q.quantum(served.tenant)
            );
        }
    }

    #[test]
    fn blocked_head_gates_the_queue_but_backfill_can_pass() {
        let mut q = WfqScheduler::new();
        q.push(1, 1, QueryPriority::Normal, 10, 0); // head: pretend it won't fit
        q.push(2, 1, QueryPriority::Normal, 1000, 1);
        // head-gated dispatch refuses to jump the blocked head
        assert_eq!(q.pop_if(|x| x.item != 0), None);
        assert_eq!(q.len(), 2);
        // backfill dispatch may pass it; the head keeps its place
        assert_eq!(q.pop_first_fit(|x| x.item != 0).map(|x| x.item), Some(1));
        assert_eq!(q.pop().map(|x| x.item), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_head_of_line_blocks_when_the_head_does_not_fit() {
        let mut q = FifoQueue::new();
        q.push(QueuedQuery { tenant: 1, lane: QueryPriority::Normal, item: 0 });
        q.push(QueuedQuery { tenant: 2, lane: QueryPriority::Normal, item: 1 });
        // the head doesn't fit -> nothing dispatches, even though item 1 would
        assert_eq!(q.pop_if(|x| x.item == 1), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if(|_| true).map(|x| x.item), Some(0));
    }

    #[test]
    fn fifo_ignores_lanes_and_tenants() {
        let mut q = FifoQueue::new();
        q.push(QueuedQuery { tenant: 1, lane: QueryPriority::Low, item: 0 });
        q.push(QueuedQuery { tenant: 2, lane: QueryPriority::High, item: 1 });
        assert_eq!(q.pop().map(|x| x.item), Some(0));
        assert_eq!(q.pop().map(|x| x.item), Some(1));
        assert!(q.is_empty());
    }
}
