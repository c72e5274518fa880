//! Event-driven scheduling primitives for the shard execution loop.
//!
//! The engine used to pay O(nodes x cycles): every simulated cycle it
//! stepped *every* node, even ones with empty inputs, full outputs, or a
//! future wake-up time. The two structures here replace that dense sweep:
//!
//! * [`ReadySet`] — a dense bitset over *scheduling ranks* (a node's
//!   position in the shard's topological order). Draining it in ascending
//!   rank replays exactly the relative step order of the legacy sweep, which
//!   is the whole determinism argument: a cycle of the event engine performs
//!   the same effective steps, in the same order, at the same simulated
//!   time as a sweep cycle, and skipped steps are provably no-ops.
//! * [`WakeQueue`] — a time-indexed calendar queue for `busy_until` /
//!   pending-memory wake-ups. Near-future wakes (within [`HORIZON`] cycles
//!   of now) land in ring buckets; far-future wakes fall back to a
//!   `BinaryHeap`. Per-rank earliest-timer dedup keeps spurious re-steps
//!   bounded.
//!
//! Both structures are rank-indexed and shard-local; `engine.rs` owns the
//! mapping between ranks and node ids.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Near-future window of the calendar queue, in cycles. DRAM latencies and
/// ALU occupancies are tens-to-hundreds of cycles, so almost every wake
/// lands in a ring bucket; anything farther takes the heap path.
const HORIZON: u64 = 512;

/// A dense bitset of ranks that are ready to step at one simulated cycle.
///
/// Insertions during a drain are permitted only *ahead* of the drain cursor
/// (the engine routes behind-cursor wakes to the next cycle's set), so a
/// single forward scan visits every ready rank in ascending order.
#[derive(Debug)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    count: usize,
}

impl ReadySet {
    /// An empty set sized for `n` ranks.
    pub fn new(n: usize) -> Self {
        ReadySet { words: vec![0; n.div_ceil(64)], count: 0 }
    }

    /// Marks `rank` ready; idempotent.
    pub fn insert(&mut self, rank: usize) {
        let (w, b) = (rank / 64, rank % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.count += 1;
        }
    }

    /// Number of ready ranks.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no rank is ready.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears and returns the lowest ready rank `>= from`, if any.
    pub fn pop_ge(&mut self, from: usize) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let mut w = from / 64;
        if w >= self.words.len() {
            return None;
        }
        // Mask off bits below `from` in the first word, then scan forward.
        let below = if from % 64 == 0 { 0 } else { (1u64 << (from % 64)) - 1 };
        let mut cur = self.words[w] & !below;
        loop {
            if cur != 0 {
                let b = cur.trailing_zeros() as usize;
                self.words[w] &= !(1 << b);
                self.count -= 1;
                return Some(w * 64 + b);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            cur = self.words[w];
        }
    }
}

/// A time-indexed wake queue: ring buckets for wakes within [`HORIZON`]
/// cycles, a min-heap for the tail.
///
/// Entries are `(absolute_cycle, rank)`. The engine only ever advances time
/// to the minimum queued cycle (or to `now + 1`), so a live ring bucket
/// holds entries of exactly one absolute cycle — two cycles `t` and
/// `t + k * HORIZON` can never be queued simultaneously, because queueing
/// the later one requires `now >= t`, by which point the earlier one has
/// been drained.
#[derive(Debug)]
pub(crate) struct WakeQueue {
    buckets: Vec<Vec<(u64, u32)>>,
    bucket_len: usize,
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// Earliest queued timer per rank (`u64::MAX` = none). A later timer
    /// for a rank with an earlier one queued is dropped: the earlier wake
    /// steps the node, which re-registers its then-current wake time.
    timer_at: Vec<u64>,
}

impl WakeQueue {
    /// An empty queue for `n` ranks.
    pub fn new(n: usize) -> Self {
        WakeQueue {
            buckets: (0..HORIZON as usize).map(|_| Vec::new()).collect(),
            bucket_len: 0,
            far: BinaryHeap::new(),
            timer_at: vec![u64::MAX; n],
        }
    }

    /// Queues a wake for `rank` at cycle `t` (must be `> now`). Deduped
    /// against an earlier-or-equal timer already queued for the rank.
    pub fn schedule(&mut self, now: u64, t: u64, rank: u32) {
        debug_assert!(t > now, "wakes must be in the future");
        if self.timer_at[rank as usize] <= t {
            return;
        }
        self.timer_at[rank as usize] = t;
        if t - now <= HORIZON {
            self.buckets[(t % HORIZON) as usize].push((t, rank));
            self.bucket_len += 1;
        } else {
            self.far.push(Reverse((t, rank)));
        }
    }

    /// True when nothing is queued.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.bucket_len == 0 && self.far.is_empty()
    }

    /// The earliest queued cycle strictly after `now`, if any.
    pub fn next_time(&self, now: u64) -> Option<u64> {
        let mut best = self.far.peek().map(|Reverse((t, _))| *t);
        if self.bucket_len > 0 {
            for off in 1..=HORIZON {
                let t = now + off;
                if let Some(&(bt, _)) = self.buckets[(t % HORIZON) as usize].first() {
                    debug_assert_eq!(bt, t, "stale calendar bucket");
                    best = Some(best.map_or(bt, |b| b.min(bt)));
                    break;
                }
            }
        }
        best
    }

    /// Moves every wake queued for exactly cycle `t` into `ready`.
    pub fn drain_at(&mut self, t: u64, ready: &mut ReadySet) {
        let bucket = &mut self.buckets[(t % HORIZON) as usize];
        if !bucket.is_empty() {
            self.bucket_len -= bucket.len();
            for (bt, rank) in bucket.drain(..) {
                debug_assert_eq!(bt, t, "stale calendar bucket");
                if self.timer_at[rank as usize] == t {
                    self.timer_at[rank as usize] = u64::MAX;
                }
                ready.insert(rank as usize);
            }
        }
        while let Some(&Reverse((ft, rank))) = self.far.peek() {
            if ft > t {
                break;
            }
            self.far.pop();
            if self.timer_at[rank as usize] == ft {
                self.timer_at[rank as usize] = u64::MAX;
            }
            ready.insert(rank as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_drains_in_ascending_rank() {
        let mut r = ReadySet::new(200);
        for rank in [150, 3, 64, 63, 199, 0] {
            r.insert(rank);
        }
        r.insert(64); // idempotent
        assert_eq!(r.len(), 6);
        let mut seen = Vec::new();
        let mut pos = 0;
        while let Some(rank) = r.pop_ge(pos) {
            pos = rank;
            seen.push(rank);
        }
        assert_eq!(seen, vec![0, 3, 63, 64, 150, 199]);
        assert!(r.is_empty());
    }

    #[test]
    fn ready_set_mid_drain_insertions_ahead_of_cursor() {
        let mut r = ReadySet::new(128);
        r.insert(5);
        assert_eq!(r.pop_ge(0), Some(5));
        // A wake raised while stepping rank 5 targets a higher rank.
        r.insert(70);
        assert_eq!(r.pop_ge(5), Some(70));
        assert_eq!(r.pop_ge(70), None);
    }

    #[test]
    fn wake_queue_near_and_far() {
        let mut q = WakeQueue::new(8);
        q.schedule(10, 12, 1);
        q.schedule(10, 10 + HORIZON + 100, 2); // heap path
        assert_eq!(q.next_time(10), Some(12));
        let mut ready = ReadySet::new(8);
        q.drain_at(12, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(1));
        assert_eq!(q.next_time(12), Some(10 + HORIZON + 100));
        q.drain_at(10 + HORIZON + 100, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn wake_queue_dedups_later_timers() {
        let mut q = WakeQueue::new(4);
        q.schedule(0, 5, 3);
        q.schedule(0, 9, 3); // dropped: 5 <= 9 already queued
        let mut ready = ReadySet::new(4);
        q.drain_at(5, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(3));
        assert!(q.is_empty(), "later duplicate must have been dropped");
        // After the early wake fired, a fresh timer is accepted again.
        q.schedule(5, 9, 3);
        assert_eq!(q.next_time(5), Some(9));
    }

    /// The wake queue is indexed by Event node *rank*, and a sleeping node
    /// keeps only its earliest timer. A node sleeping from late in a ring
    /// period to early in the next lands in a bucket whose slot index is
    /// *below* `now % HORIZON` — the wraparound case.
    #[test]
    fn wake_queue_ring_wraparound_for_sleeping_unit() {
        let mut q = WakeQueue::new(4);
        let now = HORIZON - 20; // slot 492
        let t = now + 120; // slot 100 of the next ring period: wrapped
        assert!(t % HORIZON < now % HORIZON, "test must actually wrap the ring");
        q.schedule(now, t, 2);
        // A later timer of the same rank is deduped away.
        q.schedule(now, t + 40, 2);
        assert_eq!(q.next_time(now), Some(t));
        let mut ready = ReadySet::new(4);
        q.drain_at(t, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(2));
        assert!(q.is_empty(), "wrapped bucket must drain fully");
        // After the wake fires the rank registers its next timer; the
        // dedup slot must have been cleared.
        q.schedule(t, t + 40, 2);
        assert_eq!(q.next_time(t), Some(t + 40));
    }

    /// A rank sleeping until exactly `now + HORIZON` while another rank
    /// holds a far-future timer: the ring entry must win and
    /// the far entry must survive the drain.
    #[test]
    fn wake_queue_unit_sleep_at_horizon_with_far_tail() {
        let mut q = WakeQueue::new(2);
        let now = 3 * HORIZON + 7;
        q.schedule(now, now + HORIZON, 0); // exactly at the horizon: ring
        q.schedule(now, now + HORIZON + 300, 1); // heap path
        assert_eq!(q.next_time(now), Some(now + HORIZON));
        let mut ready = ReadySet::new(2);
        q.drain_at(now + HORIZON, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(0));
        assert_eq!(ready.pop_ge(0), None, "far timer must not drain early");
        assert_eq!(q.next_time(now + HORIZON), Some(now + HORIZON + 300));
    }

    #[test]
    fn wake_queue_exact_horizon_boundary() {
        let mut q = WakeQueue::new(2);
        q.schedule(100, 100 + HORIZON, 0); // exactly at the horizon: bucket
        assert_eq!(q.next_time(100), Some(100 + HORIZON));
        let mut ready = ReadySet::new(2);
        q.drain_at(100 + HORIZON, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(0));
        assert!(q.is_empty());
    }
}
