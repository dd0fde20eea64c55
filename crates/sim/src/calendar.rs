//! A deterministic two-tier calendar/ladder event queue.
//!
//! Replaces the engine's `BinaryHeap`: instead of an O(log n) sift on
//! every push and pop, events are appended to time-bucketed FIFO lanes in
//! O(1) and each bucket is sorted once — by `(at, seq)`, the exact total
//! order the heap used — when the clock reaches it. Because `(at, seq)`
//! is unique per event, the pop sequence is *identical* to the heap's
//! (time order, ties broken by insertion order), so every experiment's
//! output is byte-for-byte unchanged; the differential tests in this
//! module prove it against the retired heap implementation.
//!
//! Structure:
//!
//! * **Near tier** (`current`): a sorted `VecDeque` holding every pending
//!   event with `at < current_end`. Pops are `pop_front`; same-instant
//!   follow-ups scheduled from inside handlers binary-insert near the
//!   front or back in O(1)–O(log n).
//! * **Calendar tier** (`buckets`): fixed-width time buckets covering
//!   `[epoch_start, horizon)`. Pushes append in O(1) (append order *is*
//!   seq order); a bucket is sorted and swapped into `current` when the
//!   clock reaches it, reusing both buffers so the steady state allocates
//!   nothing.
//! * **Far tier** (`overflow`): everything at or beyond the horizon,
//!   unsorted. When the epoch is exhausted the overflow is re-anchored
//!   into a fresh epoch whose bucket count and width adapt to the pending
//!   population (classic calendar-queue resizing), or — for small
//!   residues — sorted straight into `current`, which keeps tiny queues
//!   (heartbeats, control-plane ticks) on a plain sorted-array fast path.

use crate::event::EventCell;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Queues of at most this many events skip the calendar entirely and run
/// as one sorted array.
const DIRECT_MAX: usize = 64;
/// Minimum prefix kept in `current` when a direct-mode queue spills into
/// the far tier.
const SPILL_KEEP: usize = 16;
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 8192;

/// One scheduled event: its firing time, global insertion sequence (the
/// tie-breaker), observer label, and the stored handler.
pub(crate) struct Entry<S: 'static> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: &'static str,
    pub cell: EventCell<S>,
}

impl<S> Entry<S> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    /// The `(at, seq)` key packed into one `u128` (`at` in the high
    /// word), so lexicographic order becomes a single integer compare.
    #[inline]
    fn packed_key(&self) -> u128 {
        ((self.at.as_nanos() as u128) << 64) | self.seq as u128
    }
}

/// Near-tier lane kept sorted *descending* by packed `(at, seq)` key, so
/// the minimum is the last element and a pop is a plain `Vec::pop`. A
/// push binary-searches its rank (log₂ of a few tens of pending events)
/// and memmoves the tail — a few hundred bytes at simulation queue
/// depths, which a single `memmove` covers in a handful of cycles. That
/// beats both a heap (data-dependent sift branches mispredict) and an
/// unsorted lane (O(n) minimum scan on every pop), and pops hand the
/// entry out by value with zero bookkeeping.
struct StagingLane<S: 'static> {
    entries: Vec<Entry<S>>,
}

impl<S: 'static> StagingLane<S> {
    fn new() -> Self {
        StagingLane {
            entries: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest pending key, i.e. the lane's next pop.
    #[inline]
    fn min_key(&self) -> Option<u128> {
        self.entries.last().map(|e| e.packed_key())
    }

    fn push(&mut self, entry: Entry<S>) {
        let key = entry.packed_key();
        // Keys are unique (`seq` is a global counter), so the insertion
        // point that preserves the descending order is *the* rank.
        let idx = self.entries.partition_point(|e| e.packed_key() > key);
        self.entries.insert(idx, entry);
    }

    #[inline]
    fn pop_min(&mut self) -> Option<Entry<S>> {
        self.entries.pop()
    }

    /// Empties the lane into `out` (descending order; callers re-sort).
    fn drain_into(&mut self, out: &mut VecDeque<Entry<S>>) {
        out.extend(self.entries.drain(..));
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

pub(crate) struct CalendarQueue<S: 'static> {
    /// Near tier, sorted ascending by `(at, seq)`; covers `[0, current_end)`.
    current: VecDeque<Entry<S>>,
    /// Near-tier lane for *pushed* events below `current_end`; see
    /// [`StagingLane`]. Pops are O(1); pushes binary-insert into the
    /// descending-sorted lane.
    staging: StagingLane<S>,
    /// Exclusive upper bound of `current`'s range. `SimTime::MAX` in
    /// direct mode.
    current_end: SimTime,
    /// Calendar tier for the active epoch; `buckets[i]` covers
    /// `[epoch_start + i·width, epoch_start + (i+1)·width)`.
    buckets: Vec<Vec<Entry<S>>>,
    /// Start of the active epoch (`buckets[0]`'s lower bound).
    epoch_start: SimTime,
    /// First bucket not yet drained; `== buckets.len()` when no epoch is
    /// active.
    next_bucket: usize,
    /// Bucket width as a power of two (`1 << shift` nanoseconds), so
    /// indexing is a subtract and a shift instead of a division.
    shift: u32,
    /// Exclusive end of the epoch; events at or beyond it live in
    /// `overflow`.
    horizon: SimTime,
    /// Far tier: unsorted events at or beyond `horizon`.
    overflow: Vec<Entry<S>>,
    /// Scratch per-bucket counts used to pre-size buckets during
    /// re-anchoring (one exact `reserve` per bucket instead of repeated
    /// doubling).
    counts: Vec<u32>,
    /// Don't retry a failed direct-mode spill until the queue outgrows
    /// this length (a spill needs a strict time increase to split on).
    spill_retry_len: usize,
    len: usize,
}

impl<S: 'static> CalendarQueue<S> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            current: VecDeque::new(),
            staging: StagingLane::new(),
            current_end: SimTime::MAX,
            buckets: Vec::new(),
            epoch_start: SimTime::ZERO,
            next_bucket: 0,
            shift: 0,
            horizon: SimTime::MAX,
            overflow: Vec::new(),
            counts: Vec::new(),
            spill_retry_len: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` while an epoch still has undrained buckets.
    #[inline]
    fn epoch_active(&self) -> bool {
        self.next_bucket < self.buckets.len()
    }

    pub(crate) fn push(&mut self, entry: Entry<S>) {
        self.len += 1;
        if entry.at < self.current_end {
            self.staging.push(entry);
            let near = self.current.len() + self.staging.len();
            if !self.epoch_active() && near > DIRECT_MAX && near > self.spill_retry_len {
                self.spill_current();
            }
        } else if entry.at < self.horizon {
            let idx = ((entry.at.as_nanos() - self.epoch_start.as_nanos()) >> self.shift) as usize;
            // Saturated horizons can map a tail event past the ring;
            // those belong to the far tier.
            if idx < self.buckets.len() {
                self.buckets[idx].push(entry);
            } else {
                self.overflow.push(entry);
            }
        } else {
            self.overflow.push(entry);
        }
    }

    /// Folds the staging lane into `current`, restoring the all-sorted
    /// near-tier invariant the spill/re-anchor paths rely on. Rare by
    /// construction (spills and epoch handoffs only), so the full
    /// re-sort is fine.
    fn flush_staging(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        self.staging.drain_into(&mut self.current);
        self.current
            .make_contiguous()
            .sort_unstable_by_key(|e| e.key());
    }

    /// Moves the far tail of an oversized direct-mode `current` into the
    /// overflow tier, keeping a small near prefix. The split must fall on
    /// a strict time increase so the `(at, seq)` order across the two
    /// tiers stays exact; an all-ties queue stays put until it grows a
    /// splittable tail.
    fn spill_current(&mut self) {
        self.flush_staging();
        let len = self.current.len();
        let mut k = SPILL_KEEP;
        while k < len && self.current[k].at == self.current[k - 1].at {
            k += 1;
        }
        if k >= len {
            self.spill_retry_len = len * 2;
            return;
        }
        let boundary = self.current[k].at;
        self.overflow.extend(self.current.drain(k..));
        self.current_end = boundary;
        self.horizon = boundary;
        self.spill_retry_len = 0;
    }

    /// Ensures `current` holds the globally-next event (or that the queue
    /// is empty): drains the next calendar bucket, re-anchoring the
    /// overflow into a fresh epoch when the active one is exhausted.
    fn advance(&mut self) {
        while self.current.is_empty() {
            if self.epoch_active() {
                while self.next_bucket < self.buckets.len()
                    && self.buckets[self.next_bucket].is_empty()
                {
                    self.next_bucket += 1;
                }
                if self.next_bucket < self.buckets.len() {
                    let k = self.next_bucket;
                    let mut bucket = std::mem::take(&mut self.buckets[k]);
                    bucket.sort_unstable_by_key(|e| e.key());
                    self.current.extend(bucket.drain(..));
                    // Hand the (empty) buffer back so the slot keeps its
                    // capacity for the next epoch.
                    self.buckets[k] = bucket;
                    self.next_bucket = k + 1;
                    self.current_end =
                        self.epoch_start
                            .saturating_add(crate::time::SimDuration::from_nanos(
                                (1u64 << self.shift).saturating_mul(k as u64 + 1),
                            ));
                    return;
                }
            }
            if self.overflow.is_empty() {
                // Queue fully drained: return to direct mode so the next
                // pushes take the sorted-array fast path.
                self.current_end = SimTime::MAX;
                self.horizon = SimTime::MAX;
                return;
            }
            self.reanchor();
        }
    }

    /// Rebuilds the epoch from the overflow tier: small residues sort
    /// straight into `current` (direct mode); larger populations get a
    /// fresh calendar whose bucket count and width adapt to the pending
    /// event density.
    fn reanchor(&mut self) {
        if self.overflow.len() <= DIRECT_MAX {
            self.overflow.sort_unstable_by_key(|e| e.key());
            self.current.extend(self.overflow.drain(..));
            self.current_end = SimTime::MAX;
            self.horizon = SimTime::MAX;
            self.spill_retry_len = 0;
            return;
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for e in &self.overflow {
            let ns = e.at.as_nanos();
            min = min.min(ns);
            max = max.max(ns);
        }
        let nbuckets = self
            .overflow
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Round the natural width up to a power of two so bucket
        // indexing is a shift; the epoch just covers a little more time.
        let raw_width = ((max - min) / nbuckets as u64) + 1;
        let shift = if raw_width >= (1u64 << 62) {
            62
        } else {
            raw_width.next_power_of_two().trailing_zeros()
        };
        self.epoch_start = SimTime::from_nanos(min);
        self.shift = shift;
        self.horizon = self
            .epoch_start
            .saturating_add(crate::time::SimDuration::from_nanos(
                (1u64 << shift).saturating_mul(nbuckets as u64),
            ));
        self.current_end = self.epoch_start;
        if self.buckets.len() < nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        } else {
            self.buckets.truncate(nbuckets);
        }
        self.next_bucket = 0;
        let mut pending = std::mem::take(&mut self.overflow);
        // Counting pass: size every bucket exactly once up front; the
        // capacities persist across epochs, so redistribution reaches a
        // zero-allocation steady state instead of ~log₂(len) doubling
        // reallocations per bucket per epoch.
        self.counts.clear();
        self.counts.resize(nbuckets, 0);
        for e in &pending {
            let idx = ((e.at.as_nanos() - min) >> shift) as usize;
            if e.at < self.horizon && idx < nbuckets {
                self.counts[idx] += 1;
            }
        }
        for (bucket, &n) in self.buckets.iter_mut().zip(&self.counts) {
            bucket.reserve(n as usize);
        }
        for e in pending.drain(..) {
            let idx = ((e.at.as_nanos() - min) >> shift) as usize;
            if e.at < self.horizon && idx < nbuckets {
                self.buckets[idx].push(e);
            } else {
                self.overflow.push(e);
            }
        }
        // `pending` is empty but warm; keep the larger buffer as the
        // overflow store so redistribution stays allocation-free.
        if pending.capacity() > self.overflow.capacity() {
            std::mem::swap(&mut pending, &mut self.overflow);
            self.overflow.append(&mut pending);
        }
    }

    /// Pops the next event if its timestamp is `<= deadline` — the single
    /// queue operation `run_until` pays per event.
    ///
    /// The near-tier minimum is the smaller of the sorted lane's front
    /// and the staging heap's root; both lanes hold only events below
    /// `current_end`, so that minimum is global.
    pub(crate) fn pop_at_most(&mut self, deadline: SimTime) -> Option<Entry<S>> {
        if self.current.is_empty() && self.staging.is_empty() {
            self.advance();
        }
        if let Some(best) = self.staging.min_key() {
            let take_staged = match self.current.front() {
                None => true,
                Some(front) => best < front.packed_key(),
            };
            if take_staged {
                if SimTime::from_nanos((best >> 64) as u64) > deadline {
                    return None;
                }
                self.len -= 1;
                return self.staging.pop_min();
            }
        }
        if self.current.front()?.at > deadline {
            return None;
        }
        self.len -= 1;
        self.current.pop_front()
    }

    /// Timestamp of the next pending event without disturbing the queue.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let near = match (
            self.current.front().map(|e| e.at),
            self.staging
                .min_key()
                .map(|k| SimTime::from_nanos((k >> 64) as u64)),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if near.is_some() {
            return near;
        }
        // Buckets are time-ordered, so the first non-empty one holds the
        // minimum among buckets; the overflow tier is strictly later.
        for k in self.next_bucket..self.buckets.len() {
            if !self.buckets[k].is_empty() {
                return self.buckets[k].iter().map(|e| e.at).min();
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Discards every pending event (dropping their handlers unrun) and
    /// returns to direct mode.
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.staging.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.overflow.clear();
        self.next_bucket = self.buckets.len();
        self.current_end = SimTime::MAX;
        self.horizon = SimTime::MAX;
        self.spill_retry_len = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BoxPool;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The retired `BinaryHeap` queue, kept as the differential-testing
    /// reference: pops in `(at, seq)` order exactly as the seed engine
    /// did.
    struct HeapRef {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    }

    impl HeapRef {
        fn new() -> Self {
            HeapRef {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: SimTime, seq: u64) {
            self.heap.push(Reverse((at, seq)));
        }
        fn pop_at_most(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
            let &Reverse((at, _)) = self.heap.peek()?;
            if at > deadline {
                return None;
            }
            self.heap.pop().map(|Reverse(k)| k)
        }
    }

    fn entry(at_ns: u64, seq: u64, pool: &mut BoxPool) -> Entry<()> {
        Entry {
            at: SimTime::from_nanos(at_ns),
            seq,
            kind: "test",
            cell: EventCell::new(|_: &mut (), _| {}, pool).0,
        }
    }

    /// Random push/pop interleavings (including heavy ties and deadline
    /// pops) must produce the identical `(at, seq)` sequence on both the
    /// calendar queue and the heap reference.
    #[test]
    fn differential_random_interleavings_match_heap() {
        for seed in 0..150u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pool = BoxPool::new();
            let mut cal: CalendarQueue<()> = CalendarQueue::new();
            let mut heap = HeapRef::new();
            let mut seq = 0u64;
            let mut clock = 0u64;
            // Time spreads from nanoseconds to hours exercise direct
            // mode, spilling, and multi-epoch re-anchoring.
            let spread = 1u64 << (4 + (seed % 40));
            let ops = 200 + (seed % 3) * 400;
            for _ in 0..ops {
                let burst = 1 + (rng.next_u64() % 8);
                for _ in 0..burst {
                    // 25% exact ties with the current clock.
                    let at = if rng.next_u64().is_multiple_of(4) {
                        clock
                    } else {
                        clock + rng.next_u64() % spread
                    };
                    cal.push(entry(at, seq, &mut pool));
                    heap.push(SimTime::from_nanos(at), seq);
                    seq += 1;
                }
                let deadline = if rng.next_u64().is_multiple_of(5) {
                    SimTime::MAX
                } else {
                    SimTime::from_nanos(clock + rng.next_u64() % spread)
                };
                let pops = 1 + (rng.next_u64() % 12);
                for _ in 0..pops {
                    let want = heap.pop_at_most(deadline);
                    let got = cal.pop_at_most(deadline).map(|e| (e.at, e.seq));
                    assert_eq!(got, want, "seed {seed}");
                    match want {
                        Some((at, _)) => clock = clock.max(at.as_nanos()),
                        None => break,
                    }
                }
            }
            // Drain both completely.
            loop {
                let want = heap.pop_at_most(SimTime::MAX);
                let got = cal.pop_at_most(SimTime::MAX).map(|e| (e.at, e.seq));
                assert_eq!(got, want, "seed {seed} drain");
                if want.is_none() {
                    break;
                }
            }
            assert_eq!(cal.len(), 0);
        }
    }

    /// A large bulk load (the microbenchmark shape) drains in exact
    /// order through epoch re-anchoring.
    #[test]
    fn bulk_load_drains_in_order() {
        let mut pool = BoxPool::new();
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        for i in 0..50_000u64 {
            cal.push(entry(i * 13 % 1_000_000, i, &mut pool));
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut count = 0;
        let mut first = true;
        while let Some(e) = cal.pop_at_most(SimTime::MAX) {
            if !first {
                assert!((e.at, e.seq) > last, "order violated at {count}");
            }
            last = (e.at, e.seq);
            first = false;
            count += 1;
        }
        assert_eq!(count, 50_000);
    }

    /// Thousands of same-instant events stay in seq order even though no
    /// spill boundary exists.
    #[test]
    fn same_instant_flood_pops_in_seq_order() {
        let mut pool = BoxPool::new();
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        for seq in 0..5_000u64 {
            cal.push(entry(42, seq, &mut pool));
        }
        for want in 0..5_000u64 {
            let e = cal.pop_at_most(SimTime::MAX).expect("pending");
            assert_eq!(e.seq, want);
        }
        assert!(cal.pop_at_most(SimTime::MAX).is_none());
    }

    #[test]
    fn peek_time_sees_all_tiers() {
        let mut pool = BoxPool::new();
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        assert_eq!(cal.peek_time(), None);
        // Force an epoch: overload direct mode with a wide spread.
        for i in 0..300u64 {
            cal.push(entry(1_000 + i * 997, i, &mut pool));
        }
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(1_000)));
        let first = cal.pop_at_most(SimTime::MAX).unwrap();
        assert_eq!(first.at, SimTime::from_nanos(1_000));
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(1_997)));
    }

    #[test]
    fn clear_resets_every_tier() {
        let mut pool = BoxPool::new();
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        for i in 0..500u64 {
            cal.push(entry(i * 7_919, i, &mut pool));
        }
        let _ = cal.pop_at_most(SimTime::MAX);
        cal.clear();
        assert_eq!(cal.len(), 0);
        assert_eq!(cal.peek_time(), None);
        assert!(cal.pop_at_most(SimTime::MAX).is_none());
        cal.push(entry(5, 500, &mut pool));
        assert_eq!(cal.pop_at_most(SimTime::MAX).map(|e| e.seq), Some(500));
    }

    #[test]
    fn deadline_pops_leave_later_events() {
        let mut pool = BoxPool::new();
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        cal.push(entry(10, 0, &mut pool));
        cal.push(entry(20, 1, &mut pool));
        assert_eq!(
            cal.pop_at_most(SimTime::from_nanos(15)).map(|e| e.seq),
            Some(0)
        );
        assert!(cal.pop_at_most(SimTime::from_nanos(15)).is_none());
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop_at_most(SimTime::MAX).map(|e| e.seq), Some(1));
    }
}
