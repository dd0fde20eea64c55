//! The discrete-event queue.
//!
//! [`EventQueue<E>`] is a binary min-heap of caller-defined event values
//! keyed by `(at, seq)`: events fire in time order, and ties at the same
//! instant fire in scheduling order (`seq` is a global insertion
//! counter), which keeps runs deterministic. The queue owns the clock but
//! not the handlers: a caller drains it with [`EventQueue::pop_at_most`]
//! and dispatches each event in one `match`, scheduling follow-ups on the
//! same queue as it goes. Events are plain values, so a queue over a
//! `Clone` event type clones with its pending schedule.
//!
//! The M/G/k client-server queue (`ic_workloads::mgk`) runs its own
//! typed loop with the same `(at, seq)` rule plus a dedicated slot for
//! its single pending arrival.

use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One pending event, ordered by `(at, seq)` alone.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The `(at, seq)` key packed into one `u128` (`at` in the high
    /// word), so the lexicographic order is a single integer compare.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.as_nanos() as u128) << 64) | self.seq as u128
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic discrete-event queue over event values `E`.
///
/// # Example
///
/// ```
/// use ic_sim::queue::EventQueue;
/// use ic_sim::time::{SimDuration, SimTime};
///
/// // A self-rescheduling heartbeat that stops after 3 beats.
/// enum Event {
///     Beat,
/// }
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::ZERO, Event::Beat);
/// let mut beats = 0;
/// while let Some(event) = queue.pop_at_most(SimTime::MAX) {
///     match event {
///         Event::Beat => {
///             beats += 1;
///             if beats < 3 {
///                 queue.schedule_in(SimDuration::from_secs(1), Event::Beat);
///             }
///         }
///     }
/// }
/// assert_eq!(beats, 3);
/// assert_eq!(queue.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    processed: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> EventQueue<E> {
    /// A queue with the clock at [`SimTime::ZERO`] and no pending events.
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The current simulation instant: the time of the last popped
    /// event, or a later [`EventQueue::advance_to`] target.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock: the past is
    /// immutable in a discrete-event simulation.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`, moving the clock to its time.
    pub fn pop_at_most(&mut self, deadline: SimTime) -> Option<E> {
        if self.heap.peek()?.0.at > deadline {
            return None;
        }
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        self.processed += 1;
        Some(entry.event)
    }

    /// Moves the clock forward to `deadline` after a drain up to it, as a
    /// run to a finite horizon ends at the horizon. Leaves the clock
    /// alone for [`SimTime::MAX`] (a drain to exhaustion ends at the last
    /// event) or for a deadline already passed.
    pub fn advance_to(&mut self, deadline: SimTime) {
        if deadline != SimTime::MAX && deadline > self.now {
            self.now = deadline;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `queue` up to `deadline`, logging each event's payload.
    fn drain(queue: &mut EventQueue<u32>, deadline: SimTime, log: &mut Vec<u32>) {
        while let Some(event) = queue.pop_at_most(deadline) {
            log.push(event);
        }
        queue.advance_to(deadline);
    }

    #[test]
    fn runs_in_time_order() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(3), 3);
        queue.schedule(SimTime::from_secs(1), 1);
        queue.schedule(SimTime::from_secs(2), 2);
        let mut log = Vec::new();
        drain(&mut queue, SimTime::MAX, &mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(queue.events_processed(), 3);
        assert_eq!(queue.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut queue = EventQueue::new();
        for i in 0..5 {
            queue.schedule(SimTime::from_secs(1), i);
        }
        let mut log = Vec::new();
        drain(&mut queue, SimTime::MAX, &mut log);
        assert_eq!(log, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_while_draining() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, 0u32);
        queue.schedule(SimTime::from_secs(2), 100);
        let mut log = Vec::new();
        while let Some(event) = queue.pop_at_most(SimTime::MAX) {
            log.push(event);
            if event < 3 {
                queue.schedule_in(SimDuration::from_secs(2), event + 1);
            }
        }
        // Event 1 lands at 2 s behind event 100, which was scheduled
        // there first.
        assert_eq!(log, vec![0, 100, 1, 2, 3]);
        assert_eq!(queue.now(), SimTime::from_secs(6));
    }

    #[test]
    fn pop_at_most_respects_deadline_and_advance_moves_clock() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(1), 1);
        queue.schedule(SimTime::from_secs(10), 10);
        let mut log = Vec::new();
        drain(&mut queue, SimTime::from_secs(5), &mut log);
        assert_eq!(log, vec![1]);
        assert_eq!(queue.now(), SimTime::from_secs(5));
        // The boundary is inclusive, and a drain to exhaustion leaves the
        // clock at the last event.
        drain(&mut queue, SimTime::from_secs(10), &mut log);
        assert_eq!(log, vec![1, 10]);
        drain(&mut queue, SimTime::MAX, &mut log);
        assert_eq!(queue.now(), SimTime::from_secs(10));
        // An earlier deadline never moves the clock back.
        queue.advance_to(SimTime::from_secs(3));
        assert_eq!(queue.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(5), ());
        while queue.pop_at_most(SimTime::MAX).is_some() {}
        queue.schedule(SimTime::from_secs(1), ());
    }
}
