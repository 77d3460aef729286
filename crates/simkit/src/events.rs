//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are ordered by their scheduled [`SimTime`]; ties break on insertion
//! order (FIFO), which keeps simulations deterministic even when many events
//! share a timestamp (e.g. a burst of request completions).
//!
//! Both orderings live in one integer [`EventKey`]: the bit pattern of a
//! finite non-negative `f64` ascends with its value, so
//! `time bits << 64 | sequence` compares exactly as (time, insertion order)
//! does, in a single unsigned comparison with no float compare or NaN check
//! on the heap's hot path.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event's position in the queue's total order: its time, then its
/// insertion sequence. Keys compare exactly as the queue pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(u128);

impl EventKey {
    fn new(at: SimTime, seq: u64) -> Self {
        // `+ 0.0` folds -0.0 into +0.0; its sign bit would sort it last.
        let bits = (at.as_secs() + 0.0).to_bits();
        EventKey(((bits as u128) << 64) | seq as u128)
    }

    /// The instant the event is scheduled for.
    pub fn time(self) -> SimTime {
        SimTime(f64::from_bits((self.0 >> 64) as u64))
    }
}

/// An event scheduled for a particular instant.
struct Scheduled<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on top.
        other.key.cmp(&self.key)
    }
}

/// Priority queue of future events, keyed by simulated time with
/// deterministic FIFO tie-breaking.
///
/// A simulation may also hold an event *outside* the queue — a chained
/// arrival stream whose next event is always known — and still pop it in
/// exactly the order scheduling it here would have: [`EventQueue::reserve`]
/// hands out its key, the caller compares it with [`EventQueue::peek_key`],
/// and [`EventQueue::claim`] advances the clock when it comes first. That
/// saves a heap push and pop per held event.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last event popped or
    /// claimed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the past cannot be
    /// rescheduled.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.reserve(at);
        self.heap.push(Scheduled { key, event });
    }

    /// Schedules `event` after `delay` from the current clock.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Takes the next insertion sequence for an event at `at` that the
    /// caller keeps outside the queue. The key orders against queued
    /// events exactly as if the event had been scheduled here now.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn reserve(&mut self, at: SimTime) -> EventKey {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey::new(at, seq)
    }

    /// Pops a reserved event held outside the queue: advances the clock to
    /// its time and returns that time. The caller has checked it precedes
    /// every queued event.
    pub fn claim(&mut self, key: EventKey) -> SimTime {
        debug_assert!(self.peek_key().is_none_or(|head| key < head));
        let at = key.time();
        debug_assert!(at >= self.now);
        self.now = at;
        at
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { key, event } = self.heap.pop()?;
        let at = key.time();
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Key of the next event without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|s| s.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Returns the queue to its initial state (clock at zero, no events)
    /// while keeping the heap's allocation, so one queue can be reused
    /// across many simulation windows without reallocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn keys_order_like_time_then_insertion() {
        let mut q: EventQueue<()> = EventQueue::new();
        let times = [0.0, 5e-324, 1e-300, 0.25, 1.0, 1.0, 3600.0, 1e300];
        let keys: Vec<EventKey> = times
            .iter()
            .map(|&t| q.reserve(SimTime::from_secs(t)))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (k, &t) in keys.iter().zip(&times) {
            assert_eq!(k.time().as_secs().to_bits(), t.to_bits());
        }
        // -0.0 is the same instant as 0.0: it ties by insertion, not last.
        let mut q: EventQueue<()> = EventQueue::new();
        let neg = q.reserve(SimTime::from_secs(-0.0));
        let pos = q.reserve(SimTime::from_secs(1e-9));
        assert!(neg < pos);
        assert_eq!(neg.time().as_secs().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn reserved_events_interleave_exactly_as_if_queued() {
        // The same schedule, once all on the heap and once with every `b`
        // held outside it, pops in the same order.
        let plan = [(2.0, 'a'), (1.0, 'b'), (1.0, 'c'), (2.0, 'b'), (0.5, 'a')];
        let mut queued = EventQueue::new();
        for &(t, e) in &plan {
            queued.schedule(SimTime::from_secs(t), e);
        }
        let expect: Vec<_> = std::iter::from_fn(|| queued.pop()).collect();

        let mut q = EventQueue::new();
        let mut held = Vec::new();
        for &(t, e) in &plan {
            if e == 'b' {
                held.push(q.reserve(SimTime::from_secs(t)));
            } else {
                q.schedule(SimTime::from_secs(t), e);
            }
        }
        held.sort();
        let mut got = Vec::new();
        let mut held = held.into_iter().peekable();
        loop {
            let held_first = match (held.peek(), q.peek_key()) {
                (Some(&h), Some(head)) => h < head,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if held_first {
                let h = held.next().expect("peeked");
                got.push((q.claim(h), 'b'));
            } else {
                got.push(q.pop().expect("peeked"));
            }
        }
        assert_eq!(got, expect);
        assert_eq!(q.now(), SimTime::from_secs(2.0));
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), 1);
        q.pop();
        q.schedule_in(SimDuration::from_secs(3.0), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn reset_allows_reuse_from_time_zero() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), 1);
        q.pop();
        q.reset();
        assert_eq!(q.now(), SimTime::ZERO);
        // Scheduling before the old clock is legal again after reset.
        q.schedule(SimTime::from_secs(1.0), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 2)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }
}
