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
//! on the queue's hot path.

use crate::time::SimTime;

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
#[derive(Clone, Copy)]
struct Scheduled<E> {
    key: EventKey,
    event: E,
}

/// Popped slots at the front of the run are reclaimed once there are at
/// least this many of them and they make up half the run or more, so a
/// queue that never empties still holds O(pending) memory and each slot is
/// moved O(1) times on average.
const COMPACT_MIN_HEAD: usize = 256;

/// Priority queue of future events, keyed by simulated time with
/// deterministic FIFO tie-breaking.
///
/// The pending events are one key-sorted run, `run[head..]`: [`pop`]
/// reads the front slot and steps past it, and [`schedule`] appends at the
/// back, then moves the new event toward the front past every pending
/// event with a larger key. That suits the serving kernel's traffic, for
/// which the queue is built: it holds at most one completion per instance
/// plus rare faults, and each completion lands one mean service time
/// (lognormal jitter, σ = 0.08) after the instant it is scheduled, so it
/// sorts at the back or a slot or two short of it. Pop is O(1) and
/// schedule is O(1) in practice for that traffic. Keys arriving in random
/// order are the worst case: each schedule then moves past O(pending)
/// events.
///
/// A simulation may also hold an event *outside* the queue — a chained
/// arrival stream whose next event is always known — and still pop it in
/// exactly the order scheduling it here would have: [`EventQueue::reserve`]
/// hands out its key, the caller compares it with [`EventQueue::peek_key`],
/// and [`EventQueue::claim`] advances the clock when it comes first. That
/// saves a queue push and pop per held event.
///
/// [`pop`]: EventQueue::pop
/// [`schedule`]: EventQueue::schedule
pub struct EventQueue<E> {
    /// Popped slots `run[..head]`, then the pending events in key order.
    run: Vec<Scheduled<E>>,
    head: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            head: 0,
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
        let new = Scheduled { key, event };
        self.run.push(new);
        let pending = &mut self.run[self.head..];
        let mut i = pending.len() - 1;
        while i > 0 && pending[i - 1].key > key {
            pending[i] = pending[i - 1];
            i -= 1;
        }
        pending[i] = new;
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
        let Scheduled { key, event } = *self.run.get(self.head)?;
        self.head += 1;
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        } else if self.head >= COMPACT_MIN_HEAD && 2 * self.head >= self.run.len() {
            self.run.drain(..self.head);
            self.head = 0;
        }
        let at = key.time();
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Key of the next event without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.run.get(self.head).map(|s| s.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() - self.head
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.run.clear();
        self.head = 0;
    }

    /// Returns the queue to its initial state (clock at zero, no events)
    /// while keeping the run's allocation, so one queue can be reused
    /// across many simulation windows without reallocating.
    pub fn reset(&mut self) {
        self.clear();
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

    /// Drives the queue through seeded random interleavings of every
    /// operation and checks each step against a reference that keeps the
    /// pending events unordered and pops the least (time bits, sequence).
    #[test]
    fn matches_a_sorted_reference_under_random_interleavings() {
        use crate::rng::SimRng;
        /// A reference entry: time bits, sequence, payload, held outside.
        type Entry = (u64, u64, u32, bool);
        for seed in 0..6 {
            let mut rng = SimRng::new(seed);
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut reference: Vec<Entry> = Vec::new();
            let mut held: Vec<(EventKey, u32)> = Vec::new();
            let (mut seq, mut now, mut next_id) = (0u64, SimTime::ZERO, 0u32);
            let (mut pops_since_empty, mut longest_run) = (0usize, 0usize);
            for step in 0..6000 {
                if step == 3100 {
                    q.reset();
                    reference.clear();
                    held.clear();
                    (seq, now) = (0, SimTime::ZERO);
                }
                // Phases: drain to empty, hover near empty, hold ~40.
                let target = [0, 3, 40, 40][(step / 500) % 4];
                let pop_p = if reference.len() < target { 0.3 } else { 0.7 };
                if rng.chance(pop_p) {
                    let first =
                        (0..reference.len()).min_by_key(|&i| (reference[i].0, reference[i].1));
                    let Some(i) = first else {
                        assert_eq!(q.pop(), None);
                        assert_eq!(q.peek_key(), None);
                        continue;
                    };
                    let (bits, _, id, was_held) = reference.swap_remove(i);
                    let first_held = (0..held.len()).min_by_key(|&h| held[h].0);
                    let claim = match (first_held, q.peek_key()) {
                        (Some(h), Some(head)) => held[h].0 < head,
                        (Some(_), None) => true,
                        (None, _) => false,
                    };
                    assert_eq!(claim, was_held, "seed {seed} step {step}");
                    let (at, got) = if claim {
                        let (key, got) = held.swap_remove(first_held.expect("claimed"));
                        (q.claim(key), got)
                    } else {
                        pops_since_empty += 1;
                        q.pop().expect("reference has a queued event")
                    };
                    assert_eq!(
                        (at.as_secs().to_bits(), got),
                        (bits, id),
                        "seed {seed} step {step}"
                    );
                    now = at;
                } else {
                    // Exact ties with the clock and with each other, the
                    // kernel's near-back completions, and far events that
                    // later ones insert well before.
                    let delay = match rng.below(5) {
                        0 => 0.0,
                        1 => 0.5 * rng.range_usize(1, 4) as f64,
                        2 => (0.08 * rng.normal()).exp(),
                        3 => 50.0 + rng.exponential(1.0),
                        _ => rng.exponential(1.0),
                    };
                    let delay = SimDuration::from_secs(delay);
                    let at = now + delay;
                    let id = next_id;
                    next_id += 1;
                    let outside = held.len() < 2 && rng.chance(0.2);
                    if outside {
                        held.push((q.reserve(at), id));
                    } else if rng.chance(0.5) {
                        q.schedule(at, id);
                    } else {
                        q.schedule_in(delay, id);
                    }
                    reference.push((at.as_secs().to_bits(), seq, id, outside));
                    seq += 1;
                }
                assert_eq!(q.now(), now, "seed {seed} step {step}");
                assert_eq!(
                    q.len(),
                    reference.len() - held.len(),
                    "seed {seed} step {step}"
                );
                assert_eq!(q.is_empty(), reference.len() == held.len());
                if q.is_empty() {
                    pops_since_empty = 0;
                }
                longest_run = longest_run.max(pops_since_empty);
            }
            // The run compacts its popped prefix only after this many pops.
            assert!(longest_run > COMPACT_MIN_HEAD, "seed {seed}: {longest_run}");
        }
    }
}
