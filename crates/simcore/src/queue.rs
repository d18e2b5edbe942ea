//! A stable priority queue of timestamped events.
//!
//! Events scheduled for the same instant are delivered in scheduling order
//! (FIFO), which keeps simulations deterministic even when many events share
//! a timestamp — common with constant middleware delays like the paper's
//! adjudication time `dT`.
//!
//! [`EventQueue`] is a binary heap keyed on `(due, seq)`, where `seq` is a
//! per-queue scheduling counter that breaks ties first-in-first-out. `push`
//! and `pop` are O(log n) whatever the spread of due times. The heap's
//! storage is reserved at construction and kept across pops and
//! [`clear`](EventQueue::clear), so once the queue has reached its
//! high-water mark the steady-state demand loop schedules without touching
//! the allocator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Events reserved at construction, so a queue that never holds more
/// than this many pending events never allocates after `new` — the
/// closed demand loop keeps one or two in flight, the capacity study
/// a few dozen.
const INITIAL_CAPACITY: usize = 256;

/// A pending event with its due time and a tie-breaking sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the sequence number as a FIFO tie-breaker.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
///
/// # Example
///
/// ```
/// use wsu_simcore::queue::EventQueue;
/// use wsu_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with storage for a few hundred pending
    /// events already reserved.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(INITIAL_CAPACITY),
            next_seq: 0,
        }
    }

    /// Schedules `event` at the instant `due`.
    pub fn push(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.due, s.event))
    }

    /// Returns the due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.due)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events. Storage is retained, so a cleared
    /// queue schedules without allocating.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StreamRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), 5);
        q.push(SimTime::from_secs(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(2.0), 2);
        q.push(SimTime::from_secs(9.0), 9);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 9);
    }

    #[test]
    fn heap_queue_basics_still_hold() {
        let mut q = EventQueue::default();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(2.0), "late");
        q.push(SimTime::from_secs(1.0), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
        q.clear();
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    /// Drives the queue and a reference model — a `Vec<(due, seq)>`
    /// stable-sorted by `due` after every push, so equal instants keep
    /// their scheduling order — through `steps` seeded push/pop
    /// interleavings per seed, and requires identical peek/pop
    /// sequences (each event is its own scheduling number). A step
    /// pushes one event at `single(rng)` with probability `p_single`,
    /// a same-instant burst of 2..2+`max_extra` events at `burst(rng)`
    /// with probability `p_burst - p_single`, and pops otherwise.
    /// Deterministic seeded sweep standing in for a property test (no
    /// proptest in this workspace). Returns the latest due time pushed.
    fn sweep_against_oracle(
        seed_base: u64,
        steps: usize,
        (p_single, p_burst): (f64, f64),
        max_extra: u64,
        single: impl Fn(&mut StreamRng) -> f64,
        burst: impl Fn(&mut StreamRng) -> f64,
    ) -> SimTime {
        let mut latest = SimTime::ZERO;
        for seed in seed_base..seed_base + 32 {
            let mut rng = StreamRng::from_seed(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle: Vec<(SimTime, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut push = |q: &mut EventQueue<u64>, oracle: &mut Vec<(SimTime, u64)>, due| {
                q.push(due, seq);
                oracle.push((due, seq));
                oracle.sort_by_key(|&(due, _)| due);
                latest = latest.max(due);
                seq += 1;
            };
            for _step in 0..steps {
                let roll = rng.next_f64();
                if roll < p_single {
                    let t = SimTime::from_secs(single(&mut rng));
                    push(&mut q, &mut oracle, t);
                } else if roll < p_burst {
                    // Same-instant burst: must come back FIFO.
                    let t = SimTime::from_secs(burst(&mut rng));
                    for _ in 0..2 + rng.next_u64() % max_extra {
                        push(&mut q, &mut oracle, t);
                    }
                } else {
                    let expect = (!oracle.is_empty()).then(|| oracle.remove(0));
                    assert_eq!(q.peek_time(), expect.map(|e| e.0), "seed {seed:#x}");
                    assert_eq!(q.pop(), expect, "seed {seed:#x}");
                }
                assert_eq!(q.len(), oracle.len(), "seed {seed:#x}");
            }
            for expect in oracle.drain(..) {
                assert_eq!(q.pop(), Some(expect), "seed {seed:#x}");
            }
            assert!(q.is_empty(), "seed {seed:#x}");
        }
        latest
    }

    /// Mixed schedules — near-term pushes, same-instant bursts and the
    /// odd far-future outlier — pop in the oracle's order. (The name
    /// dates from when a calendar queue was checked against a heap;
    /// the stable-sorted oracle now plays the reference part.)
    #[test]
    fn calendar_and_heap_pop_identical_orders() {
        sweep_against_oracle(
            0xCA1E_0000,
            400,
            (0.45, 0.6),
            6,
            |rng| {
                if rng.next_f64() < 0.05 {
                    1_000.0 + rng.next_f64() * 1.0e6
                } else {
                    rng.next_f64() * 120.0
                }
            },
            |rng| (rng.next_f64() * 60.0).floor(),
        );
    }

    /// Far-future-heavy schedules — most pushes a minute to ~10⁷ s
    /// ahead, bursts entirely in the far future — pop in the oracle's
    /// order, FIFO ties included. (Named for the calendar queue's
    /// spill list, which the heap has no need of.)
    #[test]
    fn spill_heavy_schedules_match_heap_order() {
        let latest = sweep_against_oracle(
            0x5B11_0000,
            500,
            (0.5, 0.65),
            5,
            |rng| {
                let pick = rng.next_f64();
                if pick < 0.35 {
                    rng.next_f64() * 63.0
                } else if pick < 0.65 {
                    64.0 + rng.next_f64() * 500.0
                } else {
                    1.0e3 + rng.next_f64() * 1.0e7
                }
            },
            |rng| 200.0 + (rng.next_f64() * 1.0e4).floor(),
        );
        assert!(
            latest > SimTime::from_secs(1.0e6),
            "sweep never reached the far future"
        );
    }
}
