//! The pending-event set.
//!
//! Two interchangeable backends behind one API, both keyed by
//! `(time, sequence)`: the monotonically increasing sequence number
//! breaks ties between events scheduled for the same instant in
//! **insertion order**, which makes every run of the simulator
//! deterministic regardless of backend internals.
//!
//! * [`QueueBackend::Heap`] (the default) — a binary heap; O(log n)
//!   push/pop, lowest constant factors at small pending sets.
//! * [`QueueBackend::Wheel`] — a hierarchical timing wheel
//!   ([`crate::wheel`]); amortized O(1) push/pop, built for fleet-scale
//!   runs that keep hundreds-to-thousands of events pending.
//!
//! The two backends produce bit-identical pop sequences for any
//! interleaving of operations (property-tested below), so backend
//! choice is purely a performance knob.
//!
//! ## Lanes
//!
//! Most of what a frame-loop simulation files arrives in time order
//! within its class. Some classes are scheduled a *constant* distance
//! ahead of `now` — the next capture, the next controller tick, an
//! offload's deadline, a response's propagation delay; others are FIFO
//! per source — one link's deliveries, one server's successive batches,
//! a process with at most one arrival pending. The queue keeps [`LANES`]
//! FIFOs beside its backend for such classes, one per class. A lane push
//! draws its sequence number from the queue's **one** counter exactly as
//! [`EventQueue::push`] does and appends to the FIFO; a push earlier than
//! the lane's back (a heterogeneous or replayed cadence) goes to the
//! backend *with that same number*. Every pop takes the minimum
//! `(time, seq)` over the lane fronts and the backend's head, so the pop
//! sequence is that of one heap fed the same pushes — by construction,
//! on either backend (`testhooks::replay` checks it against one).
//!
//! A lane entry may stand for `n` consecutive pushes at one instant (the
//! responses of one finished batch): it reserves `n` sequence numbers, so
//! no later event's number moves, and counts as `n` events.

use crate::time::SimTime;
use crate::wheel::{PopBefore, TimerWheel};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Number of FIFO lanes beside the backend (see the module docs).
pub const LANES: usize = 7;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which data structure holds the pending events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueBackend {
    /// Binary heap: O(log n), the historical default.
    #[default]
    Heap,
    /// Hierarchical timing wheel: amortized O(1), same pop order.
    Wheel,
}

enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    // Boxed: the wheel's level/slot table is ~12 KB of inline state.
    Wheel(Box<TimerWheel<E>>),
}

/// Outcome of [`EventQueue::pop_before`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// The earliest event fired at or before the horizon.
    Event(SimTime, E),
    /// The earliest pending event lies beyond the horizon.
    Beyond,
    /// Nothing is pending.
    Empty,
}

/// One lane entry: `n` consecutive pushes of `event` at `time`, holding
/// sequence numbers `seq..seq + n`.
struct LaneEntry<E> {
    time: SimTime,
    seq: u64,
    n: u32,
    event: E,
}

/// A deterministic future-event list.
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Each sorted by `(time, seq)`.
    lanes: [VecDeque<LaneEntry<E>>; LANES],
    /// Key of each lane's front entry (`NO_KEY` for an empty lane), and
    /// the smallest of them with its lane: kept beside the FIFOs so that a
    /// pop compares the backend's head with one cached key, and only a
    /// lane pop re-reads the other fronts.
    fronts: [Key; LANES],
    first: Key,
    first_lane: usize,
    /// Events standing on the lanes (an entry for `n` pushes counts `n`).
    lane_len: usize,
    next_seq: u64,
}

/// An entry's position in the pop order: `(time, seq)` packed so that
/// one integer comparison orders it.
type Key = u128;
/// Above every entry's key (no sequence number reaches `u64::MAX`).
const NO_KEY: Key = Key::MAX;

#[inline]
fn key(time: SimTime, seq: u64) -> Key {
    (Key::from(time.as_micros()) << 64) | Key::from(seq)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty heap-backed queue.
    pub fn new() -> Self {
        Self::on(Backend::Heap(BinaryHeap::new()))
    }

    /// An empty queue on the given backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Heap => Self::new(),
            QueueBackend::Wheel => Self::on(Backend::Wheel(Box::default())),
        }
    }

    fn on(backend: Backend<E>) -> Self {
        EventQueue {
            backend,
            lanes: std::array::from_fn(|_| VecDeque::new()),
            fronts: [NO_KEY; LANES],
            first: NO_KEY,
            first_lane: 0,
            lane_len: 0,
            next_seq: 0,
        }
    }

    /// The active backend.
    pub fn backend(&self) -> QueueBackend {
        match &self.backend {
            Backend::Heap(_) => QueueBackend::Heap,
            Backend::Wheel(_) => QueueBackend::Wheel,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_backend(at, seq, event);
    }

    #[inline]
    fn push_backend(&mut self, at: SimTime, seq: u64, event: E) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Entry {
                time: at,
                seq,
                event,
            }),
            Backend::Wheel(wheel) => wheel.push(at.as_micros(), seq, event),
        }
    }

    /// [`push`](Self::push) for an event whose class is filed in time
    /// order, `n` times over (`n ≥ 1` consecutive pushes at one instant,
    /// filed as one entry that pops once and counts `n`).
    /// Appended to lane `lane` while `at` keeps the lane sorted; otherwise
    /// a single push falls through to the backend under the sequence
    /// number it drew here, and an entry for several — which the backend
    /// cannot count — is inserted into the lane in order.
    /// Make room for `additional` more entries on lane `lane` at once,
    /// for a host about to file that many (its set-up), instead of
    /// growing by eighths through them.
    pub(crate) fn reserve_lane(&mut self, lane: usize, additional: usize) {
        self.lanes[lane].reserve_exact(additional);
    }

    #[inline]
    pub(crate) fn push_lane(&mut self, lane: usize, at: SimTime, n: u32, event: E) {
        debug_assert!(n >= 1, "a lane entry stands for at least one push");
        let seq = self.next_seq;
        self.next_seq += u64::from(n);
        let fifo = &mut self.lanes[lane];
        let sorted = fifo.back().is_none_or(|back| back.time <= at);
        if !sorted && n == 1 {
            return self.push_backend(at, seq, event);
        }
        let entry = LaneEntry {
            time: at,
            seq,
            n,
            event,
        };
        if fifo.len() == fifo.capacity() {
            // A lane settles at a steady length (events in flight per
            // device × devices) and then cycles through all of its buffer:
            // doubling would leave up to half of it as resident slack, so
            // grow by an eighth.
            fifo.reserve_exact(fifo.len() / 8 + 64);
        }
        if sorted {
            fifo.push_back(entry);
        } else {
            // `seq` is the largest so far: after everything at `at`.
            let after = fifo.partition_point(|e| e.time <= at);
            fifo.insert(after, entry);
        }
        let front = fifo.front().expect("just pushed");
        let front = key(front.time, front.seq);
        if front != self.fronts[lane] {
            self.fronts[lane] = front;
            // A lane's front only ever moves down on a push.
            if front < self.first {
                (self.first, self.first_lane) = (front, lane);
            }
        }
        self.lane_len += n as usize;
    }

    /// Remove and return the earliest event, together with its firing time.
    /// Events at equal times come back in the order they were pushed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.pop_counted(SimTime::MAX) {
            Popped::Event(t, (_, event)) => Some((t, event)),
            Popped::Beyond | Popped::Empty => None,
        }
    }

    /// Remove and return the earliest event only if it fires at or
    /// before `horizon` — the fused peek-then-pop the simulation loop
    /// performs once per event. One backend traversal instead of two.
    pub fn pop_before(&mut self, horizon: SimTime) -> Popped<E> {
        match self.pop_counted(horizon) {
            Popped::Event(t, (_, event)) => Popped::Event(t, event),
            Popped::Beyond => Popped::Beyond,
            Popped::Empty => Popped::Empty,
        }
    }

    /// [`pop_before`](Self::pop_before), with the number of events the
    /// popped entry stands for.
    #[inline]
    pub(crate) fn pop_counted(&mut self, horizon: SimTime) -> Popped<(u32, E)> {
        // The backend's head goes first only if its `(time, seq)` is
        // below the earliest lane front (`NO_KEY` when the lanes are
        // empty, which nothing is above).
        let popped = self.pop_backend_below(horizon, self.first);
        if matches!(popped, Popped::Event(..)) || self.first == NO_KEY {
            return popped;
        }
        let lane = self.first_lane;
        let fifo = &mut self.lanes[lane];
        if fifo.front().is_none_or(|e| e.time > horizon) {
            return Popped::Beyond;
        }
        let e = fifo.pop_front().expect("front was just read");
        self.fronts[lane] = fifo.front().map_or(NO_KEY, |next| key(next.time, next.seq));
        (self.first, self.first_lane) = (self.fronts[0], 0);
        for (i, &front) in self.fronts.iter().enumerate().skip(1) {
            if front < self.first {
                (self.first, self.first_lane) = (front, i);
            }
        }
        self.lane_len -= e.n as usize;
        Popped::Event(e.time, (e.n, e.event))
    }

    /// Pop the backend's head if it fires at or before `horizon` and
    /// its `(time, seq)` is below `bound`.
    #[inline]
    fn pop_backend_below(&mut self, horizon: SimTime, bound: Key) -> Popped<(u32, E)> {
        match &mut self.backend {
            Backend::Heap(heap) => match heap.peek() {
                None => Popped::Empty,
                Some(e) if e.time > horizon || key(e.time, e.seq) >= bound => Popped::Beyond,
                Some(_) => {
                    let e = heap.pop().expect("peeked event vanished");
                    Popped::Event(e.time, (1, e.event))
                }
            },
            Backend::Wheel(wheel) => {
                match wheel.pop_below(horizon.as_micros(), ((bound >> 64) as u64, bound as u64)) {
                    PopBefore::Event(t, _seq, event) => {
                        Popped::Event(SimTime::from_micros(t), (1, event))
                    }
                    PopBefore::Beyond => Popped::Beyond,
                    PopBefore::Empty => Popped::Empty,
                }
            }
        }
    }

    /// Firing time of the earliest pending event. Takes `&mut self`
    /// because the wheel stages its earliest batch during the search
    /// (which is exactly what makes the following pop O(1)).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let backend = match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.time),
            Backend::Wheel(wheel) => wheel.peek().map(|(t, _)| SimTime::from_micros(t)),
        };
        let lanes = (self.first != NO_KEY).then(|| self.lanes[self.first_lane][0].time);
        lanes.into_iter().chain(backend).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane_len
            + match &self.backend {
                Backend::Heap(heap) => heap.len(),
                Backend::Wheel(wheel) => wheel.len(),
            }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events (the sequence counter keeps advancing so
    /// ordering stays deterministic across clears).
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Wheel(wheel) => wheel.clear(),
        }
        for fifo in &mut self.lanes {
            fifo.clear();
        }
        self.fronts = [NO_KEY; LANES];
        self.first = NO_KEY;
        self.lane_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn both_backends() -> [EventQueue<usize>; 2] {
        [
            EventQueue::with_backend(QueueBackend::Heap),
            EventQueue::with_backend(QueueBackend::Wheel),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_backends() {
            q.push(SimTime::from_secs(3), 3);
            q.push(SimTime::from_secs(1), 1);
            q.push(SimTime::from_secs(2), 2);
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
            assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
            assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for mut q in both_backends() {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(7), 0);
            q.push(SimTime::from_secs(4), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        }
    }

    #[test]
    fn pop_before_respects_the_horizon_on_both_backends() {
        for mut q in both_backends() {
            assert_eq!(q.pop_before(SimTime::MAX), Popped::Empty);
            q.push(SimTime::from_secs(2), 2);
            q.push(SimTime::from_secs(1), 1);
            assert_eq!(q.pop_before(SimTime::from_millis(500)), Popped::Beyond);
            assert_eq!(
                q.pop_before(SimTime::from_secs(1)),
                Popped::Event(SimTime::from_secs(1), 1)
            );
            assert_eq!(
                q.pop_before(SimTime::MAX),
                Popped::Event(SimTime::from_secs(2), 2)
            );
            assert_eq!(q.pop_before(SimTime::MAX), Popped::Empty);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pushes_after_a_beyond_horizon_pop_order_correctly_on_both_backends() {
        // The `Simulation::schedule_at`-between-`run_until`s pattern (the
        // wheel's own test checks it takes no slow path): a pop finds the
        // next event beyond its horizon, then earlier events are pushed.
        for mut q in both_backends() {
            q.push(SimTime::from_millis(5), 0);
            q.push(SimTime::from_millis(5), 1);
            assert_eq!(q.pop_before(SimTime::from_millis(1)), Popped::Beyond);
            for i in 0..8 {
                q.push(SimTime::from_micros(1_000 + i as u64), 2 + i);
            }
            q.push(SimTime::from_millis(5), 10);
            let mut popped = Vec::new();
            while let Some((_, e)) = q.pop() {
                popped.push(e);
            }
            assert_eq!(popped, vec![2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 10]);
        }
    }

    #[test]
    fn default_backend_is_the_heap() {
        assert_eq!(EventQueue::<()>::new().backend(), QueueBackend::Heap);
        assert_eq!(QueueBackend::default(), QueueBackend::Heap);
        assert_eq!(
            EventQueue::<()>::with_backend(QueueBackend::Wheel).backend(),
            QueueBackend::Wheel
        );
    }

    #[test]
    fn len_and_clear() {
        for mut q in both_backends() {
            q.push(SimTime::ZERO, 1);
            q.push(SimTime::ZERO, 2);
            assert_eq!(q.len(), 2);
            assert!(!q.is_empty());
            q.clear();
            assert!(q.is_empty());
            // Sequence numbers keep increasing: re-push and check order.
            q.push(SimTime::ZERO, 3);
            q.push(SimTime::ZERO, 4);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 4);
        }
    }

    #[test]
    fn max_time_events_pop_last_on_both_backends() {
        for mut q in both_backends() {
            q.push(SimTime::MAX, 0);
            q.push(SimTime::from_secs(1), 1);
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
            assert_eq!(q.pop(), Some((SimTime::MAX, 0)));
        }
    }

    /// Expand one generated op tuple into a concrete operation. Times
    /// are scaled so the sequence exercises level-0 adjacency, multiple
    /// wheel-level boundaries, and the far-future overflow region
    /// (`shift` up to 48 puts times beyond the 2^48 µs wheel horizon).
    fn op_time(raw: u32, shift_sel: u8) -> u64 {
        let shift = [0u32, 6, 14, 30, 48][shift_sel as usize % 5];
        if raw.is_multiple_of(251) {
            u64::MAX
        } else {
            (raw as u64) << shift
        }
    }

    proptest! {
        /// Differential test: arbitrary interleavings of push/pop/clear
        /// produce pop sequences bit-identical between the heap and
        /// wheel backends.
        #[test]
        fn prop_wheel_pop_sequence_matches_heap(
            ops in proptest::collection::vec(
                (0u8..10, any::<u32>(), 0u8..5),
                1..250,
            ),
        ) {
            let mut heap = EventQueue::with_backend(QueueBackend::Heap);
            let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
            for (i, &(op, raw, shift_sel)) in ops.iter().enumerate() {
                match op {
                    // Weighted: pushes dominate so the pending set grows
                    // deep enough to span several wheel levels.
                    0..=5 => {
                        let t = SimTime::from_micros(op_time(raw, shift_sel));
                        heap.push(t, i);
                        wheel.push(t, i);
                    }
                    6..=7 => {
                        prop_assert_eq!(heap.peek_time(), wheel.peek_time());
                        prop_assert_eq!(heap.pop(), wheel.pop());
                    }
                    8 => {
                        let h = SimTime::from_micros(op_time(raw, shift_sel));
                        prop_assert_eq!(heap.pop_before(h), wheel.pop_before(h));
                    }
                    _ => {
                        heap.clear();
                        wheel.clear();
                    }
                }
                prop_assert_eq!(heap.len(), wheel.len());
            }
            // Drain what's left: the full tail must match too.
            loop {
                let (h, w) = (heap.pop(), wheel.pop());
                prop_assert_eq!(h, w);
                if h.is_none() {
                    break;
                }
            }
        }

        /// Popped times are non-decreasing, and within one instant the
        /// payloads come out in insertion order — on both backends.
        #[test]
        fn prop_stable_time_order(
            times in proptest::collection::vec(0u64..1_000, 1..200),
            wheel in any::<bool>(),
        ) {
            let backend = if wheel { QueueBackend::Wheel } else { QueueBackend::Heap };
            let mut q = EventQueue::with_backend(backend);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "same-time events must preserve insertion order");
                    }
                }
                last = Some((t, i));
            }
        }

        /// The queue drains exactly the number of events pushed.
        #[test]
        fn prop_conservation(
            times in proptest::collection::vec(0u64..100, 0..100),
            wheel in any::<bool>(),
        ) {
            let backend = if wheel { QueueBackend::Wheel } else { QueueBackend::Heap };
            let mut q = EventQueue::with_backend(backend);
            for &t in &times {
                q.push(SimTime::from_micros(t) + SimDuration::ZERO, ());
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            prop_assert_eq!(n, times.len());
        }
    }
}
