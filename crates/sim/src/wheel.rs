//! Hierarchical timing-wheel backend for the event queue.
//!
//! A classic O(1) alternative to the binary heap for discrete-event
//! simulation: pending events live in `LEVELS` wheels of `SLOTS` slots
//! each, where level `l` buckets times by bits
//! `LEVEL_BITS·l..LEVEL_BITS·(l+1)` of their absolute
//! integer-microsecond value. Push files an entry at the level of the
//! highest bit in which its time differs from the wheel cursor; pop
//! lazily cascades the earliest occupied slot down until the exact
//! firing time surfaces at level 0. Each entry cascades at most
//! `LEVELS − 1` times over its lifetime, so push/pop are amortized O(1)
//! regardless of the pending-set size.
//!
//! ## Layout
//!
//! The constant factor, not the asymptotics, decides whether the wheel
//! beats an L1-resident binary heap, so the storage is built to keep
//! cascades free of payload copies:
//!
//! * entries live in one **slab** (`nodes`), allocated once and recycled
//!   through an intrusive free list — steady-state push/pop performs no
//!   heap allocation;
//! * each slot is a **FIFO linked list** of slab indices (`head`/`tail`
//!   per slot, 8 bytes), so cascading a slot relinks `u32` indices
//!   instead of moving `(time, seq, event)` tuples between vectors;
//! * the slot table and occupancy bitmaps are fixed-size inline arrays —
//!   finding the next occupied slot is a shift-mask-`trailing_zeros` on
//!   a per-level word-summary bitmap plus one `u64` word.
//!
//! `LEVEL_BITS = 10` makes level 1 span `2^20` µs ≈ 1.05 s, so every
//! horizon a frame-loop simulation schedules at — the ~33 ms frame
//! interval, local service times, the 250 ms offload deadline, the 1 s
//! controller tick — files one level up and pays exactly **one** cascade
//! before surfacing. The narrow classic layout (64-slot levels) put all
//! of those two to three cascades deep, and the cascade relinks were the
//! single largest queue cost at fleet scale.
//!
//! ## Determinism
//!
//! The simulator's contract is that events pop in `(time, seq)` order,
//! where `seq` is the monotone insertion counter. Buckets scramble
//! insertion order in two ways a naive wheel gets wrong:
//!
//! 1. two same-time events pushed at different cursor positions can be
//!    filed at *different levels*, and cascading the higher one later
//!    would append it after its lower-`seq` sibling;
//! 2. the earliest level-0 slot can surface while a same-time,
//!    smaller-`seq` entry still sits in a colliding slot of a higher
//!    level.
//!
//! Both are fixed at staging time: when the earliest level-0 slot (time
//! `T`) is found, the cursor moves to `T`, every higher level's
//! cursor-colliding slot is cascaded (which pulls all remaining time-`T`
//! entries into the same level-0 slot), and the slot is sorted by `seq`
//! before draining. The staged batch then pops in exactly heap order.
//!
//! Two small side heaps keep the structure total: `past` holds pushes
//! behind the cursor (legal for a standalone queue, never produced by
//! the causality-checked simulator), and `overflow` holds times beyond
//! the 2⁵⁰ µs (~35 year) wheel horizon, e.g. `SimTime::MAX` sentinels.
//! Every peek/pop compares the staged batch against both heaps by
//! `(time, seq)`, so ordering is exact across all three stores.
//!
//! ## Bounded staging
//!
//! Staging moves the cursor, and a push behind the cursor costs an
//! un-stage, a re-sort and a trip through `past`. So a pop that is only
//! interested in entries up to some instant — [`TimerWheel::pop_before`]'s
//! horizon, or the earliest entry of the event queue's FIFO lanes — never
//! stages (or moves the cursor) beyond it: the caller may legally push at
//! any time from that instant on. Where the search gave up is kept as
//! `floor`, a lower bound on everything filed, so asking again before
//! that instant costs one comparison instead of a re-scan.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bits of absolute time resolved per wheel level.
const LEVEL_BITS: usize = 10;
/// Slots per level (2^LEVEL_BITS).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels; the wheel spans `2^(LEVEL_BITS·LEVELS)` µs.
const LEVELS: usize = 5;
/// `u64` words per level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Slot-index mask.
const MASK: u64 = (SLOTS as u64) - 1;
/// Null slab index (end of a slot list / free list).
const NIL: u32 = u32::MAX;

/// One pending event: absolute time (µs), insertion sequence, payload.
pub(crate) struct WheelEntry<E> {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

/// Min-heap adapter over `(time, seq)` for the side heaps.
struct Rev<E>(WheelEntry<E>);

impl<E> PartialEq for Rev<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Rev<E> {}
impl<E> PartialOrd for Rev<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Rev<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A slab entry: a filed event plus its intrusive slot-list link.
struct Node<E> {
    time: u64,
    seq: u64,
    /// Next node in this slot's FIFO (or in the free list); `NIL` ends it.
    next: u32,
    /// `None` while the node sits on the free list.
    event: Option<E>,
}

/// Head/tail slab indices of one slot's FIFO list.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// The wheel proper. See the module docs for the invariants:
/// * `cursor` ≤ the time of every entry filed in the slot table;
/// * every level-0 entry lies in the cursor's aligned `SLOTS` µs window
///   (so one level-0 slot holds exactly one firing instant);
/// * while `current` is non-empty it holds the earliest wheel batch
///   (one instant, ascending `seq`) and `cursor == current_time`;
/// * `cursor` ≤ `floor` ≤ the time of every entry filed in the slot table.
pub struct TimerWheel<E> {
    /// All filed entries. Slot lists thread through it by index; freed
    /// indices chain from `free_head` and are recycled LIFO, so the
    /// steady-state working set stays cache-resident.
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Per-level, per-slot FIFO lists of slab indices.
    slots: [[Slot; SLOTS]; LEVELS],
    /// Bit `s & 63` of `occupied[l][s / 64]` set ⇔ `slots[l][s]` is
    /// non-empty.
    occupied: [[u64; WORDS]; LEVELS],
    /// Bit `w` of `summary[l]` set ⇔ `occupied[l][w] != 0`: next-slot
    /// scans read one summary word plus one bitmap word instead of
    /// walking all `WORDS` words.
    summary: [u64; LEVELS],
    /// Bit `l` set ⇔ level `l` has an occupied slot: lets the staging
    /// loops visit only non-empty levels instead of probing all of them.
    active: u8,
    /// Entries filed in the slot table (excludes `current`/`past`/`overflow`).
    wheel_len: usize,
    /// Pushes behind the cursor.
    past: BinaryHeap<Rev<E>>,
    /// Pushes beyond the wheel horizon.
    overflow: BinaryHeap<Rev<E>>,
    /// The staged earliest batch: same-time entries in `seq` order.
    current: VecDeque<WheelEntry<E>>,
    current_time: u64,
    cursor: u64,
    /// Lower bound on the time of every slot-table entry: where the last
    /// bounded staging gave up, lowered by each earlier push.
    floor: u64,
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free_head: NIL,
            slots: [[EMPTY_SLOT; SLOTS]; LEVELS],
            occupied: [[0; WORDS]; LEVELS],
            summary: [0; LEVELS],
            active: 0,
            wheel_len: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            current: VecDeque::new(),
            current_time: 0,
            cursor: 0,
            floor: 0,
            len: 0,
        }
    }

    /// Number of pending entries across all stores.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File `event` to fire at absolute time `time` (µs). `seq` must be
    /// a monotone insertion counter; same-time entries pop in `seq`
    /// order. Pushing behind the cursor is legal (it lands in the `past`
    /// side heap) — wall-clock users see this on backward clock jumps.
    pub fn push(&mut self, time: u64, seq: u64, event: E) {
        self.len += 1;
        if !self.current.is_empty() {
            if time == self.current_time {
                // `seq` is monotone, so appending keeps the batch sorted.
                self.current.push_back(WheelEntry { time, seq, event });
                return;
            }
            if time < self.current_time {
                // Rare: the staged batch is no longer the minimum. Refile
                // it (cursor == current_time ⇒ level 0) and fall through.
                self.unstage();
            }
        }
        if time < self.cursor {
            self.past.push(Rev(WheelEntry { time, seq, event }));
            return;
        }
        self.file_new(time, seq, event);
    }

    /// Pop the earliest entry only if it fires at or before `horizon` —
    /// the fused peek-then-pop the simulation loop runs per event, which
    /// pays the minimum-source bookkeeping once instead of twice. Nothing
    /// later than `horizon` is staged, so pushing at any time from
    /// `horizon` on stays on the fast path.
    pub fn pop_before(&mut self, horizon: u64) -> PopBefore<E> {
        self.pop_below(horizon, (u64::MAX, u64::MAX))
    }

    /// [`pop_before`](Self::pop_before), additionally only if the entry's
    /// `(time, seq)` is below `bound` — the key of the earliest entry the
    /// caller holds elsewhere (the event queue's lanes). Staging stops at
    /// `min(horizon, bound.0)`.
    #[inline]
    pub(crate) fn pop_below(&mut self, horizon: u64, bound: (u64, u64)) -> PopBefore<E> {
        let Some(source) = self.min_source(horizon.min(bound.0)) else {
            return PopBefore::Empty;
        };
        let fires = |time: u64, seq: u64| time <= horizon && (time, seq) < bound;
        match source {
            Source::Current => {
                if !self.current.front().is_some_and(|e| fires(e.time, e.seq)) {
                    return PopBefore::Beyond;
                }
                self.len -= 1;
                let e = self.current.pop_front().expect("staged batch is non-empty");
                PopBefore::Event(e.time, e.seq, e.event)
            }
            Source::Past => {
                if !self.past.peek().is_some_and(|r| fires(r.0.time, r.0.seq)) {
                    return PopBefore::Beyond;
                }
                self.len -= 1;
                let r = self.past.pop().expect("past heap is non-empty");
                PopBefore::Event(r.0.time, r.0.seq, r.0.event)
            }
            Source::Overflow => {
                if !self
                    .overflow
                    .peek()
                    .is_some_and(|r| fires(r.0.time, r.0.seq))
                {
                    return PopBefore::Beyond;
                }
                self.len -= 1;
                let r = self.overflow.pop().expect("overflow heap is non-empty");
                PopBefore::Event(r.0.time, r.0.seq, r.0.event)
            }
            Source::Later => PopBefore::Beyond,
        }
    }

    /// `(time, seq)` of the next pop. Mutates: staging the earliest
    /// batch is what makes the subsequent pop O(1).
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        self.min_source(u64::MAX)?;
        let mut best: Option<(u64, u64)> = self.current.front().map(|e| (e.time, e.seq));
        for heap in [&self.past, &self.overflow] {
            if let Some(r) = heap.peek() {
                let k = (r.0.time, r.0.seq);
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                }
            }
        }
        best
    }

    /// Drop everything. The cursor is retained: later pushes at earlier
    /// times are still ordered correctly via the `past` heap.
    pub(crate) fn clear(&mut self) {
        for l in 0..LEVELS {
            let mut sum = self.summary[l];
            while sum != 0 {
                let w = sum.trailing_zeros() as usize;
                let mut occ = self.occupied[l][w];
                while occ != 0 {
                    let s = (w << 6) + occ.trailing_zeros() as usize;
                    self.slots[l][s] = EMPTY_SLOT;
                    occ &= occ - 1;
                }
                self.occupied[l][w] = 0;
                sum &= sum - 1;
            }
            self.summary[l] = 0;
        }
        self.active = 0;
        // Dropping the slab drops every parked payload with it.
        self.nodes.clear();
        self.free_head = NIL;
        self.current.clear();
        self.past.clear();
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
    }

    /// Take a recycled (or fresh) slab node for a new entry.
    #[inline]
    fn alloc(&mut self, time: u64, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                time,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Level of the highest bit where `time` differs from the cursor
    /// (level 0 if equal). Caller guarantees `time` is on the wheel.
    #[inline]
    fn level_for(cursor: u64, time: u64) -> usize {
        let x = time ^ cursor;
        if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) as usize / LEVEL_BITS
        }
    }

    /// Mark `slots[level][slot]` occupied in the two-level bitmap.
    #[inline]
    fn mark_occupied(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot >> 6] |= 1u64 << (slot & 63);
        self.summary[level] |= 1u64 << (slot >> 6);
        self.active |= 1u8 << level;
    }

    /// Mark `slots[level][slot]` empty, folding the word and level
    /// summaries as they drain.
    #[inline]
    fn mark_empty(&mut self, level: usize, slot: usize) {
        let w = slot >> 6;
        self.occupied[level][w] &= !(1u64 << (slot & 63));
        if self.occupied[level][w] == 0 {
            self.summary[level] &= !(1u64 << w);
            if self.summary[level] == 0 {
                self.active &= !(1u8 << level);
            }
        }
    }

    /// Is `slots[level][slot]` occupied?
    #[inline]
    fn is_occupied(&self, level: usize, slot: usize) -> bool {
        self.occupied[level][slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// First occupied slot of `level` at index `from` or later, if any:
    /// one masked bitmap word for `from`'s own word, then the summary
    /// for everything after it.
    #[inline]
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let w = from >> 6;
        let first = self.occupied[level][w] & (!0u64 << (from & 63));
        if first != 0 {
            return Some((w << 6) + first.trailing_zeros() as usize);
        }
        // `w + 1` ≤ WORDS = 16, so the shift never overflows a u64.
        let rest = self.summary[level] & (!0u64 << (w + 1));
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some((w << 6) + self.occupied[level][w].trailing_zeros() as usize)
    }

    /// Append node `idx` (with `next` already `NIL`) to a slot's FIFO.
    #[inline]
    fn link(&mut self, level: usize, slot: usize, idx: u32) {
        let s = self.slots[level][slot];
        if s.head == NIL {
            self.slots[level][slot] = Slot {
                head: idx,
                tail: idx,
            };
            self.mark_occupied(level, slot);
        } else {
            self.nodes[s.tail as usize].next = idx;
            self.slots[level][slot].tail = idx;
        }
    }

    /// File a new entry at its level (or the overflow heap).
    #[inline]
    fn file_new(&mut self, time: u64, seq: u64, event: E) {
        debug_assert!(time >= self.cursor);
        if (time ^ self.cursor) >> (LEVEL_BITS * LEVELS) != 0 {
            self.overflow.push(Rev(WheelEntry { time, seq, event }));
            return;
        }
        let level = Self::level_for(self.cursor, time);
        let slot = ((time >> (LEVEL_BITS * level)) & MASK) as usize;
        let idx = self.alloc(time, seq, event);
        self.link(level, slot, idx);
        self.wheel_len += 1;
        self.floor = self.floor.min(time);
    }

    /// Re-file a slab node against the current cursor. Cascaded times
    /// stay on the wheel (their cursor distance only shrinks), so no
    /// overflow check — and no payload moves, only index relinks.
    #[inline]
    fn refile(&mut self, idx: u32) {
        let time = self.nodes[idx as usize].time;
        debug_assert!(time >= self.cursor);
        debug_assert_eq!((time ^ self.cursor) >> (LEVEL_BITS * LEVELS), 0);
        let level = Self::level_for(self.cursor, time);
        let slot = ((time >> (LEVEL_BITS * level)) & MASK) as usize;
        self.nodes[idx as usize].next = NIL;
        self.link(level, slot, idx);
    }

    /// Re-file one slot's entries against the current cursor. Every
    /// entry lands at a strictly lower level, which bounds total
    /// cascade work at O(LEVELS) per entry lifetime.
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let s = self.slots[level][slot];
        self.slots[level][slot] = EMPTY_SLOT;
        self.mark_empty(level, slot);
        let mut idx = s.head;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.refile(idx);
            idx = next;
        }
    }

    /// Return the staged batch to the wheel (cursor == current_time, so
    /// everything refiles at level 0 and re-stages in `seq` order).
    fn unstage(&mut self) {
        debug_assert_eq!(self.cursor, self.current_time);
        while let Some(e) = self.current.pop_front() {
            self.file_new(e.time, e.seq, e.event);
        }
    }

    /// Move the earliest pending wheel batch into `current`, unless it
    /// fires after `limit`: then nothing is staged, the cursor stays at
    /// or before `limit`, and `floor` records how far the search got.
    fn stage_earliest(&mut self, limit: u64) {
        debug_assert!(self.current.is_empty());
        loop {
            // All level-0 entries share the cursor's aligned `SLOTS` µs
            // window, so slots at or after the cursor's own index cover
            // every pending level-0 time.
            let s0 = (self.cursor & MASK) as usize;
            if let Some(s) = self.next_occupied(0, s0) {
                let t = self.nodes[self.slots[0][s].head as usize].time;
                self.floor = t;
                if t > limit {
                    return;
                }
                self.cursor = t;
                // Pull down same-time entries parked in cursor-colliding
                // slots of higher levels (determinism fix #2). Cascades
                // only refile into non-colliding slots, so the snapshot
                // of active levels taken here stays sufficient.
                let mut pending = self.active & !1u8;
                while pending != 0 {
                    let l = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let sl = ((t >> (LEVEL_BITS * l)) & MASK) as usize;
                    if self.is_occupied(l, sl) {
                        self.cascade_slot(l, sl);
                    }
                }
                // Drain the slot (one firing instant) into `current`,
                // moving each payload out of the slab exactly once.
                let slot = self.slots[0][s];
                self.slots[0][s] = EMPTY_SLOT;
                self.mark_empty(0, s);
                let mut idx = slot.head;
                while idx != NIL {
                    let node = &mut self.nodes[idx as usize];
                    let next = node.next;
                    let event = node.event.take().expect("filed node has a payload");
                    self.current.push_back(WheelEntry {
                        time: node.time,
                        seq: node.seq,
                        event,
                    });
                    self.nodes[idx as usize].next = self.free_head;
                    self.free_head = idx;
                    self.wheel_len -= 1;
                    idx = next;
                }
                // One instant per level-0 slot; order by insertion. A
                // singleton batch (the common case) is already sorted.
                if self.current.len() > 1 {
                    self.current
                        .make_contiguous()
                        .sort_unstable_by_key(|e| e.seq);
                }
                self.current_time = t;
                return;
            }
            // Level 0 is empty: cascade the first occupied slot of the
            // lowest occupied level (it holds the wheel minimum).
            let mut progressed = false;
            let mut pending = self.active & !1u8;
            while pending != 0 {
                let l = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let sl = ((self.cursor >> (LEVEL_BITS * l)) & MASK) as usize;
                let Some(s) = self.next_occupied(l, sl) else {
                    continue;
                };
                if s != sl {
                    // Jump the cursor to the start of that slot's
                    // window; everything below it is provably empty.
                    let shift = LEVEL_BITS * l;
                    let above = !0u64 << (shift + LEVEL_BITS);
                    let start = (self.cursor & above) | ((s as u64) << shift);
                    self.floor = start;
                    if start > limit {
                        return;
                    }
                    self.cursor = start;
                } else if self.cursor > limit {
                    return;
                }
                self.cascade_slot(l, s);
                progressed = true;
                break;
            }
            debug_assert!(progressed, "wheel_len > 0 but no occupied slot");
            if !progressed {
                return;
            }
        }
    }

    /// Where the earliest entry at or before `limit` lives
    /// ([`Source::Later`] if everything pending fires after it), staging
    /// the wheel's earliest batch if that is needed to know. `None` when
    /// nothing is pending at all.
    fn min_source(&mut self, limit: u64) -> Option<Source> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() && self.wheel_len > 0 && limit >= self.floor {
            self.stage_earliest(limit);
        }
        // Fast path: no stragglers in the side heaps (the steady state
        // for simulator workloads), so the staged batch is the minimum.
        if self.past.is_empty() && self.overflow.is_empty() {
            return Some(if self.current.is_empty() {
                Source::Later
            } else {
                Source::Current
            });
        }
        let mut best: Option<((u64, u64), Source)> = self
            .current
            .front()
            .map(|e| ((e.time, e.seq), Source::Current));
        if let Some(r) = self.past.peek() {
            let k = (r.0.time, r.0.seq);
            if best.as_ref().is_none_or(|(b, _)| k < *b) {
                best = Some((k, Source::Past));
            }
        }
        if let Some(r) = self.overflow.peek() {
            let k = (r.0.time, r.0.seq);
            if best.as_ref().is_none_or(|(b, _)| k < *b) {
                best = Some((k, Source::Overflow));
            }
        }
        Some(best.map_or(Source::Later, |(_, s)| s))
    }
}

enum Source {
    Current,
    Past,
    Overflow,
    /// The slot table's earliest entry fires after the caller's limit and
    /// nothing else is pending.
    Later,
}

/// Outcome of [`TimerWheel::pop_before`].
pub enum PopBefore<E> {
    /// The earliest entry fired at or before the horizon.
    Event(u64, u64, E),
    /// The earliest pending entry lies beyond the horizon.
    Beyond,
    /// Nothing is pending.
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> TimerWheel<E> {
        /// Remove and return the earliest `(time, seq, event)` entry.
        fn pop(&mut self) -> Option<(u64, u64, E)> {
            match self.pop_before(u64::MAX) {
                PopBefore::Event(t, seq, event) => Some((t, seq, event)),
                PopBefore::Beyond | PopBefore::Empty => None,
            }
        }
    }

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, _seq, e)) = w.pop() {
            out.push((t, e));
        }
        out
    }

    #[test]
    fn pops_across_level_boundaries_in_time_order() {
        let mut w = TimerWheel::new();
        // 1023 / 1024 straddle the level-0/1 boundary; 2^20−1 / 2^20
        // the level-1/2 boundary; 2^51 lies beyond the wheel horizon.
        let times = [1024u64, 1 << 20, 1023, (1 << 20) - 1, 1u64 << 51, 0, 1];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, i as u32);
        }
        let popped = drain(&mut w);
        let mut expect: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, expect);
    }

    #[test]
    fn same_time_entries_filed_at_different_levels_pop_in_seq_order() {
        let mut w = TimerWheel::new();
        // A (seq 0) is filed at level 2 while the cursor is at 0.
        w.push(4100, 0, 0);
        // Advance the cursor close to A's time...
        w.push(4097, 1, 1);
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((4097, 1)));
        // ...so B (seq 2) files at level 0 despite sharing A's time.
        w.push(4100, 2, 2);
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((4100, 0)), "A first");
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((4100, 2)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), None);
    }

    #[test]
    fn pushes_behind_the_cursor_still_order_correctly() {
        let mut w = TimerWheel::new();
        w.push(1_000, 0, 0);
        assert!(w.pop().is_some()); // cursor now at 1_000
        w.push(5, 1, 1); // behind the cursor → past heap
        w.push(1_000, 2, 2);
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((5, 1)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((1_000, 2)));
    }

    #[test]
    fn staged_batch_is_unstaged_when_an_earlier_push_arrives() {
        let mut w = TimerWheel::new();
        w.push(100, 0, 0);
        w.push(100, 1, 1);
        assert_eq!(w.peek(), Some((100, 0))); // stages the 100 µs batch
        w.push(50, 2, 2); // earlier than the staged batch
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((50, 2)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((100, 0)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((100, 1)));
    }

    #[test]
    fn pop_before_stages_nothing_beyond_its_horizon() {
        // `run_until(h)` ends on a `pop_before(h)` that finds the next
        // batch beyond `h`, and the caller may then schedule anywhere
        // from `h` on. Had that pop staged the batch, the cursor would
        // sit at 5 000 and each earlier push would un-stage it or land in
        // `past`.
        let mut w = TimerWheel::new();
        w.push(5_000, 0, 0);
        w.push(5_000, 1, 1);
        assert!(matches!(w.pop_before(1_000), PopBefore::Beyond));
        assert!(w.current.is_empty(), "staged a batch beyond the horizon");
        assert!(w.cursor <= 1_000, "cursor ran ahead to {}", w.cursor);
        for (i, t) in (1_000..1_008u64).enumerate() {
            w.push(t, 2 + i as u64, 2 + i as u32);
            assert!(w.past.is_empty(), "push at {t} went through `past`");
        }
        // Asking again below where the search gave up costs no re-scan
        // and still stages nothing.
        assert!(matches!(w.pop_before(999), PopBefore::Beyond));
        assert!(w.current.is_empty());
        let mut expect: Vec<(u64, u32)> = (0..8).map(|i| (1_000 + i, 2 + i as u32)).collect();
        expect.extend([(5_000, 0), (5_000, 1)]);
        assert_eq!(drain(&mut w), expect);
        assert!(w.past.is_empty());
    }

    #[test]
    fn far_future_and_max_times_live_in_overflow() {
        let mut w = TimerWheel::new();
        w.push(u64::MAX, 0, 0);
        w.push(1u64 << 50, 1, 1);
        w.push(7, 2, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((7, 2)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((1u64 << 50, 1)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((u64::MAX, 0)));
    }

    #[test]
    fn clear_empties_everything_but_keeps_ordering_valid() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 0);
        w.push(1u64 << 49, 1, 1);
        assert!(w.pop().is_some()); // cursor advances to 10
        w.push(20, 2, 2);
        w.clear();
        assert_eq!(w.len(), 0);
        assert!(w.pop().is_none());
        // Push before the retained cursor after a clear: still ordered.
        w.push(3, 3, 3);
        w.push(30, 4, 4);
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((3, 3)));
        assert_eq!(w.pop().map(|(t, _, e)| (t, e)), Some((30, 4)));
    }

    #[test]
    fn slab_nodes_are_recycled_across_pop_push_cycles() {
        let mut w = TimerWheel::new();
        for i in 0..32u64 {
            w.push(i * 100, i, i as u32);
        }
        // Steady-state churn: every pop frees a node that the following
        // push reuses, so the slab never grows past the high-water mark.
        for i in 32..4_096u64 {
            let (_, _, _e) = w.pop().expect("queue stays full");
            w.push(i * 100, i, i as u32);
        }
        assert!(
            w.nodes.len() <= 33,
            "slab grew to {} nodes for 32 concurrent entries",
            w.nodes.len()
        );
    }
}
