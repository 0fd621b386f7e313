//! Slab-indexed in-flight bookkeeping: the device runtime's deadline
//! tracker in every host.
//!
//! [`FlightTable`] follows each offloaded frame from send to resolution,
//! keyed by the sequence number in the tag's low bits — a live host's
//! plain frame counter, or the per-device sequence packed into a fleet
//! tag ([`crate::tags`]) — instead of hashing the whole tag. In-flight
//! tags of one device span little more than the frames captured within
//! one deadline window (every entry is removed by its deadline), so an
//! open-addressed ring indexed by `tag & mask` almost never collides;
//! when it would, the ring doubles and re-seats its entries. Lookups
//! are one masked index plus one compare — no hashing, no probing.
//!
//! A fleet holds one ring per device ([`FlightRing`], the table without
//! its deadline, which every host already holds once per run), so the
//! ring starts inline at the size a device parked at the probe floor
//! never outgrows — 2 slots, one frame in flight per capture interval —
//! and only a device that offloads more grows it onto the heap: a parked
//! 100k-device fleet pays no allocation per ring and no pointer chase
//! per lookup. [`FlightTable`] is the ring with its deadline owned,
//! sized up front for the window its host expects.
//!
//! [`ProbeTable`] plays the same role for heartbeat probes: at most
//! `ceil(deadline / controller_period) + 1` probes are ever outstanding
//! (one per tick), so a tiny linear-scanned array beats any map.
//!
//! The hash-map tracker these tables replaced lives on as the oracle of
//! the differential proptest in `tests/flight_oracle.rs`
//! (`offload_testhooks::OffloadTracker`).

use crate::offload::{LatencyBreakdown, OffloadResolution, TimeoutCause};
use ff_sim::{SimDuration, SimTime};

/// Stage words of an [`Entry`]: the life-cycle states of an offloaded
/// frame, one word each. Any value below [`REJECTED_BY_SERVER`] is the
/// "at server" state and *is* the arrival instant in microseconds; the
/// named states sit above every instant a run can reach.
const EMPTY: u64 = u64::MAX;
const IN_NETWORK: u64 = u64::MAX - 1;
const DROPPED_BY_NETWORK: u64 = u64::MAX - 2;
const REJECTED_BY_SERVER: u64 = u64::MAX - 3;

/// One ring slot, 24 bytes. A slot whose stage is [`EMPTY`] is vacant
/// (its other fields are stale), so occupancy costs no separate word.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    captured_at: SimTime,
    stage: u64,
}

const VACANT: Entry = Entry {
    tag: 0,
    captured_at: SimTime::ZERO,
    stage: EMPTY,
};

/// Slots of the inline ring: what a device parked at the probe floor has
/// in flight (`0.1·F_s`, one frame per 333 ms against a 250 ms deadline),
/// with one to spare. `tests/fleet_footprint.rs`'s parked fleet never
/// grows one.
const INLINE_SLOTS: usize = 2;

/// Open-addressed ring, length a power of two. A tag lives at
/// `tag & (len − 1)`; the build invariant is that no two live tags
/// share a slot (we grow instead of probing).
#[derive(Debug, Clone)]
enum Ring {
    Inline([Entry; INLINE_SLOTS]),
    Spilled(Box<[Entry]>),
}

impl Ring {
    fn with_slots(slots: usize) -> Ring {
        debug_assert!(slots.is_power_of_two());
        if slots <= INLINE_SLOTS {
            Ring::Inline([VACANT; INLINE_SLOTS])
        } else {
            Ring::Spilled(vec![VACANT; slots].into_boxed_slice())
        }
    }

    #[inline]
    fn slots(&self) -> &[Entry] {
        match self {
            Ring::Inline(slots) => slots,
            Ring::Spilled(slots) => slots,
        }
    }

    #[inline]
    fn slots_mut(&mut self) -> &mut [Entry] {
        match self {
            Ring::Inline(slots) => slots,
            Ring::Spilled(slots) => slots,
        }
    }

    /// The slot `tag` maps to. The sequence number occupies the tag's
    /// low bits, so masking the tag is masking the sequence.
    #[inline]
    fn slot_mut(&mut self, tag: u64) -> &mut Entry {
        let slots = self.slots_mut();
        let mask = slots.len() - 1;
        &mut slots[tag as usize & mask]
    }
}

/// In-flight frames of one device, slab-indexed by the tag's sequence
/// bits: `sent` panics on duplicates, stage updates on missing tags are
/// no-ops, resolutions are reported exactly once. The deadline it
/// enforces is the caller's, passed to each call that resolves a frame.
#[derive(Debug, Clone)]
pub(crate) struct FlightRing {
    ring: Ring,
    len: usize,
    resolved_success: u64,
    resolved_timeout: u64,
}

// One ring per device: a field added here costs a 100k-device fleet
// 100 000× its size.
const _: () = assert!(std::mem::size_of::<FlightRing>() == 80);

impl Default for FlightRing {
    fn default() -> Self {
        FlightRing::with_slots(INLINE_SLOTS)
    }
}

impl FlightRing {
    fn with_slots(slots: usize) -> FlightRing {
        FlightRing {
            ring: Ring::with_slots(slots),
            len: 0,
            resolved_success: 0,
            resolved_timeout: 0,
        }
    }

    /// Double the ring until every live entry has a private slot.
    #[cold]
    fn grow(&mut self) {
        let old = self.ring.slots();
        let mut next = old.len();
        let grown = 'double: loop {
            next *= 2;
            let mut ring = Ring::with_slots(next);
            for e in old.iter().filter(|e| e.stage != EMPTY) {
                let s = ring.slot_mut(e.tag);
                if s.stage != EMPTY {
                    // Live sequence numbers congruent at this size too:
                    // keep doubling.
                    continue 'double;
                }
                *s = *e;
            }
            break ring;
        };
        self.ring = grown;
    }

    /// Register a frame the device just offloaded.
    pub(crate) fn sent(&mut self, tag: u64, captured_at: SimTime) {
        loop {
            let e = self.ring.slot_mut(tag);
            if e.stage == EMPTY {
                *e = Entry {
                    tag,
                    captured_at,
                    stage: IN_NETWORK,
                };
                self.len += 1;
                return;
            }
            assert!(e.tag != tag, "tag {tag} offloaded twice");
            self.grow();
        }
    }

    #[inline]
    fn get_mut(&mut self, tag: u64) -> Option<&mut Entry> {
        let e = self.ring.slot_mut(tag);
        (e.tag == tag && e.stage != EMPTY).then_some(e)
    }

    #[inline]
    fn remove(&mut self, tag: u64) -> Option<Entry> {
        let e = self.get_mut(tag)?;
        let removed = *e;
        e.stage = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// The uplink dropped the frame; the cause is known early but the
    /// resolution still waits for the deadline event.
    pub(crate) fn network_dropped(&mut self, tag: u64) {
        if let Some(e) = self.get_mut(tag) {
            e.stage = DROPPED_BY_NETWORK;
        }
    }

    /// The frame arrived at the server.
    pub(crate) fn arrived_at_server(&mut self, tag: u64, at: SimTime) {
        assert!(
            at.as_micros() < REJECTED_BY_SERVER,
            "arrival instant {at} collides with the stage words"
        );
        if let Some(e) = self.get_mut(tag) {
            e.stage = at.as_micros();
        }
    }

    /// The server rejected the request (admission or batch overflow).
    pub(crate) fn rejected_by_server(&mut self, tag: u64) {
        if let Some(e) = self.get_mut(tag) {
            e.stage = REJECTED_BY_SERVER;
        }
    }

    /// A response reached the device at `now`; `None` if the frame was
    /// already resolved by its deadline event.
    pub(crate) fn response_arrived(
        &mut self,
        tag: u64,
        now: SimTime,
        deadline: SimDuration,
    ) -> Option<OffloadResolution> {
        let e = self.remove(tag)?;
        let latency = now.saturating_since(e.captured_at);
        if latency <= deadline {
            self.resolved_success += 1;
            let breakdown = match e.stage {
                IN_NETWORK | DROPPED_BY_NETWORK | REJECTED_BY_SERVER => LatencyBreakdown::default(),
                arrived_at => {
                    let arrived_at = SimTime::from_micros(arrived_at);
                    LatencyBreakdown {
                        uplink: Some(arrived_at.saturating_since(e.captured_at)),
                        server_and_down: Some(now.saturating_since(arrived_at)),
                    }
                }
            };
            Some(OffloadResolution::Success { latency, breakdown })
        } else {
            self.resolved_timeout += 1;
            Some(OffloadResolution::Timeout {
                cause: attribute(&e, deadline),
            })
        }
    }

    /// The deadline event for `tag` fired; `None` if the frame already
    /// succeeded.
    pub(crate) fn deadline_expired(
        &mut self,
        tag: u64,
        now: SimTime,
        deadline: SimDuration,
    ) -> Option<OffloadResolution> {
        let e = self.remove(tag)?;
        debug_assert!(now >= e.captured_at + deadline);
        self.resolved_timeout += 1;
        Some(OffloadResolution::Timeout {
            cause: attribute(&e, deadline),
        })
    }

    /// Resolve every in-flight frame whose deadline has strictly passed
    /// (`now > captured_at + deadline`), for hosts that poll instead of
    /// scheduling a deadline event per frame. Expired frames are returned
    /// in ascending tag order so polling hosts stay deterministic.
    pub(crate) fn expire_due(
        &mut self,
        now: SimTime,
        deadline: SimDuration,
    ) -> Vec<(u64, TimeoutCause)> {
        let mut due = Vec::new();
        for e in self.ring.slots_mut() {
            if e.stage != EMPTY && now > e.captured_at + deadline {
                due.push((e.tag, attribute(e, deadline)));
                e.stage = EMPTY;
            }
        }
        self.len -= due.len();
        self.resolved_timeout += due.len() as u64;
        due.sort_unstable_by_key(|&(tag, _)| tag);
        due
    }

    /// Requests still unresolved.
    pub(crate) fn in_flight(&self) -> usize {
        self.len
    }

    /// Offloads resolved as successes.
    pub(crate) fn successes(&self) -> u64 {
        self.resolved_success
    }

    /// Offloads resolved as timeouts.
    pub(crate) fn timeouts(&self) -> u64 {
        self.resolved_timeout
    }
}

/// Deadline tracker for one device: a `FlightRing` with its deadline
/// owned. Semantically identical to the hash-map tracker it replaced
/// (asserted by a differential proptest in `tests/flight_oracle.rs`).
#[derive(Debug, Clone)]
pub struct FlightTable {
    deadline: SimDuration,
    flights: FlightRing,
}

impl FlightTable {
    /// A table enforcing the given end-to-end deadline, sized for
    /// `expected_in_flight` frames — `⌈deadline × F_s⌉`, the frames a
    /// device captures within one deadline window. A stream that keeps
    /// to that never re-seats the ring; one that does not still
    /// resolves correctly, by growing.
    pub fn new(deadline: SimDuration, expected_in_flight: usize) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        FlightTable {
            deadline,
            flights: FlightRing::with_slots(expected_in_flight.next_power_of_two()),
        }
    }

    /// Register a frame the device just offloaded.
    pub fn sent(&mut self, tag: u64, captured_at: SimTime) {
        self.flights.sent(tag, captured_at);
    }

    /// The uplink dropped the frame (`FlightRing::network_dropped`).
    pub fn network_dropped(&mut self, tag: u64) {
        self.flights.network_dropped(tag);
    }

    /// The frame arrived at the server.
    pub fn arrived_at_server(&mut self, tag: u64, at: SimTime) {
        self.flights.arrived_at_server(tag, at);
    }

    /// The server rejected the request (admission or batch overflow).
    pub fn rejected_by_server(&mut self, tag: u64) {
        self.flights.rejected_by_server(tag);
    }

    /// A response reached the device at `now`; `None` if the frame was
    /// already resolved by its deadline event.
    pub fn response_arrived(&mut self, tag: u64, now: SimTime) -> Option<OffloadResolution> {
        self.flights.response_arrived(tag, now, self.deadline)
    }

    /// The deadline event for `tag` fired; `None` if the frame already
    /// succeeded.
    pub fn deadline_expired(&mut self, tag: u64, now: SimTime) -> Option<OffloadResolution> {
        self.flights.deadline_expired(tag, now, self.deadline)
    }

    /// Resolve every in-flight frame whose deadline has strictly passed
    /// (`FlightRing::expire_due`).
    pub fn expire_due(&mut self, now: SimTime) -> Vec<(u64, TimeoutCause)> {
        self.flights.expire_due(now, self.deadline)
    }

    /// Requests still unresolved.
    pub fn in_flight(&self) -> usize {
        self.flights.in_flight()
    }

    /// Offloads resolved as successes.
    pub fn successes(&self) -> u64 {
        self.flights.successes()
    }

    /// Offloads resolved as timeouts.
    pub fn timeouts(&self) -> u64 {
        self.flights.timeouts()
    }
}

fn attribute(e: &Entry, deadline: SimDuration) -> TimeoutCause {
    match e.stage {
        IN_NETWORK | DROPPED_BY_NETWORK => TimeoutCause::Network,
        REJECTED_BY_SERVER => TimeoutCause::ServerLoad,
        arrived_at => {
            let network_share = SimTime::from_micros(arrived_at).saturating_since(e.captured_at);
            if network_share > deadline / 2 {
                TimeoutCause::Network
            } else {
                TimeoutCause::ServerLoad
            }
        }
    }
}

/// Probes held inline: the paper's `⌈0.25 s / 1 s⌉ + 1`.
const INLINE_PROBES: usize = 2;

/// Outstanding heartbeat probes for one device: a linear-scanned set of
/// `(tag, sent_at)`. One probe leaves per controller period and dies at
/// its deadline, so the live set holds at most a couple of entries —
/// inline; a deadline spanning several periods overflows into a vec,
/// boxed so that a table that never overflows carries one word for it,
/// not a vec's three.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeTable {
    inline: [(u64, SimTime); INLINE_PROBES],
    inline_len: usize,
    // One word per table, not a vec's three: the extra allocation is
    // paid only by a table that ever overflows.
    #[allow(clippy::box_collection)]
    overflow: Option<Box<Vec<(u64, SimTime)>>>,
}

impl ProbeTable {
    fn overflow(&self) -> &[(u64, SimTime)] {
        self.overflow.as_deref().map_or(&[], Vec::as_slice)
    }

    fn live(&self) -> impl Iterator<Item = &(u64, SimTime)> {
        self.inline[..self.inline_len].iter().chain(self.overflow())
    }

    /// Record a probe sent at `sent_at`.
    pub(crate) fn insert(&mut self, tag: u64, sent_at: SimTime) {
        debug_assert!(self.live().all(|&(t, _)| t != tag));
        if self.inline_len < INLINE_PROBES {
            self.inline[self.inline_len] = (tag, sent_at);
            self.inline_len += 1;
        } else {
            self.overflow.get_or_insert_default().push((tag, sent_at));
        }
    }

    /// Remove a probe, returning when it was sent (or `None` if its
    /// deadline already reaped it).
    pub(crate) fn remove(&mut self, tag: u64) -> Option<SimTime> {
        let held = &mut self.inline[..self.inline_len];
        if let Some(i) = held.iter().position(|&(t, _)| t == tag) {
            let sent_at = held[i].1;
            self.inline_len -= 1;
            self.inline[i] = self.inline[self.inline_len];
            return Some(sent_at);
        }
        let overflow = self.overflow.as_deref_mut()?;
        let i = overflow.iter().position(|&(t, _)| t == tag)?;
        Some(overflow.swap_remove(i).1)
    }

    /// Discard every probe sent more than `deadline` before `now`: the
    /// polling hosts' stand-in for per-probe deadline events.
    pub(crate) fn reap_overdue(&mut self, now: SimTime, deadline: SimDuration) {
        let overdue = |sent_at: SimTime| now.saturating_since(sent_at) > deadline;
        let mut i = 0;
        while i < self.inline_len {
            if overdue(self.inline[i].1) {
                self.inline_len -= 1;
                self.inline[i] = self.inline[self.inline_len];
            } else {
                i += 1;
            }
        }
        if let Some(overflow) = &mut self.overflow {
            overflow.retain(|&(_, sent_at)| !overdue(sent_at));
        }
    }

    /// Probes still awaiting a response or deadline.
    pub(crate) fn len(&self) -> usize {
        self.inline_len + self.overflow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::{Entry as MapEntry, HashMap};

    /// `⌈deadline × F_s⌉`, as the fleet sizes its tables.
    fn window_frames(deadline: SimDuration, fps: f64) -> usize {
        (deadline.as_secs_f64() * fps).ceil() as usize
    }

    fn table() -> FlightTable {
        let deadline = SimDuration::from_millis(250);
        FlightTable::new(deadline, window_frames(deadline, 30.0))
    }

    #[test]
    fn timely_response_is_a_success_with_latency() {
        let mut t = table();
        t.sent(1, SimTime::ZERO);
        t.arrived_at_server(1, SimTime::from_millis(40));
        let r = t.response_arrived(1, SimTime::from_millis(100)).unwrap();
        assert_eq!(
            r,
            OffloadResolution::Success {
                latency: SimDuration::from_millis(100),
                breakdown: LatencyBreakdown {
                    uplink: Some(SimDuration::from_millis(40)),
                    server_and_down: Some(SimDuration::from_millis(60)),
                },
            }
        );
        assert_eq!(t.successes(), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn late_response_after_deadline_event_is_ignored() {
        let mut t = table();
        t.sent(3, SimTime::ZERO);
        assert!(t.deadline_expired(3, SimTime::from_millis(250)).is_some());
        assert!(t.response_arrived(3, SimTime::from_millis(400)).is_none());
        assert_eq!(t.timeouts(), 1);
        assert_eq!(t.successes(), 0);
    }

    #[test]
    fn timeouts_are_attributed_by_where_the_frame_got_stuck() {
        type Stage = fn(&mut FlightTable);
        let cases: [(&str, Stage, TimeoutCause); 5] = [
            ("still in the network", |_| {}, TimeoutCause::Network),
            (
                "dropped by the uplink, known early",
                |t| t.network_dropped(1),
                TimeoutCause::Network,
            ),
            (
                "rejected by the server",
                |t| {
                    t.arrived_at_server(1, SimTime::from_millis(30));
                    t.rejected_by_server(1);
                },
                TimeoutCause::ServerLoad,
            ),
            // Arrived but answered late: attributed by where the 250 ms
            // budget went.
            (
                "fast uplink, then the server sat on it",
                |t| t.arrived_at_server(1, SimTime::from_millis(30)),
                TimeoutCause::ServerLoad,
            ),
            (
                "the uplink ate 200 ms",
                |t| t.arrived_at_server(1, SimTime::from_millis(200)),
                TimeoutCause::Network,
            ),
        ];
        for (what, stage, cause) in cases {
            let mut t = table();
            t.sent(1, SimTime::ZERO);
            stage(&mut t);
            assert_eq!(
                t.in_flight(),
                1,
                "{what}: resolution waits for the deadline"
            );
            assert_eq!(
                t.deadline_expired(1, SimTime::from_millis(250)),
                Some(OffloadResolution::Timeout { cause }),
                "{what}"
            );
            assert_eq!((t.successes(), t.timeouts(), t.in_flight()), (0, 1, 0));
        }
    }

    #[test]
    fn a_response_at_the_exact_deadline_succeeds_and_silences_the_deadline_event() {
        let mut t = table();
        t.sent(8, SimTime::ZERO);
        let r = t.response_arrived(8, SimTime::from_millis(250));
        assert!(matches!(r, Some(OffloadResolution::Success { .. })));
        assert!(t.deadline_expired(8, SimTime::from_millis(250)).is_none());
        assert_eq!((t.successes(), t.timeouts(), t.in_flight()), (1, 0, 0));
    }

    #[test]
    fn expire_due_is_strict_ordered_and_cause_attributed() {
        let mut t = table();
        t.sent(12, SimTime::ZERO);
        t.sent(3, SimTime::ZERO);
        t.arrived_at_server(3, SimTime::from_millis(20));
        t.rejected_by_server(3);
        t.sent(8, SimTime::from_millis(100));
        // At exactly the deadline nothing expires (a response at this
        // instant would still be a success).
        assert!(t.expire_due(SimTime::from_millis(250)).is_empty());
        assert_eq!(
            t.expire_due(SimTime::from_millis(251)),
            vec![(3, TimeoutCause::ServerLoad), (12, TimeoutCause::Network)]
        );
        assert_eq!(t.in_flight(), 1, "tag 8 is not due yet");
        assert_eq!(t.timeouts(), 2);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_send_panics() {
        let mut t = table();
        t.sent(9, SimTime::ZERO);
        t.sent(9, SimTime::ZERO);
    }

    #[test]
    fn congruent_tags_force_growth_not_corruption() {
        // Tags 5, 5+8, 5+16 all land on slot 1 of the inline ring: the
        // second spills it to 16 slots (5 and 13 share a slot at 4 and
        // 8), where the third collides with the first again and re-seats
        // the spilled ring at 32.
        let mut t = table();
        t.flights = FlightRing::default();
        assert!(matches!(t.flights.ring, Ring::Inline(_)));
        t.sent(5, SimTime::ZERO);
        t.sent(5 + 8, SimTime::from_millis(10));
        assert_eq!(t.flights.ring.slots().len(), 16);
        t.sent(5 + 16, SimTime::from_millis(20));
        assert_eq!(t.flights.ring.slots().len(), 32);
        assert_eq!(t.in_flight(), 3);
        t.arrived_at_server(5 + 8, SimTime::from_millis(30));
        assert!(t.response_arrived(5, SimTime::from_millis(40)).is_some());
        assert!(t
            .response_arrived(5 + 8, SimTime::from_millis(50))
            .is_some());
        assert!(t
            .deadline_expired(5 + 16, SimTime::from_millis(270))
            .is_some());
        assert_eq!(t.successes(), 2);
        assert_eq!(t.timeouts(), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn table_sized_for_its_window_never_grows() {
        // Every frame offloaded and none answered — the fullest a ring
        // gets — in the fleet's event order: a deadline scheduled at
        // capture pops before a capture at the same instant.
        for (deadline_ms, fps, slots) in [
            (250, 30.0, 8),
            (250, 60.0, 16),
            (1_000, 30.0, 32),
            (1_000, 60.0, 64),
            (2_000, 60.0, 128),
        ] {
            let deadline = SimDuration::from_millis(deadline_ms);
            let interval = SimDuration::from_secs_f64(1.0 / fps);
            let mut t = FlightTable::new(deadline, window_frames(deadline, fps));
            assert_eq!(
                t.flights.ring.slots().len(),
                slots,
                "{deadline_ms} ms at {fps} fps"
            );
            let mut oldest = 0u64;
            for seq in 0..4 * slots as u64 {
                let now = SimTime::ZERO + interval * seq;
                while SimTime::ZERO + interval * oldest + deadline <= now {
                    assert!(t.deadline_expired(oldest, now).is_some());
                    oldest += 1;
                }
                t.sent(seq, now);
            }
            assert_eq!(
                t.flights.ring.slots().len(),
                slots,
                "{deadline_ms} ms at {fps} fps re-seated its ring"
            );
        }
    }

    #[test]
    fn probe_table_round_trips_and_reaps() {
        let mut p = ProbeTable::default();
        assert_eq!(p.len(), 0);
        p.insert(7, SimTime::from_millis(5));
        p.insert(9, SimTime::from_millis(10));
        assert_eq!(p.len(), 2);
        assert_eq!(p.remove(7), Some(SimTime::from_millis(5)));
        assert_eq!(p.remove(7), None);
        assert_eq!(p.remove(9), Some(SimTime::from_millis(10)));
        assert_eq!(p.len(), 0);
    }

    proptest! {
        /// Differential against a hash map, with up to a dozen probes
        /// outstanding — past the inline capacity, and back — removed
        /// one by one (deadline events) or reaped by the `retain` sweep
        /// the polling hosts used to run over their probe map.
        #[test]
        fn probe_table_matches_a_map(ops in proptest::collection::vec((0u64..12, 0u8..5), 1..200)) {
            let deadline = SimDuration::from_millis(15);
            let mut table = ProbeTable::default();
            let mut map: HashMap<u64, SimTime> = HashMap::new();
            for (step, (tag, kind)) in ops.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                match kind {
                    0 | 1 => {
                        if let MapEntry::Vacant(slot) = map.entry(tag) {
                            table.insert(tag, now);
                            slot.insert(now);
                        }
                    }
                    2 | 3 => prop_assert_eq!(table.remove(tag), map.remove(&tag)),
                    _ => {
                        table.reap_overdue(now, deadline);
                        map.retain(|_, sent_at| now.saturating_since(*sent_at) <= deadline);
                    }
                }
                prop_assert_eq!(table.len(), map.len());
                prop_assert_eq!(table.len() == 0, map.is_empty());
            }
            // What survived is the same set, not just the same count.
            for (tag, sent_at) in map {
                prop_assert_eq!(table.remove(tag), Some(sent_at));
            }
        }
    }
}
