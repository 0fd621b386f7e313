//! The wireless uplink emulator — our NetEm equivalent (§IV-C.1).
//!
//! The paper degrades a real Wi-Fi link with Linux NetEm rate limits and
//! packet loss. This module reproduces the two mechanisms end to end:
//!
//! * **Rate limiting** — a FIFO serialization queue: a frame starts
//!   transmitting when the link frees up and occupies it for
//!   `bytes·8 / bandwidth` (including retransmitted bytes). A bounded
//!   backlog models the token-bucket buffer; sends arriving at a full
//!   queue are dropped, as NetEm's `limit` does.
//! * **Packet loss** — each MTU-sized packet of a frame is lost i.i.d.
//!   with the configured probability. Lost packets are retransmitted by a
//!   stop-and-wait-per-round ARQ: every extra round adds one RTO to frame
//!   latency and re-serializes the lost bytes. A frame whose packets
//!   exhaust `max_attempts` rounds is dropped (the transport gives up).
//!
//! The controller never sees any of this structure — only the resulting
//! end-to-end latency and timeout pattern, which is the paper's premise.

use crate::conditions::NetworkConditions;
use crate::loss::LossModel;
use ff_sim::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static link parameters (the parts NetEm does not vary).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Packet size used for loss draws (Ethernet MTU).
    pub mtu_bytes: u64,
    /// One-way propagation + protocol overhead delay.
    pub propagation: SimDuration,
    /// Retransmission timeout added per ARQ round.
    pub rto: SimDuration,
    /// Maximum transmission rounds per packet before the frame is dropped.
    pub max_attempts: u32,
    /// Maximum queued serialization backlog; beyond this, sends are dropped.
    pub max_backlog: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            mtu_bytes: 1_500,
            propagation: SimDuration::from_millis(5),
            rto: SimDuration::from_millis(120),
            max_attempts: 4,
            max_backlog: SimDuration::from_millis(600),
        }
    }
}

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The serialization queue was full when the frame arrived.
    QueueOverflow,
    /// A packet was lost `max_attempts` times in a row.
    LossExceeded,
}

/// Result of offering a frame to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame (all packets) arrives at the far end.
    Delivered {
        /// Delivery instant at the server side.
        at: SimTime,
    },
    /// The frame never arrives.
    Dropped(DropReason),
}

impl SendOutcome {
    /// The delivery instant, or `None` if the frame was dropped.
    pub fn delivered_at(self) -> Option<SimTime> {
        match self {
            SendOutcome::Delivered { at } => Some(at),
            SendOutcome::Dropped(_) => None,
        }
    }
}

/// Counters the link keeps for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Frames offered to the link (`send` calls).
    pub frames_offered: u64,
    /// Frames that reached the far end.
    pub frames_delivered: u64,
    /// Frames dropped because the serialization backlog was full.
    pub frames_dropped_overflow: u64,
    /// Frames dropped after exhausting retransmission attempts.
    pub frames_dropped_loss: u64,
    /// Packets transmitted, including retransmissions.
    pub packets_sent: u64,
    /// Packets lost across all transmission rounds.
    pub packets_lost: u64,
}

impl std::ops::AddAssign for LinkStats {
    fn add_assign(&mut self, other: LinkStats) {
        self.frames_offered += other.frames_offered;
        self.frames_delivered += other.frames_delivered;
        self.frames_dropped_overflow += other.frames_dropped_overflow;
        self.frames_dropped_loss += other.frames_dropped_loss;
        self.packets_sent += other.packets_sent;
        self.packets_lost += other.packets_lost;
    }
}

impl LinkStats {
    /// Observed per-packet loss fraction.
    pub fn observed_loss(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_lost as f64 / self.packets_sent as f64
    }
}

/// What a send reads besides its own link's state: the static
/// parameters, the conditions in force and the loss model. A fleet whose
/// devices share a network schedule holds one of these for all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    config: LinkConfig,
    conditions: NetworkConditions,
    loss: LossModel,
}

impl LinkParams {
    /// Validated parameters, with i.i.d. loss at the conditions' rate.
    pub fn new(config: LinkConfig, conditions: NetworkConditions) -> Self {
        assert!(config.mtu_bytes > 0, "MTU must be positive");
        assert!(config.max_attempts > 0, "at least one attempt is required");
        if let Err(why) = conditions.check() {
            panic!("{why}");
        }
        LinkParams {
            config,
            conditions,
            loss: LossModel::bernoulli(conditions.loss_probability()),
        }
    }

    /// Apply new NetEm conditions (a Table V phase change). The loss
    /// process becomes i.i.d. Bernoulli at the new rate (NetEm `loss X%`
    /// semantics); every link on these parameters must
    /// [`restart_loss`](LinkState::restart_loss).
    pub fn set_conditions(&mut self, c: NetworkConditions) {
        self.conditions = c;
        self.loss = LossModel::bernoulli(c.loss_probability());
    }

    /// Replace the packet-loss model (e.g. a Gilbert–Elliott burst
    /// model) while keeping the bandwidth from `conditions`; every link
    /// on these parameters must [`restart_loss`](LinkState::restart_loss).
    /// The next `set_conditions` call reverts to Bernoulli loss.
    pub fn set_loss_model(&mut self, model: LossModel) {
        model.validate();
        self.loss = model;
    }

    /// The active loss model.
    pub fn loss_model(&self) -> LossModel {
        self.loss
    }
}

/// One link's own state: what its next send reads and writes besides
/// the [`LinkParams`] it is driven with.
#[derive(Debug, Clone)]
pub struct LinkState<R: Rng> {
    busy_until: SimTime,
    rng: R,
    /// The Gilbert–Elliott chain's state (see [`LossModel::packet_lost`]).
    in_burst: bool,
}

impl<R: Rng> LinkState<R> {
    /// An idle link drawing its losses from `rng`.
    pub fn new(rng: R) -> Self {
        LinkState {
            busy_until: SimTime::ZERO,
            rng,
            in_burst: false,
        }
    }

    /// The link's loss model changed: a burst chain restarts in its good
    /// state.
    pub fn restart_loss(&mut self) {
        self.in_burst = false;
    }

    /// Outstanding serialization backlog at `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Offer a `bytes`-sized frame to the link at `now`, counting it
    /// into `stats`.
    pub fn send(
        &mut self,
        params: &LinkParams,
        now: SimTime,
        bytes: u64,
        stats: &mut LinkStats,
    ) -> SendOutcome {
        assert!(bytes > 0, "cannot send an empty frame");
        let config = &params.config;
        stats.frames_offered += 1;

        if self.backlog(now) > config.max_backlog {
            stats.frames_dropped_overflow += 1;
            return SendOutcome::Dropped(DropReason::QueueOverflow);
        }

        let n_packets = bytes.div_ceil(config.mtu_bytes);

        // Per-packet transmission rounds (stop-and-wait ARQ per round):
        // round r retransmits every packet still lost after round r−1.
        let mut rounds: u32 = 1;
        let mut outstanding = n_packets; // packets needing (re)transmission this round
        let mut total_packets_sent: u64 = 0;
        let mut gave_up = false;
        loop {
            total_packets_sent += outstanding;
            let lost = (0..outstanding)
                .filter(|_| params.loss.packet_lost(&mut self.in_burst, &mut self.rng))
                .count() as u64;
            stats.packets_lost += lost;
            if lost == 0 {
                break;
            }
            if rounds >= config.max_attempts {
                gave_up = true;
                break;
            }
            rounds += 1;
            outstanding = lost;
        }
        stats.packets_sent += total_packets_sent;

        // All transmitted bytes occupy the link: the original frame plus
        // one MTU per retransmitted packet (retransmissions of the short
        // final packet are over-counted by < 1 MTU per round — negligible).
        let retransmitted = total_packets_sent - n_packets;
        let tx_bytes = bytes + retransmitted * config.mtu_bytes;
        let serialization =
            SimDuration::from_secs_f64(params.conditions.serialization_secs(tx_bytes));

        let start = self.busy_until.max(now);
        self.busy_until = start + serialization;

        if gave_up {
            stats.frames_dropped_loss += 1;
            return SendOutcome::Dropped(DropReason::LossExceeded);
        }

        let retrans_extra = config.rto * (rounds - 1) as u64;
        let at = self.busy_until + config.propagation + retrans_extra;
        stats.frames_delivered += 1;
        SendOutcome::Delivered { at }
    }
}

/// A stateful emulated uplink that owns its parameters and counters:
/// [`LinkState`] driven with its own [`LinkParams`].
#[derive(Debug, Clone)]
pub struct Link<R: Rng> {
    params: LinkParams,
    state: LinkState<R>,
    stats: LinkStats,
}

impl<R: Rng> Link<R> {
    /// A link with the given static parameters and initial conditions.
    pub fn new(config: LinkConfig, conditions: NetworkConditions, rng: R) -> Self {
        Link {
            params: LinkParams::new(config, conditions),
            state: LinkState::new(rng),
            stats: LinkStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Outstanding serialization backlog at `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.state.backlog(now)
    }

    /// Offer a `bytes`-sized frame to the link at `now`.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SendOutcome {
        self.state.send(&self.params, now, bytes, &mut self.stats)
    }

    /// Observed per-packet loss fraction so far.
    pub fn observed_loss(&self) -> f64 {
        self.stats.observed_loss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;
    use proptest::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn link(bw_mbps: f64, loss_pct: f64) -> Link<ChaCha8Rng> {
        Link::new(
            LinkConfig::default(),
            NetworkConditions::new(bw_mbps, loss_pct),
            RngFactory::new(7).stream("link"),
        )
    }

    #[test]
    fn lossless_delivery_time_is_serialization_plus_propagation() {
        let mut l = link(10.0, 0.0);
        // 25 KB at 10 Mbps = 20 ms; + 5 ms propagation.
        let out = l.send(SimTime::ZERO, 25_000);
        let at = out.delivered_at().expect("lossless link delivers");
        assert_eq!(at.as_millis(), 25);
    }

    #[test]
    fn fifo_backlog_delays_subsequent_frames() {
        let mut l = link(10.0, 0.0);
        let a = l.send(SimTime::ZERO, 25_000).delivered_at().unwrap();
        let b = l.send(SimTime::ZERO, 25_000).delivered_at().unwrap();
        assert_eq!(b - a, SimDuration::from_millis(20), "second frame queues");
        assert_eq!(l.backlog(SimTime::ZERO), SimDuration::from_millis(40));
        // After the backlog drains, a new frame is unqueued again.
        let later = SimTime::from_millis(100);
        assert_eq!(l.backlog(later), SimDuration::ZERO);
        let c = l.send(later, 25_000).delivered_at().unwrap();
        assert_eq!(c - later, SimDuration::from_millis(25));
    }

    #[test]
    fn queue_overflow_drops_frames() {
        let mut l = link(1.0, 0.0); // 25 KB takes 200 ms at 1 Mbps
        let mut delivered = 0;
        let mut dropped = 0;
        // Offer 30 frames at the same instant: backlog cap (600 ms) admits
        // only the first few.
        for _ in 0..30 {
            match l.send(SimTime::ZERO, 25_000) {
                SendOutcome::Delivered { .. } => delivered += 1,
                SendOutcome::Dropped(DropReason::QueueOverflow) => dropped += 1,
                SendOutcome::Dropped(r) => panic!("unexpected drop {r:?}"),
            }
        }
        assert!((3..=5).contains(&delivered), "delivered {delivered}");
        assert_eq!(delivered + dropped, 30);
        assert_eq!(l.stats().frames_dropped_overflow, dropped as u64);
    }

    #[test]
    fn loss_adds_rto_latency() {
        // At 30% per-packet loss, a 17-packet frame almost surely needs
        // at least one retransmission round.
        let mut l = link(10.0, 30.0);
        let mut extra_latency_seen = false;
        for i in 0..50u64 {
            let now = SimTime::from_secs(i);
            if let SendOutcome::Delivered { at } = l.send(now, 25_000) {
                let lat = at - now;
                if lat >= LinkConfig::default().rto {
                    extra_latency_seen = true;
                }
            }
        }
        assert!(extra_latency_seen, "retransmission rounds must add RTO");
        assert!(l.observed_loss() > 0.15 && l.observed_loss() < 0.45);
    }

    #[test]
    fn extreme_loss_eventually_gives_up() {
        let mut l = link(10.0, 90.0);
        let mut drops = 0;
        for i in 0..20u64 {
            if let SendOutcome::Dropped(DropReason::LossExceeded) =
                l.send(SimTime::from_secs(i), 25_000)
            {
                drops += 1;
            }
        }
        assert!(drops > 10, "90% loss should exhaust attempts, got {drops}");
    }

    #[test]
    fn zero_loss_never_drops_for_loss() {
        let mut l = link(10.0, 0.0);
        for i in 0..100u64 {
            let _ = l.send(SimTime::from_secs(i), 25_000);
        }
        assert_eq!(l.stats().frames_dropped_loss, 0);
        assert_eq!(l.stats().packets_lost, 0);
        assert_eq!(l.observed_loss(), 0.0);
    }

    #[test]
    fn conditions_change_applies_to_new_frames() {
        let mut params = LinkParams::new(LinkConfig::default(), NetworkConditions::new(10.0, 0.0));
        let mut l = LinkState::new(RngFactory::new(7).stream("link"));
        let mut stats = LinkStats::default();
        let fast = l.send(&params, SimTime::ZERO, 25_000, &mut stats);
        let fast = fast.delivered_at().unwrap();
        params.set_conditions(NetworkConditions::new(1.0, 0.0));
        let t1 = SimTime::from_secs(1);
        let slow = l.send(&params, t1, 25_000, &mut stats);
        let slow = slow.delivered_at().unwrap();
        assert!((slow - t1).as_millis() > 4 * (fast - SimTime::ZERO).as_millis());
    }

    #[test]
    fn stats_account_for_every_frame() {
        let mut l = link(4.0, 7.0);
        for i in 0..200u64 {
            let _ = l.send(SimTime::from_millis(i * 33), 25_000);
        }
        let s = l.stats();
        assert_eq!(s.frames_offered, 200);
        assert_eq!(
            s.frames_delivered + s.frames_dropped_loss + s.frames_dropped_overflow,
            200
        );
    }

    #[test]
    fn observed_loss_tracks_configured_loss() {
        let mut l = link(100.0, 7.0); // high bandwidth: no overflow noise
        for i in 0..2_000u64 {
            let _ = l.send(SimTime::from_millis(i * 10), 25_000);
        }
        let obs = l.observed_loss();
        // Retransmissions re-draw loss, so observed per-packet loss stays
        // near the configured 7%.
        assert!((obs - 0.07).abs() < 0.01, "observed {obs:.4}");
    }

    #[test]
    fn a_burst_chain_restarts_in_its_good_state() {
        use crate::loss::GilbertElliott;
        let storm = GilbertElliott {
            p_good_to_bad: 1.0, // deterministically enter the burst
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut params = LinkParams::new(LinkConfig::default(), NetworkConditions::ideal());
        params.set_loss_model(LossModel::GilbertElliott(storm));
        let mut l = LinkState::new(RngFactory::new(7).stream("link"));
        let mut stats = LinkStats::default();
        let lost = l.send(&params, SimTime::ZERO, 1_000, &mut stats);
        assert_eq!(lost, SendOutcome::Dropped(DropReason::LossExceeded));
        assert!(l.in_burst);
        l.restart_loss();
        assert!(!l.in_burst);
        params.set_conditions(NetworkConditions::ideal());
        assert_eq!(
            params.loss_model(),
            LossModel::NONE,
            "a step reverts to Bernoulli"
        );
    }

    #[test]
    fn a_shared_parameter_set_drives_independent_states() {
        // Two rows on one `LinkParams` draw as two owning links do.
        let params = LinkParams::new(LinkConfig::default(), NetworkConditions::new(4.0, 7.0));
        let rng = RngFactory::new(7);
        let mut rows = [
            LinkState::new(rng.indexed_stream("row", 0)),
            LinkState::new(rng.indexed_stream("row", 1)),
        ];
        let mut owned = [0, 1].map(|i| {
            Link::new(
                LinkConfig::default(),
                NetworkConditions::new(4.0, 7.0),
                rng.indexed_stream("row", i),
            )
        });
        let mut stats = LinkStats::default();
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 33);
            for (row, link) in rows.iter_mut().zip(&mut owned) {
                assert_eq!(
                    row.send(&params, now, 25_000, &mut stats),
                    link.send(now, 25_000)
                );
            }
        }
        let mut summed = owned[0].stats();
        summed += owned[1].stats();
        assert_eq!(stats, summed);
    }

    #[test]
    #[should_panic(expected = "empty frame")]
    fn empty_send_panics() {
        link(10.0, 0.0).send(SimTime::ZERO, 0);
    }

    proptest! {
        /// Delivery never happens before serialization + propagation could
        /// physically complete, and never before `now`.
        #[test]
        fn prop_delivery_respects_physics(
            bytes in 1u64..200_000,
            bw in 1.0f64..100.0,
            loss in 0.0f64..20.0,
            seed in 0u64..50,
        ) {
            let mut l = Link::new(
                LinkConfig::default(),
                NetworkConditions::new(bw, loss),
                RngFactory::new(seed).stream("prop"),
            );
            let now = SimTime::from_secs(1);
            if let SendOutcome::Delivered { at } = l.send(now, bytes) {
                let physical_floor = SimDuration::from_secs_f64(
                    NetworkConditions::new(bw, 0.0).serialization_secs(bytes)
                ) + LinkConfig::default().propagation;
                prop_assert!(at >= now + physical_floor);
            }
        }

        /// Backlog is monotone under repeated sends at a fixed instant.
        #[test]
        fn prop_backlog_monotone(count in 1usize..20, bytes in 1_000u64..50_000) {
            let mut l = link(10.0, 0.0);
            let mut prev = SimDuration::ZERO;
            for _ in 0..count {
                let _ = l.send(SimTime::ZERO, bytes);
                let b = l.backlog(SimTime::ZERO);
                prop_assert!(b >= prev);
                prev = b;
            }
        }
    }
}
