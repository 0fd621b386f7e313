//! Single-threaded network impairment pacer.
//!
//! The software stand-in for the paper's NetEm shaping on the live tier:
//! the two Table V knobs (token-bucket rate limiting over payload bytes,
//! MTU-derived frame drop probability with ARQ giving up after four
//! attempts). The reactor owns one pacer per device on a single thread,
//! so there is no lock, and it works on the [`SimTime`] axis that
//! [`WallClock`](ff_device::WallClock) maps real time onto.

use ff_sim::{SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Impairment settings, mirroring `ff_net::NetworkConditions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacerConditions {
    /// Emulated link bandwidth in Mbps.
    pub bandwidth_mbps: f64,
    /// Per-packet loss percentage (converted to per-frame drop
    /// probability with the simulator's MTU math).
    pub loss_pct: f64,
}

impl PacerConditions {
    /// Effectively unimpaired loopback (1 Gbps, no loss).
    pub fn ideal() -> Self {
        PacerConditions {
            bandwidth_mbps: 1_000.0,
            loss_pct: 0.0,
        }
    }
}

/// What the pacer decided for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacerVerdict {
    /// Write the frame at the returned absolute time.
    SendAt(SimTime),
    /// Drop the frame (loss beyond ARQ recovery, or backlog overflow).
    Drop,
}

const MTU_BYTES: f64 = 1_500.0;
/// ARQ rounds before the transport gives up (matches `ff_net`'s default).
const MAX_ATTEMPTS: i32 = 4;

/// Per-device serialization pacer with bounded backlog.
pub struct Pacer {
    conditions: PacerConditions,
    /// Time until which the emulated link is busy serializing.
    busy_until: SimTime,
    max_backlog: SimDuration,
    rng: ChaCha8Rng,
}

impl Pacer {
    /// A pacer applying `conditions` from the first offer.
    pub fn new(conditions: PacerConditions, rng: ChaCha8Rng) -> Self {
        Pacer {
            conditions,
            busy_until: SimTime::ZERO,
            max_backlog: SimDuration::from_millis(600),
            rng,
        }
    }

    /// Apply new conditions (a schedule step).
    pub fn set_conditions(&mut self, conditions: PacerConditions) {
        self.conditions = conditions;
    }

    /// The conditions currently applied.
    pub fn conditions(&self) -> PacerConditions {
        self.conditions
    }

    /// Decide the fate of a `bytes`-sized frame offered at `now`.
    ///
    /// Frame-level drop probability `1 − (1 − p^A)^n_packets`,
    /// serialization `bytes·8 / bandwidth` inflated by the expected
    /// `1/(1−p)` retransmissions, tail drop past a 600 ms backlog.
    pub fn offer(&mut self, bytes: u64, now: SimTime) -> PacerVerdict {
        let p = self.conditions.loss_pct / 100.0;
        if p > 0.0 {
            let n_packets = (bytes as f64 / MTU_BYTES).ceil();
            let p_pkt_gone = p.powi(MAX_ATTEMPTS);
            let p_drop = 1.0 - (1.0 - p_pkt_gone).powf(n_packets);
            if self.rng.gen_bool(p_drop.clamp(0.0, 1.0)) {
                return PacerVerdict::Drop;
            }
        }

        let secs = bytes as f64 * 8.0 / (self.conditions.bandwidth_mbps * 1e6);
        let inflation = if p > 0.0 { 1.0 / (1.0 - p) } else { 1.0 };
        let serialization = SimDuration::from_secs_f64(secs * inflation);

        let start = self.busy_until.max(now);
        if start.saturating_since(now) > self.max_backlog {
            return PacerVerdict::Drop;
        }
        self.busy_until = start + serialization;
        PacerVerdict::SendAt(self.busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;

    fn pacer(bw: f64, loss: f64) -> Pacer {
        Pacer::new(
            PacerConditions {
                bandwidth_mbps: bw,
                loss_pct: loss,
            },
            RngFactory::new(3).stream("pacer"),
        )
    }

    #[test]
    fn ideal_link_sends_immediately() {
        let mut p = pacer(1_000.0, 0.0);
        let now = SimTime::from_millis(10);
        match p.offer(25_000, now) {
            PacerVerdict::SendAt(at) => {
                assert!(at.saturating_since(now) < SimDuration::from_millis(2))
            }
            PacerVerdict::Drop => panic!("ideal link dropped"),
        }
    }

    #[test]
    fn rate_limit_queues_consecutive_sends() {
        let mut p = pacer(10.0, 0.0); // 25 KB = 20 ms of link time
        let now = SimTime::ZERO;
        let PacerVerdict::SendAt(t1) = p.offer(25_000, now) else {
            panic!()
        };
        let PacerVerdict::SendAt(t2) = p.offer(25_000, now) else {
            panic!()
        };
        assert!(t2 > t1, "second send must queue behind the first");
        assert!(t2.saturating_since(now) >= SimDuration::from_millis(35));
    }

    #[test]
    fn backlog_cap_drops_excess() {
        let mut p = pacer(1.0, 0.0); // 25 KB = 200 ms each; cap at 600 ms
        let now = SimTime::ZERO;
        let drops = (0..10)
            .filter(|_| p.offer(25_000, now) == PacerVerdict::Drop)
            .count();
        assert!(drops >= 5, "only {drops} drops");
    }

    #[test]
    fn heavy_loss_drops_frames() {
        let mut p = pacer(1_000.0, 60.0);
        let drops = (0..200)
            .filter(|i| p.offer(25_000, SimTime::from_millis(*i)) == PacerVerdict::Drop)
            .count();
        assert!(drops > 120, "only {drops}/200 drops at 60% loss");
    }
}
