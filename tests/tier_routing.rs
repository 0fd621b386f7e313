//! The server tier's routing against a scan-based reference, the tier's
//! refusal of a server that cannot batch, and where a two-server static
//! shard sends the experiment's background load.
//!
//! `ServerTier` routes through an ascending live-server list and a
//! cached join-shortest-queue target, updated only when membership or
//! the gossip snapshot changes. `ScanRouter` below is the router it
//! replaced: every decision scans all `N` servers. It reads the tier
//! only through its public observers and keeps its own gossip snapshot,
//! so it shares no state with the code under test.

use framefeedback::controller::FrameFeedback;
use framefeedback::device::{run_experiment, ExperimentConfig};
use framefeedback::models::ModelKind;
use framefeedback::server::{
    BatchOutput, OverflowPolicy, Request, RoutingPolicy, ServerSpec, ServerTier, TenantId,
    TierConfig, TierSubmit,
};
use framefeedback::sim::{SimDuration, SimTime};
use framefeedback::workload::table_vi;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct ScanRouter {
    gossip: Vec<usize>,
    gossip_next: SimTime,
}

impl ScanRouter {
    fn route(
        &mut self,
        tier: &ServerTier,
        now: SimTime,
        tenant: TenantId,
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        let n = tier.len();
        if n == 1 {
            return tier.is_up(0).then_some(0);
        }
        match tier.routing() {
            RoutingPolicy::StaticShard => {
                let target = tenant.0 as usize % n;
                tier.is_up(target).then_some(target)
            }
            RoutingPolicy::JoinShortestQueue { gossip_interval } => {
                if now >= self.gossip_next {
                    for (i, depth) in self.gossip.iter_mut().enumerate() {
                        *depth = tier.server(i).batcher().queue_len();
                    }
                    self.gossip_next = now + gossip_interval;
                }
                let mut best: Option<(usize, usize)> = None; // (depth, index)
                for i in 0..n {
                    if !tier.is_up(i) {
                        continue;
                    }
                    let depth = self.gossip[i];
                    match best {
                        Some((bd, _)) if bd <= depth => {}
                        _ => best = Some((depth, i)),
                    }
                }
                best.map(|(_, i)| i)
            }
            RoutingPolicy::PowerOfTwoChoices => {
                let candidates: Vec<usize> = (0..n).filter(|&i| tier.is_up(i)).collect();
                match candidates.len() {
                    0 => None,
                    1 => Some(candidates[0]),
                    m => {
                        let first = rng.gen_range(0..m);
                        let mut second = rng.gen_range(0..m - 1);
                        if second >= first {
                            second += 1;
                        }
                        let (a, b) = (candidates[first], candidates[second]);
                        let load = |i: usize| {
                            tier.server(i).batcher().queue_len()
                                + tier.server(i).batcher().running_batch_size().unwrap_or(0)
                        };
                        let (la, lb) = (load(a), load(b));
                        Some(if (lb, b) < (la, a) { b } else { a })
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the clock by `gap_ms`, then submit for `tenant`.
    Submit {
        tenant: u32,
        gap_ms: u64,
    },
    Crash(usize),
    Recover(usize),
}

fn op(servers: usize) -> impl Strategy<Value = Op> {
    // Crashes and recoveries are drawn independently, so double
    // crashes and recoveries of live servers occur freely.
    (0u32..8, 0u32..16, 0u64..30, 0..servers).prop_map(
        |(kind, tenant, gap_ms, server)| match kind {
            0 => Op::Crash(server),
            1 => Op::Recover(server),
            _ => Op::Submit { tenant, gap_ms },
        },
    )
}

proptest! {
    /// Differential oracle for the incremental router: over random
    /// submit / crash / recover sequences, under every routing
    /// policy, the chosen server, the `TierSubmit` outcome and the
    /// position of the routing stream equal the scan-based
    /// reference's at every step.
    #[test]
    fn prop_routing_equals_the_scan_reference(
        policy in 0usize..3,
        servers in 1usize..7,
        ops in proptest::collection::vec(op(6), 1..200),
    ) {
        let mut config = TierConfig::uniform(servers, ServerSpec::default());
        config.routing = [
            RoutingPolicy::StaticShard,
            RoutingPolicy::JoinShortestQueue { gossip_interval: SimDuration::from_millis(40) },
            RoutingPolicy::PowerOfTwoChoices,
        ][policy];
        let mut tier = ServerTier::new(&config);
        let mut reference = ScanRouter { gossip: vec![0; servers], gossip_next: SimTime::ZERO };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut ref_rng = rng.clone();
        let mut now = SimTime::ZERO;
        // Scheduled batch completions: (instant, server, epoch).
        let mut due: Vec<(SimTime, usize, u64)> = Vec::new();
        let mut out = BatchOutput::default();
        for (tag, op) in ops.into_iter().enumerate() {
            match op {
                Op::Crash(i) => tier.crash(i % servers),
                Op::Recover(i) => tier.recover(i % servers),
                Op::Submit { tenant, gap_ms } => {
                    now += SimDuration::from_millis(gap_ms);
                    // Fire what came due, in time order, so queues
                    // drain and refill while routing watches them.
                    due.sort_unstable();
                    while let Some(&(at, server, epoch)) = due.first().filter(|d| d.0 <= now) {
                        due.remove(0);
                        if epoch == tier.epoch(server) {
                            tier.batch_done_into(server, at, &mut out);
                            due.extend(out.next_done.map(|d| (d, server, epoch)));
                            due.sort_unstable();
                        }
                    }
                    let request = Request {
                        tenant: TenantId(tenant),
                        model: ModelKind::MobileNetV3Small,
                        submitted_at: now,
                        tag: tag as u64,
                    };
                    let expected = reference.route(&tier, now, request.tenant, &mut ref_rng);
                    let idle = expected.map(|s| !tier.server(s).batcher().busy());
                    let outcome = tier.submit(now, request, true, &mut rng);
                    match (expected, outcome) {
                        (None, TierSubmit::Lost) => {}
                        (Some(s), TierSubmit::Queued { server }) => {
                            prop_assert_eq!(server, s);
                            prop_assert_eq!(idle, Some(false));
                        }
                        (Some(s), TierSubmit::BatchStarted { server, done_at }) => {
                            prop_assert_eq!(server, s);
                            prop_assert_eq!(idle, Some(true));
                            due.push((done_at, server, tier.epoch(server)));
                        }
                        (e, o) => prop_assert!(false, "reference chose {e:?}, tier did {o:?}"),
                    }
                    prop_assert_eq!(
                        rng.clone().next_u64(),
                        ref_rng.clone().next_u64(),
                        "routing stream positions diverged"
                    );
                }
            }
        }
        // The one-pass per-tenant read agrees with the per-tenant one.
        let by_tenant = tier.rejections_by_tenant(16);
        for (t, &count) in by_tenant.iter().enumerate() {
            prop_assert_eq!(count, tier.rejections_for(TenantId(t as u32)));
        }
    }
}

/// A batch limit of zero would have the server form an empty batch
/// mid-run; validation refuses it up front, naming the field and the
/// server.
#[test]
#[should_panic(expected = "server 0: gpu.batch_limit must be at least 1")]
fn a_zero_batch_limit_is_rejected_at_validation() {
    let mut config = ExperimentConfig::default();
    config.gpu.batch_limit = 0;
    run_experiment(config, Box::new(FrameFeedback::new()));
}

/// `ffexp --scenario table6 --servers 2`, pinned. The Table VI load and
/// the peer tenants are billed to tenant 1, one above the lone device,
/// so static sharding sends them to server 1 and leaves server 0 to the
/// device.
#[test]
fn a_two_server_static_shard_table6_keeps_background_off_the_device_server() {
    let mut config = ExperimentConfig::default();
    config.background = table_vi();
    let spec = ServerSpec {
        gpu: config.gpu,
        policy: OverflowPolicy::default(),
    };
    config.tier = Some(TierConfig::uniform(2, spec));
    let result = run_experiment(config, Box::new(FrameFeedback::new()));
    let [device, background] = &result.per_server_stats[..] else {
        panic!("two servers, got {}", result.per_server_stats.len());
    };
    // The device alone never fills its server; the load saturates its own.
    assert_eq!((device.requests_received, device.rejections), (3_923, 0));
    assert_eq!(
        (background.requests_received, background.rejections),
        (14_481, 1_390)
    );
    assert_eq!(
        (result.frames_offloaded, result.offload_timeouts),
        (3_790, 0)
    );
}
