//! The multi-server edge tier: routing and admission control.
//!
//! The paper's testbed has exactly one GPU server; ROADMAP item 2 grows
//! that into an N-server **tier** with two policy seams in front of the
//! per-server batching logic:
//!
//! * **Routing** ([`RoutingPolicy`]) decides *which* server a request
//!   reaches: static sharding by tenant id, join-shortest-queue over
//!   **stale gossiped** queue depths (refreshed at a configurable
//!   interval of the simulated clock, like a real gossip protocol), or
//!   power-of-two-choices sampling two servers from the experiment's
//!   RNG stream and picking the less loaded.
//! * **Admission** ([`AdmissionPolicy`]) decides whether a request gets
//!   in at all: admit-all, or a per-tenant **token bucket** (rate +
//!   burst, refilled lazily on the simulated clock) — the framing of
//!   Chakrabarti et al. (token-bucket constrained offloading) as the
//!   server-side alternative to the paper's device-side PD loop.
//!
//! A single-server tier ([`ServerTier::single`]) is the degenerate case:
//! no routing draw, no gossip, no buckets touched — its observable
//! behaviour is bit-identical to driving the wrapped [`EdgeServer`]
//! directly, which is what keeps every pre-tier experiment reproducible.
//!
//! Liveness is per server: [`ServerTier::crash`] folds the PR-1 crash
//! machinery in at tier scale (queue and running batch lost, epoch
//! bumped so stale batch-done events are discarded), enabling
//! rolling-restart scenarios where shards go down one at a time.

use crate::policy::OverflowPolicy;
use crate::server::{BatchOutput, EdgeServer, Request, ServerStats, Submit, TenantId};
use crate::tenants::TenantTable;
use ff_models::GpuProfile;
use ff_sim::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Serializable description of one server in the tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// GPU profile (batch limit; drives the affine latency model).
    pub gpu: GpuProfile,
    /// Overflow policy at batch formation.
    #[serde(default)]
    pub policy: OverflowPolicy,
}

/// How the tier picks a server for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// `tenant id mod N` — deterministic sharding, no feedback. A down
    /// shard loses its tenants' requests (no failover), which is exactly
    /// the single-server outage semantics when N = 1.
    #[default]
    StaticShard,
    /// Route to the server with the shortest queue **as of the last
    /// gossip snapshot** — depths refresh only every `gossip_interval`,
    /// so decisions run on stale information like a real gossip mesh.
    /// Ties break to the lowest server index.
    JoinShortestQueue {
        /// How often queue-depth gossip refreshes (simulated clock).
        gossip_interval: SimDuration,
    },
    /// Sample two distinct live servers from the experiment RNG stream
    /// and pick the one with the smaller instantaneous load (queued +
    /// in-batch requests). Ties break to the lower index.
    PowerOfTwoChoices,
}

/// Whether a request is allowed into the tier at all.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Every request is admitted (the paper's implicit behaviour).
    #[default]
    AdmitAll,
    /// Per-tenant token bucket: a request spends one token; tokens
    /// refill at `rate_rps` up to `burst`, on the simulated clock.
    /// Requests arriving to an empty bucket are rejected at the door
    /// (the sender sees a server-load rejection).
    TokenBucket {
        /// Sustained admitted rate per tenant, in requests per second.
        rate_rps: f64,
        /// Bucket capacity: the largest admissible burst. Buckets start
        /// full.
        burst: f64,
    },
}

/// Serializable configuration of a whole tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// One spec per server; heterogeneous capacities are fine.
    pub servers: Vec<ServerSpec>,
    /// Device→server routing policy.
    #[serde(default)]
    pub routing: RoutingPolicy,
    /// Tier-front admission policy.
    #[serde(default)]
    pub admission: AdmissionPolicy,
}

impl TierConfig {
    /// A single-server tier — the legacy shape of every pre-tier config.
    pub fn single(gpu: GpuProfile, policy: OverflowPolicy) -> Self {
        TierConfig {
            servers: vec![ServerSpec { gpu, policy }],
            routing: RoutingPolicy::StaticShard,
            admission: AdmissionPolicy::AdmitAll,
        }
    }

    /// `n` identical servers with the given spec.
    pub fn uniform(n: usize, spec: ServerSpec) -> Self {
        TierConfig {
            servers: vec![spec; n],
            routing: RoutingPolicy::StaticShard,
            admission: AdmissionPolicy::AdmitAll,
        }
    }

    /// Panic on nonsensical parameters (empty tier, a server whose
    /// batches hold nothing, non-positive token rate, zero-capacity
    /// bucket, zero gossip interval).
    pub fn validate(&self) {
        assert!(!self.servers.is_empty(), "tier needs at least one server");
        for (i, server) in self.servers.iter().enumerate() {
            assert!(
                server.gpu.batch_limit > 0,
                "server {i}: gpu.batch_limit must be at least 1"
            );
        }
        if let AdmissionPolicy::TokenBucket { rate_rps, burst } = self.admission {
            assert!(
                rate_rps.is_finite() && rate_rps > 0.0,
                "token bucket rate must be finite and positive"
            );
            assert!(
                burst.is_finite() && burst >= 1.0,
                "token bucket burst must hold at least one token"
            );
        }
        if let RoutingPolicy::JoinShortestQueue { gossip_interval } = self.routing {
            assert!(
                gossip_interval > SimDuration::ZERO,
                "gossip interval must be positive"
            );
        }
    }
}

/// What happened when a request was offered to the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSubmit {
    /// The admission policy turned the request away at the door; no
    /// server ever saw it.
    AdmissionRejected,
    /// The routed server is down (or the whole tier is): the request
    /// vanishes, exactly like a submission to a crashed process. No
    /// counters move.
    Lost,
    /// Queued behind server `server`'s executing batch.
    Queued {
        /// Index of the server that queued the request.
        server: usize,
    },
    /// Server `server` was idle and started a batch — the caller must
    /// schedule its batch-done event, keyed by that server's current
    /// epoch.
    BatchStarted {
        /// Index of the server that started the batch.
        server: usize,
        /// Completion instant of the started batch.
        done_at: SimTime,
    },
}

#[derive(Debug, Clone, Copy)]
struct TokenBucketState {
    tokens: f64,
    last: SimTime,
}

/// N heterogeneous [`EdgeServer`]s behind one routing + admission front.
///
/// Passive like the servers it owns: `submit` may start a batch (the
/// caller schedules its completion, tagged with the server index and
/// epoch), and `batch_done_into` drives one server's batch pipeline.
pub struct ServerTier {
    servers: Vec<EdgeServer>,
    up: Vec<bool>,
    epochs: Vec<u64>,
    routing: RoutingPolicy,
    admission: AdmissionPolicy,
    /// Indices of the servers that are up, ascending; maintained by
    /// `crash`/`recover` so routing never scans `up`.
    live: Vec<usize>,
    /// Stale queue-depth snapshot for JSQ (refreshed at the gossip
    /// interval, never on demand).
    gossip: Vec<usize>,
    gossip_next: SimTime,
    /// JSQ's choice: the live server with the smallest `(gossiped depth,
    /// index)`. It can only change when the snapshot or the membership
    /// does, so it is recomputed there and nowhere else.
    jsq_target: Option<usize>,
    /// `None` until a tenant's first regulated request: buckets start
    /// full.
    buckets: TenantTable<Option<TokenBucketState>>,
    admission_rejections_by_tenant: TenantTable<u64>,
    admission_rejections_total: u64,
}

impl ServerTier {
    /// Build a tier from its serializable configuration.
    pub fn new(config: &TierConfig) -> Self {
        config.validate();
        let n = config.servers.len();
        ServerTier {
            servers: config
                .servers
                .iter()
                .map(|s| EdgeServer::with_policy(s.gpu, s.policy))
                .collect(),
            up: vec![true; n],
            epochs: vec![0; n],
            routing: config.routing,
            admission: config.admission,
            live: (0..n).collect(),
            gossip: vec![0; n],
            gossip_next: SimTime::ZERO,
            jsq_target: Some(0),
            buckets: TenantTable::default(),
            admission_rejections_by_tenant: TenantTable::default(),
            admission_rejections_total: 0,
        }
    }

    /// The legacy single-server tier (reject-newest default policy).
    pub fn single(gpu: GpuProfile) -> Self {
        Self::new(&TierConfig::single(gpu, OverflowPolicy::default()))
    }

    /// Number of servers in the tier.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the tier holds no servers (never, post-validate).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The routing policy in force.
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// The admission policy in force.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Borrow one server (telemetry, assertions).
    pub fn server(&self, i: usize) -> &EdgeServer {
        &self.servers[i]
    }

    /// Whether server `i` is currently up.
    pub fn is_up(&self, i: usize) -> bool {
        self.up[i]
    }

    /// Server `i`'s crash epoch: batch-done events scheduled under an
    /// older epoch belong to a process that no longer exists and must
    /// be discarded by the caller.
    pub fn epoch(&self, i: usize) -> u64 {
        self.epochs[i]
    }

    /// Crash server `i`: its queue and running batch are lost, its
    /// epoch advances, and routing stops sending it traffic until
    /// [`recover`](Self::recover). Crashing a server that is already
    /// down only advances its epoch.
    pub fn crash(&mut self, i: usize) {
        self.servers[i].crash();
        self.epochs[i] += 1;
        if self.up[i] {
            self.up[i] = false;
            let at = self.live.binary_search(&i).expect("an up server is live");
            self.live.remove(at);
            self.refresh_jsq_target();
        }
    }

    /// Bring server `i` back (a fresh process: empty queue, idle GPU).
    /// A no-op for a server that is already up.
    pub fn recover(&mut self, i: usize) {
        if !self.up[i] {
            self.up[i] = true;
            let at = self
                .live
                .binary_search(&i)
                .expect_err("a down server is not live");
            self.live.insert(at, i);
            self.refresh_jsq_target();
        }
    }

    fn refresh_jsq_target(&mut self) {
        // `live` ascends, so `min_by_key` (first minimum) breaks depth
        // ties to the lowest index.
        self.jsq_target = self.live.iter().copied().min_by_key(|&i| self.gossip[i]);
    }

    /// Offer a request to the tier. `regulated` says whether the
    /// admission policy applies (device frames) or not (probes and
    /// modeled background load, which the tier does not police). The
    /// RNG is the experiment's routing stream; it is consumed **only**
    /// by [`RoutingPolicy::PowerOfTwoChoices`] with two or more live
    /// servers, so single-server tiers never advance it.
    pub fn submit<R: Rng>(
        &mut self,
        now: SimTime,
        request: Request,
        regulated: bool,
        rng: &mut R,
    ) -> TierSubmit {
        if regulated && !self.admit(now, request.tenant) {
            self.admission_rejections_total += 1;
            *self.admission_rejections_by_tenant.slot(request.tenant) += 1;
            return TierSubmit::AdmissionRejected;
        }
        let Some(target) = self.route(now, request.tenant, rng) else {
            return TierSubmit::Lost;
        };
        match self.servers[target].submit(now, request) {
            Submit::Queued => TierSubmit::Queued { server: target },
            Submit::BatchStarted { done_at } => TierSubmit::BatchStarted {
                server: target,
                done_at,
            },
        }
    }

    /// Drive server `server`'s batch-done transition (see
    /// [`EdgeServer::batch_done_into`]). The caller re-schedules
    /// `out.next_done` under the same server index and current epoch.
    pub fn batch_done_into(&mut self, server: usize, now: SimTime, out: &mut BatchOutput) {
        self.servers[server].batch_done_into(now, out);
    }

    fn admit(&mut self, now: SimTime, tenant: TenantId) -> bool {
        match self.admission {
            AdmissionPolicy::AdmitAll => true,
            AdmissionPolicy::TokenBucket { rate_rps, burst } => {
                let bucket = self.buckets.slot(tenant).get_or_insert(TokenBucketState {
                    tokens: burst,
                    last: SimTime::ZERO,
                });
                let dt = now.saturating_since(bucket.last).as_secs_f64();
                bucket.tokens = (bucket.tokens + rate_rps * dt).min(burst);
                bucket.last = now;
                if bucket.tokens >= 1.0 {
                    bucket.tokens -= 1.0;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn route<R: Rng>(&mut self, now: SimTime, tenant: TenantId, rng: &mut R) -> Option<usize> {
        let n = self.servers.len();
        if n == 1 {
            // The legacy path: no draw, no gossip, no scan.
            return self.up[0].then_some(0);
        }
        match self.routing {
            RoutingPolicy::StaticShard => {
                let target = tenant.0 as usize % n;
                self.up[target].then_some(target)
            }
            RoutingPolicy::JoinShortestQueue { gossip_interval } => {
                if now >= self.gossip_next {
                    for (depth, server) in self.gossip.iter_mut().zip(&self.servers) {
                        *depth = server.queue_len();
                    }
                    self.gossip_next = now + gossip_interval;
                    self.refresh_jsq_target();
                }
                self.jsq_target
            }
            RoutingPolicy::PowerOfTwoChoices => match self.live.len() {
                0 => None,
                1 => Some(self.live[0]),
                m => {
                    // Two distinct draws from the routing stream.
                    let first = rng.gen_range(0..m);
                    let mut second = rng.gen_range(0..m - 1);
                    if second >= first {
                        second += 1;
                    }
                    let (a, b) = (self.live[first], self.live[second]);
                    let load = |i: usize| {
                        self.servers[i].queue_len()
                            + self.servers[i].running_batch_size().unwrap_or(0)
                    };
                    let (la, lb) = (load(a), load(b));
                    // Less loaded wins; ties break to the lower index so
                    // the draw order cannot leak into the decision.
                    Some(if (lb, b) < (la, a) { b } else { a })
                }
            },
        }
    }

    /// Aggregate counters over every server (admission rejections are
    /// tracked separately — see
    /// [`admission_rejections`](Self::admission_rejections)).
    pub fn total_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for s in &self.servers {
            let st = s.stats();
            total.requests_received += st.requests_received;
            total.completions += st.completions;
            total.rejections += st.rejections;
            total.batches_executed += st.batches_executed;
            total.batched_frames += st.batched_frames;
            total.full_batches += st.full_batches;
        }
        total
    }

    /// Per-server counters, in server-index order.
    pub fn per_server_stats(&self) -> Vec<ServerStats> {
        self.servers.iter().map(EdgeServer::stats).collect()
    }

    /// Requests turned away by the admission policy, total.
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections_total
    }

    /// Requests turned away by the admission policy, for one tenant.
    pub fn admission_rejections_for(&self, tenant: TenantId) -> u64 {
        self.admission_rejections_by_tenant.get(tenant)
    }

    /// One tenant's rejections across the whole tier: batch-formation
    /// overflow on every server plus admission rejections at the door.
    pub fn rejections_for(&self, tenant: TenantId) -> u64 {
        self.servers
            .iter()
            .map(|s| s.rejections_by_tenant().get(tenant))
            .sum::<u64>()
            + self.admission_rejections_for(tenant)
    }

    /// [`rejections_for`](Self::rejections_for) for tenants `0..tenants`
    /// at once, in one pass over each server's table.
    pub fn rejections_by_tenant(&self, tenants: usize) -> Vec<u64> {
        let mut total = vec![0u64; tenants];
        let tables = self
            .servers
            .iter()
            .map(EdgeServer::rejections_by_tenant)
            .chain([&self.admission_rejections_by_tenant]);
        for table in tables {
            for (slot, (_, count)) in total.iter_mut().zip(table.iter()) {
                *slot += count;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::ModelKind;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn req(tenant: u32, at: SimTime, tag: u64) -> Request {
        Request {
            tenant: TenantId(tenant),
            model: ModelKind::MobileNetV3Small,
            submitted_at: at,
            tag,
        }
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn uniform(n: usize) -> TierConfig {
        TierConfig::uniform(n, ServerSpec::default())
    }

    #[test]
    fn single_tier_is_bit_identical_to_a_bare_server() {
        let mut tier = ServerTier::single(GpuProfile::default());
        let mut bare = EdgeServer::new(GpuProfile::default());
        let mut r = rng();
        let before = r.clone();
        let mut out = BatchOutput::default();
        let mut tier_done: Option<SimTime> = None;
        let mut bare_done: Option<SimTime> = None;
        for round in 0..30u64 {
            let t = SimTime::from_millis(round * 9);
            for tag in 0..8u64 {
                let request = req((tag % 3) as u32, t, round * 100 + tag);
                let ts = tier.submit(t, request, true, &mut r);
                let bs = bare.submit(t, request);
                match (ts, bs) {
                    (TierSubmit::Queued { server: 0 }, Submit::Queued) => {}
                    (
                        TierSubmit::BatchStarted { server: 0, done_at },
                        Submit::BatchStarted { done_at: d },
                    ) => {
                        assert_eq!(done_at, d);
                        tier_done = Some(done_at);
                        bare_done = Some(d);
                    }
                    other => panic!("diverged: {other:?}"),
                }
            }
            if let (Some(td), Some(bd)) = (tier_done.take(), bare_done.take()) {
                assert_eq!(td, bd);
                tier.batch_done_into(0, td, &mut out);
                let (c, rj, next) = bare.on_batch_done(bd);
                assert_eq!(c, out.completions);
                assert_eq!(rj, out.rejections);
                assert_eq!(next, out.next_done);
                tier_done = out.next_done;
                bare_done = next;
            }
        }
        assert_eq!(tier.total_stats(), bare.stats());
        let mut untouched = before;
        assert_eq!(
            r.next_u64(),
            untouched.next_u64(),
            "single-server tier must never advance the routing stream"
        );
    }

    #[test]
    fn static_shard_routes_by_tenant_id() {
        let mut tier = ServerTier::new(&uniform(3));
        let mut r = rng();
        let t = SimTime::ZERO;
        for tenant in 0..6u32 {
            match tier.submit(t, req(tenant, t, tenant as u64), true, &mut r) {
                TierSubmit::Queued { server } | TierSubmit::BatchStarted { server, .. } => {
                    assert_eq!(server, tenant as usize % 3)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn static_shard_loses_requests_to_a_down_shard() {
        let mut config = uniform(2);
        config.routing = RoutingPolicy::StaticShard;
        let mut tier = ServerTier::new(&config);
        tier.crash(1);
        let mut r = rng();
        let t = SimTime::ZERO;
        assert!(matches!(
            tier.submit(t, req(0, t, 1), true, &mut r),
            TierSubmit::BatchStarted { server: 0, .. }
        ));
        assert_eq!(tier.submit(t, req(1, t, 2), true, &mut r), TierSubmit::Lost);
        // Lost requests never touch any server's counters.
        assert_eq!(tier.total_stats().requests_received, 1);
        tier.recover(1);
        assert!(matches!(
            tier.submit(t, req(1, t, 3), true, &mut r),
            TierSubmit::BatchStarted { server: 1, .. }
        ));
    }

    #[test]
    fn crash_bumps_the_epoch_and_clears_the_queue() {
        let mut tier = ServerTier::new(&uniform(2));
        let mut r = rng();
        let t = SimTime::ZERO;
        tier.submit(t, req(0, t, 1), true, &mut r);
        tier.submit(t, req(0, t, 2), true, &mut r);
        assert_eq!(tier.epoch(0), 0);
        tier.crash(0);
        assert_eq!(tier.epoch(0), 1);
        assert!(!tier.is_up(0));
        assert_eq!(tier.server(0).queue_len(), 0);
        assert!(!tier.server(0).busy());
        assert_eq!(tier.epoch(1), 0, "other servers keep their epochs");
    }

    #[test]
    fn jsq_routes_on_stale_gossip_until_the_interval_elapses() {
        let mut config = uniform(2);
        config.routing = RoutingPolicy::JoinShortestQueue {
            gossip_interval: SimDuration::from_secs(1),
        };
        let mut tier = ServerTier::new(&config);
        let mut r = rng();
        let t = SimTime::ZERO;
        // First submit snapshots (0, 0) depths, tie → server 0, which
        // starts a batch (queue stays 0). Pile more on: the snapshot is
        // stale, so everything keeps landing on server 0 and queues up.
        for tag in 0..4u64 {
            match tier.submit(t, req(0, t, tag), true, &mut r) {
                TierSubmit::Queued { server } | TierSubmit::BatchStarted { server, .. } => {
                    assert_eq!(server, 0, "stale gossip pins routing to server 0")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(tier.server(0).queue_len(), 3);
        // After the gossip interval the refreshed depths (3 vs 0) shift
        // traffic to server 1.
        let later = SimTime::from_millis(1_500);
        match tier.submit(later, req(0, later, 99), true, &mut r) {
            TierSubmit::Queued { server } | TierSubmit::BatchStarted { server, .. } => {
                assert_eq!(server, 1, "fresh gossip reroutes to the empty server")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn power_of_two_choices_picks_the_less_loaded_sample() {
        let mut config = uniform(2);
        config.routing = RoutingPolicy::PowerOfTwoChoices;
        let mut tier = ServerTier::new(&config);
        let mut r = rng();
        let t = SimTime::ZERO;
        // With both empty the tie breaks to the lower index of the two
        // sampled servers — with N = 2 the sample is always {0, 1}.
        assert!(matches!(
            tier.submit(t, req(0, t, 1), true, &mut r),
            TierSubmit::BatchStarted { server: 0, .. }
        ));
        // Server 0 now has a running batch (load 1): the next request
        // must land on the empty server 1 regardless of draw order.
        assert!(matches!(
            tier.submit(t, req(0, t, 2), true, &mut r),
            TierSubmit::BatchStarted { server: 1, .. }
        ));
    }

    #[test]
    fn power_of_two_skips_down_servers() {
        let mut config = uniform(3);
        config.routing = RoutingPolicy::PowerOfTwoChoices;
        let mut tier = ServerTier::new(&config);
        tier.crash(0);
        tier.crash(2);
        let mut r = rng();
        let before = r.clone();
        let t = SimTime::ZERO;
        // Exactly one live server: routed without consuming the stream.
        assert!(matches!(
            tier.submit(t, req(0, t, 1), true, &mut r),
            TierSubmit::BatchStarted { server: 1, .. }
        ));
        let mut untouched = before;
        assert_eq!(r.next_u64(), untouched.next_u64());
        tier.crash(1);
        assert_eq!(
            tier.submit(t, req(0, t, 2), true, &mut r),
            TierSubmit::Lost,
            "a fully-down tier loses everything"
        );
    }

    #[test]
    fn token_bucket_rejects_past_the_burst_and_refills_on_the_clock() {
        let mut config = uniform(1);
        config.admission = AdmissionPolicy::TokenBucket {
            rate_rps: 10.0,
            burst: 3.0,
        };
        let mut tier = ServerTier::new(&config);
        let mut r = rng();
        let t = SimTime::ZERO;
        for tag in 0..3u64 {
            assert_ne!(
                tier.submit(t, req(0, t, tag), true, &mut r),
                TierSubmit::AdmissionRejected,
                "burst capacity admits the first three"
            );
        }
        assert_eq!(
            tier.submit(t, req(0, t, 3), true, &mut r),
            TierSubmit::AdmissionRejected,
            "the bucket is empty"
        );
        assert_eq!(tier.admission_rejections(), 1);
        assert_eq!(tier.admission_rejections_for(TenantId(0)), 1);
        // 100 ms at 10 tokens/s refills exactly one token.
        let later = SimTime::from_millis(100);
        assert_ne!(
            tier.submit(later, req(0, later, 4), true, &mut r),
            TierSubmit::AdmissionRejected
        );
        assert_eq!(
            tier.submit(later, req(0, later, 5), true, &mut r),
            TierSubmit::AdmissionRejected
        );
        // Rejected requests never reach a server.
        assert_eq!(tier.total_stats().requests_received, 4);
    }

    #[test]
    fn buckets_are_per_tenant_and_unregulated_traffic_bypasses_them() {
        let mut config = uniform(1);
        config.admission = AdmissionPolicy::TokenBucket {
            rate_rps: 1.0,
            burst: 1.0,
        };
        let mut tier = ServerTier::new(&config);
        let mut r = rng();
        let t = SimTime::ZERO;
        assert_ne!(
            tier.submit(t, req(0, t, 1), true, &mut r),
            TierSubmit::AdmissionRejected
        );
        assert_eq!(
            tier.submit(t, req(0, t, 2), true, &mut r),
            TierSubmit::AdmissionRejected,
            "tenant 0 spent its only token"
        );
        assert_ne!(
            tier.submit(t, req(1, t, 3), true, &mut r),
            TierSubmit::AdmissionRejected,
            "tenant 1 has its own bucket"
        );
        // Probes and background load pass `regulated = false`.
        assert_ne!(
            tier.submit(t, req(0, t, 4), false, &mut r),
            TierSubmit::AdmissionRejected,
            "unregulated traffic is never policed"
        );
        assert_eq!(tier.rejections_for(TenantId(0)), 1);
    }

    #[test]
    fn tier_config_round_trips_through_json() {
        let config = TierConfig {
            servers: vec![
                ServerSpec {
                    gpu: GpuProfile { batch_limit: 15 },
                    policy: OverflowPolicy::FairShare,
                },
                ServerSpec {
                    gpu: GpuProfile { batch_limit: 4 },
                    policy: OverflowPolicy::RejectNewest,
                },
            ],
            routing: RoutingPolicy::JoinShortestQueue {
                gossip_interval: SimDuration::from_millis(500),
            },
            admission: AdmissionPolicy::TokenBucket {
                rate_rps: 14.0,
                burst: 14.0,
            },
        };
        let body = serde_json::to_string(&config).unwrap();
        let back: TierConfig = serde_json::from_str(&body).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_tier_is_rejected() {
        ServerTier::new(&TierConfig {
            servers: vec![],
            routing: RoutingPolicy::StaticShard,
            admission: AdmissionPolicy::AdmitAll,
        });
    }

    #[test]
    #[should_panic(expected = "burst must hold at least one token")]
    fn zero_burst_bucket_is_rejected() {
        let mut config = uniform(1);
        config.admission = AdmissionPolicy::TokenBucket {
            rate_rps: 5.0,
            burst: 0.5,
        };
        ServerTier::new(&config);
    }
}
