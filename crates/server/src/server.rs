//! The multi-tenant edge inference server (§II-A, §IV-A).
//!
//! Implements the paper's adaptive batching scheme verbatim:
//!
//! > "construct a batch using all frames (to a limit) that arrived while
//! >  executing the previous batch. We maintain a request queue that is
//! >  filled during the execution of a batch, and we fill the next batch
//! >  with the contents of this queue. [...] we impose a limit of 15
//! >  frames for each batch, while rejecting the rest in the queue."
//!
//! The rule itself is the [`Batcher`], shared with the live server;
//! [`EdgeServer`] drives it on the simulated clock. The GPU executes one
//! batch at a time; batch latency follows the affine [`GpuProfile`]
//! model. Multi-tenant contention therefore emerges exactly as in the
//! paper: more offered load → larger batches → longer batch latency →
//! longer queue waits → deadline violations, and past saturation →
//! rejections at batch-formation time (`T_l`).
//!
//! The server is a passive state machine driven by the simulation's event
//! loop: `submit` may start a batch (returning its completion instant to
//! schedule), and `batch_done_into` returns finished requests plus the
//! next batch's completion instant.

use crate::batcher::Batcher;
use crate::policy::OverflowPolicy;
use ff_models::{GpuProfile, ModelKind};
use ff_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies one client device (tenant) of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

/// One inference request as the server sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The submitting client device.
    pub tenant: TenantId,
    /// Which classification model to run.
    pub model: ModelKind,
    /// Arrival instant at the server.
    pub submitted_at: SimTime,
    /// Caller-defined correlation tag (the device uses its frame id).
    pub tag: u64,
}

/// What happened when a request was submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Queued behind the executing batch.
    Queued,
    /// The GPU was idle: a batch started immediately — the caller must
    /// schedule a batch-done event.
    BatchStarted {
        /// Completion instant of the batch that just started.
        done_at: SimTime,
    },
}

/// Aggregate server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests submitted to the server.
    pub requests_received: u64,
    /// Requests that ran to completion.
    pub completions: u64,
    /// Requests rejected at batch formation (queue overflow).
    pub rejections: u64,
    /// Batches the GPU executed.
    pub batches_executed: u64,
    /// Sum of batch sizes, for mean-batch-size reporting.
    pub batched_frames: u64,
    /// Batches that hit the size cap.
    pub full_batches: u64,
}

impl ServerStats {
    /// Mean batch size over the run.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_executed == 0 {
            return 0.0;
        }
        self.batched_frames as f64 / self.batches_executed as f64
    }
}

/// Reusable output buffers for [`EdgeServer::batch_done_into`]: the
/// batch-done hot path fills these instead of allocating fresh vectors
/// per batch. Hold one per server and pass it to every call; the
/// buffers are cleared (keeping capacity) on entry.
#[derive(Debug, Default)]
pub struct BatchOutput {
    /// Requests that finished in the completed batch, in batch order.
    pub completions: Vec<Request>,
    /// Queue overflow rejected at batch-formation time.
    pub rejections: Vec<Request>,
    /// Completion instant of the next batch, if one started.
    pub next_done: Option<SimTime>,
}

/// The GPU-equipped edge server: a [`Batcher`] on the simulated clock,
/// each batch priced by the [`GpuProfile`].
pub struct EdgeServer {
    gpu: GpuProfile,
    batcher: Batcher,
    /// Completion instant of the batch in flight.
    done_at: Option<SimTime>,
}

impl EdgeServer {
    /// A server with the paper's default reject-newest overflow policy.
    pub fn new(gpu: GpuProfile) -> Self {
        Self::with_policy(gpu, OverflowPolicy::default())
    }

    /// A server with an explicit overflow policy (see `OverflowPolicy`).
    pub(crate) fn with_policy(gpu: GpuProfile, policy: OverflowPolicy) -> Self {
        EdgeServer {
            gpu,
            batcher: Batcher::new(gpu.batch_limit, policy),
            done_at: None,
        }
    }

    /// The queue, the running batch and the counters.
    pub fn batcher(&self) -> &Batcher {
        &self.batcher
    }

    /// Simulate an abrupt process crash: the queue and any running batch
    /// are lost — from the clients' view those requests simply vanish
    /// (no completion, no rejection). Cumulative statistics survive, as
    /// they describe the run, not the process. The caller is responsible
    /// for discarding any batch-done event it scheduled for the lost
    /// batch.
    pub(crate) fn crash(&mut self) {
        self.batcher.crash();
        self.done_at = None;
    }

    /// Offer a request. If the GPU is idle the request forms a batch and
    /// starts immediately; otherwise it waits for the current batch.
    pub fn submit(&mut self, now: SimTime, request: Request) -> Submit {
        assert!(
            request.submitted_at <= now,
            "request submitted in the future"
        );
        self.batcher.enqueue(request);
        if self.done_at.is_some() {
            return Submit::Queued;
        }
        let done_at = self
            .start_next(now, |_| {
                unreachable!("an idle server's queue held nothing to overflow")
            })
            .expect("queue is non-empty, a batch must form");
        Submit::BatchStarted { done_at }
    }

    /// The caller's batch-done event fired: collect completions, form the
    /// next batch from the queue (rejecting the overflow), and record the
    /// next batch's completion instant if one started. Fills the
    /// caller's reused buffers, which are cleared on entry.
    ///
    /// The two steps a tier drives apart
    /// ([`ServerTier::finish_batch`](crate::ServerTier::finish_batch),
    /// then [`ServerTier::start_next`](crate::ServerTier::start_next)),
    /// for callers that want the rejections collected.
    pub fn batch_done_into(&mut self, now: SimTime, out: &mut BatchOutput) {
        out.completions.clear();
        out.rejections.clear();
        self.finish_batch(now, &mut out.completions);
        out.next_done = self.start_next(now, |r| out.rejections.push(r));
    }

    /// The first half of a batch-done event: the batch in flight
    /// finished at `now`; append its requests to `completions`, in batch
    /// order. [`start_next`](Self::start_next) must follow at the same
    /// instant.
    pub(crate) fn finish_batch(&mut self, now: SimTime, completions: &mut Vec<Request>) {
        let done_at = self
            .done_at
            .take()
            .expect("batch_done_into called with no running batch");
        assert_eq!(done_at, now, "batch-done event fired at the wrong instant");
        self.batcher.finish(completions);
    }

    /// Form the next batch at `now`, handing each overflowed request to
    /// `reject` as the batcher rejects it, and price the batch on the
    /// GPU: its completion instant, if one started.
    pub(crate) fn start_next(
        &mut self,
        now: SimTime,
        reject: impl FnMut(Request),
    ) -> Option<SimTime> {
        let (model, size) = self.batcher.form(reject)?;
        let latency_ms = self.gpu.batch_latency_ms(model, size);
        let done_at = now + SimDuration::from_secs_f64(latency_ms / 1_000.0);
        self.done_at = Some(done_at);
        Some(done_at)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn req(tenant: u32, at: SimTime, tag: u64) -> Request {
        Request {
            tenant: TenantId(tenant),
            model: ModelKind::MobileNetV3Small,
            submitted_at: at,
            tag,
        }
    }

    fn server() -> EdgeServer {
        EdgeServer::new(GpuProfile::default())
    }

    /// One batch-done event, its results in fresh vectors.
    pub(crate) fn batch_done(
        s: &mut EdgeServer,
        now: SimTime,
    ) -> (Vec<Request>, Vec<Request>, Option<SimTime>) {
        let mut out = BatchOutput::default();
        s.batch_done_into(now, &mut out);
        (out.completions, out.rejections, out.next_done)
    }

    #[test]
    fn crash_loses_work_in_progress_but_keeps_stats() {
        let mut s = server();
        s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 1));
        s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 2));
        assert!(s.batcher().busy());
        assert_eq!(s.batcher().queue_len(), 1);

        s.crash();
        assert!(!s.batcher().busy());
        assert_eq!(s.batcher().queue_len(), 0);
        let stats = s.batcher().stats();
        assert_eq!(stats.requests_received, 2, "counters survive the crash");
        assert_eq!(stats.completions, 0, "lost requests never complete");

        // A restarted server accepts work immediately.
        let at = SimTime::from_millis(100);
        let out = s.submit(at, req(0, at, 3));
        assert!(matches!(out, Submit::BatchStarted { .. }));
    }

    #[test]
    fn idle_server_starts_batch_immediately() {
        let mut s = server();
        let out = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 1));
        let Submit::BatchStarted { done_at } = out else {
            panic!("expected immediate batch start");
        };
        // Batch of 1: 40 + 4.3 ms.
        assert_eq!(done_at.as_millis(), 44);
        assert!(s.batcher().busy());
        assert_eq!(s.batcher().running_batch_size(), Some(1));
        assert_eq!(s.batcher().queue_len(), 0);
    }

    #[test]
    fn requests_during_execution_form_the_next_batch() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        // Three more arrive while the batch runs.
        for tag in 1..=3 {
            let t = SimTime::from_millis(10 * tag);
            assert_eq!(s.submit(t, req(0, t, tag)), Submit::Queued);
        }
        let (completions, rejections, next) = batch_done(&mut s, done_at);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].tag, 0);
        assert!(rejections.is_empty());
        let next = next.expect("queued requests start the next batch");
        // Batch of 3: 40 + 3*4.3 = 52.9 ms after done_at.
        assert_eq!((next - done_at).as_millis(), 52);
        assert_eq!(s.batcher().running_batch_size(), Some(3));
    }

    #[test]
    fn overflow_beyond_batch_limit_is_rejected() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        // 20 requests arrive during execution; limit is 15.
        for tag in 1..=20 {
            let t = SimTime::from_millis(tag);
            s.submit(t, req(0, t, tag));
        }
        let (_, rejections, next) = batch_done(&mut s, done_at);
        assert_eq!(rejections.len(), 5, "20 queued − 15 kept = 5 rejected");
        // Newest requests are the rejected ones.
        let mut rejected_tags: Vec<u64> = rejections.iter().map(|r| r.tag).collect();
        rejected_tags.sort_unstable();
        assert_eq!(rejected_tags, vec![16, 17, 18, 19, 20]);
        assert!(next.is_some());
        assert_eq!(s.batcher().running_batch_size(), Some(15));
        assert_eq!(s.batcher().stats().rejections, 5);
    }

    #[test]
    fn batch_latency_scales_with_size() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        for tag in 1..=14 {
            s.submit(
                SimTime::from_millis(1),
                req(0, SimTime::from_millis(1), tag),
            );
        }
        let (_, _, next) = batch_done(&mut s, done_at);
        // Batch of 14: 40 + 14*4.3 = 100.2 ms.
        assert_eq!((next.unwrap() - done_at).as_millis(), 100);
    }

    #[test]
    fn multi_tenant_fifo_order_is_preserved() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        for (tenant, tag) in [(1, 100), (2, 200), (1, 101)] {
            s.submit(
                SimTime::from_millis(5),
                req(tenant, SimTime::from_millis(5), tag),
            );
        }
        let (_, _, _next) = batch_done(&mut s, done_at);
        assert_eq!(
            s.batcher().running_batch_size(),
            Some(3),
            "all tenants share the batch"
        );
    }

    #[test]
    fn single_model_batches_keep_other_models_queued() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        let heavy = Request {
            tenant: TenantId(9),
            model: ModelKind::EfficientNetB0,
            submitted_at: SimTime::from_millis(1),
            tag: 500,
        };
        s.submit(SimTime::from_millis(1), heavy);
        s.submit(SimTime::from_millis(2), req(0, SimTime::from_millis(2), 1));
        let (_, _, next) = batch_done(&mut s, done_at);
        // EfficientNetB0 was first in the queue → it forms the next batch;
        // the MobileNet request waits.
        assert_eq!(s.batcher().running_batch_size(), Some(1));
        assert_eq!(s.batcher().queue_len(), 1);
        let (completed, _, _) = batch_done(&mut s, next.expect("a batch started"));
        assert_eq!(completed, [heavy]);
    }

    #[test]
    fn drains_to_idle() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        let (completions, rejections, next) = batch_done(&mut s, done_at);
        assert_eq!(completions.len(), 1);
        assert!(rejections.is_empty());
        assert!(next.is_none());
        assert!(!s.batcher().busy());
        let stats = s.batcher().stats();
        assert_eq!(stats.completions, 1);
        assert_eq!(stats.batches_executed, 1);
    }

    #[test]
    fn saturation_throughput_matches_gpu_model() {
        // Steady state at overload: back-to-back full batches.
        let mut s = server();
        let mut now = SimTime::ZERO;
        let mut next_done = match s.submit(now, req(0, now, 0)) {
            Submit::BatchStarted { done_at } => done_at,
            Submit::Queued => unreachable!(),
        };
        let mut completed = 0u64;
        let mut tag = 1u64;
        // Offer 300 rps for 20 simulated seconds.
        let mut next_arrival = SimTime::ZERO;
        let horizon = SimTime::from_secs(20);
        loop {
            if next_arrival <= next_done && next_arrival < horizon {
                now = next_arrival;
                if !s.batcher().busy() {
                    if let Submit::BatchStarted { done_at } = s.submit(now, req(0, now, tag)) {
                        next_done = done_at;
                    }
                } else {
                    s.submit(now, req(0, now, tag));
                }
                tag += 1;
                next_arrival += SimDuration::from_secs_f64(1.0 / 300.0);
            } else if s.batcher().busy() {
                now = next_done;
                let (c, _r, nd) = batch_done(&mut s, now);
                completed += c.len() as u64;
                match nd {
                    Some(d) => next_done = d,
                    None => {
                        if next_arrival >= horizon {
                            break;
                        }
                        next_done = SimTime::MAX;
                    }
                }
            } else {
                break;
            }
            if now >= horizon && !s.batcher().busy() {
                break;
            }
        }
        let fps = completed as f64 / 20.0;
        let expected = GpuProfile::default().saturation_throughput_fps(ModelKind::MobileNetV3Small);
        assert!(
            (fps - expected).abs() / expected < 0.1,
            "measured {fps:.1} fps vs model {expected:.1} fps"
        );
        assert!(s.batcher().stats().rejections > 0, "overload must reject");
        assert!(s.batcher().stats().mean_batch_size() > 10.0);
    }

    #[test]
    #[should_panic(expected = "no running batch")]
    fn batch_done_without_batch_panics() {
        batch_done(&mut server(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "wrong instant")]
    fn batch_done_at_wrong_time_panics() {
        let mut s = server();
        let Submit::BatchStarted { done_at } = s.submit(SimTime::ZERO, req(0, SimTime::ZERO, 0))
        else {
            panic!()
        };
        batch_done(&mut s, done_at + SimDuration::from_millis(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::OverflowPolicy;
    use proptest::prelude::*;

    /// Drive a server through an arbitrary arrival sequence, firing batch
    /// completions whenever they come due, and return the totals.
    fn drive(
        policy: OverflowPolicy,
        gaps_ms: &[u64],
        models: &[bool],
    ) -> (ServerStats, u64, usize) {
        let mut server = EdgeServer::with_policy(GpuProfile::default(), policy);
        let mut now = SimTime::ZERO;
        let mut next_done: Option<SimTime> = None;
        let mut completed = 0u64;
        let mut max_batch = 0usize;
        for (tag, (&gap, &heavy)) in gaps_ms.iter().zip(models).enumerate() {
            now += SimDuration::from_millis(gap);
            while let Some(d) = next_done {
                if d <= now {
                    let (c, _r, nd) = tests::batch_done(&mut server, d);
                    completed += c.len() as u64;
                    max_batch = max_batch.max(c.len());
                    next_done = nd;
                } else {
                    break;
                }
            }
            let request = Request {
                tenant: TenantId((tag % 5) as u32),
                model: if heavy {
                    ModelKind::EfficientNetB0
                } else {
                    ModelKind::MobileNetV3Small
                },
                submitted_at: now,
                tag: tag as u64,
            };
            if let Submit::BatchStarted { done_at } = server.submit(now, request) {
                next_done = Some(done_at);
            }
        }
        // Drain.
        while let Some(d) = next_done {
            let (c, _r, nd) = tests::batch_done(&mut server, d);
            completed += c.len() as u64;
            max_batch = max_batch.max(c.len());
            next_done = nd;
        }
        (server.batcher().stats(), completed, max_batch)
    }

    proptest! {
        /// Conservation: every submitted request either completes or is
        /// rejected, under both overflow policies and mixed models.
        #[test]
        fn prop_requests_are_conserved(
            gaps in proptest::collection::vec(0u64..60, 1..300),
            heavy_bits in proptest::collection::vec(any::<bool>(), 300),
            fair in any::<bool>(),
        ) {
            let policy = if fair { OverflowPolicy::FairShare } else { OverflowPolicy::RejectNewest };
            let models = &heavy_bits[..gaps.len()];
            let (stats, completed, _) = drive(policy, &gaps, models);
            prop_assert_eq!(stats.requests_received, gaps.len() as u64);
            prop_assert_eq!(stats.completions, completed);
            prop_assert_eq!(
                stats.completions + stats.rejections,
                stats.requests_received,
                "every request must resolve exactly once"
            );
        }

        /// Batch sizes never exceed the limit, and the dense per-tenant
        /// rejection table agrees, tenant by tenant, with an ordered map
        /// built from the returned rejections (the accounting the table
        /// replaced) — over sparse ids including the background
        /// tenant's.
        #[test]
        fn prop_batch_limit_and_tenant_accounting(
            gaps in proptest::collection::vec(0u64..20, 1..300),
        ) {
            use std::collections::BTreeMap;
            const TENANTS: [u32; 3] = [0, 5, 1000];
            let mut server = EdgeServer::new(GpuProfile::default());
            let mut now = SimTime::ZERO;
            let mut next_done: Option<SimTime> = None;
            let mut rejected: BTreeMap<TenantId, u64> = BTreeMap::new();
            let mut fire = |server: &mut EdgeServer, d: SimTime| {
                let (c, r, nd) = tests::batch_done(server, d);
                assert!(c.len() <= GpuProfile::default().batch_limit);
                for r in &r {
                    *rejected.entry(r.tenant).or_default() += 1;
                }
                nd
            };
            for (tag, &gap) in gaps.iter().enumerate() {
                now += SimDuration::from_millis(gap);
                while let Some(d) = next_done.filter(|&d| d <= now) {
                    next_done = fire(&mut server, d);
                }
                let request = Request {
                    tenant: TenantId(TENANTS[tag % 3]),
                    model: ModelKind::MobileNetV3Small,
                    submitted_at: now,
                    tag: tag as u64,
                };
                if let Submit::BatchStarted { done_at } = server.submit(now, request) {
                    next_done = Some(done_at);
                }
            }
            while let Some(d) = next_done {
                next_done = fire(&mut server, d);
            }
            let table = server.batcher().rejections_by_tenant();
            for (tenant, count) in table.iter() {
                prop_assert_eq!(count, rejected.get(&tenant).copied().unwrap_or(0));
            }
            for (&tenant, &count) in &rejected {
                prop_assert_eq!(table.get(tenant), count);
            }
        }

        /// Higher offered load never *increases* the completion ratio
        /// past 1, and always keeps throughput at or under the saturation
        /// ceiling.
        #[test]
        fn prop_throughput_bounded_by_saturation(rate_rps in 10.0f64..500.0) {
            let n = 2_000usize;
            let gap_ms = (1_000.0 / rate_rps).max(1.0) as u64;
            let gaps = vec![gap_ms; n];
            let models = vec![false; n];
            let (stats, completed, max_batch) = drive(OverflowPolicy::RejectNewest, &gaps, &models);
            prop_assert!(completed <= stats.requests_received);
            prop_assert!(max_batch <= GpuProfile::default().batch_limit);
            let duration_secs = (n as u64 * gap_ms) as f64 / 1_000.0;
            let fps = completed as f64 / duration_secs;
            let ceiling = GpuProfile::default()
                .saturation_throughput_fps(ModelKind::MobileNetV3Small);
            prop_assert!(fps <= ceiling * 1.15, "throughput {fps:.0} above ceiling {ceiling:.0}");
        }
    }
}
