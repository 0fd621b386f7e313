//! The §IV-A batching rule, with no clock, GPU or transport: enqueue,
//! form the next batch (rejecting the overflow), finish. Its drivers own
//! time and pricing: [`EdgeServer`](crate::EdgeServer) on the simulated
//! clock and `GpuProfile`, `ff-reactor`'s server on a wall-clock timer.

use crate::policy::OverflowPolicy;
use crate::server::{Request, ServerStats};
use crate::tenants::TenantTable;
use ff_models::ModelKind;
use std::collections::VecDeque;

/// The queue, the batch in flight and the counters of one batching
/// server.
#[derive(Debug)]
pub struct Batcher {
    limit: usize,
    policy: OverflowPolicy,
    queue: VecDeque<Request>,
    /// The batch in flight; empty while the GPU is idle.
    running: Vec<Request>,
    stats: ServerStats,
    rejections_by_tenant: TenantTable<u64>,
}

impl Batcher {
    /// An idle batcher taking at most `limit` requests per batch.
    pub fn new(limit: usize, policy: OverflowPolicy) -> Self {
        assert!(limit > 0, "batch limit must be positive");
        Batcher {
            limit,
            policy,
            queue: VecDeque::new(),
            running: Vec::new(),
            stats: ServerStats::default(),
            rejections_by_tenant: TenantTable::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Rejections per tenant, for fairness accounting.
    pub fn rejections_by_tenant(&self) -> &TenantTable<u64> {
        &self.rejections_by_tenant
    }

    /// Requests waiting (not in the batch in flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a batch is in flight.
    pub fn busy(&self) -> bool {
        !self.running.is_empty()
    }

    /// Size of the batch in flight, if any.
    pub fn running_batch_size(&self) -> Option<usize> {
        self.busy().then_some(self.running.len())
    }

    /// Queue a request behind the batch in flight.
    pub fn enqueue(&mut self, request: Request) {
        self.stats.requests_received += 1;
        self.queue.push_back(request);
    }

    /// Form the next batch if none is in flight and a request waits,
    /// returning its model and size. The queue beyond the limit is
    /// rejected first, appended to `rejected`; the batch then takes the
    /// queued requests of the front request's model, in FIFO order, and
    /// the rest keep their places.
    pub fn form(&mut self, rejected: &mut Vec<Request>) -> Option<(ModelKind, usize)> {
        if self.busy() || self.queue.is_empty() {
            return None;
        }
        let before = rejected.len();
        self.policy
            .drain_overflow_into(&mut self.queue, self.limit, rejected);
        for v in &rejected[before..] {
            self.stats.rejections += 1;
            *self.rejections_by_tenant.slot(v.tenant) += 1;
        }

        // One rotation of the queue keeps the survivors in FIFO order
        // without allocating a replacement deque.
        let model = self.queue.front().expect("non-empty").model;
        for _ in 0..self.queue.len() {
            let r = self.queue.pop_front().expect("length checked");
            if r.model == model && self.running.len() < self.limit {
                self.running.push(r);
            } else {
                self.queue.push_back(r);
            }
        }
        let size = self.running.len();
        self.stats.batches_executed += 1;
        self.stats.batched_frames += size as u64;
        if size == self.limit {
            self.stats.full_batches += 1;
        }
        Some((model, size))
    }

    /// The batch in flight finished: append its requests to
    /// `completions`, in the order they joined it, and go idle.
    ///
    /// # Panics
    /// If no batch is in flight.
    pub fn finish(&mut self, completions: &mut Vec<Request>) {
        assert!(self.busy(), "finish called with no running batch");
        self.stats.completions += self.running.len() as u64;
        completions.append(&mut self.running);
    }

    /// Lose the queue and the batch in flight, as a crashed process
    /// does: those requests neither complete nor are rejected. The
    /// counters survive.
    pub(crate) fn crash(&mut self) {
        self.queue.clear();
        self.running.clear();
    }
}
