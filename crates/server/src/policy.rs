//! Overflow (rejection) policies.
//!
//! §II-A.3: "When the workload fully saturates the system, the system
//! should respond by reducing offloading and distributing the available
//! capacity fairly among clients." The paper's implementation rejects the
//! overflow of the request queue without specifying *which* requests; we
//! provide two policies and an ablation comparing them:
//!
//! * [`OverflowPolicy::RejectNewest`] — drop from the back of the queue
//!   (the paper's implicit behaviour: latecomers lose). Simple, but a
//!   bursty tenant can crowd out a steady one.
//! * [`OverflowPolicy::FairShare`] — repeatedly drop the newest request
//!   of the tenant holding the most queued requests, equalizing queue
//!   occupancy across tenants at saturation (max-min fairness over the
//!   batch slots).

use crate::server::{Request, TenantId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// How the server selects which queued requests to reject when the queue
/// exceeds the batch limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Reject from the back of the queue (arrival order; the default and
    /// the paper's behaviour).
    #[default]
    RejectNewest,
    /// Reject the newest request of the most-queued tenant first.
    FairShare,
}

impl OverflowPolicy {
    /// Remove requests from `queue` until it holds at most `limit`,
    /// appending the victims to a caller-provided buffer so the
    /// per-batch hot path can reuse one allocation across the whole run.
    /// [`RejectNewest`](Self::RejectNewest) appends them in queue order.
    pub(crate) fn drain_overflow_into(
        self,
        queue: &mut VecDeque<Request>,
        limit: usize,
        victims: &mut Vec<Request>,
    ) {
        match self {
            OverflowPolicy::RejectNewest => {
                if queue.len() > limit {
                    victims.extend(queue.drain(limit..));
                }
            }
            OverflowPolicy::FairShare => fair_share_drain(queue, limit, victims),
        }
    }
}

/// [`OverflowPolicy::FairShare`]: the victim is always the newest request
/// of the tenant with the most requests still queued (lowest tenant id
/// on ties). Linear in the queue plus `victims · log(tenants)`: tenants
/// are counted once, a max-heap names the victims' tenants in order, and
/// one walk from the back of the queue picks the requests.
fn fair_share_drain(queue: &mut VecDeque<Request>, limit: usize, victims: &mut Vec<Request>) {
    let excess = queue.len().saturating_sub(limit);
    if excess == 0 {
        return;
    }
    let mut counts: HashMap<TenantId, usize> = HashMap::new();
    for r in queue.iter() {
        *counts.entry(r.tenant).or_default() += 1;
    }
    let mut heaviest: BinaryHeap<(usize, Reverse<TenantId>)> = counts
        .into_iter()
        .map(|(tenant, count)| (count, Reverse(tenant)))
        .collect();
    // Per tenant, the positions in the victim sequence it must fill.
    let mut owed: HashMap<TenantId, Vec<usize>> = HashMap::new();
    for position in 0..excess {
        let (count, Reverse(tenant)) = heaviest.pop().expect("the queue is over the limit");
        owed.entry(tenant).or_default().push(position);
        if count > 1 {
            heaviest.push((count - 1, Reverse(tenant)));
        }
    }
    // A tenant's newest request fills its earliest position, so hand
    // positions out from the front while walking the queue from the back.
    for positions in owed.values_mut() {
        positions.reverse();
    }
    let mut picked: Vec<(usize, Request)> = Vec::with_capacity(excess);
    let mut survivors = Vec::new();
    while picked.len() < excess {
        let r = queue.pop_back().expect("every owed position has a request");
        match owed.get_mut(&r.tenant).and_then(Vec::pop) {
            Some(position) => picked.push((position, r)),
            None => survivors.push(r),
        }
    }
    queue.extend(survivors.into_iter().rev());
    picked.sort_unstable_by_key(|&(position, _)| position);
    victims.extend(picked.into_iter().map(|(_, r)| r));
}

/// Jain's fairness index over per-client allocations: 1 = perfectly fair,
/// 1/n = maximally unfair. Empty or all-zero input yields 1 (vacuously
/// fair).
pub fn jain_fairness_index(allocations: &[f64]) -> f64 {
    assert!(
        allocations.iter().all(|a| *a >= 0.0 && a.is_finite()),
        "allocations must be non-negative and finite"
    );
    let sum: f64 = allocations.iter().sum();
    if allocations.is_empty() || sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = allocations.iter().map(|a| a * a).sum();
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::ModelKind;
    use ff_sim::SimTime;

    fn req(tenant: u32, tag: u64) -> Request {
        Request {
            tenant: TenantId(tenant),
            model: ModelKind::MobileNetV3Small,
            submitted_at: SimTime::ZERO,
            tag,
        }
    }

    fn queue_of(specs: &[(u32, u64)]) -> VecDeque<Request> {
        specs.iter().map(|&(t, tag)| req(t, tag)).collect()
    }

    /// The victims of one [`OverflowPolicy::drain_overflow_into`] call.
    pub(super) fn drain(
        policy: OverflowPolicy,
        queue: &mut VecDeque<Request>,
        limit: usize,
    ) -> Vec<Request> {
        let mut victims = Vec::new();
        policy.drain_overflow_into(queue, limit, &mut victims);
        victims
    }

    #[test]
    fn reject_newest_drops_from_the_back() {
        let mut q = queue_of(&[(0, 1), (1, 2), (0, 3), (1, 4)]);
        let victims = drain(OverflowPolicy::RejectNewest, &mut q, 2);
        assert_eq!(
            victims.iter().map(|r| r.tag).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].tag, 1);
    }

    #[test]
    fn fair_share_penalizes_the_heaviest_tenant() {
        // Tenant 0 floods (5 requests); tenant 1 has 1.
        let mut q = queue_of(&[(0, 1), (0, 2), (1, 3), (0, 4), (0, 5), (0, 6)]);
        let victims = drain(OverflowPolicy::FairShare, &mut q, 3);
        assert_eq!(victims.len(), 3);
        assert!(
            victims.iter().all(|r| r.tenant == TenantId(0)),
            "only the flooding tenant should lose requests: {victims:?}"
        );
        // Tenant 1's single request survives.
        assert!(q.iter().any(|r| r.tenant == TenantId(1)));
        // Victims are the flooding tenant's newest requests.
        assert_eq!(
            victims.iter().map(|r| r.tag).collect::<Vec<_>>(),
            vec![6, 5, 4]
        );
    }

    #[test]
    fn fair_share_equalizes_across_equal_tenants() {
        // Two tenants with 4 requests each; dropping to 4 total should
        // leave 2 each.
        let mut q = queue_of(&[
            (0, 1),
            (1, 2),
            (0, 3),
            (1, 4),
            (0, 5),
            (1, 6),
            (0, 7),
            (1, 8),
        ]);
        let _ = drain(OverflowPolicy::FairShare, &mut q, 4);
        let t0 = q.iter().filter(|r| r.tenant == TenantId(0)).count();
        let t1 = q.iter().filter(|r| r.tenant == TenantId(1)).count();
        assert_eq!((t0, t1), (2, 2));
    }

    #[test]
    fn no_overflow_means_no_victims() {
        for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::FairShare] {
            let mut q = queue_of(&[(0, 1), (1, 2)]);
            assert!(drain(policy, &mut q, 5).is_empty());
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn policies_preserve_survivor_order() {
        for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::FairShare] {
            let mut q = queue_of(&[(0, 1), (1, 2), (0, 3), (1, 4), (0, 5)]);
            let _ = drain(policy, &mut q, 2);
            let tags: Vec<u64> = q.iter().map(|r| r.tag).collect();
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(tags, sorted, "{policy:?} must keep FIFO order");
        }
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_fairness_index(&[5.0, 5.0, 5.0]), 1.0);
        let unfair = jain_fairness_index(&[10.0, 0.0, 0.0]);
        assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_index_orders_by_fairness() {
        let fairer = jain_fairness_index(&[4.0, 5.0, 6.0]);
        let less_fair = jain_fairness_index(&[1.0, 5.0, 9.0]);
        assert!(fairer > less_fair);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jain_rejects_negative_allocations() {
        jain_fairness_index(&[-1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ff_models::ModelKind;
    use ff_sim::SimTime;
    use proptest::prelude::*;

    /// `FairShare` as first written: recount the whole queue for every
    /// victim. Quadratic, kept as the oracle for the victims and their
    /// order.
    fn fair_share_recounting(queue: &mut VecDeque<Request>, limit: usize) -> Vec<Request> {
        let mut victims = Vec::new();
        while queue.len() > limit {
            let mut counts: HashMap<TenantId, usize> = HashMap::new();
            for r in queue.iter() {
                *counts.entry(r.tenant).or_default() += 1;
            }
            let heaviest = counts
                .into_iter()
                .max_by_key(|&(tenant, count)| (count, Reverse(tenant)))
                .expect("queue is non-empty")
                .0;
            let idx = queue
                .iter()
                .rposition(|r| r.tenant == heaviest)
                .expect("heaviest tenant has at least one request");
            victims.push(queue.remove(idx).expect("index in range"));
        }
        victims
    }

    proptest! {
        #[test]
        fn prop_fair_share_matches_the_recounting_oracle(
            tenants in proptest::collection::vec(0u32..6, 0..80),
            limit in 0usize..20,
        ) {
            let mut queue: VecDeque<Request> = tenants
                .iter()
                .enumerate()
                .map(|(tag, &tenant)| Request {
                    tenant: TenantId(tenant),
                    model: ModelKind::MobileNetV3Small,
                    submitted_at: SimTime::ZERO,
                    tag: tag as u64,
                })
                .collect();
            let mut oracle_queue = queue.clone();
            let expected = fair_share_recounting(&mut oracle_queue, limit);
            let victims = tests::drain(OverflowPolicy::FairShare, &mut queue, limit);
            prop_assert_eq!(victims, expected);
            prop_assert_eq!(queue, oracle_queue);
        }
    }
}
