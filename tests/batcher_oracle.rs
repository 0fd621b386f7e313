//! `ff_server::Batcher` against the rule the live server once kept for
//! itself: each loop turn, if no batch was in flight, take
//! `min(len, limit)` queued requests in FIFO order and reject the rest
//! in queue order. Random turns of arrivals, each followed by one
//! formation, must form, complete and reject the same requests in the
//! same order through both.

use framefeedback::models::ModelKind;
use framefeedback::server::{Batcher, OverflowPolicy, Request, TenantId};
use framefeedback::sim::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    #[test]
    fn prop_the_batcher_matches_the_old_live_rule(
        limit in 1usize..8,
        // (arrivals this turn, whether the batch in flight finishes)
        turns in proptest::collection::vec((0u64..20, any::<bool>()), 1..60),
    ) {
        let mut batcher = Batcher::new(limit, OverflowPolicy::RejectNewest);
        let (mut queue, mut batch) = (VecDeque::new(), Vec::new());
        let (mut completions, mut rejections) = (Vec::new(), Vec::new());
        let mut next_tag = 0u64;
        for (turn, &(arrivals, done)) in turns.iter().enumerate() {
            let now = SimTime::from_millis(turn as u64);
            if done && batcher.busy() {
                completions.clear();
                batcher.finish(&mut completions);
                let tags: Vec<u64> = completions.iter().map(|c| c.tag).collect();
                prop_assert_eq!(tags, std::mem::take(&mut batch), "turn {}", turn);
            }
            for tag in next_tag..next_tag + arrivals {
                let tenant = TenantId(tag as u32 % 3);
                let model = ModelKind::MobileNetV3Small;
                batcher.enqueue(Request { tenant, model, submitted_at: now, tag });
                queue.push_back(tag);
            }
            next_tag += arrivals;

            rejections.clear();
            let formed = batcher.form(&mut rejections).map(|(_, size)| size);
            let (mut want_formed, mut want_rejected) = (None, Vec::new());
            if batch.is_empty() && !queue.is_empty() {
                let take = queue.len().min(limit);
                batch.extend(queue.drain(..take));
                want_formed = Some(take);
                want_rejected.extend(queue.drain(..));
            }
            let rejected: Vec<u64> = rejections.iter().map(|r| r.tag).collect();
            prop_assert_eq!(formed, want_formed, "turn {}", turn);
            prop_assert_eq!(rejected, want_rejected, "turn {}", turn);
            prop_assert_eq!(batcher.queue_len(), queue.len(), "turn {}", turn);
        }
        let stats = batcher.stats();
        prop_assert_eq!(stats.requests_received, next_tag);
        let by_tenant: u64 = batcher.rejections_by_tenant().iter().map(|(_, n)| n).sum();
        prop_assert_eq!(by_tenant, stats.rejections);
    }
}
