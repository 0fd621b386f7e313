//! The sharded coordinator's `RoundMerge` against one global heap, the
//! structure it replaced. Submissions are deposited rounds ahead of
//! their arrival and start batch completions mid-pop; both must pop the
//! same sequence in every round, ties between devices included.

use framefeedback::device::shard::testhooks::{
    batch_key, play, MergeKey, CLASS_BATCH, CLASS_FRAME, CLASS_PROBE,
};
use framefeedback::sim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Window width, in microseconds.
const W: u64 = 10;

proptest! {
    #[test]
    fn prop_round_merge_pops_like_one_global_heap(
        // (deposit round and send offset, arrival delay, device and
        // probe bit, batch latency)
        subs in proptest::collection::vec((0u64..36, 0u64..40, 0u64..12, 0u64..30), 0..120),
    ) {
        let mut rounds: Vec<(SimTime, Vec<(MergeKey, u64)>)> = (2..14)
            .map(|r| (SimTime::from_micros(r * W), Vec::new()))
            .collect();
        for &(round_offset, delay, dev_probe, after) in &subs {
            // Sent inside window `round`, arriving at least one window
            // later: the conservative bound. Few send instants, so
            // devices tie on `(at, ins, class)` and the device decides,
            // as when a fleet captures in the same microsecond.
            let (round, offset) = (round_offset / 3, round_offset % 3);
            let sent = round * W + offset;
            let key = MergeKey {
                at: SimTime::from_micros(sent + W + delay),
                ins: SimTime::from_micros(sent),
                class: if dev_probe % 2 == 1 { CLASS_PROBE } else { CLASS_FRAME },
                tie: dev_probe / 2,
            };
            rounds[round as usize].1.push((key, after));
        }
        let after_of = |k| {
            rounds.iter().flat_map(|(_, d)| d).find(|(q, _)| *q == k).map_or(0, |&(_, a)| a)
        };

        let merged = play(Vec::new(), &rounds);
        let mut heap = BinaryHeap::new();
        let mut tie = 0;
        for (round, (bound, deposits)) in rounds.iter().enumerate() {
            heap.extend(deposits.iter().map(|&(k, _)| Reverse(k)));
            let mut expected = Vec::new();
            while heap.peek().is_some_and(|Reverse(k)| k.at < *bound) {
                let Reverse(k) = heap.pop().unwrap();
                if k.class > CLASS_BATCH && after_of(k) > 0 {
                    heap.push(Reverse(batch_key(k, after_of(k), tie)));
                    tie += 1;
                }
                expected.push(k);
            }
            prop_assert_eq!(&merged[round], &expected, "round {}", round);
        }
    }
}
