//! The sharded coordinator's `RoundMerge` against one global heap, the
//! structure it replaced. Submissions are deposited rounds ahead of
//! their arrival, as one to three shard runs per round in shuffled send
//! order (what an outbox holds before the shard sorts it), and start
//! batch completions mid-pop; both must pop the same sequence in every
//! round, ties between devices included.

use framefeedback::device::shard::testhooks::{
    batch_key, play, Deposits, MergeKey, CLASS_BATCH, CLASS_FRAME, CLASS_PROBE,
};
use framefeedback::sim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Window width, in microseconds.
const W: u64 = 10;

/// Rounds played.
const ROUNDS: usize = 12;

proptest! {
    #[test]
    fn prop_round_merge_pops_like_one_global_heap(
        // (deposit round and send offset, arrival delay, device and
        // probe bit, batch latency, shard run, send-order rank)
        subs in proptest::collection::vec(
            ((0u64..36, 0u64..40, 0u64..12, 0u64..30), (0usize..3, any::<u32>())),
            0..120,
        ),
        // Shard runs per round.
        shards in proptest::collection::vec(1usize..=3, ROUNDS),
    ) {
        let mut rounds: Vec<(SimTime, Vec<Deposits>)> = (0..ROUNDS)
            .map(|r| {
                let bound = SimTime::from_micros((r as u64 + 2) * W);
                (bound, vec![Vec::new(); shards[r]])
            })
            .collect();
        let mut ranks: Vec<Vec<Vec<u32>>> = shards.iter().map(|&k| vec![Vec::new(); k]).collect();
        for &((round_offset, delay, dev_probe, after), (run, rank)) in &subs {
            // Sent inside window `round`, arriving at least one window
            // later: the conservative bound. Few send instants, so
            // devices tie on `(at, ins, class)` and the device decides,
            // as when a fleet captures in the same microsecond.
            let (round, offset) = ((round_offset / 3) as usize, round_offset % 3);
            let sent = round as u64 * W + offset;
            let key = MergeKey {
                at: SimTime::from_micros(sent + W + delay),
                ins: SimTime::from_micros(sent),
                class: if dev_probe % 2 == 1 { CLASS_PROBE } else { CLASS_FRAME },
                tie: dev_probe / 2,
            };
            let run = run % shards[round];
            rounds[round].1[run].push((key, after));
            ranks[round][run].push(rank);
        }
        // Shuffle each run by its random ranks.
        for ((_, runs), ranks) in rounds.iter_mut().zip(&ranks) {
            for (run, ranks) in runs.iter_mut().zip(ranks) {
                let mut ranked: Vec<_> = ranks.iter().zip(run.iter()).map(|(&r, &d)| (r, d)).collect();
                ranked.sort_by_key(|&(rank, _)| rank);
                *run = ranked.into_iter().map(|(_, d)| d).collect();
            }
        }
        let after_of = |k| {
            rounds
                .iter()
                .flat_map(|(_, runs)| runs)
                .flatten()
                .find(|(q, _)| *q == k)
                .map_or(0, |&(_, a)| a)
        };

        let merged = play(Vec::new(), &rounds);
        let mut heap = BinaryHeap::new();
        let mut tie = 0;
        for (round, (bound, runs)) in rounds.iter().enumerate() {
            heap.extend(runs.iter().flatten().map(|&(k, _)| Reverse(k)));
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
