//! Sharded fleet driver: conservative time-window parallel DES.
//!
//! Partitions the fleet's devices into K contiguous shards, each owning
//! a private [`Simulation`] (its own timing wheel, its own ChaCha8
//! streams — derived from **global** device indices so the partition
//! never changes any device's randomness). The
//! [`ServerTier`](ff_server::ServerTier) lives on the coordinator (the
//! calling thread), which merges cross-shard traffic between rounds and
//! drives the tier through the single-threaded engine's own tier driver.
//!
//! ## The window protocol
//!
//! The lookahead bound is the uplink propagation floor
//! `W = LinkConfig::propagation`: `Link::send` delivers no earlier than
//! `send + W` (serialization and retransmissions only push arrivals
//! later), and `NetworkConditions` never change propagation mid-run. So
//! every device→server submission sent during window `r` arrives in
//! window `r + 1` or later, and every server→device response (scheduled
//! at `batch_done + W`) likewise lands at least one window after the
//! batch completion. Simulated time `[0, end]` is cut into windows of
//! `W` microseconds and each round `r` runs two strictly alternating
//! phases (see [`ff_sim::run_phased`]):
//!
//! ```text
//! coordinator r: merge the sorted runs deposited by device rounds < r
//!                into the carried submissions, merge those with the
//!                pending batch completions and outages, handle what
//!                fires before window_end(r) in MergeKey order, drive
//!                the tier, hand each shard its feedback
//! -- barrier --
//! shard r:       apply feedback with at < window_end(r) interleaved
//!                with local events by timestamp, then run the local
//!                simulation up to window_end(r) − 1µs, then sort the
//!                submissions generated this window by MergeKey and
//!                deposit them as one run
//! -- barrier --
//! ```
//!
//! The conservative bound makes round `r`'s server inputs complete
//! before the coordinator runs, so no rollback is ever needed and the
//! phase schedule is independent of thread timing.
//!
//! ## Determinism
//!
//! The single-threaded engine breaks timestamp ties by insertion order.
//! The coordinator reproduces that order *without* a global insertion
//! counter via [`MergeKey`] `(at, ins, class, tie)`:
//!
//! * `ins` — the simulated instant the legacy engine would have
//!   *inserted* the event: a submission's send time, a batch
//!   completion's scheduling time, `0` for setup-time outage events.
//!   Events inserted at different instants pop in insertion order, and
//!   `ins` recovers exactly that.
//! * `class` — orders same-`(at, ins)` groups the way the legacy
//!   insertion sequence does: outages (scheduled at setup) before batch
//!   completions (scheduled mid-run) before probe submissions (sent by
//!   controller ticks) before frame submissions (sent by captures) —
//!   ticks pop before captures at every shared instant because a tick
//!   is (re)scheduled a full period ahead, and the capture sharing its
//!   instant is filed later: one frame interval ahead, or, where a
//!   shard applies local captures ahead, after the device's previous
//!   tick (the run-ahead stops at the next one).
//! * `tie` — within a class: the global device index for submissions
//!   (simultaneous captures pop in device order), emission order for
//!   batch completions and outages.
//!
//! Feedback is applied inside each shard in `(at, class, emission seq)`
//! order, where arrival-class feedback (the
//! request reached the tier, possibly admission-rejected) is applied
//! *before* local events at `at` — the legacy `Uplinked` handler runs
//! before the same-send `Deadline` — and batch-class feedback
//! (responses, batch-formation rejections) *after* local events at
//! `at`, matching the legacy insertion order of `Response`/`BatchDone`
//! events against ticks and deadlines. The residual same-microsecond
//! reorderings this admits are provably immaterial (the handlers touch
//! disjoint state); DESIGN.md §"Sharded engine" carries the full
//! argument. The end-to-end contract — bit-identical [`FleetResult`]s
//! at any shard count — is pinned by `tests/shard_determinism.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::fleet::{
    device_scopes, finish_fleet, observe_device_tick, seed_devices, validate_fleet, BatchStarted,
    FleetConfig, FleetCore, FleetDevices, FleetEvent, FleetResult, FleetRun, RunCounts, TierDriver,
    TierObs,
};
use crate::tags::{fleet_tag_device as tag_device, is_probe_tag as tag_is_probe};
use ff_core::Controller;
use ff_sim::{run_phased_skipping, Ctx, EventQueue, SimDuration, SimModel, SimTime, Simulation};
use ff_telemetry::{Recorder, Scope};

/// Merge-key classes, in legacy insertion-sequence order for equal
/// `(at, ins)`.
const CLASS_OUTAGE: u8 = 0;
const CLASS_BATCH: u8 = 1;
const CLASS_PROBE: u8 = 2;
const CLASS_FRAME: u8 = 3;

/// Deterministic ordering key for the coordinator's server-event merge.
/// See the module docs for the role of each field; the derived
/// lexicographic `Ord` *is* the merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeKey {
    /// Simulated instant the event fires.
    pub at: SimTime,
    /// Simulated instant the legacy engine would have inserted it.
    pub ins: SimTime,
    /// Tie class for equal `(at, ins)` (outage < batch < probe < frame).
    pub class: u8,
    /// Final tie-break: device index or emission sequence.
    pub tie: u64,
}

enum ItemKind {
    Outage { server: usize, recover: bool },
    BatchDone { server: u32, epoch: u64 },
    Submission { tag: u64 },
}

struct ServerItem {
    key: MergeKey,
    kind: ItemKind,
}

impl PartialEq for ServerItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for ServerItem {}
impl PartialOrd for ServerItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ServerItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A device→server uplink delivery crossing the shard boundary.
#[derive(Clone, Copy)]
struct Submission {
    /// Arrival instant at the tier (`≥ sent_at + W`).
    at: SimTime,
    /// Send instant — the legacy insertion time of the `Uplinked` event.
    sent_at: SimTime,
    tag: u64,
}

impl Submission {
    /// Its merge key, a pure function of the submission: kept implicit,
    /// so a pending submission costs 24 bytes, not 40.
    fn key(&self) -> MergeKey {
        let class = if tag_is_probe(self.tag) {
            CLASS_PROBE
        } else {
            CLASS_FRAME
        };
        MergeKey {
            at: self.at,
            ins: self.sent_at,
            class,
            tie: tag_device(self.tag) as u64,
        }
    }
}

/// Order a shard's outbox for the coordinator's merge. Keys are unique
/// (a device sends at most one submission per class and instant, and
/// `tie` is the device), so any sort gives the one order.
fn sort_outbox(outbox: &mut [Submission]) {
    outbox.sort_unstable_by_key(Submission::key);
}

/// Feed `each` the items of `runs`, each ascending by `key`, in
/// ascending `key` order: a K-way merge that takes the least head. With
/// keys unique across the runs, that is the order a sort of their union
/// gives.
fn merge_runs<T: Copy, K: Ord>(runs: &mut [&[T]], key: impl Fn(&T) -> K, mut each: impl FnMut(T)) {
    loop {
        let mut least: Option<(usize, K)> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(head) = run.first() else { continue };
            let head = key(head);
            if least.as_ref().is_none_or(|(_, l)| head < *l) {
                least = Some((i, head));
            }
        }
        let Some((i, _)) = least else { return };
        let (&item, rest) = runs[i].split_first().expect("a non-empty run");
        runs[i] = rest;
        each(item);
    }
}

/// The coordinator's event order: a per-round merge of sorted runs.
///
/// Submissions outnumber everything else (a 100k-device fleet deposits
/// 100k of them in one round, all captured at the same microsecond), so
/// they never enter a heap, and the coordinator never sorts them. Each
/// shard deposits its round's submissions as one run sorted by
/// [`MergeKey`]; [`begin_round`](Self::begin_round) merges the runs
/// into the submissions carried from earlier rounds (those arriving in
/// a later window, already in order), one vector consumed through a
/// cursor. Outages and batch completions — a handful pending per server
/// — sit in a small heap, and [`pop_before`](Self::pop_before) two-way
/// merges the two by the same key, which yields exactly the order one
/// global heap over all items would.
#[derive(Default)]
struct RoundMerge {
    /// Submissions not yet handled, ascending from `next`.
    submissions: Vec<Submission>,
    next: usize,
    /// Pending outages and batch completions.
    timers: BinaryHeap<Reverse<ServerItem>>,
    /// Batch completions scheduled so far: the next one's `tie`.
    batches: u64,
}

impl RoundMerge {
    /// Schedule an outage or a batch completion.
    fn schedule(&mut self, key: MergeKey, kind: ItemKind) {
        self.timers.push(Reverse(ServerItem { key, kind }));
    }

    /// Schedule the completion of the batch the tier started at `now`,
    /// if it did, tied in emission order.
    fn schedule_batch(&mut self, now: SimTime, started: Option<BatchStarted>) {
        let Some(batch) = started else {
            return;
        };
        let key = MergeKey {
            at: batch.at,
            ins: now,
            class: CLASS_BATCH,
            tie: self.batches,
        };
        self.batches += 1;
        let (server, epoch) = (batch.server, batch.epoch);
        self.schedule(key, ItemKind::BatchDone { server, epoch });
    }

    /// Merge this round's deposits, one sorted run per shard, among the
    /// submissions carried over from earlier rounds (those arriving in a
    /// later window, already in order). A round without deposits leaves
    /// the carried ones in place.
    ///
    /// The merge is in place: the carried submissions move behind room
    /// for the deposits, and the merge writes from the front. Its write
    /// cursor never passes the next carried submission, and meets it
    /// once the deposits run dry, leaving the rest in place. So the one
    /// buffer holds only what is pending, and keeps its capacity.
    fn begin_round<'a>(&mut self, deposits: impl IntoIterator<Item = &'a [Submission]>) {
        let mut runs: Vec<&[Submission]> =
            deposits.into_iter().filter(|run| !run.is_empty()).collect();
        let added: usize = runs.iter().map(|run| run.len()).sum();
        if added == 0 {
            return;
        }
        let subs = &mut self.submissions;
        let carried = subs.len() - self.next;
        // Room the merge overwrites; any submission fills it.
        subs.resize(subs.len().max(added + carried), runs[0][0]);
        subs.copy_within(self.next..self.next + carried, added);
        subs.truncate(added + carried);
        self.next = 0;
        let (mut write, mut read) = (0, added);
        while write < read {
            let mut least = subs.get(read).map(Submission::key);
            let mut from = None;
            for (i, run) in runs.iter().enumerate() {
                let Some(key) = run.first().map(Submission::key) else {
                    continue;
                };
                if least.is_none_or(|l| key < l) {
                    (least, from) = (Some(key), Some(i));
                }
            }
            subs[write] = match from {
                Some(i) => {
                    let (&sub, rest) = runs[i].split_first().expect("a non-empty run");
                    runs[i] = rest;
                    sub
                }
                None => {
                    read += 1;
                    subs[read - 1]
                }
            };
            write += 1;
        }
    }

    /// When the earliest pending item fires, if any item is pending.
    fn next_at(&self) -> Option<SimTime> {
        let submission = self.submissions.get(self.next).map(|sub| sub.at);
        let timer = self.timers.peek().map(|Reverse(item)| item.key.at);
        submission.into_iter().chain(timer).min()
    }

    /// The earliest item firing before `bound`, if any. Timers scheduled
    /// between calls fire after the item that scheduled them, so they
    /// merge in without disturbing what was already popped.
    fn pop_before(&mut self, bound: SimTime) -> Option<ServerItem> {
        let submission = self
            .submissions
            .get(self.next)
            .map(Submission::key)
            .filter(|key| key.at < bound);
        let timer = self
            .timers
            .peek()
            .map(|Reverse(item)| item.key)
            .filter(|key| key.at < bound);
        let submission_first = match (submission, timer) {
            (Some(key), Some(timer)) => key < timer,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if submission_first {
            let sub = self.submissions[self.next];
            self.next += 1;
            let kind = ItemKind::Submission { tag: sub.tag };
            Some(ServerItem {
                key: sub.key(),
                kind,
            })
        } else {
            self.timers.pop().map(|Reverse(item)| item)
        }
    }
}

#[derive(Clone, Copy)]
enum FeedbackKind {
    /// The request reached the tier (and, when flagged, was turned away
    /// at the admission door). Never emitted for probes.
    Arrived { admission_rejected: bool },
    /// Batch-formation overflow rejected `count` frames of this shard at
    /// `at`: a run of [`Inbox::rejected_tags`] from index `tag`.
    BatchRejected { count: u32 },
    /// A response (probe or frame) reaches the device at `at`.
    Response,
}

/// A server→device notification crossing the shard boundary.
#[derive(Clone, Copy)]
struct Feedback {
    at: SimTime,
    /// Coordinator emission sequence — global, so same-instant feedback
    /// applies in the order the legacy engine would have inserted it.
    seq: u64,
    /// The frame or probe; for a rejection run, its first index in
    /// [`Inbox::rejected_tags`].
    tag: u64,
    kind: FeedbackKind,
}

impl Feedback {
    /// The order a shard applies its feedback in: by instant, then
    /// arrival-class (`Arrived`, applied *before* local events at its
    /// instant) ahead of batch-class (the rest, applied *after*; see the
    /// module docs), then emission order.
    fn order(&self) -> (SimTime, bool, u64) {
        let batch_class = !matches!(self.kind, FeedbackKind::Arrived { .. });
        (self.at, batch_class, self.seq)
    }
}

/// One shard's feedback from one coordinator round, by kind, each run in
/// emission order — which is [`Feedback::order`] within a kind:
/// the coordinator handles its items in time order, and a response
/// lands one propagation delay after the batch that sends it.
#[derive(Default)]
struct Inbox {
    /// Arrival-class feedback: at the arrival, inside this window.
    arrivals: Vec<Feedback>,
    /// Batch-formation rejections: at the batch's completion, inside
    /// this window, one run per instant (see [`Inbox::reject`]).
    rejections: Vec<Feedback>,
    /// The frames the rejection runs name, in rejection order.
    rejected_tags: Vec<u64>,
    /// Responses: one propagation delay (`W`) after a completion inside
    /// this window, so inside the next one.
    responses: Vec<Feedback>,
}

impl Inbox {
    /// Batch formation rejected frame `rejected.tag` of this shard at
    /// `rejected.at`: extend the open run if it is at that instant, else
    /// open one with `rejected`'s sequence number. Returns whether a run
    /// was opened.
    ///
    /// Exact: within one instant, nothing else batch-class reaches this
    /// shard between two rejections (responses land a propagation delay
    /// later), and arrivals at that instant apply ahead of every
    /// batch-class item by class, not by `seq`. So applying the run's
    /// frames in a row, at its first rejection's place in
    /// [`Feedback::order`], is the order one record per frame gives.
    fn reject(&mut self, mut rejected: Feedback) -> bool {
        let first = self.rejected_tags.len() as u64;
        self.rejected_tags.push(rejected.tag);
        if let Some(Feedback {
            at,
            kind: FeedbackKind::BatchRejected { count },
            ..
        }) = self.rejections.last_mut()
        {
            if *at == rejected.at {
                *count += 1;
                return false;
            }
        }
        rejected.tag = first;
        rejected.kind = FeedbackKind::BatchRejected { count: 1 };
        self.rejections.push(rejected);
        true
    }
}

/// One shard's simulation model: the shared [`FleetCore`] handlers over
/// this shard's device range, with all server-side events unreachable
/// (they live on the coordinator).
struct ShardDeviceWorld {
    core: FleetCore,
    /// Uplink deliveries of this window: submissions for the
    /// coordinator instead of local `Uplinked` events, sorted when the
    /// window ends.
    outbox: Vec<Submission>,
    recorder: Recorder,
    /// Telemetry scopes for the shard's devices, by local index (empty
    /// while telemetry is disabled).
    scopes: Vec<Scope>,
}

impl SimModel for ShardDeviceWorld {
    type Event = FleetEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, FleetEvent>, event: FleetEvent) {
        let outbox = &mut self.outbox;
        let to_outbox = |_: &mut Ctx<'_, FleetEvent>, sent_at, at, tag| {
            outbox.push(Submission { at, sent_at, tag })
        };
        match event {
            FleetEvent::Capture(dev) => self.core.capture(ctx, to_outbox, dev),
            FleetEvent::Tick(dev) => {
                let out = self.core.tick(ctx, to_outbox, dev);
                if self.recorder.is_enabled() {
                    let scope = self.scopes[dev - self.core.devs.base];
                    let (t, fs) = (ctx.now().as_micros(), self.core.config.stream.fps);
                    observe_device_tick(&mut self.recorder, scope, t, fs, &out);
                }
            }
            FleetEvent::Deadline { tag } => {
                self.core.row_of(tag).on_deadline(tag, ctx.now());
            }
            FleetEvent::NetworkChange { dev, step } => self
                .core
                .network_change(dev.map(|d| d as usize), step as usize),
            FleetEvent::Uplinked { .. }
            | FleetEvent::BatchDone { .. }
            | FleetEvent::Responses(_)
            | FleetEvent::ServerCrash(_)
            | FleetEvent::ServerRecover(_)
            | FleetEvent::LoadChange(_)
            | FleetEvent::Background => {
                unreachable!("server-side event scheduled inside a device shard")
            }
        }
    }
}

/// A mailbox's lock. Never contended (see the mailboxes in
/// [`run_sharded`]); poisoned only after a phase panicked, which
/// `run_phased` re-raises.
fn lock_mailbox<T>(mailbox: &Mutex<T>) -> MutexGuard<'_, T> {
    mailbox
        .lock()
        .expect("a shard phase panicked holding a mailbox")
}

/// Per-shard worker state threaded through [`run_phased`].
struct ShardState {
    sim: Simulation<ShardDeviceWorld>,
    /// The responses of the previous round's inbox: they land in this
    /// window.
    landing: Vec<Feedback>,
    /// Applied `Response` feedback — each one is a `Response` event the
    /// legacy engine would have popped, counted back into
    /// `events_handled`.
    responses_applied: u64,
}

/// Run a fleet partitioned into `shards` device shards, one worker
/// thread per shard plus the coordinator on the calling thread.
/// Bit-identical to [`crate::fleet::run_fleet`] at any shard count
/// (including `shards = 1`); shard counts above the device count are
/// clamped.
///
/// This is the dispatch target of `EngineOptions::shards > 1`; calling
/// it directly ignores `config.engine.shards` in favor of the `shards`
/// argument (which is how the differential tests compare counts).
pub fn run_fleet_sharded(
    config: FleetConfig,
    controllers: Vec<Box<dyn Controller>>,
    shards: usize,
) -> FleetResult {
    run_sharded(config, controllers, shards, None, None).result
}

/// [`run_fleet_sharded`] with a traced and a watched row, as
/// `fleet::run_fleet_recording` takes them.
pub(crate) fn run_sharded(
    config: FleetConfig,
    controllers: Vec<Box<dyn Controller>>,
    shards: usize,
    traced: Option<usize>,
    watched: Option<(usize, bool)>,
) -> FleetRun {
    validate_fleet(&config, &controllers);
    // `check` holds this rule only where `engine.shards` asks for shards.
    config.check_sharded().unwrap_or_else(|why| panic!("{why}"));
    let config = Arc::new(config);
    let n = controllers.len();
    let k = shards.clamp(1, n);
    let w_us = config.link.propagation.as_micros();
    let end_at = config.end_at();
    let end_us = end_at.as_micros();
    let rounds = end_us / w_us + 1;
    // Exclusive upper bound of window `r` (clipped so the last window
    // covers `end_at` inclusively, like the legacy `run_until(end_at)`).
    let window_end_us = move |r: u64| ((r + 1) * w_us).min(end_us + 1);
    // The window an instant falls in (past the last for one after
    // `end_at`, which the harness reads as the last).
    let window_of = move |t: SimTime| t.as_micros() / w_us;
    let mut windows_run = 0u64;

    // ---- Coordinator state: the tier and its event merge. ----
    let mut driver = TierDriver::new(&config);
    let mut merge = RoundMerge::default();
    let mut outage_tie = 0u64;
    for outage in &config.outages {
        for (t, recover) in [(outage.from_secs, false), (outage.until_secs, true)] {
            merge.schedule(
                MergeKey {
                    at: SimTime::from_secs_f64(t),
                    ins: SimTime::ZERO,
                    class: CLASS_OUTAGE,
                    tie: outage_tie,
                },
                ItemKind::Outage {
                    server: outage.server,
                    recover,
                },
            );
            outage_tie += 1;
        }
    }
    let propagation = config.link.propagation;
    let telemetry = config.telemetry.clone();
    let mut coord_rec = telemetry.recorder();
    let mut tier_obs = TierObs::new(&telemetry, driver.tier.len());
    let period_us = config.controller_period.as_micros();
    let mut next_report_us = period_us;
    let mut fb_seq = 0u64;
    // Records sent, by kind: arrivals, rejection runs, responses.
    let mut feedback_sent = [0u64; 3];
    let mut split_rejections = 0u64;
    let mut server_popped = 0u64;

    // ---- Shard partition: contiguous, first `big` shards one larger. ----
    let per = n / k;
    let big = n % k;
    let shard_of = move |g: usize| {
        let cut = big * (per + 1);
        if g < cut {
            g / (per + 1)
        } else {
            big + (g - cut) / per
        }
    };

    let mut states = Vec::with_capacity(k);
    let mut remaining = controllers;
    let mut offset = 0usize;
    for s in 0..k {
        let size = per + usize::from(s < big);
        let chunk: Vec<Box<dyn Controller>> = remaining.drain(..size).collect();
        let devs = FleetDevices::build(&config, chunk, offset, traced, watched);
        let scopes = device_scopes(&telemetry, offset..offset + size);
        let world = ShardDeviceWorld {
            core: FleetCore::new(Arc::clone(&config), devs, true),
            outbox: Vec::new(),
            recorder: telemetry.recorder(),
            scopes,
        };
        let mut sim =
            Simulation::with_queue(world, EventQueue::with_backend(config.engine.backend));
        // Shared schedule steps replicate into every shard (each shard
        // updates its own links); the duplicate event pops are deducted
        // from `events_handled` below.
        seed_devices(&mut sim, &config, offset..offset + size);
        states.push(ShardState {
            sim,
            landing: Vec::new(),
            responses_applied: 0,
        });
        offset += size;
    }

    // ---- Mailboxes. The mutexes are for `Sync` soundness only: the
    // barrier protocol guarantees the coordinator and the workers never
    // touch them in the same phase, so every lock is uncontended, and
    // each side takes each lock once per round, never once per record.
    // Buffers change hands by swapping with emptied ones, so each keeps
    // its capacity and no burst is allocated twice. ----
    let submissions: Vec<Mutex<Vec<Submission>>> = (0..k).map(|_| Mutex::default()).collect();
    let feedback: Vec<Mutex<Inbox>> = (0..k).map(|_| Mutex::default()).collect();

    // The coordinator's mailbox guards, held for one phase each round;
    // the vectors holding them are reused, so no round allocates.
    let (mut deposits, mut inboxes) = (Vec::with_capacity(k), Vec::with_capacity(k));

    // Each phase names the next window it has work in (see
    // `ff_sim::run_phased_skipping`): the coordinator its merge's next
    // item, a shard its calendar's next event and its first deposit. A
    // window nobody names would pop nothing on either side of the
    // barrier. The responses a round sends name no window: they wait in
    // their shard's `landing` run, and the next window that shard runs
    // applies them in time order among its events, as the window they
    // land in would have — nothing else on the shard reads them before
    // an event it has named.
    let coordinator = |r: u64| {
        windows_run += 1;
        // Merge everything the previous device round deposited. The
        // conservative bound guarantees all submissions with an arrival
        // inside this window are already here.
        deposits.extend(submissions.iter().map(lock_mailbox));
        merge.begin_round(deposits.iter().map(|run| run.as_slice()));
        for mut run in deposits.drain(..) {
            run.clear();
        }
        inboxes.extend(feedback.iter().map(lock_mailbox));
        let mut emit = |at: SimTime, tag: u64, kind: FeedbackKind| {
            let inbox = &mut *inboxes[shard_of(tag_device(tag))];
            let record = Feedback {
                at,
                seq: fb_seq,
                tag,
                kind,
            };
            let sent = match kind {
                FeedbackKind::Arrived { .. } => {
                    inbox.arrivals.push(record);
                    0
                }
                FeedbackKind::BatchRejected { .. } => {
                    if !inbox.reject(record) {
                        return;
                    }
                    1
                }
                FeedbackKind::Response => {
                    inbox.responses.push(record);
                    2
                }
            };
            fb_seq += 1;
            feedback_sent[sent] += 1;
        };
        let b_us = window_end_us(r);
        let b = SimTime::from_micros(b_us);
        while let Some(item) = merge.pop_before(b) {
            // Every pop corresponds to one event the legacy engine
            // would have popped (stale-epoch batch completions
            // included — their guard ran inside the handler).
            server_popped += 1;
            let now = item.key.at;
            match item.kind {
                ItemKind::Outage { server, recover } => {
                    if recover {
                        driver.tier.recover(server);
                    } else {
                        driver.tier.crash(server);
                    }
                }
                ItemKind::Submission { tag } => {
                    let (started, arrival) = driver.uplinked(&config, tag, now);
                    merge.schedule_batch(now, started);
                    if let Some(admission_rejected) = arrival {
                        let arrived = FeedbackKind::Arrived { admission_rejected };
                        emit(now, tag, arrived);
                    }
                }
                ItemKind::BatchDone { server, epoch } => {
                    let at = now + propagation;
                    let next = driver.batch_done(server, epoch, now, |tag, rejected| {
                        if rejected {
                            emit(now, tag, FeedbackKind::BatchRejected { count: 1 });
                        } else if at <= end_at {
                            // Past `end_at` the single-threaded engine
                            // files a response but never delivers it.
                            emit(at, tag, FeedbackKind::Response);
                        }
                    });
                    merge.schedule_batch(now, next);
                }
            }
        }
        split_rejections += inboxes.iter().filter(|i| i.rejections.len() > 1).count() as u64;
        inboxes.clear();
        // Tier-side telemetry at controller-period boundaries (the
        // legacy engine reports from device 0's tick; results carry no
        // telemetry so the report site is free to differ).
        if coord_rec.is_enabled() {
            while next_report_us < b_us && next_report_us <= end_us {
                tier_obs.report(&mut coord_rec, &driver.tier, next_report_us);
                next_report_us += period_us;
            }
        }
        if telemetry.is_enabled() {
            telemetry.poll();
        }
        merge.next_at().map_or(u64::MAX, window_of)
    };

    let worker = |shard: usize, r: u64, state: &mut ShardState| {
        let ShardState {
            sim,
            landing,
            responses_applied,
        } = state;
        // Take back the outbox the coordinator emptied last round.
        let mailbox = &mut *lock_mailbox(&submissions[shard]);
        mem::swap(&mut sim.model_mut().outbox, mailbox);
        let inbox = &mut *lock_mailbox(&feedback[shard]);
        let b_us = window_end_us(r);
        // Every item the coordinator handled in round r fires before
        // window_end(r), and after the last window run, so this round's
        // arrivals and rejections, and the responses of the last round
        // run (one window after it, at the latest this one), all land by
        // the end of this window, and this round's responses all land
        // after it.
        let mut runs = [&landing[..], &inbox.arrivals[..], &inbox.rejections[..]];
        merge_runs(&mut runs, Feedback::order, |f| {
            assert!(f.at.as_micros() < b_us, "feedback past its window");
            match f.kind {
                FeedbackKind::Arrived { admission_rejected } => {
                    // Arrival-class: the legacy `Uplinked` handler runs
                    // before the same-send `Deadline` at this instant,
                    // so apply before local events at `f.at`.
                    sim.run_until(f.at - SimDuration::from_micros(1));
                    sim.model_mut()
                        .core
                        .apply_arrival(f.tag, f.at, admission_rejected);
                }
                FeedbackKind::BatchRejected { count } => {
                    sim.run_until(f.at);
                    let run = &inbox.rejected_tags[f.tag as usize..][..count as usize];
                    for &tag in run {
                        let mut row = sim.model_mut().core.row_of(tag);
                        row.frame_rejected_by_server(tag, f.at);
                    }
                }
                FeedbackKind::Response => {
                    sim.run_until(f.at);
                    let mut row = sim.model_mut().core.row_of(f.tag);
                    row.on_response(f.tag, f.at, true);
                    *responses_applied += 1;
                }
            }
        });
        assert!(
            inbox.responses.iter().all(|f| f.at.as_micros() >= b_us),
            "a response lands inside the window that sent it"
        );
        landing.clear();
        mem::swap(landing, &mut inbox.responses);
        inbox.arrivals.clear();
        inbox.rejections.clear();
        inbox.rejected_tags.clear();
        sim.run_until(SimTime::from_micros(b_us - 1));
        let outbox = &mut sim.model_mut().outbox;
        sort_outbox(outbox);
        let deposited = outbox.first().map(|sub| sub.at);
        mem::swap(outbox, mailbox);
        let next = sim.peek_time().into_iter().chain(deposited).min();
        next.map_or(u64::MAX, window_of)
    };

    let states = run_phased_skipping(states, rounds, coordinator, worker);

    // ---- Reassembly. Every shard first gives up its calendar and the
    // columns no result reads; only then is the result vector allocated,
    // so teardown stays below the run's own peak. Shards are contiguous,
    // so concatenating their results in shard order is global device
    // order. ----
    let mut shard_events = 0u64;
    let mut responses_applied = 0u64;
    let (mut trace, mut watch) = (None, None);
    let mut counts = RunCounts {
        windows_run,
        windows: rounds,
        feedback: feedback_sent,
        split_rejections,
        ..RunCounts::default()
    };
    let finished: Vec<FleetDevices> = states
        .into_iter()
        .map(|state| {
            counts.add_filed(&state.sim);
            responses_applied += state.responses_applied;
            let now = state.sim.now();
            let dispatched = state.sim.events_handled();
            let mut core = state.sim.into_model().core;
            let (recorded, watched) = core.finish(now);
            trace = trace.take().or(recorded);
            watch = watch.take().or(watched);
            counts.captures_ahead += core.captures_ahead;
            shard_events += dispatched + core.unfiled_events();
            core.devs
        })
        .collect();
    let mut device_results = Vec::with_capacity(n);
    for devs in finished {
        device_results.extend(devs.into_results(&config));
    }
    // Shared network-schedule steps were replicated into every shard;
    // the legacy engine pops each exactly once.
    let shared_changes = if config.per_device_network.is_none() {
        config
            .network
            .steps()
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &(t, _))| SimTime::from_secs_f64(t) <= end_at)
            .count() as u64
    } else {
        0
    };
    let events_handled =
        shard_events + responses_applied + server_popped - (k as u64 - 1) * shared_changes;
    if telemetry.is_enabled() {
        telemetry.poll();
    }
    FleetRun {
        result: finish_fleet(device_results, &driver.tier, events_handled),
        trace,
        watch,
        counts,
    }
}

/// Test hooks for the merge-order proptest in
/// `tests/shard_determinism.rs` and the one-global-heap oracle in
/// `tests/shard_merge_oracle.rs`.
#[doc(hidden)]
pub mod testhooks {
    pub use super::MergeKey;
    use super::{sort_outbox, ItemKind, RoundMerge, Submission};
    use crate::tags::fleet_tag;
    use ff_sim::{SimDuration, SimTime};

    /// The batch-completion [`MergeKey`] class.
    pub const CLASS_BATCH: u8 = super::CLASS_BATCH;
    /// The probe-submission class.
    pub const CLASS_PROBE: u8 = super::CLASS_PROBE;
    /// The frame-submission class.
    pub const CLASS_FRAME: u8 = super::CLASS_FRAME;

    /// The key of the batch completion that a submission keyed `key`
    /// starts, `after` µs past its arrival, `tie`-th in emission order.
    pub fn batch_key(key: MergeKey, after: u64, tie: u64) -> MergeKey {
        MergeKey {
            at: key.at + SimDuration::from_micros(after),
            ins: key.at,
            class: CLASS_BATCH,
            tie,
        }
    }

    /// Each round's pop order through the coordinator's `RoundMerge`,
    /// `timers` scheduled up front. A round `(bound, runs)` deposits one
    /// run per shard, each submission with the latency of the batch it
    /// starts (0 for none) and in send order, as an outbox fills: every
    /// run is keyed from its tag and sorted as a shard does, then merged
    /// as the coordinator does. The round then pops what fires before
    /// `bound`; a popped submission schedules its batch completion
    /// ([`batch_key`]) mid-pop.
    pub fn play(timers: Vec<MergeKey>, rounds: &[(SimTime, Vec<Deposits>)]) -> Vec<Vec<MergeKey>> {
        let mut merge = RoundMerge::default();
        for key in timers {
            let (server, recover) = (0, false);
            merge.schedule(key, ItemKind::Outage { server, recover });
        }
        let deposited = || rounds.iter().flat_map(|(_, runs)| runs).flatten();
        let after_of = |k| deposited().find(|(q, _)| *q == k).map_or(0, |&(_, a)| a);
        let mut tie = 0;
        let mut pops = Vec::new();
        for (bound, runs) in rounds {
            let outboxes: Vec<Vec<Submission>> = runs
                .iter()
                .map(|run| {
                    let mut outbox: Vec<Submission> = run
                        .iter()
                        .map(|&(k, _)| {
                            let tag = fleet_tag(k.tie as usize, 0, k.class == CLASS_PROBE);
                            let (at, sent_at) = (k.at, k.ins);
                            Submission { at, sent_at, tag }
                        })
                        .collect();
                    sort_outbox(&mut outbox);
                    outbox
                })
                .collect();
            merge.begin_round(outboxes.iter().map(Vec::as_slice));
            let mut popped = Vec::new();
            while let Some(item) = merge.pop_before(*bound) {
                let after = after_of(item.key);
                if matches!(item.kind, ItemKind::Submission { .. }) && after > 0 {
                    let (server, epoch) = (0, 0);
                    let done = ItemKind::BatchDone { server, epoch };
                    merge.schedule(batch_key(item.key, after, tie), done);
                    tie += 1;
                }
                popped.push(item.key);
            }
            pops.push(popped);
        }
        pops
    }

    /// One shard's deposits in one round, in send order: each
    /// submission's key and the latency of the batch it starts.
    pub type Deposits = Vec<(MergeKey, u64)>;

    /// Window width of the rounds `merge_order` plays, in microseconds.
    const WINDOW_US: u64 = 8;

    /// Pop order of a set of merge keys through [`play`]: outage- and
    /// batch-class keys are timers, probe- and frame-class keys are
    /// deposited — the `i`-th key in some round no later than its
    /// arrival window, chosen by `i`, so a different arrival order also
    /// moves keys between rounds, and in one of two shard runs, also
    /// chosen by `i` — and every round pops what fires before its window
    /// ends.
    pub fn merge_order(keys: Vec<MergeKey>) -> Vec<MergeKey> {
        let window_of = |key: &MergeKey| (key.at.as_micros() / WINDOW_US) as usize;
        let n = keys.iter().map(window_of).max().map_or(0, |w| w + 1);
        let mut rounds: Vec<(SimTime, Vec<Deposits>)> = (1..=n as u64)
            .map(|r| (SimTime::from_micros(r * WINDOW_US), vec![Vec::new(); 2]))
            .collect();
        let mut timers = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            if key.class <= CLASS_BATCH {
                timers.push(key);
            } else {
                rounds[i % (window_of(&key) + 1)].1[i % 2].push((key, 0));
            }
        }
        play(timers, &rounds).concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, ins: u64, class: u8, tie: u64) -> MergeKey {
        MergeKey {
            at: SimTime::from_micros(at),
            ins: SimTime::from_micros(ins),
            class,
            tie,
        }
    }

    #[test]
    fn merge_key_orders_like_the_legacy_insertion_sequence() {
        // Same instant: a setup-scheduled outage pops before a mid-run
        // batch completion, which pops before tick-sent probes, which
        // pop before capture-sent frames; submissions tie-break in
        // device order, batch completions in emission order.
        let ordered = vec![
            key(5_000, 0, CLASS_OUTAGE, 0),
            key(5_000, 1_000, CLASS_BATCH, 3),
            key(5_000, 1_000, CLASS_BATCH, 7),
            key(5_000, 1_000, CLASS_PROBE, 2),
            key(5_000, 1_000, CLASS_FRAME, 0),
            key(5_000, 1_000, CLASS_FRAME, 4),
            key(5_000, 2_000, CLASS_FRAME, 1),
            key(6_000, 0, CLASS_OUTAGE, 1),
        ];
        let mut shuffled = ordered.clone();
        shuffled.reverse();
        shuffled.swap(0, 3);
        assert_eq!(testhooks::merge_order(shuffled), ordered);
    }

    #[test]
    fn earlier_insertion_wins_at_equal_fire_times() {
        // A batch completion scheduled at t=1ms and a frame sent at
        // t=2ms both firing at t=9ms: the batch completion was inserted
        // first, so it pops first — `ins` recovers insertion order.
        let batch = key(9_000, 1_000, CLASS_BATCH, 99);
        let frame = key(9_000, 2_000, CLASS_FRAME, 0);
        assert_eq!(
            testhooks::merge_order(vec![frame, batch]),
            vec![batch, frame]
        );
    }
}
