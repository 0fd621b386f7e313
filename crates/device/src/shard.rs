//! Sharded fleet driver: conservative time-window parallel DES.
//!
//! Partitions the fleet's devices into K contiguous shards, each owning
//! a private [`Simulation`] (its own timing wheel, its own ChaCha8
//! streams — derived from **global** device indices so the partition
//! never changes any device's randomness). The [`ServerTier`] lives on
//! the coordinator (the calling thread), which merges cross-shard
//! traffic between rounds.
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
//! coordinator r: sort the submissions deposited by device rounds < r,
//!                merge them with the pending batch completions and
//!                outages, handle what fires before window_end(r) in
//!                MergeKey order, drive the tier, hand each shard its
//!                feedback
//! -- barrier --
//! shard r:       apply feedback with at < window_end(r) interleaved
//!                with local events by timestamp, then run the local
//!                simulation up to window_end(r) − 1µs, then deposit
//!                the submissions generated this window
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
//!   ticks pop before captures at every shared instant because ticks
//!   are (re)scheduled a full period ahead of captures' one frame
//!   interval.
//! * `tie` — within a class: the global device index for submissions
//!   (simultaneous captures pop in device order), emission order for
//!   batch completions and outages.
//!
//! Feedback is applied inside each shard sorted by
//! `(at, class, emission seq)` where arrival-class feedback (the
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
use std::sync::{Arc, Mutex};

use crate::fleet::{
    device_scopes, finish_fleet, lane, network_change_events, observe_device_tick, validate_fleet,
    FleetConfig, FleetCore, FleetDevices, FleetEvent, FleetResult, TierObs,
};
use crate::tags::{fleet_tag_device as tag_device, is_probe_tag as tag_is_probe};
use crate::watch::Watch;
use ff_core::Controller;
use ff_server::{BatchOutput, ServerTier, TierSubmit};
use ff_sim::{run_phased, Ctx, EventQueue, RngFactory, SimDuration, SimModel, SimTime, Simulation};
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
    BatchDone { server: usize, epoch: u64 },
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

/// The coordinator's event order: a per-round sort-merge.
///
/// Submissions outnumber everything else (a 100k-device fleet deposits
/// 100k of them in one round, all captured at the same microsecond), so
/// they never enter a heap: each round's deposits are appended to one
/// vector, sorted by [`MergeKey`], and consumed through a cursor.
/// Outages and batch completions — a handful pending per server — sit
/// in a small heap, and [`pop_before`](Self::pop_before) two-way merges
/// the two by the same key, which yields exactly the order one global
/// heap over all items would.
#[derive(Default)]
struct RoundMerge {
    /// Submissions not yet handled; ascending from `next` after
    /// [`begin_round`](Self::begin_round).
    submissions: Vec<(MergeKey, u64)>,
    next: usize,
    /// Pending outages and batch completions.
    timers: BinaryHeap<Reverse<ServerItem>>,
}

impl RoundMerge {
    fn deposit(&mut self, sub: Submission) {
        let class = if tag_is_probe(sub.tag) {
            CLASS_PROBE
        } else {
            CLASS_FRAME
        };
        let key = MergeKey {
            at: sub.at,
            ins: sub.sent_at,
            class,
            tie: tag_device(sub.tag) as u64,
        };
        self.submissions.push((key, sub.tag));
    }

    /// Schedule an outage or a batch completion.
    fn schedule(&mut self, key: MergeKey, kind: ItemKind) {
        self.timers.push(Reverse(ServerItem { key, kind }));
    }

    /// Order this round's deposits among the submissions carried over
    /// from earlier rounds (those arriving in a later window).
    fn begin_round(&mut self) {
        self.submissions.drain(..self.next);
        self.next = 0;
        self.submissions.sort_unstable_by_key(|&(key, _)| key);
    }

    /// The earliest item firing before `bound`, if any. Timers scheduled
    /// between calls fire after the item that scheduled them, so they
    /// merge in without disturbing what was already popped.
    fn pop_before(&mut self, bound: SimTime) -> Option<ServerItem> {
        let submission = self
            .submissions
            .get(self.next)
            .filter(|(key, _)| key.at < bound);
        let timer = self
            .timers
            .peek()
            .map(|Reverse(item)| item.key)
            .filter(|key| key.at < bound);
        let submission_first = match (submission, timer) {
            (Some(&(key, _)), Some(timer)) => key < timer,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if submission_first {
            let (key, tag) = self.submissions[self.next];
            self.next += 1;
            let kind = ItemKind::Submission { tag };
            Some(ServerItem { key, kind })
        } else {
            self.timers.pop().map(|Reverse(item)| item)
        }
    }
}

/// A device→server uplink delivery crossing the shard boundary.
struct Submission {
    /// Arrival instant at the tier (`≥ sent_at + W`).
    at: SimTime,
    /// Send instant — the legacy insertion time of the `Uplinked` event.
    sent_at: SimTime,
    tag: u64,
}

/// Feedback classes: arrival-class applies *before* local events at its
/// instant, batch-class *after* (see module docs).
const FB_ARRIVAL: u8 = 0;
const FB_BATCH: u8 = 1;

enum FeedbackKind {
    /// The request reached the tier (and, when flagged, was turned away
    /// at the admission door). Never emitted for probes.
    Arrived { admission_rejected: bool },
    /// Batch-formation overflow rejected the request.
    BatchRejected,
    /// A response (probe or frame) reaches the device at `at`.
    Response,
}

/// A server→device notification crossing the shard boundary.
struct Feedback {
    at: SimTime,
    class: u8,
    /// Coordinator emission sequence — global, so same-instant feedback
    /// applies in the order the legacy engine would have inserted it.
    seq: u64,
    tag: u64,
    kind: FeedbackKind,
}

/// One shard's simulation model: the shared [`FleetCore`] handlers over
/// this shard's device range, with all server-side events unreachable
/// (they live on the coordinator).
struct ShardDeviceWorld {
    core: FleetCore,
    /// Uplink deliveries of this window: submissions for the
    /// coordinator instead of local `Uplinked` events.
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

/// Per-shard worker state threaded through [`run_phased`].
struct ShardState {
    sim: Simulation<ShardDeviceWorld>,
    /// Feedback received but not yet applicable (its window hasn't
    /// started locally).
    pending: Vec<Feedback>,
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
    run_sharded(config, controllers, shards, None, None).0
}

/// [`run_fleet_sharded`] with a traced and a watched row, as
/// `fleet::run_fleet_recording` takes them.
pub(crate) fn run_sharded(
    config: FleetConfig,
    controllers: Vec<Box<dyn Controller>>,
    shards: usize,
    traced: Option<usize>,
    watched: Option<(usize, bool)>,
) -> (FleetResult, Option<Vec<u8>>, Option<Watch>) {
    validate_fleet(&config, &controllers);
    // Why: DESIGN.md §"Sharded engine", "Background load stays on one thread".
    assert!(
        config.background.is_none(),
        "`background` load needs the single-threaded engine (shards: 1): the shard \
         coordinator cannot order its arrivals among same-instant device deliveries"
    );
    let config = Arc::new(config);
    let n = controllers.len();
    let k = shards.clamp(1, n);
    let w_us = config.link.propagation.as_micros();
    assert!(
        w_us >= 1,
        "sharded execution derives its lookahead window from the link \
         propagation floor, which must be at least 1µs"
    );
    let end_at = config.end_at();
    let end_us = end_at.as_micros();
    let rounds = end_us / w_us + 1;
    // Exclusive upper bound of window `r` (clipped so the last window
    // covers `end_at` inclusively, like the legacy `run_until(end_at)`).
    let window_end_us = move |r: u64| ((r + 1) * w_us).min(end_us + 1);

    // ---- Coordinator state: the tier and its event merge. ----
    let tier_config = config.tier_config();
    let mut tier = ServerTier::new(&tier_config);
    for outage in &config.outages {
        outage.validate(tier.len());
    }
    let mut routing_rng = RngFactory::new(config.seed).stream("routing");
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
    let reuse_buffers = config.engine.reuse_batch_buffers;
    let mut batch_out = BatchOutput::default();
    let telemetry = config.telemetry.clone();
    let mut coord_rec = telemetry.recorder();
    let mut tier_obs = TierObs::new(&telemetry, tier.len());
    let period_us = config.controller_period.as_micros();
    let mut next_report_us = period_us;
    let mut fb_seq = 0u64;
    let mut batch_tie = 0u64;
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

    let change_events = network_change_events(&config);
    let first_capture = config.first_capture();
    let mut states = Vec::with_capacity(k);
    let mut remaining = controllers;
    let mut offset = 0usize;
    for s in 0..k {
        let size = per + usize::from(s < big);
        let chunk: Vec<Box<dyn Controller>> = remaining.drain(..size).collect();
        let devs = FleetDevices::build(&config, chunk, offset, traced, watched);
        let scopes = device_scopes(&telemetry, offset..offset + size);
        let world = ShardDeviceWorld {
            core: FleetCore::new(Arc::clone(&config), devs),
            outbox: Vec::new(),
            recorder: telemetry.recorder(),
            scopes,
        };
        let mut sim =
            Simulation::with_queue(world, EventQueue::with_backend(config.engine.backend));
        sim.reserve_lane(lane::CAPTURE, size);
        sim.reserve_lane(lane::TICK, size);
        for g in offset..offset + size {
            sim.schedule_lane(lane::CAPTURE, first_capture, FleetEvent::Capture(g));
            let first_tick = SimTime::ZERO + config.controller_period;
            sim.schedule_lane(lane::TICK, first_tick, FleetEvent::Tick(g));
        }
        for &(t, dev, step) in &change_events {
            let mine = match dev {
                // Shared schedule steps replicate into every shard
                // (each shard updates its own links); the duplicate
                // event pops are deducted from `events_handled` below.
                None => true,
                Some(d) => d >= offset && d < offset + size,
            };
            if mine {
                sim.schedule_at(
                    SimTime::from_secs_f64(t),
                    FleetEvent::network_change(dev, step),
                );
            }
        }
        states.push(ShardState {
            sim,
            pending: Vec::new(),
            responses_applied: 0,
        });
        offset += size;
    }

    // ---- Mailboxes. The mutexes are for `Sync` soundness only: the
    // barrier protocol guarantees the coordinator and the workers never
    // touch them in the same phase, so every lock is uncontended, and
    // each side takes each lock once per round, never once per record.
    // A submission buffer changes hands whole, so at most one copy of a
    // burst is allocated per shard. ----
    let submissions: Vec<Mutex<Vec<Submission>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let feedback: Vec<Mutex<Vec<Feedback>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();

    let coordinator = |r: u64| {
        // Merge everything the previous device round deposited. The
        // conservative bound guarantees all submissions with an arrival
        // inside this window are already here.
        for mailbox in &submissions {
            for sub in mem::take(&mut *mailbox.lock().unwrap()) {
                merge.deposit(sub);
            }
        }
        merge.begin_round();
        let mut inboxes: Vec<_> = feedback.iter().map(|m| m.lock().unwrap()).collect();
        let mut emit = |at: SimTime, class: u8, tag: u64, kind: FeedbackKind| {
            inboxes[shard_of(tag_device(tag))].push(Feedback {
                at,
                class,
                seq: fb_seq,
                tag,
                kind,
            });
            fb_seq += 1;
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
                        tier.recover(server);
                    } else {
                        tier.crash(server);
                    }
                }
                ItemKind::Submission { tag } => {
                    let probe = tag_is_probe(tag);
                    let request = config.request_for(tag, now);
                    let outcome = tier.submit(now, request, !probe, &mut routing_rng);
                    if let TierSubmit::BatchStarted { server, done_at } = outcome {
                        merge.schedule(
                            MergeKey {
                                at: done_at,
                                ins: now,
                                class: CLASS_BATCH,
                                tie: batch_tie,
                            },
                            ItemKind::BatchDone {
                                server,
                                epoch: tier.epoch(server),
                            },
                        );
                        batch_tie += 1;
                    }
                    // Routed to a dead server: lost in flight, the
                    // deadline will fire as a network-cause timeout
                    // without any feedback.
                    if !probe && outcome != TierSubmit::Lost {
                        let admission_rejected = outcome == TierSubmit::AdmissionRejected;
                        let arrived = FeedbackKind::Arrived { admission_rejected };
                        emit(now, FB_ARRIVAL, tag, arrived);
                    }
                }
                ItemKind::BatchDone { server, epoch } => {
                    if epoch != tier.epoch(server) {
                        continue;
                    }
                    if !reuse_buffers {
                        batch_out = BatchOutput::default();
                    }
                    tier.batch_done_into(server, now, &mut batch_out);
                    for c in &batch_out.completions {
                        let at = now + propagation;
                        // Past `end_at` the legacy engine schedules the
                        // response but never pops it.
                        if at <= end_at {
                            emit(at, FB_BATCH, c.tag, FeedbackKind::Response);
                        }
                    }
                    for rej in &batch_out.rejections {
                        let tag = rej.tag;
                        if !tag_is_probe(tag) {
                            emit(now, FB_BATCH, tag, FeedbackKind::BatchRejected);
                        }
                    }
                    if let Some(done_at) = batch_out.next_done {
                        merge.schedule(
                            MergeKey {
                                at: done_at,
                                ins: now,
                                class: CLASS_BATCH,
                                tie: batch_tie,
                            },
                            ItemKind::BatchDone { server, epoch },
                        );
                        batch_tie += 1;
                    }
                }
            }
        }
        // Tier-side telemetry at controller-period boundaries (the
        // legacy engine reports from device 0's tick; results carry no
        // telemetry so the report site is free to differ).
        if coord_rec.is_enabled() {
            while next_report_us < b_us && next_report_us <= end_us {
                tier_obs.report(&mut coord_rec, &tier, next_report_us);
                next_report_us += period_us;
            }
        }
        if telemetry.is_enabled() {
            telemetry.poll();
        }
    };

    let worker = |shard: usize, r: u64, state: &mut ShardState| {
        {
            let mut inbox = feedback[shard].lock().unwrap();
            state.pending.append(&mut inbox);
        }
        let b_us = window_end_us(r);
        state
            .pending
            .sort_unstable_by_key(|f| (f.at, f.class, f.seq));
        let cut = state.pending.partition_point(|f| f.at.as_micros() < b_us);
        for f in state.pending.drain(..cut) {
            match f.kind {
                FeedbackKind::Arrived { admission_rejected } => {
                    // Arrival-class: the legacy `Uplinked` handler runs
                    // before the same-send `Deadline` at this instant,
                    // so apply before local events at `f.at`.
                    state.sim.run_until(f.at - SimDuration::from_micros(1));
                    state
                        .sim
                        .model_mut()
                        .core
                        .apply_arrival(f.tag, f.at, admission_rejected);
                }
                FeedbackKind::BatchRejected => {
                    state.sim.run_until(f.at);
                    let mut row = state.sim.model_mut().core.row_of(f.tag);
                    row.frame_rejected_by_server(f.tag, f.at);
                }
                FeedbackKind::Response => {
                    state.sim.run_until(f.at);
                    let mut row = state.sim.model_mut().core.row_of(f.tag);
                    row.on_response(f.tag, f.at, true);
                    state.responses_applied += 1;
                }
            }
        }
        state.sim.run_until(SimTime::from_micros(b_us - 1));
        let outbox = &mut state.sim.model_mut().outbox;
        if !outbox.is_empty() {
            // The coordinator emptied the mailbox this round.
            *submissions[shard].lock().unwrap() = mem::take(outbox);
        }
    };

    let states = run_phased(states, rounds, coordinator, worker);

    // ---- Reassembly. Every shard first gives up its calendar and the
    // columns no result reads; only then is the result vector allocated,
    // so teardown stays below the run's own peak. Shards are contiguous,
    // so concatenating their results in shard order is global device
    // order. ----
    let mut shard_events = 0u64;
    let mut responses_applied = 0u64;
    let (mut trace, mut watch) = (None, None);
    let finished: Vec<FleetDevices> = states
        .into_iter()
        .map(|state| {
            responses_applied += state.responses_applied;
            let now = state.sim.now();
            let dispatched = state.sim.events_handled();
            let mut core = state.sim.into_model().core;
            let (recorded, watched) = core.finish(now);
            trace = trace.take().or(recorded);
            watch = watch.take().or(watched);
            shard_events += dispatched + core.local_completions;
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
    let result = finish_fleet(device_results, &tier, events_handled);
    (result, trace, watch)
}

/// Test hooks for the merge-order proptest in
/// `tests/shard_determinism.rs` and the one-global-heap oracle in
/// `tests/shard_merge_oracle.rs`.
#[doc(hidden)]
pub mod testhooks {
    pub use super::MergeKey;
    use super::{ItemKind, RoundMerge, Submission};
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
    /// `timers` scheduled up front. A round `(bound, deposits)` deposits
    /// submissions, each with the latency of the batch it starts (0 for
    /// none), then pops what fires before `bound`; a popped submission
    /// schedules its batch completion ([`batch_key`]) mid-pop.
    pub fn play(
        timers: Vec<MergeKey>,
        rounds: &[(SimTime, Vec<(MergeKey, u64)>)],
    ) -> Vec<Vec<MergeKey>> {
        let mut merge = RoundMerge::default();
        for key in timers {
            let (server, recover) = (0, false);
            merge.schedule(key, ItemKind::Outage { server, recover });
        }
        let deposited = || rounds.iter().flat_map(|(_, deposits)| deposits);
        let after_of = |k| deposited().find(|(q, _)| *q == k).map_or(0, |&(_, a)| a);
        let mut tie = 0;
        let mut pops = Vec::new();
        for (bound, deposits) in rounds {
            for &(k, _) in deposits {
                let tag = fleet_tag(k.tie as usize, 0, k.class == CLASS_PROBE);
                let (at, sent_at) = (k.at, k.ins);
                merge.deposit(Submission { at, sent_at, tag });
            }
            merge.begin_round();
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

    /// Window width of the rounds `merge_order` plays, in microseconds.
    const WINDOW_US: u64 = 8;

    /// Pop order of a set of merge keys through [`play`]: outage- and
    /// batch-class keys are timers, probe- and frame-class keys are
    /// deposited — the `i`-th key in some round no later than its
    /// arrival window, chosen by `i`, so a different arrival order also
    /// moves keys between rounds — and every round pops what fires
    /// before its window ends.
    pub fn merge_order(keys: Vec<MergeKey>) -> Vec<MergeKey> {
        let window_of = |key: &MergeKey| (key.at.as_micros() / WINDOW_US) as usize;
        let n = keys.iter().map(window_of).max().map_or(0, |w| w + 1);
        let mut rounds: Vec<(SimTime, Vec<(MergeKey, u64)>)> = (1..=n as u64)
            .map(|r| (SimTime::from_micros(r * WINDOW_US), Vec::new()))
            .collect();
        let mut timers = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            if key.class <= CLASS_BATCH {
                timers.push(key);
            } else {
                rounds[i % (window_of(&key) + 1)].1.push((key, 0));
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
