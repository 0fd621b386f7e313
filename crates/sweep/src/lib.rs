//! # ff-sweep — the parallel deterministic sweep engine
//!
//! Every evaluation artifact in this repository is some grid of runs:
//! Table V is `network-phase × controller`, the seed sweep is
//! `seed × controller`, the Figure 2 trace is `gain × scenario`. This
//! crate executes such a **declarative `(scenario × seed × controller)`
//! grid** ([`SweepSpec`]) across all cores, optionally crossed with
//! **routing and admission axes** ([`RoutingSpec`] / [`AdmissionSpec`])
//! over the multi-server tier. The same grid type runs single-device
//! experiments ([`run_sweep`]) and whole fleets, one controller lineup
//! per cell ([`FleetSweepSpec`] / [`run_fleet_sweep`]). It guarantees
//! two properties a naive thread pool would not:
//!
//! - **Order-independent deterministic aggregation.** Each cell is an
//!   independent run keyed by its grid coordinates; results are merged
//!   back *by key*, in grid order. The aggregated output of a parallel
//!   sweep is therefore **bit-identical** to a serial one — regardless
//!   of worker count or which thread ran which cell (pinned by
//!   `tests/sweep_determinism.rs`).
//! - **Content-hash caching** (experiment grids). A cell's identity is
//!   the hash of its full serialized configuration (config + controller
//!   spec + schema version). Re-running a sweep only executes cells
//!   whose inputs changed; everything else is read back from the cache
//!   directory.
//!
//! Scheduling is a shared cursor: each worker claims the next unrun
//! cell index from one atomic counter and sends its result back to the
//! calling thread. Cells cost milliseconds to minutes each, so claiming
//! one at a time keeps cores busy even when one scenario is far slower
//! than the rest (e.g. a lossy network cell that schedules many
//! retransmissions). One worker runs the grid on the calling thread.

#![warn(missing_docs)]

use crossbeam::channel;
pub use ff_device::ControllerSpec;
use ff_device::{
    run_experiment, run_fleet, ExperimentConfig, ExperimentResult, FleetConfig, FleetResult,
};
use ff_server::TierConfig;
use ff_telemetry::{Metric, Recorder, Scope, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bump when the meaning of a cached result changes (new fields on
/// [`ExperimentResult`], changed simulation semantics, ...). Old cache
/// entries then miss instead of resurrecting stale results.
///
/// v2: [`ExperimentResult`] grew per-server stats and admission
/// counters with the multi-server tier; v1 entries predate them.
///
/// v3: `QosRecord` grew the accuracy-weighted throughput column and
/// [`ExperimentResult`] the filter/selection summaries with the
/// content-aware workload layer; v2 entries predate them.
///
/// v4: the same [`ExperimentConfig`] computes different bits once the
/// experiment runs as a one-device fleet (fleet RNG stream names, and
/// requests billed as the offload model); a v3 entry holds the old bits.
///
/// v5: background load is billed to the tenant one above the last
/// device (tenant 1 in an experiment), not tenant 1000, so a multi-server
/// static-shard tier routes it to another server; a v4 entry holds the
/// old bits.
pub(crate) const CACHE_SCHEMA_VERSION: u32 = 5;

/// A routing-policy axis entry: which server a request lands on. This is
/// exactly [`ff_server::RoutingPolicy`] — serializable and `Copy`, so a
/// grid can carry it the same way it carries a [`ControllerSpec`].
pub type RoutingSpec = ff_server::RoutingPolicy;

/// An admission-policy axis entry: whether a request gets in at all.
/// Exactly [`ff_server::AdmissionPolicy`] (admit-all or per-tenant token
/// bucket), serializable and `Copy` like [`RoutingSpec`].
pub type AdmissionSpec = ff_server::AdmissionPolicy;

/// What a grid needs from a scenario whose cells run under controller
/// axis entries of type `L`: the three things that differ between an
/// experiment and a fleet.
pub trait GridScenario<L>: Clone {
    /// Apply the cell's master seed.
    fn set_seed(&mut self, seed: u64);
    /// The scenario's tier, made explicit so a routing/admission axis
    /// can overlay it: its own `tier` if set, else the tier it would run
    /// on implicitly.
    fn tier_mut(&mut self) -> &mut TierConfig;
    /// Why `controllers` cannot run this scenario, if it cannot.
    fn check_lineup(&self, controllers: &L) -> Result<(), String>;
}

/// An experiment runs under one controller.
impl GridScenario<ControllerSpec> for ExperimentConfig {
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn tier_mut(&mut self) -> &mut TierConfig {
        let tier = self.tier_config();
        self.tier.insert(tier)
    }

    fn check_lineup(&self, _: &ControllerSpec) -> Result<(), String> {
        Ok(())
    }
}

/// A fleet runs under a lineup of one controller per device.
impl GridScenario<Vec<ControllerSpec>> for FleetConfig {
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn tier_mut(&mut self) -> &mut TierConfig {
        self.tier.get_or_insert_with(TierConfig::default)
    }

    fn check_lineup(&self, controllers: &Vec<ControllerSpec>) -> Result<(), String> {
        if controllers.len() == self.devices.len() {
            return Ok(());
        }
        Err(format!(
            "has {} controllers for {} devices",
            controllers.len(),
            self.devices.len()
        ))
    }
}

/// A declarative `(scenario × seed × [routing ×] [admission ×]
/// controller)` grid over scenarios of type `S`, run under controller
/// axis entries of type `L`: an [`ExperimentConfig`] under one
/// [`ControllerSpec`] by default, or a [`FleetConfig`] under one spec
/// per device ([`FleetSweepSpec`]).
///
/// The `routings` / `admissions` axes are optional: empty vectors (the
/// serde default, so pre-tier specs parse unchanged) mean "one
/// pass-through combination" — each cell keeps the scenario's own tier
/// configuration and the key's axis labels stay empty.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSpec<S = ExperimentConfig, L = ControllerSpec> {
    /// Sweep name (used in reports and exported artifacts).
    pub name: String,
    /// Labelled scenarios. Each cell overrides only the scenario's seed
    /// with the cell's seed (plus its tier when a routing/admission axis
    /// is present).
    pub scenarios: Vec<(String, S)>,
    /// Master seeds; every scenario × controller pair runs once per seed.
    pub seeds: Vec<u64>,
    /// Labelled routing policies applied over the scenario's server
    /// tier. Empty (default) leaves every scenario's tier untouched.
    #[serde(default)]
    pub routings: Vec<(String, RoutingSpec)>,
    /// Labelled admission policies applied over the scenario's server
    /// tier. Empty (default) leaves every scenario's tier untouched.
    #[serde(default)]
    pub admissions: Vec<(String, AdmissionSpec)>,
    /// Labelled controller axis entries. Every entry must fit every
    /// scenario ([`GridScenario::check_lineup`]).
    pub controllers: Vec<(String, L)>,
}

/// A fleet grid: each cell runs a whole [`FleetConfig`] under a lineup
/// of one [`ControllerSpec`] per device. [`FleetConfig`] carries live
/// handles (a `Telemetry` pipeline), so fleet grids are not serializable
/// and never cached.
pub type FleetSweepSpec = SweepSpec<FleetConfig, Vec<ControllerSpec>>;

/// Materialize an optional axis: empty means one pass-through entry
/// with an empty label and no override.
fn axis_or_passthrough<T: Copy>(axis: &[(String, T)]) -> Vec<(String, Option<T>)> {
    if axis.is_empty() {
        vec![(String::new(), None)]
    } else {
        axis.iter().map(|(l, v)| (l.clone(), Some(*v))).collect()
    }
}

/// Panic on the first label (or seed) `items` repeats.
fn assert_unique<T: std::hash::Hash + Eq + std::fmt::Debug + Copy>(
    what: &str,
    items: impl IntoIterator<Item = T>,
) {
    let mut seen = HashSet::new();
    for item in items {
        assert!(seen.insert(item), "duplicate {what} {item:?}");
    }
}

impl SweepSpec {
    /// A single-scenario grid over the config's own seed — the shape of
    /// "run this config under every controller".
    pub fn lineup(name: impl Into<String>, config: ExperimentConfig) -> Self {
        SweepSpec {
            name: name.into(),
            seeds: vec![config.seed],
            scenarios: vec![("default".into(), config)],
            routings: Vec::new(),
            admissions: Vec::new(),
            controllers: ControllerSpec::lineup(),
        }
    }
}

impl<S: GridScenario<L>, L: Clone> SweepSpec<S, L> {
    /// Total number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len()
            * self.seeds.len()
            * self.routings.len().max(1)
            * self.admissions.len().max(1)
            * self.controllers.len()
    }

    /// The grid cells in canonical order: scenario-major, then seed,
    /// then routing, admission, controller. This order defines the
    /// layout of [`SweepReport::cells`], independent of execution order.
    ///
    /// A routing or admission pick overlays the scenario's tier
    /// ([`GridScenario::tier_mut`]); with both axes empty the scenario,
    /// tier included, is untouched but for its seed.
    pub(crate) fn cells(&self) -> Vec<Cell<S, L>> {
        self.validate();
        let routings = axis_or_passthrough(&self.routings);
        let admissions = axis_or_passthrough(&self.admissions);
        let mut out = Vec::with_capacity(self.cell_count());
        for (scenario, config) in &self.scenarios {
            for &seed in &self.seeds {
                for (routing_label, routing) in &routings {
                    for (admission_label, admission) in &admissions {
                        for (controller, spec) in &self.controllers {
                            let mut config = config.clone();
                            config.set_seed(seed);
                            if routing.is_some() || admission.is_some() {
                                let tier = config.tier_mut();
                                tier.routing = routing.unwrap_or(tier.routing);
                                tier.admission = admission.unwrap_or(tier.admission);
                            }
                            out.push(Cell {
                                key: CellKey {
                                    scenario: scenario.clone(),
                                    seed,
                                    routing: routing_label.clone(),
                                    admission: admission_label.clone(),
                                    controller: controller.clone(),
                                },
                                config,
                                controller: spec.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn validate(&self) {
        assert!(!self.scenarios.is_empty(), "sweep needs >= 1 scenario");
        assert!(!self.seeds.is_empty(), "sweep needs >= 1 seed");
        assert!(!self.controllers.is_empty(), "sweep needs >= 1 controller");
        assert_unique("scenario label", self.scenarios.iter().map(|(l, _)| l));
        assert_unique("controller label", self.controllers.iter().map(|(l, _)| l));
        assert_unique("routing label", self.routings.iter().map(|(l, _)| l));
        assert_unique("admission label", self.admissions.iter().map(|(l, _)| l));
        assert_unique("seed", self.seeds.iter().copied());
        for (controller, spec) in &self.controllers {
            for (scenario, config) in &self.scenarios {
                if let Err(why) = config.check_lineup(spec) {
                    panic!("controller {controller:?} {why} in scenario {scenario:?}");
                }
            }
        }
    }
}

/// Grid coordinates of one cell — the merge key for aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Scenario label.
    pub scenario: String,
    /// Master seed of this run.
    pub seed: u64,
    /// Routing axis label (empty when the spec has no routing axis).
    #[serde(default)]
    pub routing: String,
    /// Admission axis label (empty when the spec has no admission axis).
    #[serde(default)]
    pub admission: String,
    /// Controller label.
    pub controller: String,
}

/// One fully resolved grid cell, ready to execute.
#[derive(Debug, Clone)]
pub(crate) struct Cell<S = ExperimentConfig, L = ControllerSpec> {
    /// Grid coordinates.
    pub key: CellKey,
    /// The scenario (seed and tier overlay already applied).
    pub config: S,
    /// The controller recipe: one spec, or one per fleet device.
    pub controller: L,
}

impl Cell {
    /// The cell's content hash: FNV-1a over the serialized config,
    /// controller spec, and cache schema version. Identical inputs hash
    /// identically across runs and processes; any config change moves
    /// the hash and misses the cache.
    pub(crate) fn content_hash(&self) -> u64 {
        let config = serde_json::to_string(&self.config).expect("config serializes");
        let spec = serde_json::to_string(&self.controller).expect("spec serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for bytes in [
            &CACHE_SCHEMA_VERSION.to_le_bytes()[..],
            config.as_bytes(),
            b"|",
            spec.as_bytes(),
        ] {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Number of worker threads. `0` or `1` runs serially on the calling
    /// thread (no threads spawned); `0` is the default.
    pub workers: usize,
    /// Cache directory. `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Observability pipeline. Each worker reports cells done under
    /// `sweep/worker/<i>` (a serial run under `sweep`); cache hits land
    /// under `sweep`.
    /// Event timestamps are wall-clock micros since the sweep started
    /// (sweeps have no simulated clock). Disabled by default; never
    /// affects results.
    pub telemetry: Telemetry,
}

/// Worker threads to use when the caller does not say: one per
/// available core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl SweepOptions {
    /// Serial execution, no cache — the reference configuration every
    /// parallel run must be bit-identical to.
    pub fn serial() -> Self {
        SweepOptions::default()
    }

    /// Options from the environment, for the `ff-bench` grid binaries:
    /// `FF_SWEEP_WORKERS` sets the worker count (default: all cores,
    /// `1` forces serial) and `FF_SWEEP_CACHE_DIR` enables the result
    /// cache under the given directory (default: no cache).
    pub fn from_env() -> Self {
        let workers = std::env::var("FF_SWEEP_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(default_workers);
        let cache_dir = std::env::var_os("FF_SWEEP_CACHE_DIR").map(PathBuf::from);
        SweepOptions {
            workers,
            cache_dir,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Parallel execution with `workers` threads, no cache.
    pub fn parallel(workers: usize) -> Self {
        SweepOptions {
            workers,
            ..Default::default()
        }
    }

    /// Enable the content-hash cache under `dir`.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }
}

/// One executed (or cache-restored) cell in the report.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult<R = ExperimentResult> {
    /// Grid coordinates.
    pub key: CellKey,
    /// Whether this result was read from the cache instead of executed.
    pub cached: bool,
    /// The full run output.
    pub result: R,
}

/// The aggregated output of one sweep, cells in canonical grid order.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport<R = ExperimentResult> {
    /// Sweep name (from the spec).
    pub name: String,
    /// Per-cell results in grid order (scenario-major).
    pub cells: Vec<CellResult<R>>,
    /// Cells actually run this time.
    pub executed: usize,
    /// Cells restored from the cache.
    pub cached: usize,
    /// Wall-clock duration of the sweep in seconds (not part of the
    /// deterministic payload — compare `cells`, not this).
    pub elapsed_secs: f64,
}

impl<R: Serialize> SweepReport<R> {
    /// Whether two reports carry bit-identical results (keys, cell
    /// order, and every QoS record / summary statistic; cache and
    /// timing metadata are excluded by construction).
    pub fn results_identical(&self, other: &SweepReport<R>) -> bool {
        self.cells.len() == other.cells.len()
            && self.cells.iter().zip(&other.cells).all(|(a, b)| {
                a.key == b.key
                    && serde_json::to_string(&a.result).expect("result serializes")
                        == serde_json::to_string(&b.result).expect("result serializes")
            })
    }
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    schema: u32,
    result: ExperimentResult,
}

/// Borrowing twin of [`CacheEntry`] for the write path: serializes the
/// result in place instead of cloning a full QoS log per cell. The
/// derive shim does not handle lifetime parameters, so the impl is
/// written out; it must stay field-compatible with [`CacheEntry`].
struct CacheEntryRef<'a> {
    schema: u32,
    result: &'a ExperimentResult,
}

impl serde::Serialize for CacheEntryRef<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("schema".into(), self.schema.to_value()),
            ("result".into(), self.result.to_value()),
        ])
    }
}

fn cache_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.json"))
}

fn cache_read(dir: &Path, hash: u64) -> Option<ExperimentResult> {
    let body = std::fs::read_to_string(cache_path(dir, hash)).ok()?;
    let entry: CacheEntry = serde_json::from_str(&body).ok()?;
    (entry.schema == CACHE_SCHEMA_VERSION).then_some(entry.result)
}

fn cache_write(dir: &Path, hash: u64, result: &ExperimentResult) {
    // Cache writes are best-effort: a read-only target directory costs
    // re-execution next time, never correctness.
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let entry = CacheEntryRef {
        schema: CACHE_SCHEMA_VERSION,
        result,
    };
    let Ok(body) = serde_json::to_string(&entry) else {
        return;
    };
    // Publish atomically: write a private temp file in the same
    // directory, then rename over the final path. A crash (or a reader
    // racing a concurrent sweep) can therefore never observe a torn
    // half-written entry under the content-hash name — the entry either
    // exists complete or not at all.
    let tmp = dir.join(format!("{hash:016x}.{}.tmp", std::process::id()));
    if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, cache_path(dir, hash)).is_ok() {
        return;
    }
    let _ = std::fs::remove_file(&tmp);
}

/// Execute every cell of `spec` and aggregate in canonical grid order.
///
/// The returned report is bit-identical for any `workers` value: cells
/// are merged by grid slot, so scheduling nondeterminism never reaches
/// the output.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepReport {
    let started = Instant::now();
    let cells = spec.cells();

    // Cache probe happens serially, in grid order, before any dispatch:
    // it is pure file I/O and keeps the execution set deterministic.
    let mut slots: Vec<Option<(bool, ExperimentResult)>> = (0..cells.len()).map(|_| None).collect();
    // A key serializes the whole config: build them only for a cache.
    let mut hashes: Vec<u64> = Vec::new();
    if let Some(dir) = opts.cache_dir.as_deref() {
        let mut rec = opts.telemetry.recorder();
        let sweep_scope = opts.telemetry.scope("sweep");
        hashes = cells.iter().map(Cell::content_hash).collect();
        for (slot, &hash) in slots.iter_mut().zip(&hashes) {
            *slot = cache_read(dir, hash).map(|result| (true, result));
            if slot.is_some() {
                let t = started.elapsed().as_micros() as u64;
                rec.counter(sweep_scope, Metric::CacheHits, 1, t);
            }
        }
    }
    let mut report = run_cells(&spec.name, cells, slots, opts, started, |cell| {
        run_experiment(cell.config.clone(), cell.controller.build())
    });

    // Persist fresh results (main thread only — workers never touch the
    // cache, so partial files cannot race).
    if let Some(dir) = opts.cache_dir.as_deref() {
        for (cell, &hash) in report.cells.iter().zip(&hashes) {
            if !cell.cached {
                cache_write(dir, hash, &cell.result);
            }
        }
        report.elapsed_secs = started.elapsed().as_secs_f64();
    }
    report
}

/// Execute every cell of a fleet grid and aggregate in canonical grid
/// order, with [`run_sweep`]'s executor and its bit-identical-at-any-
/// worker-count guarantee; fleet cells are never cached.
pub fn run_fleet_sweep(spec: &FleetSweepSpec, opts: &SweepOptions) -> SweepReport<FleetResult> {
    let started = Instant::now();
    let cells = spec.cells();
    let slots = (0..cells.len()).map(|_| None).collect();
    run_cells(&spec.name, cells, slots, opts, started, |cell| {
        let lineup = cell.controller.iter().map(ControllerSpec::build).collect();
        run_fleet(cell.config.clone(), lineup)
    })
}

/// Run the `cells` whose slot is still empty (a filled slot is a cache
/// hit) and assemble the report in grid order.
fn run_cells<S: Sync, L: Sync, R: Send>(
    name: &str,
    cells: Vec<Cell<S, L>>,
    mut slots: Vec<Option<(bool, R)>>,
    opts: &SweepOptions,
    started: Instant,
    run: impl Fn(&Cell<S, L>) -> R + Sync,
) -> SweepReport<R> {
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    run_indexed(
        pending.len(),
        |j| run(&cells[pending[j]]),
        opts,
        started,
        |j, result| slots[pending[j]] = Some((false, result)),
    );
    let executed = pending.len();
    let cells: Vec<CellResult<R>> = cells
        .into_iter()
        .zip(slots)
        .map(|(cell, slot)| {
            let (cached, result) = slot.expect("every slot filled");
            CellResult {
                key: cell.key,
                cached,
                result,
            }
        })
        .collect();
    SweepReport {
        name: name.to_string(),
        cached: cells.len() - executed,
        cells,
        executed,
        elapsed_secs: started.elapsed().as_secs_f64(),
    }
}

/// The executor behind [`run_cells`]: runs `run(0)..run(jobs - 1)` and
/// hands each result to `merge` on the calling thread, which polls the
/// telemetry pipeline after each one.
///
/// With one worker (or one job) everything runs on the calling thread,
/// in index order. Otherwise `opts.workers` scoped threads claim
/// indices from one shared cursor and send results back over a channel;
/// cells cost milliseconds each, so claiming one at a time keeps every
/// worker busy to the end. Callers merge by index, so arrival order is
/// scheduling noise that never reaches a report.
fn run_indexed<R, F>(
    jobs: usize,
    run: F,
    opts: &SweepOptions,
    started: Instant,
    mut merge: impl FnMut(usize, R),
) where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let done = |rec: &mut Recorder, scope: Scope| {
        let t = started.elapsed().as_micros() as u64;
        rec.counter(scope, Metric::CellsDone, 1, t);
    };
    if opts.workers <= 1 || jobs <= 1 {
        let mut rec = opts.telemetry.recorder();
        let scope = opts.telemetry.scope("sweep");
        for i in 0..jobs {
            let result = run(i);
            done(&mut rec, scope);
            merge(i, result);
            opts.telemetry.poll();
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = channel::unbounded::<(usize, R)>();
        std::thread::scope(|threads| {
            for w in 0..opts.workers {
                let tx = tx.clone();
                let (cursor, run, done) = (&cursor, &run, &done);
                let mut rec = opts.telemetry.recorder();
                let scope = opts.telemetry.scope(&format!("sweep/worker/{w}"));
                threads.spawn(move || loop {
                    // `Relaxed` suffices: the cursor only hands out
                    // indices; results travel over the channel, which
                    // synchronises.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let result = run(i);
                    done(&mut rec, scope);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result) in rx.iter() {
                merge(i, result);
                opts.telemetry.poll();
            }
        });
    }
    opts.telemetry.poll();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::default();
        c.stream.total_frames = 90; // 3 s at 30 fps — keep cells cheap
        c.peer_devices = 0;
        c
    }

    fn tiny_spec(seeds: Vec<u64>) -> SweepSpec {
        SweepSpec {
            name: "test".into(),
            scenarios: vec![("ideal".into(), tiny_config())],
            seeds,
            routings: Vec::new(),
            admissions: Vec::new(),
            controllers: vec![
                ("framefeedback".into(), ControllerSpec::framefeedback()),
                ("local-only".into(), ControllerSpec::LocalOnly),
            ],
        }
    }

    #[test]
    fn cells_enumerate_in_scenario_seed_controller_order() {
        let spec = tiny_spec(vec![1, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key.seed, 1);
        assert_eq!(cells[0].key.controller, "framefeedback");
        assert_eq!(cells[1].key.seed, 1);
        assert_eq!(cells[1].key.controller, "local-only");
        assert_eq!(cells[2].key.seed, 2);
        // The seed override lands in the config.
        assert_eq!(cells[3].config.seed, 2);
    }

    #[test]
    fn content_hash_tracks_inputs_exactly() {
        let spec = tiny_spec(vec![1, 2]);
        let cells = spec.cells();
        // Same inputs, same hash.
        assert_eq!(cells[0].content_hash(), spec.cells()[0].content_hash());
        // Different seed or controller, different hash.
        assert_ne!(cells[0].content_hash(), cells[1].content_hash());
        assert_ne!(cells[0].content_hash(), cells[2].content_hash());
    }

    #[test]
    fn serial_and_parallel_reports_are_bit_identical() {
        let spec = tiny_spec(vec![11, 12]);
        let serial = run_sweep(&spec, &SweepOptions::serial());
        let parallel = run_sweep(&spec, &SweepOptions::parallel(3));
        assert_eq!(serial.executed, 4);
        assert_eq!(parallel.executed, 4);
        assert!(serial.results_identical(&parallel));
    }

    #[test]
    fn cache_round_trip_skips_execution_and_preserves_results() {
        let dir = std::env::temp_dir().join(format!("ff-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(vec![21]);
        let opts = SweepOptions::serial().with_cache(&dir);
        let first = run_sweep(&spec, &opts);
        assert_eq!(first.executed, 2);
        assert_eq!(first.cached, 0);
        let second = run_sweep(&spec, &opts);
        assert_eq!(second.executed, 0);
        assert_eq!(second.cached, 2);
        assert!(first.results_identical(&second));
        // A config change invalidates only the changed cells.
        let mut changed = spec.clone();
        changed.seeds.push(22);
        let third = run_sweep(&changed, &opts);
        assert_eq!(third.cached, 2, "seed-21 cells must still hit");
        assert_eq!(third.executed, 2, "seed-22 cells must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_cache_entries_read_as_misses_and_are_repaired() {
        let dir = std::env::temp_dir().join(format!("ff-sweep-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(vec![31]);
        let opts = SweepOptions::serial().with_cache(&dir);
        let first = run_sweep(&spec, &opts);
        assert_eq!(first.executed, 2);

        // Tear every entry the way a crash mid-write would have before
        // writes went through a temp file + rename: truncated JSON under
        // the final content-hash name.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let body = std::fs::read(&path).unwrap();
            std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        }

        // Torn entries are cache misses, never errors or bad results…
        let second = run_sweep(&spec, &opts);
        assert_eq!(second.cached, 0, "a torn entry must read as a miss");
        assert_eq!(second.executed, 2);
        assert!(first.results_identical(&second));

        // …and re-execution repaired them (and left no temp litter).
        let third = run_sweep(&spec, &opts);
        assert_eq!(third.cached, 2, "repaired entries must hit again");
        assert_eq!(third.executed, 0);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                name.to_string_lossy().ends_with(".json"),
                "stray cache file {name:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineup_spec_matches_bench_lineup_order() {
        let spec = SweepSpec::lineup("lineup", tiny_config());
        let labels: Vec<&str> = spec.controllers.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "framefeedback",
                "local-only",
                "always-offload",
                "all-or-nothing"
            ]
        );
        assert_eq!(spec.cell_count(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate controller label")]
    fn duplicate_controller_labels_are_rejected() {
        let mut spec = tiny_spec(vec![1]);
        spec.controllers
            .push(("framefeedback".into(), ControllerSpec::LocalOnly));
        spec.cells();
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn duplicate_seeds_are_rejected() {
        tiny_spec(vec![1, 1]).cells();
    }

    #[test]
    fn routing_and_admission_axes_expand_the_grid() {
        let mut spec = tiny_spec(vec![1]);
        spec.routings = vec![
            ("shard".into(), RoutingSpec::StaticShard),
            ("po2c".into(), RoutingSpec::PowerOfTwoChoices),
        ];
        spec.admissions = vec![("admit-all".into(), AdmissionSpec::AdmitAll)];
        assert_eq!(spec.cell_count(), 4); // 1 scenario × 1 seed × 2 × 1 × 2
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key.routing, "shard");
        assert_eq!(cells[0].key.admission, "admit-all");
        assert_eq!(cells[2].key.routing, "po2c");
        // The axis pick lands in the cell's tier config.
        let tier = cells[2].config.tier.as_ref().expect("axis sets a tier");
        assert_eq!(tier.routing, RoutingSpec::PowerOfTwoChoices);
        // Different routing, different content hash (the cache key moves).
        assert_ne!(cells[0].content_hash(), cells[2].content_hash());
        // No axes: the tier stays untouched and labels stay empty.
        let legacy = tiny_spec(vec![1]).cells();
        assert!(legacy[0].config.tier.is_none());
        assert_eq!(legacy[0].key.routing, "");
    }

    fn tiny_fleet_spec() -> FleetSweepSpec {
        let mut config = FleetConfig::default();
        config.stream.total_frames = 90;
        config.tier = Some(TierConfig::uniform(2, ff_server::ServerSpec::default()));
        FleetSweepSpec {
            name: "fleet-test".into(),
            scenarios: vec![("two-servers".into(), config)],
            seeds: vec![7],
            routings: vec![
                ("shard".into(), RoutingSpec::StaticShard),
                ("po2c".into(), RoutingSpec::PowerOfTwoChoices),
            ],
            admissions: vec![("admit-all".into(), AdmissionSpec::AdmitAll)],
            controllers: vec![(
                "mixed".into(),
                vec![
                    ControllerSpec::framefeedback(),
                    ControllerSpec::LocalOnly,
                    ControllerSpec::AlwaysOffload,
                ],
            )],
        }
    }

    #[test]
    fn fleet_grid_enumerates_in_canonical_order() {
        let spec = tiny_fleet_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].key.routing, "shard");
        assert_eq!(cells[1].key.routing, "po2c");
        assert_eq!(cells[0].key.controller, "mixed");
        assert_eq!(cells[0].config.seed, 7);
        let tier = cells[1].config.tier.as_ref().expect("tier set");
        assert_eq!(tier.routing, RoutingSpec::PowerOfTwoChoices);
        assert_eq!(tier.servers.len(), 2);
    }

    #[test]
    fn fleet_grid_serial_and_parallel_reports_are_bit_identical() {
        let spec = tiny_fleet_spec();
        let serial = run_fleet_sweep(&spec, &SweepOptions::serial());
        let parallel = run_fleet_sweep(&spec, &SweepOptions::parallel(3));
        assert_eq!(serial.cells.len(), 2);
        assert!(serial.results_identical(&parallel));
        let key = |c: &CellResult<FleetResult>| {
            (c.key.scenario.clone(), c.key.seed, c.key.controller.clone())
        };
        let cell = ("two-servers".to_string(), 7, "mixed".to_string());
        assert!(serial.cells.iter().any(|c| key(c) == cell));
    }

    #[test]
    #[should_panic(expected = "has 2 controllers")]
    fn fleet_lineup_must_match_device_count() {
        let mut spec = tiny_fleet_spec();
        spec.controllers = vec![(
            "short".into(),
            vec![ControllerSpec::framefeedback(), ControllerSpec::LocalOnly],
        )];
        spec.cells();
    }
}
