//! Each product crate exports only what something outside it names.
//!
//! `dead_code` cannot see a `pub` item, so a public function that
//! nothing calls never shows in clippy. This scan takes every non-test
//! `pub fn/struct/enum/trait/const/type/static/mod` declared under
//! `crates/*/src` (each file cut where its first `#[cfg(test)]` module
//! starts) and looks
//! for its name, as a whole word, outside its crate:
//!
//! * in every other crate, and in the crate's own binaries, integration
//!   tests and examples, which are crates of their own;
//! * in the root `tests/` (this file aside), `examples/` and `src/`
//!   (the facade);
//! * in `benchmark/src`, whose names are frozen.
//!
//! A name found nowhere outside must be in [`ALLOWED`] with the reason it
//! stays public: a public signature reaches it (its crate root re-exports
//! it, so callers can name it), or it is a counter meant to be read. An
//! entry that is no longer needed fails the scan too, so a new public
//! name is admitted on purpose, by an edit to the list, or not at all.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// `("crate::name", why it stays public)`, the crate by its directory.
const ALLOWED: &[(&str, &str)] = &[
    ("core::TuningOutcome", "returned by `tune`"),
    (
        "device::FrameRecord",
        "the element of `ExperimentResult::trace`",
    ),
    (
        "device::IntervalCounters",
        "the type of `TickOutput::interval`",
    ),
    (
        "device::LatencyBreakdown",
        "carried by `FrameOutcome::Success`",
    ),
    (
        "device::OffloadSubmission",
        "returned by `DeviceRuntime::offload`",
    ),
    ("device::ReplayMismatch", "returned by `replay_verify`"),
    ("device::ReplayReport", "returned by `replay_verify`"),
    ("device::TickOutput", "returned by `DeviceRuntime::tick`"),
    (
        "device::TimeoutCause",
        "returned by `DeviceRuntime::on_deadline`",
    ),
    (
        "metrics::ConfidenceInterval",
        "returned by `bootstrap_mean_ci`",
    ),
    ("models::DeviceProfile", "returned by `DeviceKind::profile`"),
    ("models::ModelProfile", "returned by `ModelKind::profile`"),
    ("models::TradeoffPoint", "returned by `tradeoff_frontier`"),
    ("net::DropReason", "carried by `SendOutcome::Dropped`"),
    ("reactor::FleetSummary", "returned by `run_reactor_fleet`"),
    ("reactor::FrameError", "returned by `decode_frame`"),
    (
        "reactor::ReactorChaos",
        "returned by `ReactorServer::chaos`",
    ),
    (
        "reactor::backpressure_rejects",
        "a `FramedConn` counter for the ledger",
    ),
    (
        "reactor::write_calls",
        "a `FramedConn` syscall counter for the ledger",
    ),
    (
        "server::TenantTable",
        "returned by `Batcher::rejections_by_tenant`",
    ),
    ("sim::RunOutcome", "returned by `Simulation::run`"),
    ("sweep::CellKey", "the type of `CellResult::key`"),
    ("sweep::CellResult", "the element of `SweepReport::cells`"),
    ("sweep::GridScenario", "bounds `SweepSpec`'s methods"),
    (
        "telemetry::LatencyValue",
        "the element of `ScopeSnapshot::latencies`",
    ),
    ("telemetry::Sink", "taken by `Telemetry::add_sink`"),
    ("trace::TraceError", "returned by `Trace::decode`"),
    ("workload::FrameId", "the type of `Frame::id`"),
];

/// Item kinds the scan counts.
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "type", "static", "mod",
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every identifier-shaped word in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a line declares, if it is a `pub` item of a counted kind.
fn declared(line: &str) -> Option<&str> {
    let mut tokens = line.split_whitespace().peekable();
    if tokens.next() != Some("pub") {
        return None;
    }
    while let Some(token) = tokens.next() {
        let qualifier = matches!(token, "unsafe" | "async" | "extern" | "\"C\"" | "mut")
            || (token == "const" && tokens.peek().is_some_and(|next| KINDS.contains(next)));
        if qualifier {
            continue;
        }
        if !KINDS.contains(&token) {
            return None;
        }
        let rest = tokens.next()?;
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        return Some(&rest[..end]).filter(|name| !name.is_empty());
    }
    None
}

#[test]
fn every_public_name_is_used_outside_its_crate_or_allowed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    // Each source file with the crate it belongs to: `Some(crate)` for a
    // product crate's library, `None` for everything compiled apart.
    let mut sources: Vec<(Option<String>, String)> = Vec::new();
    for dir in ["tests", "examples", "src", "benchmark/src"] {
        let mut files = Vec::new();
        rs_files(&root.join(dir), &mut files);
        files.retain(|f| *f != this_file);
        sources.extend(files.iter().map(|f| (None, read(f))));
    }
    // (crate, file, name) for every public declaration.
    let mut declarations: Vec<(String, String, String)> = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let krate = dir.file_name().unwrap().to_str().unwrap().to_string();
        let (src, bin) = (dir.join("src"), dir.join("src/bin"));
        let mut files = Vec::new();
        rs_files(&dir, &mut files);
        for file in files {
            let text = read(&file);
            if !file.starts_with(&src) || file.starts_with(&bin) {
                // A binary, integration test or example: a crate apart.
                sources.push((None, text));
                continue;
            }
            let live = text
                .find("#[cfg(test)]\nmod ")
                .map_or(&text[..], |end| &text[..end]);
            let shown = file.strip_prefix(root).unwrap().display().to_string();
            for line in live.lines() {
                if let Some(name) = declared(line.trim_start()) {
                    declarations.push((krate.clone(), shown.clone(), name.to_string()));
                }
            }
            sources.push((Some(krate.clone()), text));
        }
    }
    let mut named_in: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for (owner, text) in &sources {
        for word in words(text) {
            named_in.entry(word).or_default().insert(owner.as_deref());
        }
    }

    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|&(key, _)| key).collect();
    let mut unused = BTreeSet::new();
    let mut unlisted = Vec::new();
    for (krate, file, name) in &declarations {
        let owners = named_in.get(name.as_str());
        if owners.is_some_and(|o| o.iter().any(|owner| *owner != Some(krate.as_str()))) {
            continue;
        }
        let key = format!("{krate}::{name}");
        if !allowed.contains(key.as_str()) {
            unlisted.push(format!("{key} ({file})"));
        }
        unused.insert(key);
    }
    assert!(
        unlisted.is_empty(),
        "public, but named nowhere outside its crate: make it pub(crate) or \
         private, or admit it to ALLOWED with its reason:\n  {}",
        unlisted.join("\n  ")
    );
    let stale: Vec<_> = allowed.iter().filter(|k| !unused.contains(**k)).collect();
    assert!(
        stale.is_empty(),
        "ALLOWED lists names in use or gone: {stale:?}"
    );
    assert_eq!(allowed.len(), ALLOWED.len(), "ALLOWED lists a name twice");
    assert!(
        ALLOWED.iter().all(|(_, why)| !why.trim().is_empty()),
        "every ALLOWED entry gives its reason"
    );
    println!(
        "{} public declarations, {} named nowhere outside their crate",
        declarations.len(),
        unused.len()
    );
}
