//! Pluggable snapshot sinks.
//!
//! A [`Sink`] receives every emitted [`Snapshot`]. Sinks run on whatever
//! thread calls `Telemetry::poll`/`finish` — never on a recording hot
//! path — so they may allocate, lock, and do I/O freely. The in-process
//! channel and JSONL file sinks live here, the TCP export sink in
//! `export.rs`.

use crate::collect::Snapshot;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A consumer of emitted snapshots.
pub trait Sink: Send {
    /// Deliver one snapshot. Failures must be absorbed (telemetry never
    /// takes down the host).
    fn emit(&mut self, snapshot: &Snapshot);

    /// Flush buffered output (called by `Telemetry::finish`).
    fn flush(&mut self) {}
}

/// Appends each snapshot as one compact JSON line to a file.
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, snapshot: &Snapshot) {
        if let Ok(json) = serde_json::to_string(snapshot) {
            let _ = writeln!(self.writer, "{json}");
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Forwards snapshots to an in-process subscriber channel.
pub(crate) struct ChannelSink {
    tx: Sender<Snapshot>,
}

impl ChannelSink {
    /// A sink plus the receiver that observes everything it emits.
    pub(crate) fn new() -> (ChannelSink, Receiver<Snapshot>) {
        let (tx, rx) = unbounded();
        (ChannelSink { tx }, rx)
    }
}

impl Sink for ChannelSink {
    fn emit(&mut self, snapshot: &Snapshot) {
        // A dropped receiver just means the subscriber went away.
        let _ = self.tx.send(snapshot.clone());
    }
}
