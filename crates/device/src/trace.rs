//! Per-frame tracing.
//!
//! The QoS log aggregates per second; when debugging a controller (or
//! explaining a single timeout burst) you want the fate of *every frame*.
//! With `ExperimentConfig::record_trace` enabled, the experiment emits
//! one [`FrameRecord`] per captured frame, suitable for timeline
//! rendering or offline analysis (serialized alongside the JSON results).

use crate::offload::TimeoutCause;
use ff_sim::SimTime;
use serde::{Deserialize, Serialize};

/// How a frame left the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FrameFate {
    /// Inferred on-device.
    LocalCompleted,
    /// Routed to the local engine but skipped (engine and pending slot
    /// both busy).
    LocalSkipped,
    /// Offloaded; the response beat the deadline.
    OffloadSucceeded {
        /// End-to-end latency in milliseconds.
        latency_ms: f64,
    },
    /// Offloaded; the deadline passed.
    OffloadTimedOut {
        /// Whether the timeout was attributed to the network (`T_n`) as
        /// opposed to server load (`T_l`).
        network: bool,
    },
    /// Offloaded; still unresolved when the experiment ended.
    Unresolved,
    /// Dropped by the semantic filter before reaching the splitter
    /// (near-duplicate content; never entered the control loop).
    FilteredOut,
}

/// The life of one captured frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Zero-based capture index.
    pub frame_id: u64,
    /// Capture instant in seconds since stream start.
    pub captured_secs: f64,
    /// Compressed payload size in bytes.
    pub bytes: u64,
    /// How the frame left the system.
    pub fate: FrameFate,
}

/// Collects frame records during a run (when enabled): one per
/// captured frame, so memory grows with the stream's length.
#[derive(Debug, Default)]
pub(crate) struct FrameTrace {
    records: Vec<FrameRecord>,
    enabled: bool,
}

impl FrameTrace {
    /// A trace that records only when `enabled`.
    pub(crate) fn new(enabled: bool) -> Self {
        FrameTrace {
            records: Vec::new(),
            enabled,
        }
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a captured frame with a provisional fate (overwritten on
    /// resolution). Frame ids must arrive in order.
    pub(crate) fn captured(&mut self, frame_id: u64, at: SimTime, bytes: u64, fate: FrameFate) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(
            self.records.len() as u64,
            frame_id,
            "frames must be traced in capture order"
        );
        self.records.push(FrameRecord {
            frame_id,
            captured_secs: at.as_secs_f64(),
            bytes,
            fate,
        });
    }

    /// Update the fate of a previously captured frame.
    pub(crate) fn resolve(&mut self, frame_id: u64, fate: FrameFate) {
        if !self.enabled {
            return;
        }
        let record = self
            .records
            .get_mut(frame_id as usize)
            .expect("resolving an untraced frame");
        record.fate = fate;
    }

    /// The records, oldest first (empty when disabled).
    pub(crate) fn into_records(self) -> Vec<FrameRecord> {
        self.records
    }
}

/// Fate-count summary of a trace, for quick assertions and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TraceSummary {
    /// Frames inferred on-device.
    pub local_completed: u64,
    /// Frames skipped at the local engine.
    pub local_skipped: u64,
    /// Offloads that beat the deadline.
    pub offload_succeeded: u64,
    /// Offloads that missed the deadline.
    pub offload_timed_out: u64,
    /// Frames still unresolved at the experiment horizon.
    pub unresolved: u64,
    /// Frames dropped by the semantic filter.
    pub filtered_out: u64,
}

impl TraceSummary {
    /// Count the fates in a record slice.
    pub fn of(records: &[FrameRecord]) -> TraceSummary {
        let mut s = TraceSummary::default();
        for r in records {
            match r.fate {
                FrameFate::LocalCompleted => s.local_completed += 1,
                FrameFate::LocalSkipped => s.local_skipped += 1,
                FrameFate::OffloadSucceeded { .. } => s.offload_succeeded += 1,
                FrameFate::OffloadTimedOut { .. } => s.offload_timed_out += 1,
                FrameFate::Unresolved => s.unresolved += 1,
                FrameFate::FilteredOut => s.filtered_out += 1,
            }
        }
        s
    }

    /// Sum of all fate counts (= frames captured).
    pub fn total(&self) -> u64 {
        self.local_completed
            + self.local_skipped
            + self.offload_succeeded
            + self.offload_timed_out
            + self.unresolved
            + self.filtered_out
    }
}

/// Convert a timeout cause into the trace's network flag.
pub(crate) fn timeout_fate(cause: TimeoutCause) -> FrameFate {
    FrameFate::OffloadTimedOut {
        network: cause == TimeoutCause::Network,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = FrameTrace::new(false);
        t.captured(0, SimTime::ZERO, 100, FrameFate::Unresolved);
        t.resolve(0, FrameFate::LocalCompleted);
        assert!(!t.is_enabled());
        assert!(t.into_records().is_empty());
    }

    #[test]
    fn capture_then_resolve_updates_the_fate() {
        let mut t = FrameTrace::new(true);
        t.captured(0, SimTime::ZERO, 100, FrameFate::Unresolved);
        t.captured(1, SimTime::from_millis(33), 110, FrameFate::LocalCompleted);
        t.resolve(0, FrameFate::OffloadSucceeded { latency_ms: 120.0 });
        let records = t.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].fate,
            FrameFate::OffloadSucceeded { latency_ms: 120.0 }
        );
        assert_eq!(records[1].fate, FrameFate::LocalCompleted);
        assert_eq!(records[1].captured_secs, 0.033);
    }

    #[test]
    fn summary_partitions_fates() {
        let records = vec![
            FrameRecord {
                frame_id: 0,
                captured_secs: 0.0,
                bytes: 1,
                fate: FrameFate::LocalCompleted,
            },
            FrameRecord {
                frame_id: 1,
                captured_secs: 0.1,
                bytes: 1,
                fate: FrameFate::OffloadTimedOut { network: true },
            },
            FrameRecord {
                frame_id: 2,
                captured_secs: 0.2,
                bytes: 1,
                fate: FrameFate::OffloadSucceeded { latency_ms: 80.0 },
            },
        ];
        let s = TraceSummary::of(&records);
        assert_eq!(s.local_completed, 1);
        assert_eq!(s.offload_timed_out, 1);
        assert_eq!(s.offload_succeeded, 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    #[should_panic(expected = "untraced")]
    fn resolving_unknown_frame_panics() {
        FrameTrace::new(true).resolve(5, FrameFate::LocalCompleted);
    }
}
