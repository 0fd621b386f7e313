//! Recorded frame schedules: feed a trace's capture times and sizes
//! back into the simulator as the workload.
//!
//! A binary trace (`ff-trace`) records, among everything else, every
//! frame the device captured — its instant and its raw (pre-quality-
//! adaptation) payload size. [`ReplayFrames`] extracts exactly that
//! schedule so an experiment can re-run against the *recorded* stream
//! instead of the generative [`FrameSource`](crate::FrameSource): same
//! cadence irregularities, same size sequence, no RNG.

use ff_sim::{SimDuration, SimTime};
use ff_trace::{Trace, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::frames::{Frame, FrameId};

/// One recorded capture: when it happened and how many payload bytes it
/// carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayFrame {
    /// Capture instant, microseconds since the start of the run.
    pub at_us: u64,
    /// Raw compressed payload size in bytes (pre quality adaptation).
    pub bytes: u64,
}

/// A recorded frame schedule: the capture sequence of a previous run,
/// ready to be replayed as workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayFrames {
    frames: Vec<ReplayFrame>,
}

impl ReplayFrames {
    /// Build from explicit captures. Capture times must be non-
    /// decreasing and payload sizes positive.
    pub fn new(frames: Vec<ReplayFrame>) -> Self {
        for w in frames.windows(2) {
            assert!(
                w[1].at_us >= w[0].at_us,
                "replay capture times must be non-decreasing ({} then {})",
                w[0].at_us,
                w[1].at_us
            );
        }
        assert!(
            frames.iter().all(|f| f.bytes > 0),
            "replay frames must carry payload"
        );
        ReplayFrames { frames }
    }

    /// Extract the capture schedule from a decoded trace: every
    /// `Capture` event's instant and raw byte size, in recording order.
    pub fn from_trace(trace: &Trace) -> Self {
        let frames = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Capture { at, bytes, .. } => Some(ReplayFrame {
                    at_us: at.as_micros(),
                    bytes: (*bytes).max(1),
                }),
                _ => None,
            })
            .collect();
        ReplayFrames::new(frames)
    }

    /// The recorded captures, in capture order.
    pub fn frames(&self) -> &[ReplayFrame] {
        &self.frames
    }

    /// Number of recorded captures.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Time of the last capture relative to the start of the run (zero
    /// for an empty schedule).
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_micros(self.frames.last().map_or(0, |f| f.at_us))
    }
}

/// A position in a [`ReplayFrames`] schedule, yielding it through the
/// same interface as [`FrameSource`](crate::FrameSource). The schedule is
/// an argument of every call, so any number of cursors replay one copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCursor {
    next: usize,
}

impl ReplayCursor {
    /// Frames yielded so far.
    pub fn generated(&self) -> u64 {
        self.next as u64
    }

    /// Whether every recorded capture has been yielded.
    pub fn exhausted(&self, frames: &ReplayFrames) -> bool {
        self.next >= frames.len()
    }

    /// Capture instant of the next frame (the schedule's end when
    /// exhausted).
    pub fn next_capture_time(&self, frames: &ReplayFrames) -> SimTime {
        let at_us = frames
            .frames()
            .get(self.next)
            .map_or_else(|| frames.duration().as_micros(), |f| f.at_us);
        SimTime::from_micros(at_us)
    }

    /// Yield the next recorded frame, or `None` when exhausted. Ids are
    /// the replay sequence numbers, so each run's tags stay unique even
    /// if the recorded run numbered frames differently.
    pub fn next_frame(&mut self, frames: &ReplayFrames) -> Option<Frame> {
        let f = *frames.frames().get(self.next)?;
        let id = self.next as u64;
        self.next += 1;
        Some(Frame {
            id: FrameId(id),
            captured_at: SimTime::from_micros(f.at_us),
            bytes: f.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_trace::{TraceHeader, TraceRoute};

    fn schedule() -> ReplayFrames {
        ReplayFrames::new(vec![
            ReplayFrame {
                at_us: 0,
                bytes: 20_000,
            },
            ReplayFrame {
                at_us: 33_333,
                bytes: 24_000,
            },
            ReplayFrame {
                at_us: 66_666,
                bytes: 18_500,
            },
        ])
    }

    #[test]
    fn cursor_replays_recorded_times_and_sizes() {
        let frames = schedule();
        let mut c = ReplayCursor::default();
        assert!(!c.exhausted(&frames));
        assert_eq!(c.next_capture_time(&frames), SimTime::ZERO);
        let f0 = c.next_frame(&frames).unwrap();
        assert_eq!(f0.id, FrameId(0));
        assert_eq!(f0.bytes, 20_000);
        assert_eq!(c.next_capture_time(&frames), SimTime::from_micros(33_333));
        let f1 = c.next_frame(&frames).unwrap();
        assert_eq!(f1.captured_at, SimTime::from_micros(33_333));
        let f2 = c.next_frame(&frames).unwrap();
        assert_eq!(f2.bytes, 18_500);
        assert!(c.exhausted(&frames));
        assert!(c.next_frame(&frames).is_none());
        assert_eq!(c.generated(), 3);
    }

    #[test]
    fn duration_is_the_last_capture_time() {
        assert_eq!(schedule().duration(), SimDuration::from_micros(66_666));
        assert_eq!(
            ReplayFrames::new(Vec::new()).duration(),
            SimDuration::from_micros(0)
        );
    }

    #[test]
    fn from_trace_keeps_only_captures_in_order() {
        let trace = Trace {
            header: TraceHeader {
                fs: 30.0,
                deadline_us: 250_000,
                controller_period_us: 1_000_000,
                timeout_window_us: 3_000_000,
                probe_bytes: 25_000,
                seed: 7,
                controller: "framefeedback".into(),
                selection: 0,
                selection_margin: 0.0,
                local_accuracy: 0.68,
                remote_accuracy: 0.77,
            },
            events: vec![
                TraceEvent::Capture {
                    at: SimTime::ZERO,
                    frame_id: 0,
                    bytes: 21_000,
                    route: TraceRoute::Offload,
                },
                TraceEvent::LocalDone {
                    at: SimTime::from_micros(10_000),
                    n: 1,
                },
                TraceEvent::Capture {
                    at: SimTime::from_micros(33_333),
                    frame_id: 1,
                    bytes: 19_000,
                    route: TraceRoute::Local,
                },
            ],
        };
        let r = ReplayFrames::from_trace(&trace);
        assert_eq!(r.len(), 2);
        assert_eq!(r.frames()[0].bytes, 21_000);
        assert_eq!(r.frames()[1].at_us, 33_333);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_captures_rejected() {
        let _ = ReplayFrames::new(vec![
            ReplayFrame { at_us: 5, bytes: 1 },
            ReplayFrame { at_us: 4, bytes: 1 },
        ]);
    }

    #[test]
    #[should_panic(expected = "payload")]
    fn zero_byte_frames_rejected() {
        let _ = ReplayFrames::new(vec![ReplayFrame { at_us: 0, bytes: 0 }]);
    }
}
