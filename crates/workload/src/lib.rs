//! # ff-workload — frame streams and scenario schedules
//!
//! Generates the evaluation workloads of the paper:
//!
//! * [`FrameSource`] — a 30 fps, 4,000-frame compressed video stream with
//!   calibrated JPEG frame sizes (§IV-A, §IV-D),
//! * [`StepSchedule`] with [`table_v()`] / [`table_vi()`] — the exact
//!   network-degradation and server-load schedules of Tables V and VI,
//! * [`fig2_loss_injection()`] — the 7%-loss-at-27 s condition of Fig. 2,
//! * [`SceneScript`] / [`SemanticFilter`] — the content-aware layer:
//!   deterministic scene-change scripts scoring each frame's information
//!   content, and the `DiffProcessor`-style skip/shrink/pass filter stage
//!   (with [`scene_static()`], [`scene_bursty()`], [`scene_cut_storm()`]
//!   as first-class scenarios).

#![warn(missing_docs)]

mod filter;
mod frames;
mod mobility;
mod replay;
mod scenario;
mod scene;

pub use filter::{FilterConfig, FilterStats, FilterVerdict, SemanticFilter};
pub use frames::{
    Frame, FrameId, FrameSource, SourceState, StreamConfig, StreamParams, PAPER_DEADLINE_MS,
    PAPER_FPS, PAPER_TOTAL_FRAMES,
};
pub use mobility::{mobility_trace, MobilityConfig};
pub use replay::{ReplayCursor, ReplayFrame, ReplayFrames};
pub use scenario::{
    fig2_loss_injection, ideal_network, table_v, table_vi, BackgroundLoad, NetworkConditions,
    StepSchedule,
};
pub use scene::{scene_bursty, scene_cut_storm, scene_static, ScenePhase, SceneScript, SceneState};
