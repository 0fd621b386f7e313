//! Video frame stream generation.
//!
//! The paper's evaluation feeds each controller "a stream of 4,000 frames
//! at 30 frames per second" sourced from ImageNet (§IV-D). Here a
//! [`FrameSource`] produces the same thing: a fixed-cadence arrival
//! process with per-frame compressed sizes sampled around the JPEG model's
//! mean. The paper found webcam vs. ImageNet indistinguishable for
//! throughput, so only cadence and size distribution matter.

use crate::scene::{SceneScript, SceneState};
use ff_models::Compression;
use ff_sim::{round_nonneg_f64, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a captured frame, unique within one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FrameId(
    /// Zero-based capture sequence number.
    pub u64,
);

/// One captured (and JPEG-compressed) video frame, as seen by the
/// offloading system: payload bytes, never pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Stream-unique frame identifier.
    pub id: FrameId,
    /// Capture instant; the end-to-end deadline is measured from here.
    pub captured_at: SimTime,
    /// Compressed payload size in bytes.
    pub bytes: u64,
}

/// Configuration of a frame stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Source frame rate `F_s` (paper: 30 fps).
    pub fps: f64,
    /// Total frames to generate (paper: 4,000 ≈ 133 s).
    pub total_frames: u64,
    /// JPEG settings determining the size distribution.
    pub compression: Compression,
    /// Multiplicative size jitter half-width; sizes are uniform in
    /// `mean · [1−jitter, 1+jitter]`. ImageNet JPEG sizes vary with scene
    /// complexity; ±20% is typical for fixed quality.
    pub size_jitter: f64,
}

/// The paper's source frame rate.
pub(crate) const PAPER_FPS: f64 = 30.0;
/// The paper's stream length in frames.
pub(crate) const PAPER_TOTAL_FRAMES: u64 = 4_000;

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            fps: PAPER_FPS,
            total_frames: PAPER_TOTAL_FRAMES,
            compression: Compression::new(Compression::DEFAULT_QUALITY, 224),
            size_jitter: 0.2,
        }
    }
}

impl StreamConfig {
    /// Interval between consecutive frames.
    pub fn frame_interval(&self) -> SimDuration {
        assert!(self.fps > 0.0, "fps must be positive");
        SimDuration::from_secs_f64(1.0 / self.fps)
    }

    /// Why this stream cannot run, if it cannot: a frame rate that is
    /// not positive, or a size jitter outside `[0, 1)`.
    pub fn check(&self) -> Result<(), String> {
        match (self.fps > 0.0, (0.0..1.0).contains(&self.size_jitter)) {
            (false, _) => Err("fps must be positive".into()),
            (true, false) => Err("size jitter must be in [0, 1)".into()),
            (true, true) => Ok(()),
        }
    }

    /// Duration of the whole stream.
    pub fn stream_duration(&self) -> SimDuration {
        self.frame_interval() * self.total_frames
    }
}

/// What a stream's captures read besides the source's own state: the
/// configuration, with its float conversions done once. Devices that
/// share a stream configuration share one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    config: StreamConfig,
    /// `config.frame_interval()`, converted once: the float→µs
    /// conversion is too slow to repeat for every captured frame.
    interval: SimDuration,
    /// `config.compression.mean_frame_bytes()`, computed once.
    mean_bytes: f64,
}

impl StreamParams {
    /// Validated parameters of `config`.
    pub fn new(config: StreamConfig) -> Self {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        StreamParams {
            interval: config.frame_interval(),
            mean_bytes: config.compression.mean_frame_bytes() as f64,
            config,
        }
    }

    /// Capture instant of frame `n` (0-based).
    pub(crate) fn capture_time(&self, n: u64) -> SimTime {
        SimTime::ZERO + self.interval * n
    }
}

/// One source's own state: where its stream stands and the randomness
/// its next frame draws, generated against shared [`StreamParams`].
#[derive(Debug, Clone)]
pub struct SourceState<R: Rng> {
    rng: R,
    next_id: u64,
    /// Optional scene script evolving per-frame information scores on
    /// its own RNG stream. `None` (the default) leaves the stream
    /// bit-identical to a pre-scene source. Boxed: a fleet holds one
    /// source per device, and a scene-less one should not carry the
    /// script's and the second RNG's bytes.
    scene: Option<Box<Scene<R>>>,
}

/// What only a scene-scripted source has.
#[derive(Debug, Clone)]
struct Scene<R: Rng> {
    state: SceneState<R>,
    /// Information score of the most recent frame (`None` until the
    /// first frame).
    last_info: Option<f64>,
}

impl<R: Rng> SourceState<R> {
    /// A source at the start of its stream, with sizes drawn from `rng`.
    pub fn new(rng: R) -> Self {
        SourceState {
            rng,
            next_id: 0,
            scene: None,
        }
    }

    /// A source whose sizes are additionally modulated by a scene
    /// script. `scene_rng` must be a dedicated stream (e.g.
    /// `rng.stream("scene")`): the size-jitter stream advances exactly
    /// as without a script, so scene-off runs stay bit-identical.
    pub fn with_scene(rng: R, script: SceneScript, scene_rng: R) -> Self {
        let mut source = SourceState::new(rng);
        source.scene = Some(Box::new(Scene {
            state: SceneState::new(script, scene_rng),
            last_info: None,
        }));
        source
    }

    /// Frames generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Whether the stream `params` configure has been exhausted.
    pub fn exhausted(&self, params: &StreamParams) -> bool {
        self.next_id >= params.config.total_frames
    }

    /// Capture instant of the next frame [`Self::next_frame`] will
    /// produce: `params.capture_time(generated())`, one multiply rather
    /// than a stored instant per source.
    pub fn next_capture_time(&self, params: &StreamParams) -> SimTime {
        params.capture_time(self.next_id)
    }

    /// Produce the next frame, or `None` when the stream is exhausted.
    pub fn next_frame(&mut self, params: &StreamParams) -> Option<Frame> {
        if self.exhausted(params) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let captured_at = params.capture_time(id);
        let j = params.config.size_jitter;
        let factor = if j == 0.0 {
            1.0
        } else {
            self.rng.gen_range(1.0 - j..=1.0 + j)
        };
        let mut bytes = params.mean_bytes * factor;
        if let Some(scene) = &mut self.scene {
            let info = scene
                .state
                .next_info(captured_at.as_secs_f64(), params.config.fps);
            bytes *= scene.state.size_factor(info);
            scene.last_info = Some(info);
        }
        Some(Frame {
            id: FrameId(id),
            captured_at,
            bytes: round_nonneg_f64(bytes).max(1),
        })
    }

    /// Information score of the most recent frame, when a scene script
    /// is attached (`None` otherwise — the filter then sees every frame
    /// as full-information and passes it).
    pub fn last_info(&self) -> Option<f64> {
        self.scene.as_ref()?.last_info
    }
}

/// Deterministic generator of a frame stream that owns its parameters:
/// [`SourceState`] driven with its own [`StreamParams`].
#[derive(Debug, Clone)]
pub struct FrameSource<R: Rng> {
    params: StreamParams,
    state: SourceState<R>,
}

impl<R: Rng> FrameSource<R> {
    /// A source emitting the configured stream with sizes drawn from `rng`.
    pub fn new(config: StreamConfig, rng: R) -> Self {
        FrameSource {
            params: StreamParams::new(config),
            state: SourceState::new(rng),
        }
    }

    /// Produce the next frame, or `None` when the stream is exhausted.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.state.next_frame(&self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;
    use proptest::prelude::*;

    impl<R: Rng> FrameSource<R> {
        /// A source whose sizes are additionally modulated by a scene
        /// script, as the fleet's rows are.
        fn with_scene(config: StreamConfig, rng: R, script: SceneScript, scene_rng: R) -> Self {
            FrameSource {
                params: StreamParams::new(config),
                state: SourceState::with_scene(rng, script, scene_rng),
            }
        }

        fn generated(&self) -> u64 {
            self.state.generated()
        }

        fn exhausted(&self) -> bool {
            self.state.exhausted(&self.params)
        }

        fn last_info(&self) -> Option<f64> {
            self.state.last_info()
        }
    }

    fn source(cfg: StreamConfig) -> FrameSource<rand_chacha::ChaCha8Rng> {
        FrameSource::new(cfg, RngFactory::new(1).stream("frames"))
    }

    #[test]
    fn paper_stream_is_4000_frames_at_30fps() {
        let cfg = StreamConfig::default();
        assert_eq!(cfg.fps, 30.0);
        assert_eq!(cfg.total_frames, 4_000);
        // 4000 frames / 30 fps ≈ 133.3 s.
        let d = cfg.stream_duration().as_secs_f64();
        assert!((d - 133.33).abs() < 0.1, "stream lasts {d:.2}s");
    }

    #[test]
    fn frames_arrive_at_fixed_cadence() {
        let mut s = source(StreamConfig::default());
        let f0 = s.next_frame().unwrap();
        let f1 = s.next_frame().unwrap();
        let f2 = s.next_frame().unwrap();
        assert_eq!(f0.captured_at, SimTime::ZERO);
        let gap1 = f1.captured_at - f0.captured_at;
        let gap2 = f2.captured_at - f1.captured_at;
        assert_eq!(gap1, gap2);
        assert!((gap1.as_secs_f64() - 1.0 / 30.0).abs() < 1e-5);
    }

    #[test]
    fn ids_are_sequential_and_stream_exhausts() {
        let mut cfg = StreamConfig::default();
        cfg.total_frames = 5;
        let mut s = source(cfg);
        let ids: Vec<u64> = std::iter::from_fn(|| s.next_frame())
            .map(|f| f.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(s.exhausted());
        assert!(s.next_frame().is_none());
        assert_eq!(s.generated(), 5);
    }

    #[test]
    fn sizes_jitter_around_the_compression_mean() {
        let cfg = StreamConfig::default();
        let mean = cfg.compression.mean_frame_bytes() as f64;
        let mut s = source(cfg);
        let sizes: Vec<u64> = std::iter::from_fn(|| s.next_frame())
            .map(|f| f.bytes)
            .collect();
        let lo = mean * (1.0 - cfg.size_jitter) - 1.0;
        let hi = mean * (1.0 + cfg.size_jitter) + 1.0;
        for &b in &sizes {
            assert!(
                (lo..=hi).contains(&(b as f64)),
                "size {b} outside [{lo}, {hi}]"
            );
        }
        let avg = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn zero_jitter_gives_constant_sizes() {
        let mut cfg = StreamConfig::default();
        cfg.size_jitter = 0.0;
        let mut s = source(cfg);
        let a = s.next_frame().unwrap().bytes;
        let b = s.next_frame().unwrap().bytes;
        assert_eq!(a, b);
        assert_eq!(a, cfg.compression.mean_frame_bytes());
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = StreamConfig::default();
        let mut a = FrameSource::new(cfg, RngFactory::new(9).stream("frames"));
        let mut b = FrameSource::new(cfg, RngFactory::new(9).stream("frames"));
        for _ in 0..100 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn unit_jitter_rejected() {
        let mut cfg = StreamConfig::default();
        cfg.size_jitter = 1.0;
        let _ = source(cfg);
    }

    #[test]
    fn scene_modulation_draws_from_its_own_stream() {
        // A scene-scripted source must consume the frame-size stream in
        // exactly the pre-scene order: stripping the scene modulation
        // off its sizes recovers the plain source's sizes bit for bit.
        let cfg = StreamConfig::default();
        let rng = RngFactory::new(5);
        let mut plain = FrameSource::new(cfg, rng.stream("frames"));
        let mut scened = FrameSource::with_scene(
            cfg,
            rng.stream("frames"),
            crate::scene::scene_bursty(),
            rng.stream("scene"),
        );
        assert!(plain.last_info().is_none());
        for _ in 0..300 {
            let p = plain.next_frame().unwrap();
            let s = scened.next_frame().unwrap();
            assert_eq!(p.id, s.id);
            assert_eq!(p.captured_at, s.captured_at);
            let info = scened.last_info().expect("scene source scores frames");
            assert!((0.0..=1.0).contains(&info));
            // Same jitter draw underneath: the scened size divided by
            // the scene factor rounds back to the plain size (±1 for
            // the double rounding).
            let factor = 1.0 + 0.5 * (2.0 * info - 1.0);
            let recovered = (s.bytes as f64 / factor).round() as i64;
            assert!(
                (recovered - p.bytes as i64).abs() <= 1,
                "frame {}: recovered {recovered} vs plain {}",
                p.id.0,
                p.bytes
            );
        }
    }

    #[test]
    fn scene_source_is_deterministic_at_a_seed() {
        let cfg = StreamConfig::default();
        let make = || {
            let rng = RngFactory::new(77);
            FrameSource::with_scene(
                cfg,
                rng.stream("frames"),
                crate::scene::scene_cut_storm(),
                rng.stream("scene"),
            )
        };
        let mut a = make();
        let mut b = make();
        for _ in 0..500 {
            assert_eq!(a.next_frame(), b.next_frame());
            assert_eq!(
                a.last_info().map(f64::to_bits),
                b.last_info().map(f64::to_bits)
            );
        }
    }

    proptest! {
        /// Capture times are exactly periodic for any valid fps.
        #[test]
        fn prop_capture_times_periodic(fps in 1.0f64..120.0, n in 1u64..100) {
            let mut cfg = StreamConfig::default();
            cfg.fps = fps;
            let s = source(cfg);
            let t_n = s.params.capture_time(n).as_micros();
            let t_1 = s.params.capture_time(1).as_micros();
            // Within rounding, t_n == n * t_1.
            prop_assert!((t_n as i128 - (n as i128) * (t_1 as i128)).abs() <= n as i128);
        }
    }
}
