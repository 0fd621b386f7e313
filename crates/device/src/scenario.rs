//! Named scenarios: every evaluation setting that a name selects, built
//! in one place.
//!
//! [`SCENARIO_NAMES`] lists them. The paper's own settings are the ideal
//! network, the Table V network degradation (Figure 3), the Table VI
//! server load (Figure 4), both at once (§IV-C), and Figure 2's loss
//! injection. `report -- run --scenario <name>` runs one; the other
//! entries of the `ff-bench` report catalogue build their runs from
//! them.
//!
//! The three `scene-*` scenarios are the content-aware extension. The
//! paper evaluates on uniform frame streams; these ask what happens
//! when *what is in the frames* varies. Each pairs a deterministic
//! [`SceneScript`] (per-frame information scores on a dedicated RNG
//! stream) with a network that collapses mid-run, a semantic
//! [`FilterConfig`], and an asymmetric model pair: MobileNetV3Small on
//! the device, EfficientNetB0 on the server. The remote model is more
//! accurate, so the
//! [`ModelSelection::ExpectedAccuracy`](crate::ModelSelection) policy
//! has a real trade to make — offload for accuracy while the deadline
//! risk is low, fall back to the local model when the collapsed network
//! would eat the remote edge. [`content_scenarios`] is them as a sweep
//! axis.

use crate::experiment::ExperimentConfig;
use ff_models::{DeviceKind, ModelKind};
use ff_net::NetworkConditions;
use ff_workload::{
    fig2_loss_injection, ideal_network, scene_bursty, scene_cut_storm, scene_static, table_v,
    table_vi, FilterConfig, SceneScript, StepSchedule,
};

/// Every name [`scenario`] builds, in canonical order.
pub const SCENARIO_NAMES: [&str; 8] = [
    "ideal",
    "table5",
    "table6",
    "combined",
    "fig2",
    "scene-static",
    "scene-bursty",
    "scene-cut-storm",
];

/// The content scenarios' network: healthy, then a hard collapse window
/// (sub-megabit uplink plus loss, far past the point where a 250 ms
/// deadline survives a full frame), then recovery. The window is placed
/// per scenario — the whole point of the content axis is *what the
/// camera sees while the network is down*.
fn collapse_network(start_secs: f64, end_secs: f64) -> StepSchedule<NetworkConditions> {
    let c = NetworkConditions::new;
    StepSchedule::new(vec![
        (0.0, c(10.0, 0.0)),
        (start_secs, c(0.8, 7.0)),
        (end_secs, c(10.0, 0.0)),
    ])
}

fn content_config(
    script: SceneScript,
    network: StepSchedule<NetworkConditions>,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    // The fastest Pi of Table II: 13.4 fps on MobileNetV3Small, so the
    // filtered calm-phase stream (~7-8 fps) fits on-device with headroom.
    config.device = DeviceKind::Pi4BRev14;
    config.network = network;
    config.scene = Some(script);
    // Stricter than the default filter: a static camera's resting
    // information (~0.15) sits below `skip_below`, so calm stretches are
    // mostly near-duplicates and the survivors fit the local engine.
    config.filter = Some(FilterConfig {
        skip_below: 0.22,
        shrink_below: 0.4,
        shrink_factor: 0.5,
    });
    config.remote_model = Some(ModelKind::EfficientNetB0);
    config
}

/// Build one scenario by name (see [`SCENARIO_NAMES`]); `None` for any
/// other name.
///
/// The returned config keeps the default seed, stream length and
/// `selection` (the legacy `ModelSelection::AlwaysPaper`); callers
/// override those fields.
pub fn scenario(name: &str) -> Option<ExperimentConfig> {
    let mut config = ExperimentConfig::default();
    match name {
        "ideal" => {
            config.network = ideal_network();
            config.peer_devices = 0;
        }
        "table5" => config.network = table_v(),
        // The Table VI rates are the *entire* injected volume, so the
        // two peer devices of the network experiment are folded into
        // the schedule.
        "table6" => {
            config.background = table_vi();
            config.peer_devices = 0;
        }
        "combined" => {
            config.network = table_v();
            config.background = table_vi();
            config.peer_devices = 0;
        }
        "fig2" => config.network = fig2_loss_injection(),
        // Collapse windows are scenario-specific: for the static and
        // bursty scenes the network dies during a calm stretch (the
        // filtered stream fits the local model, so accuracy-aware
        // demotion has somewhere to go); for the cut storm it dies
        // mid-storm, when every frame matters and no policy can save the
        // run — the honest negative control.
        "scene-static" => config = content_config(scene_static(), collapse_network(25.0, 50.0)),
        "scene-bursty" => config = content_config(scene_bursty(), collapse_network(30.0, 50.0)),
        "scene-cut-storm" => {
            config = content_config(scene_cut_storm(), collapse_network(30.0, 50.0))
        }
        _ => return None,
    }
    Some(config)
}

/// The content scenarios (those carrying a scene script) as labelled
/// configs, in canonical order — the exact shape of a sweep spec's
/// `scenarios` axis.
pub fn content_scenarios() -> Vec<(String, ExperimentConfig)> {
    SCENARIO_NAMES
        .iter()
        .filter_map(|&name| {
            let config = scenario(name).expect("canonical name");
            config.scene.is_some().then(|| (name.to_string(), config))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::ModelSelection;

    #[test]
    fn every_canonical_name_builds() {
        for (name, config) in content_scenarios() {
            assert!(config.filter.is_some(), "{name} must carry a filter");
            assert_eq!(config.remote_model, Some(ModelKind::EfficientNetB0));
            assert_eq!(config.selection, ModelSelection::AlwaysPaper);
        }
        assert!(scenario("scene-nope").is_none());
    }

    #[test]
    fn scenario_axis_matches_canonical_order() {
        let labels: Vec<String> = content_scenarios().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["scene-static", "scene-bursty", "scene-cut-storm"]);
    }
}
