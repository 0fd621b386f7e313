//! The controller vocabulary: the one place a controller name becomes a
//! controller.

use ff_baselines::{AllOrNothing, AlwaysOffload, LocalOnly};
use ff_core::{Controller, FrameFeedback, PidConfig};
use serde::{Deserialize, Serialize};

/// A controller recipe: serializable and `Send`, so a sweep cell can
/// carry it to the thread that builds and runs the controller
/// (`Box<dyn Controller>` is neither). [`ControllerSpec::from_name`]
/// reads the names a trace header or a command line carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// The paper's closed-loop controller with explicit Table IV gains.
    FrameFeedback(PidConfig),
    /// Never offload (§IV-B baseline).
    LocalOnly,
    /// Offload every frame (§IV-B baseline).
    AlwaysOffload,
    /// Offload all while heartbeats succeed, else nothing (§IV-B).
    AllOrNothing,
}

impl ControllerSpec {
    /// The paper's controller with default Table IV settings.
    pub fn framefeedback() -> Self {
        ControllerSpec::FrameFeedback(PidConfig::default())
    }

    /// The four controllers of §IV-B, as `(name, spec)` pairs in the
    /// order every comparison table and chart lists them. The names are
    /// the controllers' own [`Controller::name`]s.
    pub fn lineup() -> Vec<(String, ControllerSpec)> {
        vec![
            ("framefeedback".into(), Self::framefeedback()),
            ("local-only".into(), ControllerSpec::LocalOnly),
            ("always-offload".into(), ControllerSpec::AlwaysOffload),
            ("all-or-nothing".into(), ControllerSpec::AllOrNothing),
        ]
    }

    /// The lineup controller called `name`, with default settings.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::lineup()
            .into_iter()
            .find_map(|(label, spec)| (label == name).then_some(spec))
    }

    /// Construct the controller this spec describes.
    pub fn build(&self) -> Box<dyn Controller> {
        match self {
            ControllerSpec::FrameFeedback(cfg) => Box::new(FrameFeedback::with_config(*cfg)),
            ControllerSpec::LocalOnly => Box::new(LocalOnly::new()),
            ControllerSpec::AlwaysOffload => Box::new(AlwaysOffload::new()),
            ControllerSpec::AllOrNothing => Box::new(AllOrNothing::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lineup_name_round_trips_to_a_controller_of_that_name() {
        for (name, spec) in ControllerSpec::lineup() {
            assert_eq!(ControllerSpec::from_name(&name), Some(spec.clone()));
            assert_eq!(spec.build().name(), name);
        }
        assert_eq!(ControllerSpec::from_name("nope"), None);
    }
}
