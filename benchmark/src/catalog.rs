//! The metric names, units, directions and bounds of `BENCHMARK.json`,
//! as the program uses them. A test holds the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, regression bound.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, each defined on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("frames_per_s", "1/s", Better::Higher, 0.25),
    ("cpu_us_per_frame", "us", Better::Lower, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.15),
    ("device_goodput_fps", "fps", Better::Higher, 0.01),
    ("deadline_hit_share", "share", Better::Higher, 0.01),
    ("completed_share", "share", Better::Higher, 0.001),
    ("result_identical", "bool", Better::Higher, 0.0),
];

/// A per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. The prefix is the crate.
pub const PER_LAYER: [PerLayer; 62] = [
    ("sim.wheel_push_pop_ns", "ns", Lower),
    ("sim.heap_push_pop_ns", "ns", Lower),
    ("sim.events_per_s.served", "1/s", Higher),
    ("sim.events_per_s.cold", "1/s", Higher),
    ("sim.phased_round_ns", "ns", Lower),
    ("net.link_send_ns.ideal", "ns", Lower),
    ("net.link_send_ns.lossy7", "ns", Lower),
    ("core.controller_update_ns", "ns", Lower),
    ("device.runtime_frame_ns", "ns", Lower),
    ("device.ns_per_event.served", "ns", Lower),
    ("device.ns_per_event.cold", "ns", Lower),
    ("device.shard2_over_shard1.served", "ratio", Lower),
    ("device.minor_faults_per_rep.cold", "count", Lower),
    ("device.sys_cpu_share.cold", "share", Lower),
    ("server.submit_batch_ns", "ns", Lower),
    ("server.tier_submit_ns.po2", "ns", Lower),
    ("server.tier_submit_ns.jsq", "ns", Lower),
    ("server.mean_batch.served", "count", Higher),
    ("server.reject_share.served", "share", Lower),
    ("server.reject_share.cold", "share", Lower),
    ("workload.frame_gen_ns", "ns", Lower),
    ("metrics.histogram_record_ns", "ns", Lower),
    ("metrics.qos_push_ns", "ns", Lower),
    ("telemetry.record_ns", "ns", Lower),
    ("telemetry.overhead_share.served", "share", Lower),
    ("trace.encode_ns_per_event", "ns", Lower),
    ("trace.overhead_share.experiment", "share", Lower),
    ("trace.replay_verify_ms", "ms", Lower),
    ("sweep.parallel_speedup", "ratio", Higher),
    ("sweep.cells_per_s", "1/s", Higher),
    ("sweep.cache_write_us_per_cell", "us", Lower),
    ("sweep.cache_read_us_per_cell", "us", Lower),
    ("reactor.encode_request_ns", "ns", Lower),
    ("reactor.decode_request_ns", "ns", Lower),
    ("reactor.encode_response_ns", "ns", Lower),
    ("reactor.decode_response_ns", "ns", Lower),
    ("reactor.server_cpu_us_per_frame", "us", Lower),
    ("reactor.client_cpu_us_per_frame", "us", Lower),
    ("reactor.ready_events_per_frame", "count", Lower),
    ("reactor.coalesced_writes_per_frame", "count", Higher),
    ("reactor.writer_drops", "count", Lower),
    ("reactor.rtt_p50_ms", "ms", Lower),
    ("reactor.rtt_p99_ms", "ms", Lower),
    ("reactor.small_msg_frames_per_s", "1/s", Higher),
    ("reactor.backpressure_reject_share", "share", Lower),
    ("reactor.rtt_p50_ms.at25", "ms", Lower),
    ("reactor.rtt_p99_ms.at25", "ms", Lower),
    ("reactor.rtt_p50_ms.at50", "ms", Lower),
    ("reactor.rtt_p99_ms.at50", "ms", Lower),
    ("reactor.rtt_p50_ms.at75", "ms", Lower),
    ("reactor.rtt_p99_ms.at75", "ms", Lower),
    ("reactor.gen_lateness_p99_ms", "ms", Lower),
    ("reactor.paced64_cpu_us_per_frame", "us", Lower),
    ("reactor.paced64_goodput_fps", "fps", Higher),
    ("reactor.paced64_vs_sim_fps", "fps", Higher),
    ("live.json_encode_ns", "ns", Lower),
    ("live.json_decode_ns", "ns", Lower),
    ("host.rep_median_ms", "ms", Lower),
    ("host.rep_iqr_share", "share", Lower),
    ("host.first_rep_penalty_ms", "ms", Lower),
    ("host.trace_overhead_share", "share", Lower),
    ("host.cores", "count", Higher),
];

/// Unit of a per-layer metric. Panics on a name the catalog lacks: a
/// measurement nobody listed is a bug in this program.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("per-layer metric {name:?} is not in the catalog"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use serde::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&body).expect("BENCHMARK.json parses")
    }

    fn text<'v>(v: &'v Value, key: &str) -> &'v str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn number(v: &Value, key: &str) -> f64 {
        match v.get(key) {
            Some(Value::F64(f)) => *f,
            Some(Value::U64(u)) => *u as f64,
            other => panic!("{key}: expected a number, found {other:?}"),
        }
    }

    #[test]
    fn the_manifest_lists_exactly_the_workloads_the_program_runs() {
        let m = manifest();
        let listed: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(listed, NAMES);
    }

    #[test]
    fn the_manifest_and_the_program_agree_on_every_end_to_end_metric() {
        let m = manifest();
        let listed: Vec<(&str, &str, &str, f64)> = m
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|e| {
                (
                    text(e, "name"),
                    text(e, "unit"),
                    text(e, "better"),
                    number(e, "bound"),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n, u, b.word(), bound))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn the_manifest_and_the_program_agree_on_every_per_layer_metric() {
        let m = manifest();
        let listed: Vec<(&str, &str, &str)> = m
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer")
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n, u, b.word()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|p| p.0))
            .chain(NAMES)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
