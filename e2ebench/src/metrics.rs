//! The metric catalog — every name and unit the benchmark may print —
//! and the shape of one run's result. `BENCHMARK.json` at the repo root
//! lists exactly these names; a unit test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::num;

/// A metric's name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Every workload `--workload` accepts: the gated ones in
/// `BENCHMARK.json` order, then the ones kept as diagnostics.
pub const WORKLOADS: [&str; 4] = [
    "lane_http_topk",
    "lane_conn_diff",
    "history_mixed",
    "served_queries",
];

/// How many of [`WORKLOADS`] `BENCHMARK.json` lists, and so gates.
/// `served_queries` is not one of them: its time is the frontend's
/// wall-clock-paced idle ticks and the growth of a deployment that never
/// shrinks, neither of which repeats on a shared host (README, finding
/// 12); it runs by hand and prints the same metrics.
pub const GATED: usize = 3;

/// End-to-end metrics; every workload reports all three from the
/// untraced run.
pub const END_TO_END: [MetricDef; 3] = [
    m("setup_s", "s", "lower"),
    m("goodput_per_s", "1/s", "higher"),
    m("result_latency_p50_ms", "ms", "lower"),
];

/// Per-layer metrics, reported by the traced run. A metric whose layer a
/// workload does not exercise reads `0` there.
pub const PER_LAYER: [MetricDef; 65] = [
    m("packet.view_ns_per_pkt", "ns", "lower"),
    m("monitor.sample_ns_per_pkt", "ns", "lower"),
    m("monitor.parse_ns_per_pkt", "ns", "lower"),
    m("monitor.seal_ns_per_row", "ns", "lower"),
    m("monitor.tuples_per_pkt", "ratio", "higher"),
    m("monitor.offer_block_ns_per_pkt", "ns", "lower"),
    m("monitor.capture_to_ship_p50_us", "us", "lower"),
    m("monitor.queue_drops", "count", "lower"),
    m("monitor.sampler_drops", "count", "lower"),
    m("data.encode_ns_per_row", "ns", "lower"),
    m("data.decode_ns_per_row", "ns", "lower"),
    m("data.to_rows_ns_per_row", "ns", "lower"),
    m("data.wire_bytes_per_row", "bytes", "lower"),
    m("queue.ship_ns_per_row", "ns", "lower"),
    m("queue.poll_ns_per_row", "ns", "lower"),
    m("queue.dwell_p50_us", "us", "lower"),
    m("queue.dwell_p99_us", "us", "lower"),
    m("queue.depth_max", "count", "lower"),
    m("queue.dropped", "count", "lower"),
    m("queue.lag_end", "count", "lower"),
    m("stream.offer_ns_per_tuple", "ns", "lower"),
    m("stream.tick_us", "us", "lower"),
    m("stream.poll_output_ns_per_row", "ns", "lower"),
    m("stream.rows_per_input", "ratio", "higher"),
    m("stream.stop_drain_ms", "ms", "lower"),
    m("stream.shed", "count", "lower"),
    m("stream.driver_busy_share", "ratio", "lower"),
    m("store.sink_ns_per_row", "ns", "lower"),
    m("stream.hub_publish_ns_per_row", "ns", "lower"),
    m("stream.hub_shed", "count", "lower"),
    m("store.append_ns_per_tuple", "ns", "lower"),
    m("store.bytes_per_tuple", "bytes", "lower"),
    m("store.open_ms", "ms", "lower"),
    m("store.history_pushdown_p50_us", "us", "lower"),
    m("store.history_edge_p50_us", "us", "lower"),
    m("store.history_sketch_p50_us", "us", "lower"),
    m("store.range_p50_us", "us", "lower"),
    m("store.append_beside_reads_p50_us", "us", "lower"),
    m("store.plan_cells_per_query", "count", "lower"),
    m("store.plan_raw_tuples_per_query", "count", "lower"),
    m("core.tuple_json_ns_per_row", "ns", "lower"),
    m("telemetry.serve_p50_us", "us", "lower"),
    m("telemetry.http_roundtrip_us", "us", "lower"),
    m("telemetry.ndjson_lines_per_s", "1/s", "higher"),
    m("core.submit_ms_p50", "ms", "lower"),
    m("core.first_line_ms_p50", "ms", "lower"),
    m("core.describe_ms_p50", "ms", "lower"),
    m("core.results_ms_p50", "ms", "lower"),
    m("core.kill_ms_p50", "ms", "lower"),
    m("core.first_line_drift_pct", "%", "lower"),
    m("query.parse_compile_us", "us", "lower"),
    m("netsim.virtual_ms_per_wall_ms", "ratio", "higher"),
    m("bench.threaded_saturation_per_s", "1/s", "higher"),
    m("bench.result_latency_p99_ms", "ms", "lower"),
    m("bench.paced_latency_p50_ms", "ms", "lower"),
    m("bench.paced_latency_p99_ms", "ms", "lower"),
    m("bench.paced_latency_samples", "count", "higher"),
    m("bench.gen_late_p99_ms", "ms", "lower"),
    m("bench.cpu_us_per_input", "us", "lower"),
    m("bench.peak_rss_mb", "MB", "lower"),
    m("bench.calib_slice_us", "us", "lower"),
    m("bench.goodput_wall_per_s", "1/s", "higher"),
    m("bench.stretch_spread_pct", "%", "lower"),
    m("bench.stepped_unattributed_pct", "%", "lower"),
    m("bench.trace_overhead_pct", "%", "lower"),
];

/// Values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Inputs offered: packets, operations or cycles.
    pub attempted: u64,
    /// Inputs not accounted for, wrong, or refused.
    pub failed: u64,
    /// Reference checks that did not hold, in words. Empty means correct.
    pub wrong: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub values: Values,
}

impl RunOutput {
    /// Notes a failed reference check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// Whether every reference check held.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every
    /// metric of `defs` (missing ones read `0`).
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            s.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            ));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(d
                .name
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c)));
            assert!(d
                .unit
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let f = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        let sorted = |mut v: Vec<(String, String, String)>| {
            v.sort();
            v
        };
        assert_eq!(sorted(names("end_to_end")), sorted(want(&END_TO_END)));
        assert_eq!(sorted(names("per_layer")), sorted(want(&PER_LAYER)));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS[..GATED]);
        // The A/A table judges spreads against these same bounds.
        for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(crate::BOUNDS.contains(&(name, bound)), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput {
            attempted: 10,
            failed: 1,
            ..RunOutput::default()
        };
        out.values.insert("setup_s", 0.5);
        out.values.insert("goodput_per_s", 1234.5678);
        let line = out.result_line(&END_TO_END);
        let j = Json::parse(&line).expect("valid JSON");
        let Json::Obj(top) = &j else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let metrics = j.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("goodput_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1234.5678)
        );
        assert_eq!(
            metrics
                .get("result_latency_p50_ms")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("ms")
        );
        out.check(false, || "x".into());
        assert!(out.result_line(&END_TO_END).contains("\"correct\": false"));
    }
}
