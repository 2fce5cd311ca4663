//! Metric names, units and the result line.

use spt_util::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one, from untraced
/// runs. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("inst_per_ref", "inst/ref"),
    ("inst_per_ref.unsafe", "inst/ref"),
    ("inst_per_ref.spt", "inst/ref"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// reach reports 0. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("isa.image_load_ms", "ms"),
    ("isa.interp_ms", "ms"),
    ("mem.construct_ms", "ms"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1d_miss_rate", "frac"),
    ("mem.l2_miss_rate", "frac"),
    ("mem.l3_miss_rate", "frac"),
    ("mem.mshr_rejections", "count"),
    ("frontend.predictions", "count"),
    ("frontend.cond_mispredict_rate", "frac"),
    ("core.untaint_events", "count"),
    ("core.untainting_cycles", "count"),
    ("core.broadcasts_deferred", "count"),
    ("core.transmitter_delay_cycles", "count"),
    ("core.resolution_delay_cycles", "count"),
    ("core.spt_host_cost", "ratio"),
    ("ooo.construct_ms", "ms"),
    ("ooo.cycles", "count"),
    ("ooo.idle_cycle_frac", "frac"),
    ("ooo.ns_per_idle_cycle", "ns"),
    ("ooo.ns_per_busy_cycle", "ns"),
    ("ooo.wrong_path_frac", "frac"),
    ("ooo.squashes", "count"),
    ("util.trace_bytes_per_inst", "B/inst"),
    ("util.trace_emit_overhead", "ratio"),
    ("util.telemetry_overhead", "ratio"),
    ("util.trace_parse_mb_per_s", "MB/s"),
    ("util.digest_ms", "ms"),
    ("fuzz.generate_ms", "ms"),
    ("fuzz.differential_ms", "ms"),
    ("fuzz.relational_ms", "ms"),
    ("fuzz.machines_per_program", "count"),
    ("attrib.align_ms", "ms"),
    ("attrib.diff_ms", "ms"),
    ("attrib.aligned_frac", "frac"),
    ("tracing.minstr_per_s_delta", "Minst/s"),
];

/// Metric values gathered by one run, with their sample counts.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Records `value`, computed from `samples` measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// The registered metrics of one kind, in registry order, each as
    /// `(name, unit, value, samples)`; a metric not recorded is 0 with no
    /// samples (a layer the workload did not reach).
    pub fn table(&self, traced: bool) -> Vec<(&'static str, &'static str, f64, usize)> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        names
            .iter()
            .map(|&(n, u)| {
                let (v, s) = self.values.get(n).copied().unwrap_or((0.0, 0));
                (n, u, v, s)
            })
            .collect()
    }

    /// Values recorded under names in neither registry: figures the run
    /// record keeps but the result line does not gate.
    pub fn extras(&self) -> Vec<(&'static str, f64, usize)> {
        let registered = |n: &str| END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == n);
        self.values.iter().filter(|(n, _)| !registered(n)).map(|(n, v)| (*n, v.0, v.1)).collect()
    }
}

/// The result line the benchmark prints last on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> Json {
    let m = metrics
        .table(traced)
        .into_iter()
        .map(|(n, u, v, _)| (n, Json::obj([("value", Json::F64(v)), ("unit", Json::str(u))])));
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::obj(m)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "illegal metric name {n}");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("wall_ref", 1.25, 3);
        let line = result_line(true, 4, 0, &m, false);
        let back = Json::parse(&line.to_string()).unwrap();
        let metrics = back.get("metrics").unwrap();
        assert_eq!(
            metrics.get("wall_ref").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(4));
        match metrics {
            Json::Obj(p) => assert_eq!(p.len(), END_TO_END.len()),
            _ => panic!("metrics is an object"),
        }
    }
}
