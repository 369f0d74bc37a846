//! The metric tables (`BENCHMARK.json` lists the same names and units)
//! and the result line.

use serde_json::{Map, Number, Value};
use std::collections::HashMap;
use std::time::Duration;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ratio_lb_geomean", "ratio"),
    ("proven_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// The engines whose attempts are broken out per method.
pub const ENGINES: [&str; 8] = [
    "bjw",
    "alg1",
    "exact-q2",
    "exact-r2",
    "fptas",
    "greedy",
    "branch-and-bound",
    "cp",
];

/// Per-layer metrics, printed by a traced run (`engine.<method>.ms` and
/// `engine.<method>.calls` for each of [`ENGINES`] are appended by
/// [`per_layer`]).
const LAYERS: &[(&str, &str)] = &[
    ("canonical.canonicalize_us_p50", "us"),
    ("canonical.canonicalize_us_p90", "us"),
    ("canonical.share", "frac"),
    ("canonical.translate_us", "us"),
    ("canonical.cert_bytes", "bytes"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("io.into_instance_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("frame.decode_us", "us"),
    ("frame.encode_us", "us"),
    ("schedule.validate_us", "us"),
    ("cache.hit_frac", "frac"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("worker.queue_wait_ms_p50", "ms"),
    ("worker.queue_wait_ms_p99", "ms"),
    ("worker.batch_size_mean", "jobs"),
    ("worker.busy", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.dispatch_us", "us"),
    ("solver.attempts_per_solve", "count"),
    ("fptas.expanded", "count"),
    ("fptas.peak_states", "count"),
    ("bnb.nodes", "count"),
    ("bnb.prunes_per_node", "ratio"),
    ("cp.nodes", "count"),
    ("cp.propagations", "count"),
    ("race.ms", "ms"),
    ("race.cancelled", "count"),
    ("race.winner_cp_frac", "frac"),
    ("service.server_ms_p50", "ms"),
    ("transport.us", "us"),
    ("client.us_per_req", "us"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric as `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for engine in ENGINES {
        all.push((format!("engine.{engine}.ms"), "ms"));
        all.push((format!("engine.{engine}.calls"), "count"));
    }
    all
}

/// Counters that must repeat exactly for one seed on a traced run. The
/// race-dependent search counters of `race-exact` are not among them.
pub fn exact_counters(race: bool) -> Vec<String> {
    let mut names: Vec<String> = [
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "canonical.cert_bytes",
        "protocol.request_bytes",
        "solver.attempts_per_solve",
        "fptas.expanded",
        "fptas.peak_states",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(ENGINES.iter().map(|e| format!("engine.{e}.calls")));
    if !race {
        names.extend(["bnb.nodes", "cp.nodes", "cp.propagations"].map(String::from));
    }
    names
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `table` with its unit. Fails when a metric was not measured.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    table: &[(String, &str)],
    values: &HashMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = Map::new();
    for (name, unit) in table {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let mut m = Map::new();
        m.insert("value".to_string(), Value::Number(Number::from_f64(v)));
        m.insert("unit".to_string(), Value::String(unit.to_string()));
        metrics.insert(name.clone(), Value::Object(m));
    }
    let mut out = Map::new();
    out.insert("correct".to_string(), Value::Bool(correct));
    out.insert(
        "attempted".to_string(),
        Value::Number(Number::from_u64(attempted as u64)),
    );
    out.insert(
        "failed".to_string(),
        Value::Number(Number::from_u64(failed as u64)),
    );
    out.insert("metrics".to_string(), Value::Object(metrics));
    Ok(Value::Object(out).to_string())
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Durations in microseconds.
pub fn micros(ds: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    ds.into_iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
