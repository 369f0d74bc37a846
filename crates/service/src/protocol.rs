//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out. See `PROTOCOL.md` for the full schema
//! and examples.

use crate::exemplar::TraceData;
use bisched_core::{EngineOutcome, EngineRun, Method, MethodPolicy, SolveError, SolverConfig};
use bisched_model::InstanceData;
use serde::{Deserialize, Serialize};

/// A client request. `verb` selects the action; the remaining fields are
/// verb-specific and optional on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    /// `"solve"`, `"stats"`, `"metrics"`, `"trace"`, `"ping"`, or
    /// `"shutdown"`.
    pub verb: String,
    /// Client correlation id, echoed verbatim in the response.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// The instance to solve (`solve` only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub instance: Option<InstanceData>,
    /// Per-request FPTAS accuracy override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eps: Option<f64>,
    /// Per-request forced method (engine name, e.g. `"fptas"`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub method: Option<String>,
    /// Per-request portfolio (engine names; wins over `method`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub portfolio: Option<Vec<String>>,
    /// Per-request CP decision-node budget override (`"cp"` method and
    /// portfolio members).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cp_node_limit: Option<u64>,
    /// Per-request wall-clock budget, in milliseconds, for a whole
    /// portfolio race.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub race_deadline_ms: Option<u64>,
    /// Skip the cache lookup (the result is still stored).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub no_cache: Option<bool>,
    /// Restrict a `trace` request to one shard's exemplar ring (the
    /// merged all-shard view is returned when absent).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard: Option<u64>,
    /// Frame encoding requested by an `upgrade` verb (`"binary"` is the
    /// only non-default; see `PROTOCOL.md` §v2).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub frame: Option<String>,
}

impl Request {
    /// A bare request with just a verb.
    pub fn verb(verb: &str) -> Self {
        Request {
            verb: verb.to_string(),
            id: None,
            instance: None,
            eps: None,
            method: None,
            portfolio: None,
            cp_node_limit: None,
            race_deadline_ms: None,
            no_cache: None,
            shard: None,
            frame: None,
        }
    }

    /// A solve request for `instance`.
    pub fn solve(instance: InstanceData) -> Self {
        let mut r = Request::verb("solve");
        r.instance = Some(instance);
        r
    }

    /// Resolves the per-request overrides against the server's base
    /// configuration.
    pub fn solver_config(&self, base: &SolverConfig) -> Result<SolverConfig, String> {
        let mut config = base.clone();
        if let Some(eps) = self.eps {
            config = config.eps(eps);
        }
        if let Some(nodes) = self.cp_node_limit {
            config = config.cp_node_limit(nodes);
        }
        if let Some(ms) = self.race_deadline_ms {
            config = config.race_deadline(Some(std::time::Duration::from_millis(ms)));
        }
        if let Some(names) = &self.portfolio {
            let methods: Vec<Method> = names
                .iter()
                .map(|n| n.parse())
                .collect::<Result<_, String>>()?;
            config = config.portfolio(methods);
        } else if let Some(name) = &self.method {
            if name == "auto" {
                // Explicitly requested Auto dispatch, whatever policy the
                // server was started with.
                config = config.policy(MethodPolicy::Auto);
            } else {
                config = config.method(name.parse()?);
            }
        }
        // Validate eagerly so a bad config never reaches the solve.
        config.clone().build().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// A server response. `status` is `"ok"`, `"busy"`, or `"error"`; solve
/// results carry the schedule and provenance, `stats` responses carry a
/// [`StatsData`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Response {
    /// `"ok"`, `"busy"`, or `"error"`.
    pub status: String,
    /// Echo of the request's correlation id.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// Winning engine name (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub method: Option<String>,
    /// Human-readable guarantee of the returned schedule (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub guarantee: Option<String>,
    /// Makespan numerator (solve; exact rational).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub makespan_num: Option<u64>,
    /// Makespan denominator (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub makespan_den: Option<u64>,
    /// Graph-blind lower bound numerator (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lower_bound_num: Option<u64>,
    /// Graph-blind lower bound denominator (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lower_bound_den: Option<u64>,
    /// `assignment[j]` = machine of job `j`, in the **request's** job
    /// numbering (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub assignment: Option<Vec<u32>>,
    /// Whether the result came from the canonicalization cache (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cached: Option<bool>,
    /// Server-side wall time for this request, milliseconds (solve).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub time_ms: Option<f64>,
    /// Every engine attempt behind this result with its runtime
    /// counters (solve; absent on cache hits — the counters would
    /// describe the *original* solve, not this request).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub attempts: Option<Vec<AttemptData>>,
    /// Error detail (`status != "ok"`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Metrics snapshot (`stats`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<StatsData>,
    /// Prometheus text exposition (`metrics`): the same counters as
    /// `stats` plus full latency histograms, ready for a scrape
    /// endpoint to relay verbatim.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<String>,
    /// Slow-request exemplars (`trace`): the K worst requests of the
    /// current and previous windows, each with its full span tree and
    /// engine counters.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub exemplars: Option<TraceData>,
}

impl Response {
    fn bare(status: &str, id: Option<u64>) -> Self {
        Response {
            status: status.to_string(),
            id,
            method: None,
            guarantee: None,
            makespan_num: None,
            makespan_den: None,
            lower_bound_num: None,
            lower_bound_den: None,
            assignment: None,
            cached: None,
            time_ms: None,
            attempts: None,
            error: None,
            stats: None,
            metrics: None,
            exemplars: None,
        }
    }

    /// A plain `ok` (ping, shutdown acks).
    pub fn ok(id: Option<u64>) -> Self {
        Response::bare("ok", id)
    }

    /// A typed backpressure rejection: every solve slot of the shard is
    /// taken and its wait queue is full.
    pub fn busy(id: Option<u64>) -> Self {
        let mut r = Response::bare("busy", id);
        r.error = Some("request queue is full, retry later".into());
        r
    }

    /// An error response.
    pub fn error(id: Option<u64>, message: impl Into<String>) -> Self {
        let mut r = Response::bare("error", id);
        r.error = Some(message.into());
        r
    }

    /// An error response from a typed [`SolveError`].
    pub fn solve_error(id: Option<u64>, e: &SolveError) -> Self {
        Response::error(id, e.to_string())
    }
}

/// One engine attempt behind a solve response — the wire form of
/// [`EngineRun`], counters included (previously dropped at the protocol
/// boundary).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttemptData {
    /// Engine name (`"branch-and-bound"`, `"cp"`, `"fptas"`, ...).
    pub method: String,
    /// `"solved"`, `"not_applicable"`, or `"failed"`.
    pub outcome: String,
    /// Why, for non-solved outcomes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub reason: Option<String>,
    /// Whether a portfolio race cancelled this attempt.
    pub cancelled: bool,
    /// Wall time inside this engine alone, milliseconds.
    pub wall_ms: f64,
    /// The engine's runtime counters (`EngineStats` pairs, in the
    /// engine's own emission order; empty when it reports none).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub stats: Vec<(String, u64)>,
}

impl AttemptData {
    /// Converts one in-process engine run to its wire form.
    pub fn from_run(run: &EngineRun) -> AttemptData {
        let (outcome, reason) = match &run.outcome {
            EngineOutcome::Solved { .. } => ("solved", None),
            EngineOutcome::NotApplicable { reason } => ("not_applicable", Some(reason.clone())),
            EngineOutcome::Failed { reason } => ("failed", Some(reason.clone())),
        };
        AttemptData {
            method: run.method.name().to_string(),
            outcome: outcome.to_string(),
            reason,
            cancelled: run.cancelled,
            wall_ms: run.wall_time.as_secs_f64() * 1e3,
            stats: run.stats.iter().map(|(n, v)| (n.to_string(), v)).collect(),
        }
    }
}

/// The `stats` verb's payload: the service's aggregate counters since
/// start.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StatsData {
    /// Requests received (all verbs).
    pub requests: u64,
    /// Solve requests answered `ok`.
    pub solved: u64,
    /// Solve requests answered `error`.
    pub errors: u64,
    /// Solve requests rejected `busy` (backpressure).
    pub busy: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Entries evicted from the cache.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when empty.
    pub hit_rate: f64,
    /// Fresh solves run (cache misses that got a solve slot). Kept under
    /// its old name for existing readers; equals
    /// [`batched_jobs`](Self::batched_jobs).
    pub batches: u64,
    /// Fresh solves run; the same count as [`batches`](Self::batches).
    pub batched_jobs: u64,
    /// Median request latency over all `ok` solves, cache hits included,
    /// in milliseconds (log-bucketed; geometric-midpoint estimate).
    pub p50_ms: f64,
    /// 99th-percentile request latency (same population as
    /// [`p50_ms`](Self::p50_ms)), milliseconds.
    pub p99_ms: f64,
    /// Median time a cache miss waited for a solve slot, milliseconds
    /// (about 0 when a slot was free; cache hits never take a slot).
    #[serde(default)]
    pub queue_p50_ms: f64,
    /// 99th-percentile solve-slot wait, milliseconds.
    #[serde(default)]
    pub queue_p99_ms: f64,
    /// Median wall time of a fresh solve, milliseconds.
    #[serde(default)]
    pub solve_p50_ms: f64,
    /// 99th-percentile solve-phase wall time, milliseconds.
    #[serde(default)]
    pub solve_p99_ms: f64,
    /// Median time canonicalization took per routed solve request, cache
    /// hits included, milliseconds.
    #[serde(default)]
    pub canon_p50_ms: f64,
    /// 99th-percentile canonicalization time, milliseconds.
    #[serde(default)]
    pub canon_p99_ms: f64,
    /// Engine attempts a portfolio race cancelled (neither wins nor
    /// losses), total across methods.
    #[serde(default)]
    pub cancelled: u64,
    /// Per-engine win counts as `[name, wins]` pairs, sorted by name.
    pub method_wins: Vec<(String, u64)>,
    /// Per-engine race-cancelled attempt counts as `[name, count]`
    /// pairs, sorted by name.
    #[serde(default)]
    pub method_cancelled: Vec<(String, u64)>,
    /// Seconds since the service started.
    pub uptime_s: f64,
    /// Per-shard breakdown (empty on pre-sharding servers; the scalar
    /// fields above are always the cross-shard totals).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub shards: Vec<ShardStats>,
}

/// One shard's slice of the [`StatsData`] totals: the counters that vary
/// meaningfully per shard under fingerprint routing.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (`fingerprint % shard_count`).
    pub shard: u64,
    /// Requests this shard's loop handled (all verbs).
    pub requests: u64,
    /// Solve requests answered `ok` on this shard.
    pub solved: u64,
    /// Solve requests answered `error` on this shard.
    pub errors: u64,
    /// Solve requests this shard answered `busy` (slots and wait queue
    /// full).
    pub busy: u64,
    /// Cache hits in this shard's LRU.
    pub cache_hits: u64,
    /// Cache misses in this shard's LRU.
    pub cache_misses: u64,
    /// Entries currently in this shard's LRU.
    pub cache_len: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when empty.
    pub hit_rate: f64,
    /// Median request latency on this shard, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency on this shard, milliseconds.
    pub p99_ms: f64,
    /// Median canonicalization time on this shard, milliseconds.
    #[serde(default)]
    pub canon_p50_ms: f64,
    /// 99th-percentile canonicalization time on this shard, milliseconds.
    #[serde(default)]
    pub canon_p99_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_doc_names_every_method() {
        let doc = include_str!("../PROTOCOL.md");
        for m in Method::ALL {
            assert!(
                doc.contains(&format!("`{}`", m.name())),
                "PROTOCOL.md does not name method `{m}`"
            );
        }
    }
}
