//! The `service_scaling` ladder: boots the `bisched-service` daemon
//! in-process at growing shard counts and measures aggregate cache-hit
//! throughput under concurrent clients.
//!
//! The measurement is deliberately **hardware-independent**: every
//! request carries a `stall_us` hold that is serialized per shard (the
//! daemon sleeps under a per-shard gate before the cache lookup), so a
//! single shard's ceiling is `1 / stall` requests per second no matter
//! how fast the machine is, and N shards driven by N+ pinned clients
//! approach `N / stall`. The ladder therefore gates the *architecture*
//! (no cross-shard lock on the hot path) rather than the host's clock.
//!
//! Clients stripe by routing key: client `k` only submits instances
//! whose canonical fingerprint lands on shard `k % shards`, so each
//! shard's gate is kept continuously busy by a dedicated connection and
//! the ideal ratio is reachable. Every measured request must be a cache
//! hit — a single miss marks the cell as errored, because a miss means
//! the router scattered a warmed instance to a cold shard.
//!
//! The emitted [`CellReport`]s ride the normal `BENCH_<suite>.json`
//! schema: wall-time percentiles are *client-observed request
//! latencies*, and `counters` carries `req_per_s`, `shards`, `clients`,
//! `requests`, `cache_hits`, `cache_misses`, and `stall_us` so the CI
//! gate can assert the 1→8 shard scaling ratio from the committed
//! baseline file alone.

use crate::report::CellReport;
use crate::runner::percentile;
use bisched_graph::Graph;
use bisched_model::{canonicalize, Instance, InstanceData};
use bisched_service::{Client, Request, ServeOptions, Service};
use std::sync::Arc;

/// Parameters of the scaling ladder (one cell per shard count).
#[derive(Clone, Debug)]
pub struct ServiceScalingParams {
    /// Shard counts to ladder through (one cell each).
    pub shard_counts: Vec<usize>,
    /// Concurrent client connections driving each cell.
    pub clients: usize,
    /// Distinct warm instances required per routing bucket
    /// (`fingerprint % max_shards`).
    pub per_bucket: usize,
    /// Measured requests per client per cell.
    pub requests_per_client: usize,
    /// Serialized per-request hold on the owning shard, microseconds.
    pub stall_us: u64,
}

impl Default for ServiceScalingParams {
    fn default() -> Self {
        ServiceScalingParams {
            shard_counts: vec![1, 2, 4, 8],
            clients: 8,
            per_bucket: 8,
            requests_per_client: 100,
            // Large enough that sleep-timer overshoot (~0.2 ms on a busy
            // Linux host) is noise against the hold, not a second
            // serial term that caps the measurable speedup.
            stall_us: 2_000,
        }
    }
}

/// One warm instance with its precomputed routing key.
struct Keyed {
    data: InstanceData,
    route: u128,
}

/// Generates distinct tiny instances until every routing bucket modulo
/// `max_shards` holds at least `per_bucket` of them. Instances are
/// trivial on purpose: the ladder measures the service front end, not
/// the solver.
fn warm_corpus(max_shards: usize, per_bucket: usize) -> Vec<Keyed> {
    let mut out: Vec<Keyed> = Vec::new();
    let mut filled = vec![0usize; max_shards];
    let mut seed: u64 = 0;
    while filled.iter().any(|&c| c < per_bucket) {
        seed += 1;
        // Distinct size multisets => distinct canonical fingerprints.
        let sizes: Vec<u64> = (0..5).map(|i| 1 + (seed * 7 + i * 13) % 97).collect();
        let inst = Instance::identical(2, sizes, Graph::path(5)).expect("tiny instance");
        let route = canonicalize(&inst).fingerprint;
        if out.iter().any(|k| k.route == route) {
            continue;
        }
        filled[(route % max_shards as u128) as usize] += 1;
        out.push(Keyed {
            data: InstanceData::from_instance(&inst),
            route,
        });
    }
    out
}

/// Runs the whole ladder and returns one cell per shard count.
pub fn run_ladder(params: &ServiceScalingParams) -> Vec<CellReport> {
    let max_shards = params.shard_counts.iter().copied().max().unwrap_or(1);
    let corpus = Arc::new(warm_corpus(max_shards, params.per_bucket));
    params
        .shard_counts
        .iter()
        .map(|&shards| run_cell(shards, Arc::clone(&corpus), params))
        .collect()
}

fn cell_skeleton(shards: usize, corpus_len: usize, params: &ServiceScalingParams) -> CellReport {
    CellReport {
        scenario: "service-cache-hit".into(),
        config: format!("shards-{shards}"),
        model: "P".into(),
        family: "service ladder".into(),
        jobs: corpus_len,
        machines: shards,
        reps: params.requests_per_client,
        mean_ms: 0.0,
        p50_ms: 0.0,
        p90_ms: 0.0,
        max_ms: 0.0,
        makespan: 1.0,
        lower_bound: 1.0,
        ratio_lb: 1.0,
        ratio_opt: None,
        method: "service".into(),
        guarantee: "cache-hit".into(),
        counters: Vec::new(),
        engine_attempts: Vec::new(),
        raced: false,
        error: None,
    }
}

fn run_cell(shards: usize, corpus: Arc<Vec<Keyed>>, params: &ServiceScalingParams) -> CellReport {
    let mut cell = cell_skeleton(shards, corpus.len(), params);
    let service = match Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: shards,
        cache_cap: corpus.len().max(64),
        queue_cap: 1024,
        shards,
        ..ServeOptions::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            cell.error = Some(format!("service boot: {e}"));
            return cell;
        }
    };
    let addr = service.local_addr();

    // Warm pass: one connection fills every shard's cache.
    let warm = (|| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for k in corpus.iter() {
            let resp = client
                .solve(k.data.clone())
                .map_err(|e| format!("warm solve: {e}"))?;
            if resp.status != "ok" {
                return Err(format!(
                    "warm solve failed: {}",
                    resp.error.unwrap_or(resp.status)
                ));
            }
        }
        Ok(())
    })();
    if let Err(e) = warm {
        cell.error = Some(e);
        service.shutdown();
        service.join();
        return cell;
    }

    // Measured pass: each client pins one shard's residue class and
    // replays it; requests block on the shard's stall gate, so the
    // aggregate rate is shard-bound by construction.
    let t0 = std::time::Instant::now();
    let threads: Vec<_> = (0..params.clients)
        .map(|c| {
            let corpus = Arc::clone(&corpus);
            let n = params.requests_per_client;
            let stall = params.stall_us;
            std::thread::spawn(move || -> Result<(Vec<f64>, u64), String> {
                let mine: Vec<&Keyed> = corpus
                    .iter()
                    .filter(|k| (k.route % shards as u128) as usize == c % shards)
                    .collect();
                if mine.is_empty() {
                    return Err(format!("client {c}: empty residue class"));
                }
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut latencies = Vec::with_capacity(n);
                let mut misses = 0u64;
                for i in 0..n {
                    let mut req = Request::solve(mine[i % mine.len()].data.clone());
                    req.stall_us = Some(stall);
                    let t = std::time::Instant::now();
                    let resp = client.request(&req).map_err(|e| format!("request: {e}"))?;
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    if resp.status != "ok" {
                        return Err(format!("client {c}: {}", resp.error.unwrap_or(resp.status)));
                    }
                    if resp.cached != Some(true) {
                        misses += 1;
                    }
                }
                Ok((latencies, misses))
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut misses = 0u64;
    for t in threads {
        match t.join() {
            Ok(Ok((l, m))) => {
                latencies.extend(l);
                misses += m;
            }
            Ok(Err(e)) => cell.error = Some(e),
            Err(_) => cell.error = Some("client thread panicked".into()),
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    service.shutdown();
    service.join();

    let requests = latencies.len() as u64;
    if misses > 0 && cell.error.is_none() {
        // A warmed instance missing its cache means the router sent it
        // to the wrong shard — the architecture the ladder exists to
        // gate is broken, not merely slow.
        cell.error = Some(format!("{misses} measured requests missed the cache"));
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let req_per_s = requests as f64 / elapsed.max(1e-9);
    cell.mean_ms = latencies.iter().sum::<f64>() / (latencies.len().max(1) as f64);
    cell.p50_ms = percentile(&latencies, 50.0);
    cell.p90_ms = percentile(&latencies, 90.0);
    cell.max_ms = latencies.last().copied().unwrap_or(0.0);
    cell.counters = vec![
        ("req_per_s".into(), req_per_s as u64),
        ("shards".into(), shards as u64),
        ("clients".into(), params.clients as u64),
        ("requests".into(), requests),
        ("cache_hits".into(), requests - misses),
        ("cache_misses".into(), misses),
        ("stall_us".into(), params.stall_us),
    ];
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_fills_every_bucket_with_distinct_fingerprints() {
        let corpus = warm_corpus(8, 2);
        let mut filled = [0usize; 8];
        for k in &corpus {
            filled[(k.route % 8) as usize] += 1;
        }
        assert!(filled.iter().all(|&c| c >= 2), "buckets: {filled:?}");
        let mut routes: Vec<u128> = corpus.iter().map(|k| k.route).collect();
        routes.sort_unstable();
        routes.dedup();
        assert_eq!(routes.len(), corpus.len(), "fingerprints must be distinct");
    }

    #[test]
    fn a_two_shard_cell_measures_all_hits() {
        let params = ServiceScalingParams {
            shard_counts: vec![2],
            clients: 2,
            per_bucket: 2,
            requests_per_client: 10,
            stall_us: 50,
        };
        let cells = run_ladder(&params);
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.error, None, "{:?}", cell.error);
        assert_eq!(cell.config, "shards-2");
        let get = |name: &str| -> u64 {
            cell.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("requests"), 20);
        assert_eq!(get("cache_hits"), 20);
        assert_eq!(get("cache_misses"), 0);
        assert!(get("req_per_s") > 0);
    }
}
