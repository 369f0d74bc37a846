//! Service metrics: counters, a log-bucketed latency histogram for
//! p50/p99, and per-engine win counts. Everything is cheap enough to
//! update on the request hot path.

use crate::protocol::{ShardStats, StatsData};
use bisched_core::Method;
use std::collections::HashMap;
// Workspace concurrency facade: std passthroughs in normal builds,
// model-checked shims under `--cfg bisched_model`.
use bisched_obs::sync::{AtomicU64, Mutex, Ordering};
use std::time::Instant;

/// Power-of-two latency buckets over microseconds: bucket `b ≥ 1` holds
/// samples in `[2^(b-1), 2^b)` µs and bucket 0 holds only 0 µs samples
/// (sub-microsecond measurements truncated by the caller), so 64 buckets
/// span nanoseconds to hours. Quantiles report the bucket's *geometric
/// midpoint* `2^(b-½)` µs — the unbiased point estimate for a bucket
/// whose samples are spread across a power-of-two range. (The earlier
/// upper-bound convention overstated every quantile by up to 2×, which
/// compounds when dashboards difference p99 − p50.)
///
/// Edge cases (regression-tested below): an empty histogram reports 0.0
/// for every quantile rather than a phantom first bucket, and 0 µs
/// samples neither underflow the bucket index (`64 - leading_zeros` is 0,
/// not `-1`) nor inflate quantiles past 1 µs.
#[derive(Debug)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
    sum_us: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: [0; 64],
            count: 0,
            sum_us: 0,
        }
    }
}

impl LatencyHist {
    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        let b = (64 - micros.leading_zeros()) as usize; // 0 µs -> bucket 0
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(micros);
    }

    /// Geometric midpoint of the bucket containing quantile `q ∈ [0, 1]`,
    /// in milliseconds; 0 when empty (and for 0 µs samples, whose bucket
    /// is the degenerate `[0, 1)`).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if b == 0 {
                    return 0.0;
                }
                // √(2^(b-1) · 2^b) = 2^b / √2.
                return (1u64 << b) as f64 / std::f64::consts::SQRT_2 / 1000.0;
            }
        }
        f64::INFINITY
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The raw bucket counts; bucket `b ≥ 1` covers `[2^(b-1), 2^b)` µs.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Folds another histogram into this one (bucket-wise sum) — how the
    /// sharded service renders cross-shard totals without sharing one
    /// histogram lock on the hot path.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (b, n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

/// The single declared registry of every Prometheus series name the
/// service exposes. [`prometheus_sharded`] draws exclusively from this
/// list (histogram names additionally emit the standard `_bucket`,
/// `_sum`, and `_count` sub-series). The test
/// `prometheus_exposition_is_well_formed` checks both directions: every
/// name here is emitted, and every emitted series is declared here — add
/// the name and its emission together.
pub const METRIC_NAMES: &[&str] = &[
    "bisched_requests_total",
    "bisched_solved_total",
    "bisched_errors_total",
    "bisched_busy_total",
    "bisched_solves_total",
    "bisched_cache_hits_total",
    "bisched_cache_misses_total",
    "bisched_cache_evictions_total",
    "bisched_cache_entries",
    "bisched_uptime_seconds",
    "bisched_method_wins_total",
    "bisched_method_cancelled_total",
    "bisched_request_latency_seconds",
    "bisched_slot_wait_seconds",
    "bisched_solve_time_seconds",
    "bisched_canonicalize_seconds",
    "bisched_shard_requests_total",
    "bisched_shard_cache_hit_ratio",
];

/// One shard's service metrics, shared by every connection thread.
#[derive(Debug)]
pub struct Metrics {
    /// All requests received, any verb.
    pub requests: AtomicU64,
    /// Solve requests answered `ok`.
    pub solved: AtomicU64,
    /// Solve requests answered `error`.
    pub errors: AtomicU64,
    /// Solve requests rejected with `busy`.
    pub busy: AtomicU64,
    /// Fresh solves run (cache misses that got a solve slot).
    pub solves: AtomicU64,
    started: Instant,
    hist: Mutex<LatencyHist>,
    /// Time each miss waited for a solve slot, about 0 µs when one was
    /// free (cache hits never take a slot, so never appear here).
    slot_wait_hist: Mutex<LatencyHist>,
    /// Wall time of each fresh solve.
    solve_hist: Mutex<LatencyHist>,
    /// Time `canonicalize` took on each routed solve request. It runs
    /// before the cache lookup, so cache hits are included.
    canon_hist: Mutex<LatencyHist>,
    wins: Mutex<HashMap<Method, u64>>,
    /// Race-cancelled engine attempts, per method. Kept apart from the
    /// win counters: a cancelled attempt is neither a win nor a loss
    /// (the engine was stopped because a racing engine already proved
    /// optimality), so dispatch-tuning data must not mix the two.
    cancelled: Mutex<HashMap<Method, u64>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            started: Instant::now(),
            hist: Mutex::new(LatencyHist::default()),
            slot_wait_hist: Mutex::new(LatencyHist::default()),
            solve_hist: Mutex::new(LatencyHist::default()),
            canon_hist: Mutex::new(LatencyHist::default()),
            wins: Mutex::new(HashMap::new()),
            cancelled: Mutex::new(HashMap::new()),
        }
    }
}

impl Metrics {
    /// Records one served solve's latency.
    pub fn record_latency(&self, micros: u64) {
        self.hist.lock().unwrap().record(micros);
    }

    /// Records how long one miss waited for a solve slot.
    pub fn record_slot_wait(&self, micros: u64) {
        self.slot_wait_hist.lock().unwrap().record(micros);
    }

    /// Records the wall time of one fresh solve.
    pub fn record_solve_time(&self, micros: u64) {
        self.solve_hist.lock().unwrap().record(micros);
    }

    /// Records how long canonicalizing one routed solve request took.
    pub fn record_canonicalize(&self, micros: u64) {
        self.canon_hist.lock().unwrap().record(micros);
    }

    /// Credits `method` with a win (it produced a freshly solved
    /// schedule).
    pub fn record_win(&self, method: Method) {
        *self.wins.lock().unwrap().entry(method).or_insert(0) += 1;
    }

    /// Records that a portfolio race cancelled one of `method`'s
    /// attempts (counted separately from wins and losses).
    pub fn record_cancelled(&self, method: Method) {
        *self.cancelled.lock().unwrap().entry(method).or_insert(0) += 1;
    }
}

/// One shard's metrics plus its cache state, borrowed for the
/// cross-shard aggregations below. The aggregators never touch a shard's
/// solve hot path — they take each shard's locks briefly, read, and
/// merge locally.
pub struct ShardView<'a> {
    /// The shard's own [`Metrics`].
    pub metrics: &'a Metrics,
    /// The shard cache's counters.
    pub cache: crate::cache::CacheCounters,
    /// Entries currently in the shard's cache.
    pub cache_len: usize,
}

/// Sums of the scalar counters across shards, shared by the two
/// aggregate renderers.
struct Totals {
    requests: u64,
    solved: u64,
    errors: u64,
    busy: u64,
    solves: u64,
    cache: crate::cache::CacheCounters,
    cache_len: usize,
    hist: LatencyHist,
    slot_wait_hist: LatencyHist,
    solve_hist: LatencyHist,
    canon_hist: LatencyHist,
    wins: HashMap<Method, u64>,
    cancelled: HashMap<Method, u64>,
    uptime_s: f64,
}

impl Totals {
    fn of(shards: &[ShardView]) -> Totals {
        let mut t = Totals {
            requests: 0,
            solved: 0,
            errors: 0,
            busy: 0,
            solves: 0,
            cache: crate::cache::CacheCounters::default(),
            cache_len: 0,
            hist: LatencyHist::default(),
            slot_wait_hist: LatencyHist::default(),
            solve_hist: LatencyHist::default(),
            canon_hist: LatencyHist::default(),
            wins: HashMap::new(),
            cancelled: HashMap::new(),
            uptime_s: 0.0,
        };
        for v in shards {
            let m = v.metrics;
            t.requests += m.requests.load(Ordering::Relaxed);
            t.solved += m.solved.load(Ordering::Relaxed);
            t.errors += m.errors.load(Ordering::Relaxed);
            t.busy += m.busy.load(Ordering::Relaxed);
            t.solves += m.solves.load(Ordering::Relaxed);
            t.cache.hits += v.cache.hits;
            t.cache.misses += v.cache.misses;
            t.cache.evictions += v.cache.evictions;
            t.cache.insertions += v.cache.insertions;
            t.cache_len += v.cache_len;
            t.hist.merge(&m.hist.lock().unwrap());
            t.slot_wait_hist.merge(&m.slot_wait_hist.lock().unwrap());
            t.solve_hist.merge(&m.solve_hist.lock().unwrap());
            t.canon_hist.merge(&m.canon_hist.lock().unwrap());
            for (&method, &n) in m.wins.lock().unwrap().iter() {
                *t.wins.entry(method).or_insert(0) += n;
            }
            for (&method, &n) in m.cancelled.lock().unwrap().iter() {
                *t.cancelled.entry(method).or_insert(0) += n;
            }
            // Shards are created together at startup; report the oldest.
            t.uptime_s = t.uptime_s.max(m.started.elapsed().as_secs_f64());
        }
        t
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The `stats` verb's payload for a sharded service: cross-shard totals
/// in the scalar fields plus one [`ShardStats`] per shard.
pub fn snapshot_sharded(shards: &[ShardView]) -> StatsData {
    let t = Totals::of(shards);
    let mut method_wins: Vec<(String, u64)> = t
        .wins
        .iter()
        .map(|(m, &n)| (m.name().to_string(), n))
        .collect();
    method_wins.sort();
    let mut method_cancelled: Vec<(String, u64)> = t
        .cancelled
        .iter()
        .map(|(m, &n)| (m.name().to_string(), n))
        .collect();
    method_cancelled.sort();
    let per_shard = shards
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let m = v.metrics;
            let hist = m.hist.lock().unwrap();
            let canon = m.canon_hist.lock().unwrap();
            ShardStats {
                shard: i as u64,
                requests: m.requests.load(Ordering::Relaxed),
                solved: m.solved.load(Ordering::Relaxed),
                errors: m.errors.load(Ordering::Relaxed),
                busy: m.busy.load(Ordering::Relaxed),
                cache_hits: v.cache.hits,
                cache_misses: v.cache.misses,
                cache_len: v.cache_len as u64,
                hit_rate: hit_rate(v.cache.hits, v.cache.misses),
                p50_ms: hist.quantile_ms(0.50),
                p99_ms: hist.quantile_ms(0.99),
                canon_p50_ms: canon.quantile_ms(0.50),
                canon_p99_ms: canon.quantile_ms(0.99),
            }
        })
        .collect();
    StatsData {
        requests: t.requests,
        solved: t.solved,
        errors: t.errors,
        busy: t.busy,
        cache_hits: t.cache.hits,
        cache_misses: t.cache.misses,
        cache_evictions: t.cache.evictions,
        cache_len: t.cache_len as u64,
        hit_rate: hit_rate(t.cache.hits, t.cache.misses),
        // Both legacy keys count fresh solves (one solve per "batch").
        batches: t.solves,
        batched_jobs: t.solves,
        p50_ms: t.hist.quantile_ms(0.50),
        p99_ms: t.hist.quantile_ms(0.99),
        queue_p50_ms: t.slot_wait_hist.quantile_ms(0.50),
        queue_p99_ms: t.slot_wait_hist.quantile_ms(0.99),
        solve_p50_ms: t.solve_hist.quantile_ms(0.50),
        solve_p99_ms: t.solve_hist.quantile_ms(0.99),
        canon_p50_ms: t.canon_hist.quantile_ms(0.50),
        canon_p99_ms: t.canon_hist.quantile_ms(0.99),
        cancelled: method_cancelled.iter().map(|(_, n)| n).sum(),
        method_wins,
        method_cancelled,
        uptime_s: t.uptime_s,
        shards: per_shard,
    }
}

/// The `metrics` verb's payload for a sharded service: every series from
/// [`METRIC_NAMES`], totals first, then the per-shard
/// `bisched_shard_requests_total` / `bisched_shard_cache_hit_ratio`
/// breakdowns. Counters use `_total` suffixes, the four latency
/// histograms emit cumulative `le` buckets in seconds (empty buckets
/// skipped — cumulative counts stay correct), and per-engine tables
/// become labeled series.
pub fn prometheus_sharded(shards: &[ShardView]) -> String {
    let t = Totals::of(shards);
    let mut out = String::with_capacity(4096);
    let counter = |out: &mut String, name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter(
        &mut out,
        "bisched_requests_total",
        "Requests received, any verb.",
        t.requests,
    );
    counter(
        &mut out,
        "bisched_solved_total",
        "Solve requests answered ok.",
        t.solved,
    );
    counter(
        &mut out,
        "bisched_errors_total",
        "Solve requests answered error.",
        t.errors,
    );
    counter(
        &mut out,
        "bisched_busy_total",
        "Solve requests rejected busy (backpressure).",
        t.busy,
    );
    counter(
        &mut out,
        "bisched_solves_total",
        "Fresh solves run (cache misses that got a solve slot).",
        t.solves,
    );
    counter(
        &mut out,
        "bisched_cache_hits_total",
        "Canonicalization-cache hits.",
        t.cache.hits,
    );
    counter(
        &mut out,
        "bisched_cache_misses_total",
        "Canonicalization-cache misses.",
        t.cache.misses,
    );
    counter(
        &mut out,
        "bisched_cache_evictions_total",
        "Entries evicted from the canonicalization caches.",
        t.cache.evictions,
    );
    out.push_str(&format!(
        "# HELP bisched_cache_entries Entries currently cached.\n\
         # TYPE bisched_cache_entries gauge\n\
         bisched_cache_entries {}\n",
        t.cache_len
    ));
    out.push_str(&format!(
        "# HELP bisched_uptime_seconds Seconds since the service started.\n\
         # TYPE bisched_uptime_seconds gauge\n\
         bisched_uptime_seconds {}\n",
        t.uptime_s
    ));
    labeled_counter_table(
        &mut out,
        "bisched_method_wins_total",
        "Freshly solved schedules credited to each engine.",
        &t.wins,
    );
    labeled_counter_table(
        &mut out,
        "bisched_method_cancelled_total",
        "Engine attempts a portfolio race cancelled.",
        &t.cancelled,
    );
    prometheus_histogram(
        &mut out,
        "bisched_request_latency_seconds",
        "End-to-end latency of ok solves, cache hits included.",
        &t.hist,
    );
    prometheus_histogram(
        &mut out,
        "bisched_slot_wait_seconds",
        "Time cache misses waited for a solve slot.",
        &t.slot_wait_hist,
    );
    prometheus_histogram(
        &mut out,
        "bisched_solve_time_seconds",
        "Wall time of each fresh solve.",
        &t.solve_hist,
    );
    prometheus_histogram(
        &mut out,
        "bisched_canonicalize_seconds",
        "Canonicalization time per routed solve request, cache hits included.",
        &t.canon_hist,
    );
    out.push_str(
        "# HELP bisched_shard_requests_total Requests handled by each shard's loop.\n\
         # TYPE bisched_shard_requests_total counter\n",
    );
    for (i, v) in shards.iter().enumerate() {
        out.push_str(&format!(
            "bisched_shard_requests_total{{shard=\"{i}\"}} {}\n",
            v.metrics.requests.load(Ordering::Relaxed)
        ));
    }
    out.push_str(
        "# HELP bisched_shard_cache_hit_ratio Cache hit ratio within each shard's LRU.\n\
         # TYPE bisched_shard_cache_hit_ratio gauge\n",
    );
    for (i, v) in shards.iter().enumerate() {
        out.push_str(&format!(
            "bisched_shard_cache_hit_ratio{{shard=\"{i}\"}} {}\n",
            hit_rate(v.cache.hits, v.cache.misses)
        ));
    }
    out
}

/// One `name{method="..."} n` line per engine, sorted by name for stable
/// scrape diffs.
fn labeled_counter_table(out: &mut String, name: &str, help: &str, table: &HashMap<Method, u64>) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    let mut rows: Vec<(&'static str, u64)> = table.iter().map(|(m, &n)| (m.name(), n)).collect();
    rows.sort();
    for (method, n) in rows {
        out.push_str(&format!("{name}{{method=\"{method}\"}} {n}\n"));
    }
}

/// A [`LatencyHist`] as a Prometheus histogram: cumulative `le` buckets
/// in seconds (the power-of-two upper bounds), `_sum`, `_count`.
fn prometheus_histogram(out: &mut String, name: &str, help: &str, h: &LatencyHist) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (b, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let le = (1u64 << b) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        h.count(),
        h.sum_us() as f64 / 1e6,
        h.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHist::default();
        for us in [10, 20, 30, 40, 50, 1000, 2000, 100_000, 100_000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_ms(0.5);
        // Median sample is 50 µs, in bucket [32, 64); the reported
        // geometric midpoint must stay inside that bucket.
        assert!((0.032..=0.064).contains(&p50), "p50 = {p50}");
        assert!((p50 - 0.0452).abs() < 1e-3, "p50 = {p50} not 2^5.5 µs");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 >= 0.065, "p99 = {p99}");
        assert!(h.quantile_ms(1.0) >= p99);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        // No recorded samples: every quantile (including the extremes)
        // must be exactly 0.0, never the first bucket's upper bound.
        let h = LatencyHist::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ms(q), 0.0, "q = {q}");
        }
    }

    #[test]
    fn zero_microsecond_samples_do_not_underflow_or_inflate() {
        // 0 µs (sub-microsecond solves truncated by the caller) lands in
        // bucket 0; the reported quantile is that bucket's 1 µs upper
        // bound at most — not a panic, not an underflowed index, not a
        // later bucket.
        let mut h = LatencyHist::default();
        for _ in 0..5 {
            h.record(0);
        }
        assert_eq!(h.count(), 5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_ms(q);
            assert!((0.0..=0.001).contains(&v), "q = {q}: {v}");
        }
        // Mixing in one large sample moves only the top quantiles: 1 s
        // lands in bucket [2^19, 2^20) µs, whose midpoint is ≈ 741 ms.
        h.record(1_000_000);
        assert!(h.quantile_ms(0.5) <= 0.001);
        assert!(h.quantile_ms(1.0) >= 500.0);
    }

    #[test]
    fn single_sample_quantiles_bracket_it() {
        let mut h = LatencyHist::default();
        h.record(700); // bucket [512, 1024) µs, midpoint 2^9.5 ≈ 724 µs
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile_ms(q);
            assert!((0.512..=1.024).contains(&v), "q = {q}: {v}");
            assert!((v - 0.7241).abs() < 1e-3, "q = {q}: {v} not the midpoint");
        }
    }

    #[test]
    fn midpoint_is_within_sqrt2_of_any_sample_in_the_bucket() {
        // The estimator's worst-case multiplicative error is √2 in either
        // direction — the property the upper-bound convention lacked (it
        // could overstate by 2×).
        for sample in [1u64, 3, 33, 700, 5_000, 1_000_000] {
            let mut h = LatencyHist::default();
            h.record(sample);
            let v_us = h.quantile_ms(0.5) * 1000.0;
            let ratio = v_us / sample as f64;
            assert!(
                ((std::f64::consts::SQRT_2).recip()..=std::f64::consts::SQRT_2).contains(&ratio),
                "sample {sample} µs reported as {v_us} µs (ratio {ratio})"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LatencyHist::default();
        for us in [0, 0, 3, 9, 80, 700, 6_000, 50_000] {
            h.record(us);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                h.quantile_ms(w[0]) <= h.quantile_ms(w[1]),
                "quantile not monotone between {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn snapshot_merges_cache_counters() {
        let m = Metrics::default();
        m.requests.store(5, Ordering::Relaxed);
        m.record_win(Method::Alg1);
        m.record_win(Method::Alg1);
        m.record_latency(500);
        let s = snapshot_sharded(&[ShardView {
            metrics: &m,
            cache: crate::cache::CacheCounters {
                hits: 3,
                misses: 1,
                evictions: 0,
                insertions: 1,
            },
            cache_len: 1,
        }]);
        assert_eq!(s.requests, 5);
        assert_eq!(s.cache_hits, 3);
        assert!((s.hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(s.method_wins, vec![("alg1".to_string(), 2)]);
        assert!(s.p50_ms > 0.0);
    }

    #[test]
    fn snapshot_splits_queue_and_solve_latency() {
        let m = Metrics::default();
        m.record_latency(1_000);
        m.record_slot_wait(10); // bucket [8, 16): midpoint ≈ 11 µs
        m.record_solve_time(900); // bucket [512, 1024): midpoint ≈ 724 µs
        m.record_canonicalize(100); // bucket [64, 128): midpoint ≈ 91 µs
        let s = snapshot_sharded(&[ShardView {
            metrics: &m,
            cache: crate::cache::CacheCounters::default(),
            cache_len: 0,
        }]);
        assert!(s.queue_p50_ms > 0.0 && s.queue_p50_ms < 0.016);
        assert!(s.canon_p50_ms > 0.064 && s.canon_p50_ms < 0.128);
        assert!(s.shards[0].canon_p99_ms > 0.064 && s.shards[0].canon_p99_ms < 0.128);
        assert!(s.solve_p50_ms > 0.5 && s.solve_p50_ms < 1.024);
        assert!(
            s.queue_p50_ms < s.solve_p50_ms,
            "the split must keep the components apart"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::default();
        m.requests.store(7, Ordering::Relaxed);
        m.solved.store(5, Ordering::Relaxed);
        m.record_win(Method::Cp);
        m.record_cancelled(Method::BranchAndBound);
        m.record_latency(700);
        m.record_latency(90_000);
        m.record_slot_wait(40);
        m.solves.store(2, Ordering::Relaxed);
        m.record_solve_time(650);
        m.record_canonicalize(30);
        let text = prometheus_sharded(&[ShardView {
            metrics: &m,
            cache: crate::cache::CacheCounters {
                hits: 2,
                misses: 3,
                evictions: 1,
                insertions: 3,
            },
            cache_len: 3,
        }]);
        assert!(text.contains("# TYPE bisched_requests_total counter"));
        assert!(text.contains("bisched_requests_total 7"));
        assert!(text.contains("bisched_cache_hits_total 2"));
        assert!(text.contains("bisched_cache_entries 3"));
        assert!(text.contains("bisched_method_wins_total{method=\"cp\"} 1"));
        assert!(text.contains("bisched_method_cancelled_total{method=\"branch-and-bound\"} 1"));
        // Histogram shape: cumulative buckets ending at +Inf == _count,
        // and _sum carries the exact microsecond total in seconds.
        assert!(text.contains("bisched_request_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bisched_request_latency_seconds_count 2"));
        assert!(text.contains("bisched_request_latency_seconds_sum 0.0907"));
        assert!(text.contains("bisched_solves_total 2"));
        assert!(text.contains("bisched_slot_wait_seconds_count 1"));
        assert!(text.contains("bisched_solve_time_seconds_count 1"));
        assert!(text.contains("bisched_canonicalize_seconds_count 1"));
        // The declared registry is live: every name in METRIC_NAMES is
        // emitted by a populated exposition, and every emitted series
        // name is declared (the registry and the code move together).
        for name in METRIC_NAMES {
            assert!(
                text.contains(name),
                "registered metric {name} never emitted"
            );
        }
        for line in text.lines() {
            let name = match line
                .strip_prefix("# HELP ")
                .or(line.strip_prefix("# TYPE "))
            {
                Some(rest) => rest.split_whitespace().next().unwrap_or(""),
                None => line.split(['{', ' ']).next().unwrap_or(""),
            };
            let base = name
                .strip_suffix("_bucket")
                .or(name.strip_suffix("_sum"))
                .or(name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                METRIC_NAMES.contains(&base),
                "emitted series {name} is not in METRIC_NAMES"
            );
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
        // Cumulative bucket counts are monotone within each histogram.
        let mut last: Option<(String, u64)> = None;
        for line in text.lines() {
            if let Some((head, v)) = line.split_once("_bucket{le=\"") {
                if v.starts_with("+Inf") {
                    continue;
                }
                let n: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
                if let Some((prev_head, prev_n)) = &last {
                    if prev_head == head {
                        assert!(n >= *prev_n, "non-monotone buckets: {line}");
                    }
                }
                last = Some((head.to_string(), n));
            }
        }
    }

    #[test]
    fn sharded_aggregation_sums_counters_and_merges_histograms() {
        let (a, b) = (Metrics::default(), Metrics::default());
        a.requests.store(4, Ordering::Relaxed);
        b.requests.store(6, Ordering::Relaxed);
        a.solved.store(3, Ordering::Relaxed);
        b.solved.store(5, Ordering::Relaxed);
        a.record_win(Method::Cp);
        b.record_win(Method::Cp);
        b.record_win(Method::Bjw);
        a.record_latency(700);
        b.record_latency(700);
        b.record_latency(90_000);
        let views = [
            ShardView {
                metrics: &a,
                cache: crate::cache::CacheCounters {
                    hits: 2,
                    misses: 2,
                    evictions: 0,
                    insertions: 2,
                },
                cache_len: 2,
            },
            ShardView {
                metrics: &b,
                cache: crate::cache::CacheCounters {
                    hits: 3,
                    misses: 1,
                    evictions: 1,
                    insertions: 1,
                },
                cache_len: 1,
            },
        ];
        let s = snapshot_sharded(&views);
        assert_eq!(s.requests, 10);
        assert_eq!(s.solved, 8);
        assert_eq!(s.cache_hits, 5);
        assert_eq!(s.cache_len, 3);
        assert!((s.hit_rate - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(
            s.method_wins,
            vec![("bjw".to_string(), 1), ("cp".to_string(), 2)]
        );
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[0].shard, 0);
        assert_eq!(s.shards[0].requests, 4);
        assert!((s.shards[0].hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.shards[1].cache_hits, 3);
        assert!(s.shards[1].p99_ms > s.shards[0].p99_ms);

        let text = prometheus_sharded(&views);
        assert!(text.contains("bisched_requests_total 10"));
        assert!(text.contains("bisched_shard_requests_total{shard=\"0\"} 4"));
        assert!(text.contains("bisched_shard_requests_total{shard=\"1\"} 6"));
        assert!(text.contains("bisched_shard_cache_hit_ratio{shard=\"0\"} 0.5"));
        assert!(text.contains("bisched_shard_cache_hit_ratio{shard=\"1\"} 0.75"));
        // The merged request-latency histogram carries all three samples.
        assert!(text.contains("bisched_request_latency_seconds_count 3"));
    }

    #[test]
    fn cancelled_attempts_are_counted_apart_from_wins() {
        let m = Metrics::default();
        m.record_win(Method::Cp);
        m.record_cancelled(Method::BranchAndBound);
        m.record_cancelled(Method::BranchAndBound);
        m.record_cancelled(Method::Cp);
        let s = snapshot_sharded(&[ShardView {
            metrics: &m,
            cache: crate::cache::CacheCounters::default(),
            cache_len: 0,
        }]);
        // A cancelled attempt is neither a win nor a loss; the win table
        // must be untouched by the cancellations.
        assert_eq!(s.method_wins, vec![("cp".to_string(), 1)]);
        assert_eq!(s.cancelled, 3);
        assert_eq!(
            s.method_cancelled,
            vec![("branch-and-bound".to_string(), 2), ("cp".to_string(), 1),]
        );
    }
}
