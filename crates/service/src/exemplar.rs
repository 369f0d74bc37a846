//! Slow-request exemplars: an always-on, bounded record of the K worst
//! requests per time window, each carrying its full span tree with
//! engine counters — so a p99 outlier in production is inspectable
//! *after the fact* via the `trace` verb, without having pre-enabled
//! the global flight recorder.
//!
//! The span trees are assembled explicitly by the connection handler
//! from measured phase boundaries (canonicalize / slot wait / solve) and the
//! [`SolveReport`](bisched_core::SolveReport)'s per-engine attempts, not
//! drained from the recorder: capture therefore costs a few allocations
//! per request and works whether or not recording is on.
//!
//! Two windows are kept — the current one and the previous, completed
//! one — so a spike remains fetchable for a full window after it rolls
//! over instead of vanishing at the boundary.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One node of an exemplar's span tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanData {
    /// Span name (`solve_request`, `canonicalize`, `slot_wait`, `solve`,
    /// or an engine name).
    pub name: String,
    /// Start offset from the request's arrival, milliseconds.
    pub start_ms: f64,
    /// Span duration, milliseconds.
    pub dur_ms: f64,
    /// Engine counters attached to this span (`EngineStats` pairs;
    /// empty for pure phase spans).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub counters: Vec<(String, u64)>,
    /// Child spans, in start order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub children: Vec<SpanData>,
}

/// One captured slow request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExemplarData {
    /// The server-minted request id (also on the request's log lines).
    pub request_id: u64,
    /// End-to-end handler wall time, milliseconds.
    pub total_ms: f64,
    /// Whether the canonicalization cache answered it.
    pub cached: bool,
    /// Winning engine name, when the solve succeeded.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub method: Option<String>,
    /// Canonical-form fingerprint, hex — correlates exemplars with
    /// cache entries and with each other across relabelings.
    pub fingerprint: String,
    /// The shard that served the request (`0` on single-shard servers;
    /// defaulted so pre-sharding payloads still parse).
    #[serde(default)]
    pub shard: u64,
    /// The request's span tree, rooted at `solve_request`.
    pub root: SpanData,
}

/// The `trace` verb's payload: both exemplar windows.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TraceData {
    /// Window length, seconds.
    pub window_s: f64,
    /// Exemplars kept per window (the K in "K worst").
    pub k: u64,
    /// Index of the current window since service start.
    pub window: u64,
    /// Worst requests of the in-progress window, slowest first.
    pub current: Vec<ExemplarData>,
    /// Worst requests of the last completed window, slowest first.
    pub previous: Vec<ExemplarData>,
}

/// The bounded worst-K-per-window buffer. Callers pass `now` explicitly
/// so window arithmetic is deterministic under test.
pub(crate) struct SlowRing {
    k: usize,
    window: Duration,
    window_started: Instant,
    window_index: u64,
    current: Vec<ExemplarData>,
    previous: Vec<ExemplarData>,
}

impl SlowRing {
    pub(crate) fn new(k: usize, window: Duration, now: Instant) -> SlowRing {
        SlowRing {
            k: k.max(1),
            window: window.max(Duration::from_millis(1)),
            window_started: now,
            window_index: 0,
            current: Vec::new(),
            previous: Vec::new(),
        }
    }

    /// Rolls the window if `now` has left it. One elapsed window moves
    /// `current` to `previous`; a gap of two or more (an idle service)
    /// empties both — those windows genuinely saw nothing.
    fn roll(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.window_started);
        if elapsed < self.window {
            return;
        }
        let windows = (elapsed.as_nanos() / self.window.as_nanos()).max(1) as u64;
        self.previous = if windows == 1 {
            std::mem::take(&mut self.current)
        } else {
            self.current.clear();
            Vec::new()
        };
        self.window_index += windows;
        self.window_started += self.window * (windows as u32);
    }

    /// Offers one finished request. Kept iff the current window holds
    /// fewer than K exemplars or this one is slower than the fastest
    /// kept — which it then evicts.
    #[cfg(test)]
    pub(crate) fn record(&mut self, ex: ExemplarData, now: Instant) {
        self.record_with(ex.total_ms, now, || ex);
    }

    /// [`record`](Self::record) for a request that took `total_ms`,
    /// calling `build` for its exemplar only if the ring keeps it.
    pub(crate) fn record_with(
        &mut self,
        total_ms: f64,
        now: Instant,
        build: impl FnOnce() -> ExemplarData,
    ) {
        self.roll(now);
        if self.current.len() >= self.k {
            // `current` is sorted slowest-first, so the last entry is
            // the eviction candidate.
            match self.current.last() {
                Some(fastest) if total_ms > fastest.total_ms => {
                    self.current.pop();
                }
                _ => return,
            }
        }
        let at = self
            .current
            .partition_point(|kept| kept.total_ms >= total_ms);
        self.current.insert(at, build());
    }

    /// Both windows, for the `trace` verb.
    pub(crate) fn snapshot(&mut self, now: Instant) -> TraceData {
        self.roll(now);
        TraceData {
            window_s: self.window.as_secs_f64(),
            k: self.k as u64,
            window: self.window_index,
            current: self.current.clone(),
            previous: self.previous.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(request_id: u64, total_ms: f64) -> ExemplarData {
        ExemplarData {
            request_id,
            total_ms,
            cached: false,
            method: Some("fptas".into()),
            fingerprint: format!("{request_id:032x}"),
            shard: 0,
            root: SpanData {
                name: "solve_request".into(),
                start_ms: 0.0,
                dur_ms: total_ms,
                counters: vec![],
                children: vec![],
            },
        }
    }

    #[test]
    fn keeps_k_worst_sorted_and_evicts_the_fastest() {
        let t0 = Instant::now();
        let mut ring = SlowRing::new(2, Duration::from_secs(60), t0);
        ring.record(ex(1, 5.0), t0);
        ring.record(ex(2, 1.0), t0);
        ring.record(ex(3, 3.0), t0); // evicts request 2 (1.0 ms)
        ring.record(ex(4, 0.5), t0); // too fast: not kept
        let snap = ring.snapshot(t0);
        let ids: Vec<u64> = snap.current.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(snap.current[0].total_ms >= snap.current[1].total_ms);
    }

    #[test]
    fn window_roll_moves_current_to_previous() {
        let t0 = Instant::now();
        let win = Duration::from_secs(10);
        let mut ring = SlowRing::new(4, win, t0);
        ring.record(ex(1, 9.0), t0);
        // Next window: the old worst stays visible under `previous`.
        ring.record(ex(2, 2.0), t0 + win);
        let snap = ring.snapshot(t0 + win);
        assert_eq!(snap.window, 1);
        assert_eq!(snap.current.len(), 1);
        assert_eq!(snap.current[0].request_id, 2);
        assert_eq!(snap.previous.len(), 1);
        assert_eq!(snap.previous[0].request_id, 1);
    }

    #[test]
    fn idle_gap_clears_both_windows() {
        let t0 = Instant::now();
        let win = Duration::from_secs(10);
        let mut ring = SlowRing::new(4, win, t0);
        ring.record(ex(1, 9.0), t0);
        let snap = ring.snapshot(t0 + win * 3); // two+ windows of silence
        assert_eq!(snap.window, 3);
        assert!(snap.current.is_empty());
        assert!(snap.previous.is_empty());
    }

    #[test]
    fn snapshot_alone_also_rolls() {
        let t0 = Instant::now();
        let win = Duration::from_secs(5);
        let mut ring = SlowRing::new(2, win, t0);
        ring.record(ex(1, 1.0), t0);
        let snap = ring.snapshot(t0 + win);
        assert_eq!(snap.previous.len(), 1);
        assert!(snap.current.is_empty());
    }

    #[test]
    fn trace_payload_round_trips_through_json() {
        let t0 = Instant::now();
        let mut ring = SlowRing::new(2, Duration::from_secs(60), t0);
        let mut sample = ex(7, 4.25);
        sample.root.children.push(SpanData {
            name: "branch-and-bound".into(),
            start_ms: 0.5,
            dur_ms: 3.5,
            counters: vec![("nodes".into(), 123), ("prunes_incumbent".into(), 45)],
            children: vec![],
        });
        ring.record(sample, t0);
        let snap = ring.snapshot(t0);
        let json = serde_json::to_string(&snap).unwrap();
        let back: TraceData = serde_json::from_str(&json).unwrap();
        assert_eq!(back.current.len(), 1);
        assert_eq!(back.current[0].request_id, 7);
        assert_eq!(back.current[0].root.children[0].counters[0].0, "nodes");
        assert_eq!(back.current[0].root.children[0].counters[0].1, 123);
    }
}
