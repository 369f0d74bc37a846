//! The daemon: a `std::net` TCP listener in front of N independent
//! shards, each owning its own LRU cache, solve-slot semaphore, latency
//! histograms, and slow-request exemplar ring. Connections speak JSON
//! lines by default and may negotiate length-prefixed binary frames via
//! the `upgrade` verb (see `PROTOCOL.md` §v2).
//!
//! Every request is served on its connection's thread, cache misses
//! included: a miss takes one of its shard's solve slots, or waits for
//! one (see [`crate::slots`]), and solves in place. There is no
//! single-flight deduplication: k *concurrent* identical misses may each
//! be solved before the first insert lands; every submission after that
//! is a cache hit.
//!
//! Every solve request is routed by its canonical 128-bit fingerprint
//! (`fingerprint % shard_count`), so isomorphic relabelings of one
//! instance always land on the same shard — and therefore the same
//! cache. The solve hot path touches no cross-shard lock: shard state is
//! only aggregated on the cold `stats`/`metrics`/`trace` verbs.
//!
//! The accept loop is a non-blocking poll (`set_nonblocking` + short
//! sleeps), so shutdown needs no connect-to-self poke: the loop observes
//! the flag within milliseconds.
//!
//! Lifecycle: [`Service::start`] binds and spawns everything (optionally
//! warm-starting every shard cache from a snapshot file);
//! [`Service::join`] blocks until a `shutdown` request (or a programmatic
//! [`Service::shutdown`]) arrives, lets every admitted miss finish, joins
//! every thread, writes the cache snapshot if one was configured, logs
//! the final stats to stderr, and returns them.

use crate::cache::LruCache;
use crate::exemplar::{ExemplarData, SlowRing, SpanData, TraceData};
use crate::frame;
use crate::metrics::{prometheus_sharded, snapshot_sharded, Metrics, ShardView};
use crate::protocol::{AttemptData, Request, Response, StatsData};
use crate::slots::{Admission, Slots};
use crate::snapshot::{self, SnapshotEntry};
use bisched_core::SolverConfig;
use bisched_model::canonical::fnv128;
use bisched_model::canonicalize;
use bisched_obs::names;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
// Atomics and mutexes come from the workspace concurrency facade (std
// passthroughs in normal builds; model-checked shims under `--cfg
// bisched_model`, where the `model_service_slots` suite explores the
// slot semaphore and the shard cache).
use bisched_obs::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the non-blocking accept loop and idle connection reads sleep
/// between polls. Small enough that shutdown and new connections are
/// picked up promptly, large enough to keep an idle daemon at ~zero CPU.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Tuning knobs for [`Service::start`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Service::local_addr`]).
    pub addr: String,
    /// Concurrent solves, split across shards: each shard has
    /// `max(1, workers / shards)` solve slots. A miss solves on its
    /// connection's thread once it holds one.
    pub workers: usize,
    /// Canonicalization-cache capacity **per shard** (reports); `0`
    /// disables caching.
    pub cache_cap: usize,
    /// Misses that may wait for a solve slot, per shard (minimum 1);
    /// past it, solve requests get a `busy` response (backpressure).
    pub queue_cap: usize,
    /// Base solver configuration; per-request `eps`/`method`/`portfolio`
    /// override it.
    pub base_config: SolverConfig,
    /// Slow-request exemplars kept per window per shard (the K in "K
    /// worst"); `trace` verb payload size. Minimum 1.
    pub exemplar_k: usize,
    /// Exemplar window length; the previous window stays fetchable for
    /// one more window after it completes.
    pub exemplar_window: Duration,
    /// Number of independent shards. Each owns its cache, solve slots,
    /// and metrics; solve requests route by
    /// `canonical_fingerprint % shards`.
    pub shards: usize,
    /// Cache snapshot file: loaded (and re-bucketed by route) at boot
    /// when present, written on graceful shutdown. `None` disables both.
    pub cache_snapshot: Option<PathBuf>,
}

impl ServeOptions {
    /// Solve slots each shard gets: `max(1, workers / shards)`.
    fn slots_per_shard(&self) -> usize {
        (self.workers.max(1) / self.shards.max(1)).max(1)
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(2),
            cache_cap: 4096,
            queue_cap: 1024,
            base_config: SolverConfig::new(),
            exemplar_k: 8,
            exemplar_window: Duration::from_secs(60),
            shards: 1,
            cache_snapshot: None,
        }
    }
}

/// One shard: everything a solve request touches after routing. No two
/// shards share any of this state, so requests on different shards never
/// contend.
struct Shard {
    cache: Mutex<LruCache>,
    metrics: Metrics,
    /// Bounds the shard's concurrent solves; closed at shutdown.
    slots: Slots,
    /// The shard's slow-request exemplar buffer behind the `trace` verb.
    exemplars: Mutex<SlowRing>,
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    base_config: SolverConfig,
    shards: Vec<Shard>,
    shutting_down: AtomicBool,
    /// Request-id mint: each solve request gets the next value, which
    /// tags its spans, log lines, and exemplar. Service-global so ids
    /// stay unique across shards.
    next_request_id: AtomicU64,
}

impl Shared {
    /// Empty shards for `opts` (no snapshot loaded yet).
    fn new(opts: &ServeOptions) -> Shared {
        let now = Instant::now();
        let shards = (0..opts.shards.max(1))
            .map(|_| Shard {
                cache: Mutex::new(LruCache::new(opts.cache_cap)),
                metrics: Metrics::default(),
                slots: Slots::new(opts.slots_per_shard(), opts.queue_cap),
                exemplars: Mutex::new(SlowRing::new(opts.exemplar_k, opts.exemplar_window, now)),
            })
            .collect();
        Shared {
            base_config: opts.base_config.clone(),
            shards,
            shutting_down: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
        }
    }

    /// The shard a canonical fingerprint routes to.
    fn shard_of(&self, route: u128) -> usize {
        (route % self.shards.len() as u128) as usize
    }

    /// Per-shard views for the cross-shard aggregators; takes each
    /// shard's cache lock briefly, never all at once.
    fn views(&self) -> Vec<ShardView<'_>> {
        self.shards
            .iter()
            .map(|s| {
                let cache = s.cache.lock().unwrap();
                ShardView {
                    metrics: &s.metrics,
                    cache: cache.counters(),
                    cache_len: cache.len(),
                }
            })
            .collect()
    }

    /// Snapshot for the `stats` verb: cross-shard totals plus the
    /// per-shard breakdown.
    fn stats(&self) -> StatsData {
        snapshot_sharded(&self.views())
    }

    /// Prometheus text exposition for the `metrics` verb.
    fn prometheus(&self) -> String {
        prometheus_sharded(&self.views())
    }

    /// The `trace` verb's payload: one shard's ring, or the merged
    /// all-shard view (each exemplar tagged with its shard id, the K
    /// worst service-wide kept).
    fn trace(&self, shard: Option<u64>) -> Result<TraceData, String> {
        let now = Instant::now();
        match shard {
            Some(i) => {
                let shard = self.shards.get(i as usize).ok_or_else(|| {
                    format!("shard {i} out of range (service has {})", self.shards.len())
                })?;
                Ok(shard.exemplars.lock().unwrap().snapshot(now))
            }
            None => {
                let mut merged = TraceData::default();
                for shard in &self.shards {
                    let snap = shard.exemplars.lock().unwrap().snapshot(now);
                    merged.window_s = snap.window_s;
                    merged.k = merged.k.max(snap.k);
                    merged.window = merged.window.max(snap.window);
                    merged.current.extend(snap.current);
                    merged.previous.extend(snap.previous);
                }
                let k = merged.k as usize;
                for list in [&mut merged.current, &mut merged.previous] {
                    list.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
                    list.truncate(k);
                }
                Ok(merged)
            }
        }
    }

    /// Idempotent shutdown trigger: refuse new work and close every
    /// shard's solve slots (admitted misses still finish). The polling
    /// accept loop observes the flag on its next tick — no
    /// connect-to-self poke needed.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        bisched_obs::info!(
            "service",
            "shutdown initiated, draining {} shard(s)",
            self.shards.len()
        );
        for shard in &self.shards {
            shard.slots.close();
        }
    }
}

/// A running solve daemon. Dropping the handle does **not** stop it; call
/// [`Service::shutdown`] (or send the `shutdown` verb) and then
/// [`Service::join`].
pub struct Service {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    snapshot_path: Option<PathBuf>,
}

impl Service {
    /// Binds, warm-starts the shard caches from the configured snapshot
    /// when one exists, spawns the accept loop, and returns the running
    /// service.
    pub fn start(opts: ServeOptions) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&opts));
        if let Some(path) = &opts.cache_snapshot {
            warm_start(&shared, path);
        }
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("bisched-accept".into())
                .spawn(move || accept_loop(listener, shared, handlers, spawn_handler))?
        };
        bisched_obs::info!(
            "service",
            "listening on {addr} — {} shard(s) × {} solve slot(s), queue {}/shard, cache {}/shard",
            shared.shards.len(),
            opts.slots_per_shard(),
            opts.queue_cap.max(1),
            opts.cache_cap,
        );
        Ok(Service {
            shared,
            addr,
            accept: Some(accept),
            handlers,
            snapshot_path: opts.cache_snapshot,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics snapshot (same payload as the `stats` verb).
    pub fn stats(&self) -> StatsData {
        self.shared.stats()
    }

    /// Initiates graceful shutdown: new solves are refused, admitted ones
    /// finish. Follow with [`Service::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the service has shut down (a `shutdown` request or
    /// [`Service::shutdown`]), joins every thread, writes the cache
    /// snapshot if one was configured, logs the final stats to stderr,
    /// and returns them.
    pub fn join(mut self) -> StatsData {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for handler in handlers {
            let _ = handler.join();
        }
        if let Some(path) = &self.snapshot_path {
            write_snapshot(&self.shared, path);
        }
        let stats = self.shared.stats();
        bisched_obs::info!(
            "service",
            "shut down after {:.1}s — {} requests over {} shard(s), {} solved ({} cached, hit rate {:.2}), {} busy, {} errors, p50 {:.3}ms p99 {:.3}ms (slot wait p50 {:.3}ms, solve p50 {:.3}ms)",
            stats.uptime_s,
            stats.requests,
            self.shared.shards.len(),
            stats.solved,
            stats.cache_hits,
            stats.hit_rate,
            stats.busy,
            stats.errors,
            stats.p50_ms,
            stats.p99_ms,
            stats.queue_p50_ms,
            stats.solve_p50_ms,
        );
        stats
    }
}

/// Loads `path` into the shard caches, re-bucketing every entry by its
/// recorded route (the snapshot may have been written under a different
/// shard count). A missing file is a normal cold start; a corrupt one is
/// logged and skipped — the daemon still boots.
fn warm_start(shared: &Shared, path: &std::path::Path) {
    if !path.exists() {
        bisched_obs::info!(
            "service",
            "no cache snapshot at {}, cold start",
            path.display()
        );
        return;
    }
    match snapshot::load(path) {
        Ok(entries) => {
            let n = entries.len();
            // The file holds each shard's entries most-recent first;
            // replaying in reverse inserts oldest-first, so LRU recency
            // survives the restart.
            for e in entries.into_iter().rev() {
                let shard = &shared.shards[shared.shard_of(e.route)];
                shard
                    .cache
                    .lock()
                    .unwrap()
                    .insert_routed(e.route, e.key, e.certificate, e.report);
            }
            bisched_obs::info!(
                "service",
                "warm start: loaded {n} cache entries from {} into {} shard(s)",
                path.display(),
                shared.shards.len()
            );
        }
        Err(e) => {
            bisched_obs::warn!(
                "service",
                "cache snapshot {} unreadable ({e}), cold start",
                path.display()
            );
        }
    }
}

/// Writes every shard's live cache entries to `path` (shard by shard,
/// most-recent first — the order [`warm_start`] expects to reverse).
fn write_snapshot(shared: &Shared, path: &std::path::Path) {
    let mut entries: Vec<SnapshotEntry> = Vec::new();
    for shard in &shared.shards {
        shard
            .cache
            .lock()
            .unwrap()
            .for_each_entry(|route, key, cert, report| {
                entries.push(SnapshotEntry {
                    route,
                    key,
                    certificate: cert.to_vec(),
                    report: Arc::clone(report),
                });
            });
    }
    match snapshot::save(path, &entries) {
        Ok(()) => bisched_obs::info!(
            "service",
            "wrote {} cache entries to snapshot {}",
            entries.len(),
            path.display()
        ),
        Err(e) => bisched_obs::warn!(
            "service",
            "failed to write cache snapshot {}: {e}",
            path.display()
        ),
    }
}

/// Starts the handler thread for one accepted connection.
fn spawn_handler(stream: TcpStream, shared: Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("bisched-conn".into())
        .spawn(move || handle_connection(stream, &shared))
}

/// Polls the non-blocking listener, handing each accepted connection to
/// a handler thread from `spawn`, until shutdown. Accepted streams are
/// switched back to blocking (with a short read timeout) for the
/// handler. When the OS refuses a thread, that one connection is dropped
/// and the loop keeps accepting.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    spawn: impl Fn(TcpStream, Arc<Shared>) -> std::io::Result<JoinHandle<()>>,
) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                bisched_obs::debug!("service", "connection from {peer}");
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let handle = match spawn(stream, Arc::clone(&shared)) {
                    Ok(handle) => handle,
                    Err(e) => {
                        bisched_obs::warn!(
                            "service",
                            "no handler thread for {peer} ({e}), connection dropped"
                        );
                        continue;
                    }
                };
                // Reap finished handlers as we go so a long-lived daemon
                // serving short connections doesn't accumulate dead
                // JoinHandles.
                let mut guard = handlers.lock().unwrap();
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// The wire framing a connection currently speaks. Every connection
/// starts in [`FrameMode::Json`]; the `upgrade` verb switches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameMode {
    /// One JSON object per `\n`-terminated line (the v1 default).
    Json,
    /// `u32`-LE length prefix + tagged binary payload (see [`frame`]).
    Binary,
}

/// Per-connection state: the negotiated framing and the shard the first
/// routed solve pinned (used to attribute non-solve verbs and unrouteable
/// errors; solve requests always re-route by their own fingerprint, so
/// multiplexed clients stay correct).
struct ConnState {
    mode: FrameMode,
    pinned: Option<usize>,
}

/// Reads requests until EOF, error, framing violation, or shutdown;
/// answers each on the same stream in the connection's current framing.
/// Reads poll with a short timeout so idle connections notice shutdown
/// promptly instead of pinning [`Service::join`]; partially received
/// messages survive the poll ticks in `pending`.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut conn = ConnState {
        mode: FrameMode::Json,
        pinned: None,
    };
    let mut pending = Pending::default();
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        // Serve every complete message already buffered before reading
        // more bytes.
        loop {
            let msg = match pending.next_message(conn.mode) {
                Ok(Some(m)) => m,
                Ok(None) => break,
                // Framing violation (oversized or malformed frame): the
                // stream position is unrecoverable, drop the connection.
                Err(e) => {
                    bisched_obs::debug!("service", "framing violation: {e}");
                    break 'conn;
                }
            };
            if msg.is_empty() {
                continue; // blank JSON line
            }
            if serve_message(&msg, &mut conn, &mut writer, shared).is_none() {
                break 'conn;
            }
            if shared.shutting_down.load(Ordering::SeqCst) {
                break 'conn; // close the connection once shutdown is underway
            }
        }
        match read_half.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => pending.bytes.extend_from_slice(&chunk[..n]),
            // Poll timeout: partial bytes stay in `pending` and the next
            // read continues the same message.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Bytes received on a connection and not yet framed.
#[derive(Default)]
struct Pending {
    bytes: Vec<u8>,
    /// JSON mode: how many leading bytes are known to hold no `\n`, so
    /// each byte is scanned once however many reads its line spans.
    scanned: usize,
}

impl Pending {
    /// Extracts the next complete message, if one is fully buffered: a
    /// `\n`-terminated line (trimmed, delimiter removed) in JSON mode, a
    /// length-prefixed payload in binary mode. A line or frame longer than
    /// [`frame::MAX_FRAME_LEN`] is a framing violation.
    fn next_message(&mut self, mode: FrameMode) -> Result<Option<Vec<u8>>, String> {
        match mode {
            FrameMode::Json => {
                let unscanned = &self.bytes[self.scanned..];
                let newline = unscanned.iter().position(|&b| b == b'\n');
                self.scanned += newline.unwrap_or(unscanned.len());
                if self.scanned > frame::MAX_FRAME_LEN as usize {
                    return Err(format!("line longer than {} bytes", frame::MAX_FRAME_LEN));
                }
                if newline.is_none() {
                    return Ok(None);
                }
                let end = self.scanned;
                let line = self.bytes[..end].trim_ascii().to_vec();
                self.bytes.drain(..=end);
                self.scanned = 0;
                Ok(Some(line))
            }
            FrameMode::Binary => {
                let pending = &mut self.bytes;
                if pending.len() < 4 {
                    return Ok(None);
                }
                let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes checked"));
                if len > frame::MAX_FRAME_LEN {
                    return Err(format!("frame length {len} over limit"));
                }
                let total = 4 + len as usize;
                if pending.len() < total {
                    return Ok(None);
                }
                let mut payload: Vec<u8> = pending.drain(..total).collect();
                payload.drain(..4);
                Ok(Some(payload))
            }
        }
    }
}

/// Decodes, dispatches, and answers one message. Returns `None` when the
/// connection should close (write failure).
fn serve_message(
    msg: &[u8],
    conn: &mut ConnState,
    writer: &mut TcpStream,
    shared: &Shared,
) -> Option<()> {
    let (response, switch) = match decode_request(msg, conn.mode) {
        Ok(req) => handle_request(req, conn, shared),
        Err(e) => {
            bisched_obs::debug!("service", "unparseable request: {e}");
            fallback_shard(conn, shared)
                .metrics
                .requests
                .fetch_add(1, Ordering::Relaxed);
            (Response::error(None, format!("bad request: {e}")), None)
        }
    };
    write_response(&response, conn.mode, writer).ok()?;
    // The upgrade response travels in the *old* framing; everything after
    // it speaks the new one.
    if let Some(mode) = switch {
        conn.mode = mode;
    }
    Some(())
}

/// Parses one wire message into a [`Request`] under the given framing.
fn decode_request(msg: &[u8], mode: FrameMode) -> Result<Request, String> {
    match mode {
        FrameMode::Json => {
            serde_json::from_str(&String::from_utf8_lossy(msg)).map_err(|e| e.to_string())
        }
        FrameMode::Binary => {
            let value = frame::decode_value(msg)?;
            serde_json::from_value(value).map_err(|e| e.to_string())
        }
    }
}

/// Serializes one response under the given framing.
fn write_response(
    response: &Response,
    mode: FrameMode,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    match mode {
        FrameMode::Json => {
            let text = serde_json::to_string(response)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            writeln!(writer, "{text}")
        }
        FrameMode::Binary => {
            let value = serde_json::to_value(response)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            let mut payload = Vec::new();
            frame::encode_value(&value, &mut payload);
            writer.write_all(&(payload.len() as u32).to_le_bytes())?;
            writer.write_all(&payload)
        }
    }
}

/// The shard non-solve verbs and unrouteable errors are attributed to:
/// whatever the connection's first solve pinned, shard 0 before that.
fn fallback_shard<'a>(conn: &ConnState, shared: &'a Shared) -> &'a Shard {
    &shared.shards[conn.pinned.unwrap_or(0)]
}

/// Dispatches one parsed request; returns the response and, for a
/// successful `upgrade`, the framing to switch to after it is written.
fn handle_request(
    req: Request,
    conn: &mut ConnState,
    shared: &Shared,
) -> (Response, Option<FrameMode>) {
    let count = |shard: &Shard| {
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
    };
    match req.verb.as_str() {
        "ping" => {
            count(fallback_shard(conn, shared));
            (Response::ok(req.id), None)
        }
        "stats" => {
            count(fallback_shard(conn, shared));
            let mut r = Response::ok(req.id);
            r.stats = Some(shared.stats());
            (r, None)
        }
        "metrics" => {
            count(fallback_shard(conn, shared));
            let mut r = Response::ok(req.id);
            r.metrics = Some(shared.prometheus());
            (r, None)
        }
        "trace" => {
            count(fallback_shard(conn, shared));
            match shared.trace(req.shard) {
                Ok(t) => {
                    let mut r = Response::ok(req.id);
                    r.exemplars = Some(t);
                    (r, None)
                }
                Err(e) => (Response::error(req.id, e), None),
            }
        }
        "shutdown" => {
            count(fallback_shard(conn, shared));
            shared.begin_shutdown();
            (Response::ok(req.id), None)
        }
        "upgrade" => {
            count(fallback_shard(conn, shared));
            match req.frame.as_deref() {
                Some("binary") => (Response::ok(req.id), Some(FrameMode::Binary)),
                Some("json") => (Response::ok(req.id), Some(FrameMode::Json)),
                other => (
                    Response::error(
                        req.id,
                        format!("unsupported frame {other:?} (expected \"binary\" or \"json\")"),
                    ),
                    None,
                ),
            }
        }
        "solve" => (handle_solve(&req, conn, shared), None),
        other => {
            count(fallback_shard(conn, shared));
            (
                Response::error(req.id, format!("unknown verb {other:?}")),
                None,
            )
        }
    }
}

fn handle_solve(req: &Request, conn: &mut ConnState, shared: &Shared) -> Response {
    let t0 = Instant::now();
    // Mint the request id first: every span and log line this request
    // produces carries it.
    let rid = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let _rid_scope = bisched_obs::log::request_scope(rid);
    let _request_span = bisched_obs::span_arg(names::SOLVE_REQUEST, "service", "request_id", rid);
    let id = req.id;
    // Errors before routing (no instance yet, so no fingerprint) are
    // attributed to the connection's fallback shard.
    let fail_unrouted = |message: String| {
        let shard = fallback_shard(conn, shared);
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
        shard.metrics.errors.fetch_add(1, Ordering::Relaxed);
        Response::error(id, message)
    };
    let Some(data) = req.instance.clone() else {
        return fail_unrouted("solve requires `instance`".into());
    };
    let config = match req.solver_config(&shared.base_config) {
        Ok(c) => c,
        Err(e) => return fail_unrouted(e),
    };
    // `Instance::uniform` sorts speeds, so a `Q` request with unsorted
    // speeds gets its machines renumbered internally; keep the submitted
    // order to translate machine ids back in the response.
    let submitted_speeds = data.speeds.clone();
    let instance = match data.into_instance() {
        Ok(i) => i,
        Err(e) => return fail_unrouted(e.to_string()),
    };
    let canon_t0 = Instant::now();
    let canon_span = bisched_obs::span_arg(names::CANONICALIZE, "service", "request_id", rid);
    let mut canonical = canonicalize(&instance);
    drop(canon_span);
    let canon_us = canon_t0.elapsed().as_micros() as u64;
    if let Some(submitted) = &submitted_speeds {
        let map = sorted_to_submitted(&instance.speeds(), submitted);
        for m in canonical.machine_perm.iter_mut() {
            *m = map[*m as usize];
        }
    }

    // Route by the raw canonical fingerprint — relabelings of one
    // instance share it, so they always reach the same shard cache. The
    // first routed solve pins the connection; each request still
    // re-routes by its own fingerprint (multiplexed clients).
    let route = canonical.fingerprint;
    let shard_idx = shared.shard_of(route);
    conn.pinned = Some(shard_idx);
    let shard = &shared.shards[shard_idx];
    shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
    shard.metrics.record_canonicalize(canon_us);
    let fail = |r: Response| {
        shard.metrics.errors.fetch_add(1, Ordering::Relaxed);
        r
    };

    // The cache key covers the *effective solver configuration* too: a
    // report produced under `method: greedy` must never answer a request
    // that forced an exact engine (or a different eps), and vice versa.
    let cfg_bytes = config_cache_bytes(&config);
    let cache_key = canonical.fingerprint ^ fnv128(&cfg_bytes);
    let cache_cert: Vec<u8> = {
        let mut c = canonical.certificate.clone();
        c.extend_from_slice(&cfg_bytes);
        c
    };

    // Fast path: serve relabelings of anything already solved straight
    // from the shard's cache, translated back to the request's labeling.
    if !req.no_cache.unwrap_or(false) {
        let hit = shard.cache.lock().unwrap().get(cache_key, &cache_cert);
        if let Some(report) = hit {
            bisched_obs::instant(names::CACHE_HIT, "service", "request_id", rid);
            return finish_solve(
                id, rid, &canonical, &report, t0, canon_us, None, shard, shard_idx,
            );
        }
        bisched_obs::instant(names::CACHE_MISS, "service", "request_id", rid);
    }

    // Miss: take one of the shard's solve slots, or wait for one, and
    // solve on this thread. At most `queue_cap` misses wait per shard;
    // the next one is answered `busy`.
    let solver = match config.build() {
        Ok(solver) => solver,
        Err(e) => return fail(Response::solve_error(id, &e)),
    };
    let wait_t0 = Instant::now();
    let permit = match shard.slots.acquire() {
        Admission::Admitted(permit) => permit,
        Admission::Busy => {
            shard.metrics.busy.fetch_add(1, Ordering::Relaxed);
            bisched_obs::debug!(
                "service",
                "shard {shard_idx} has no free solve slot, rejecting request {id:?}"
            );
            return Response::busy(id);
        }
        Admission::Closed => return fail(Response::error(id, "service is shutting down")),
    };
    let wait_us = wait_t0.elapsed().as_micros() as u64;
    shard.metrics.record_slot_wait(wait_us);
    let solve_t0 = Instant::now();
    let result = solver.solve(&canonical.instance);
    let solve_us = solve_t0.elapsed().as_micros() as u64;
    drop(permit);
    shard.metrics.solves.fetch_add(1, Ordering::Relaxed);
    shard.metrics.record_solve_time(solve_us);
    let report = match result {
        Ok(report) => Arc::new(report),
        Err(e) => return fail(Response::solve_error(id, &e)),
    };
    shard.metrics.record_win(report.method);
    for run in &report.attempts {
        if run.cancelled {
            shard.metrics.record_cancelled(run.method);
        }
    }
    {
        let mut cache = shard.cache.lock().unwrap();
        let evictions_before = cache.counters().evictions;
        cache.insert_routed(route, cache_key, cache_cert, Arc::clone(&report));
        if cache.counters().evictions > evictions_before {
            bisched_obs::instant(names::CACHE_EVICT, "service", "", 0);
        }
    }
    bisched_obs::instant(names::JOB_DONE, "service", "request_id", rid);
    finish_solve(
        id,
        rid,
        &canonical,
        &report,
        t0,
        canon_us,
        Some((wait_us, solve_us)),
        shard,
        shard_idx,
    )
}

/// Builds the `ok` solve response in the request's labeling, and offers
/// the finished request to the shard's slow-request exemplar buffer.
/// `timing` is `Some((slot_wait_us, solve_us))` for fresh solves, `None`
/// for cache hits (which never take a slot).
#[allow(clippy::too_many_arguments)]
fn finish_solve(
    id: Option<u64>,
    rid: u64,
    canonical: &bisched_model::Canonical,
    report: &bisched_core::SolveReport,
    t0: Instant,
    canon_us: u64,
    timing: Option<(u64, u64)>,
    shard: &Shard,
    shard_idx: usize,
) -> Response {
    let cached = timing.is_none();
    let schedule = canonical.schedule_to_original(&report.schedule);
    let mut r = Response::ok(id);
    r.method = Some(report.method.name().to_string());
    r.guarantee = Some(report.guarantee.to_string());
    r.makespan_num = Some(report.makespan.num());
    r.makespan_den = Some(report.makespan.den());
    r.lower_bound_num = Some(report.lower_bound.num());
    r.lower_bound_den = Some(report.lower_bound.den());
    r.assignment = Some(schedule.assignment().to_vec());
    r.cached = Some(cached);
    let elapsed = t0.elapsed();
    let total_ms = elapsed.as_secs_f64() * 1e3;
    r.time_ms = Some(total_ms);
    // Counters travel only on fresh solves: a cache hit's attempts
    // would describe the original request's work, not this one's.
    if !cached {
        r.attempts = Some(report.attempts.iter().map(AttemptData::from_run).collect());
    }
    shard.metrics.solved.fetch_add(1, Ordering::Relaxed);
    shard.metrics.record_latency(elapsed.as_micros() as u64);
    bisched_obs::debug!(
        "service",
        "solved via {} in {total_ms:.3}ms (shard {shard_idx}, cached: {cached})",
        report.method.name()
    );
    let exemplar = ExemplarData {
        request_id: rid,
        total_ms,
        cached,
        method: Some(report.method.name().to_string()),
        fingerprint: format!("{:032x}", canonical.fingerprint),
        shard: shard_idx as u64,
        root: exemplar_tree(total_ms, canon_us, timing, report),
    };
    shard
        .exemplars
        .lock()
        .unwrap()
        .record(exemplar, Instant::now());
    r
}

/// Assembles the exemplar's span tree from the measured phase boundaries
/// and the report's per-engine attempts. Cache hits get a
/// canonicalize-only tree: the engine spans of the original solve would
/// misattribute this request's time.
fn exemplar_tree(
    total_ms: f64,
    canon_us: u64,
    timing: Option<(u64, u64)>,
    report: &bisched_core::SolveReport,
) -> SpanData {
    let canon_ms = canon_us as f64 / 1e3;
    let mut children = vec![SpanData {
        name: "canonicalize".into(),
        start_ms: 0.0,
        dur_ms: canon_ms,
        counters: vec![],
        children: vec![],
    }];
    if let Some((wait_us, solve_us)) = timing {
        let wait_ms = wait_us as f64 / 1e3;
        let solve_ms = solve_us as f64 / 1e3;
        children.push(SpanData {
            name: "slot_wait".into(),
            start_ms: canon_ms,
            dur_ms: wait_ms,
            counters: vec![],
            children: vec![],
        });
        let solve_start = canon_ms + wait_ms;
        // Race members run concurrently, so each engine span starts at
        // the solve start; its own wall time is its duration.
        let engine_spans = report
            .attempts
            .iter()
            .map(|run| SpanData {
                name: run.method.name().to_string(),
                start_ms: solve_start,
                dur_ms: run.wall_time.as_secs_f64() * 1e3,
                counters: run.stats.iter().map(|(n, v)| (n.to_string(), v)).collect(),
                children: vec![],
            })
            .collect();
        children.push(SpanData {
            name: "solve".into(),
            start_ms: solve_start,
            dur_ms: solve_ms,
            counters: vec![],
            children: engine_spans,
        });
    }
    SpanData {
        name: "solve_request".into(),
        start_ms: 0.0,
        dur_ms: total_ms,
        counters: vec![],
        children,
    }
}

/// Maps each position of the server's sorted `Q` speeds vector to a
/// submitted machine index with the same speed (duplicates consumed in
/// submission order — equal-speed machines are interchangeable).
fn sorted_to_submitted(sorted: &[u64], submitted: &[u64]) -> Vec<u32> {
    let mut buckets: std::collections::HashMap<u64, std::collections::VecDeque<u32>> =
        std::collections::HashMap::new();
    for (i, &s) in submitted.iter().enumerate() {
        buckets.entry(s).or_default().push_back(i as u32);
    }
    sorted
        .iter()
        .map(|s| {
            buckets
                .get_mut(s)
                .and_then(|q| q.pop_front())
                .expect("sorted speeds are a permutation of the submitted speeds")
        })
        .collect()
}

/// Stable byte encoding of everything in a [`SolverConfig`] that can
/// change a solve's outcome — part of the cache key.
///
/// The exhaustive destructure below is deliberate: a field added to
/// `SolverConfig` is a compile error here until it is bound, and under
/// `deny(unused_variables)` a bound field that is not encoded fails the
/// build too — a silent wrong-config cache hit is never an option.
#[deny(unused_variables)]
fn config_cache_bytes(config: &SolverConfig) -> Vec<u8> {
    use bisched_core::MethodPolicy;
    let SolverConfig {
        eps,
        exact_budget,
        bnb_node_limit,
        bnb_deadline,
        cp_node_limit,
        race_deadline,
        auto_exact_jobs,
        fptas_state_cap,
        seed,
        policy,
    } = config;
    let mut out = Vec::new();
    out.extend_from_slice(&eps.to_bits().to_le_bytes());
    out.extend_from_slice(&exact_budget.to_le_bytes());
    out.extend_from_slice(&bnb_node_limit.to_le_bytes());
    // `u64::MAX` marks "no deadline" (a real deadline of u64::MAX ns is
    // indistinguishable from none in effect, so the collision is benign).
    let deadline_ns = bnb_deadline
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(u64::MAX);
    out.extend_from_slice(&deadline_ns.to_le_bytes());
    out.extend_from_slice(&cp_node_limit.to_le_bytes());
    // Same `u64::MAX`-as-"none" convention for the race deadline.
    let race_ns = race_deadline
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(u64::MAX);
    out.extend_from_slice(&race_ns.to_le_bytes());
    // `u64::MAX` marks "no FPTAS state cap" (a real cap never reaches it:
    // `SolverConfig::build` rejects 0 and widths are bounded by memory).
    let fptas_cap = fptas_state_cap.map(|c| c as u64).unwrap_or(u64::MAX);
    out.extend_from_slice(&fptas_cap.to_le_bytes());
    out.extend_from_slice(&(*auto_exact_jobs as u64).to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    match policy {
        MethodPolicy::Auto => out.push(0),
        MethodPolicy::Force(m) => {
            out.push(1);
            out.extend_from_slice(m.name().as_bytes());
        }
        MethodPolicy::Portfolio(methods) => {
            out.push(2);
            for m in methods {
                out.extend_from_slice(m.name().as_bytes());
                out.push(b',');
            }
        }
    }
    out
}

/// Convenience: starts a service on `addr` with default options.
pub fn serve<A: ToSocketAddrs + std::fmt::Display>(addr: A) -> std::io::Result<Service> {
    Service::start(ServeOptions {
        addr: addr.to_string(),
        ..ServeOptions::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_threads_take_at_most_the_worker_count_of_slots() {
        let opts = |workers, shards| ServeOptions {
            workers,
            shards,
            ..ServeOptions::default()
        };
        assert_eq!(opts(4, 2).slots_per_shard(), 2);
        assert_eq!(opts(5, 2).slots_per_shard(), 2);
        assert_eq!(opts(1, 4).slots_per_shard(), 1, "every shard gets a slot");
        // Each shard has its own two slots (a third miss would wait, see
        // `slots::tests`), and shutdown closes every shard.
        let shared = Shared::new(&opts(4, 2));
        let held = [0, 0, 1, 1].map(|i| match shared.shards[i].slots.acquire() {
            Admission::Admitted(permit) => permit,
            other => panic!("shard {i}: expected a free slot, got {other:?}"),
        });
        drop(held);
        shared.begin_shutdown();
        for shard in &shared.shards {
            assert!(matches!(shard.slots.acquire(), Admission::Closed));
        }
    }

    #[test]
    fn a_shard_answers_while_another_holds_its_locks_and_slots() {
        use bisched_model::{Instance, InstanceData};
        use std::sync::mpsc;
        let shared = Arc::new(Shared::new(&ServeOptions {
            workers: 4,
            shards: 2,
            ..ServeOptions::default()
        }));
        // Two non-isomorphic instances that route to shard 1.
        let mut routed = (1..)
            .map(|p| Instance::identical(2, vec![p, 2, 3], bisched_graph::Graph::path(3)).unwrap());
        let mut next_on_shard_1 = || {
            routed
                .find(|inst| shared.shard_of(canonicalize(inst).fingerprint) == 1)
                .unwrap()
        };
        let (warm, fresh) = (next_on_shard_1(), next_on_shard_1());
        let solve = |shared: &Shared, inst: &Instance| {
            let req = Request::solve(InstanceData::from_instance(inst));
            let mut conn = ConnState {
                mode: FrameMode::Json,
                pinned: None,
            };
            handle_request(req, &mut conn, shared).0
        };
        assert_eq!(solve(&shared, &warm).cached, Some(false));

        // Shard 0 (also the unpinned connection's fallback) holds its
        // cache, its exemplar ring and every solve slot.
        let held = &shared.shards[0];
        let _cache = held.cache.lock().unwrap();
        let _exemplars = held.exemplars.lock().unwrap();
        let _slots = [0, 1].map(|k| match held.slots.acquire() {
            Admission::Admitted(permit) => permit,
            other => panic!("slot {k}: expected a free slot, got {other:?}"),
        });
        // Shard 1 must still answer a hit and a fresh miss. They run on
        // another thread, so a shared lock fails the test by timeout
        // instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for inst in [warm, fresh] {
                    let _ = tx.send(solve(&shared, &inst));
                }
            })
        };
        for cached in [true, false] {
            let resp = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("shard 1 waited on shard 0");
            assert_eq!((resp.status.as_str(), resp.cached), ("ok", Some(cached)));
        }
        worker.join().unwrap();
    }

    #[test]
    fn a_refused_handler_thread_drops_only_that_connection() {
        use crate::client::Client;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new(&ServeOptions::default()));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (shared, handlers) = (Arc::clone(&shared), Arc::clone(&handlers));
            let refused = std::sync::atomic::AtomicBool::new(false);
            std::thread::spawn(move || {
                accept_loop(listener, shared, handlers, move |stream, shared| {
                    // The first connection meets an OS that refuses a thread.
                    if !refused.swap(true, std::sync::atomic::Ordering::SeqCst) {
                        return Err(std::io::Error::other("injected spawn failure"));
                    }
                    spawn_handler(stream, shared)
                })
            })
        };
        let mut dropped = Client::connect(addr).unwrap();
        assert!(dropped.ping().is_err(), "the refused connection is closed");
        // The accept thread survived and serves the next connection.
        assert_eq!(Client::connect(addr).unwrap().ping().unwrap().status, "ok");
        shared.begin_shutdown();
        accept.join().unwrap();
        for handler in std::mem::take(&mut *handlers.lock().unwrap()) {
            handler.join().unwrap();
        }
    }

    #[test]
    fn cache_bytes_distinguish_outcome_changing_knobs() {
        let base = SolverConfig::new();
        let baseline = config_cache_bytes(&base);
        // Every knob that can change a solve's result must change the key.
        for variant in [
            base.clone().eps(0.5),
            base.clone().exact_budget(7),
            base.clone().bnb_node_limit(9),
            base.clone()
                .bnb_deadline(Some(std::time::Duration::from_millis(3))),
            base.clone().cp_node_limit(11),
            base.clone()
                .race_deadline(Some(std::time::Duration::from_millis(5))),
            base.clone().fptas_state_cap(Some(1024)),
            base.clone().auto_exact_jobs(3),
            base.clone().seed(1),
        ] {
            assert_ne!(
                config_cache_bytes(&variant),
                baseline,
                "variant {variant:?} must not share a cache key with the default config"
            );
        }
    }

    #[test]
    fn json_messages_split_on_newlines_and_survive_partials() {
        let mut pending = Pending {
            bytes: b"  {\"verb\":\"ping\"}  \n{\"verb\"".to_vec(),
            scanned: 0,
        };
        let first = pending.next_message(FrameMode::Json).unwrap();
        assert_eq!(first.as_deref(), Some(b"{\"verb\":\"ping\"}".as_slice()));
        // The second message is incomplete: nothing yet, bytes retained.
        assert!(pending.next_message(FrameMode::Json).unwrap().is_none());
        pending.bytes.extend_from_slice(b":\"stats\"}\n");
        let second = pending.next_message(FrameMode::Json).unwrap();
        assert_eq!(second.as_deref(), Some(b"{\"verb\":\"stats\"}".as_slice()));
        assert!(pending.bytes.is_empty());
    }

    #[test]
    fn a_long_json_line_is_scanned_once_across_reads() {
        let mut line = b" \t{\"verb\":\"ping\",\"pad\":\"".to_vec();
        line.resize(4 << 20, b'x');
        line.extend_from_slice(b"\"}\r\n");
        let chunks: Vec<&[u8]> = line.chunks(16 * 1024).collect();
        let mut pending = Pending::default();
        for (i, chunk) in chunks.iter().enumerate() {
            pending.bytes.extend_from_slice(chunk);
            let got = pending.next_message(FrameMode::Json).unwrap();
            if i + 1 < chunks.len() {
                assert!(got.is_none(), "premature message at chunk {i}");
                // The next read's scan starts where this one stopped.
                assert_eq!(pending.scanned, pending.bytes.len());
            } else {
                assert_eq!(got.as_deref(), Some(line.trim_ascii()));
            }
        }
        assert!(pending.bytes.is_empty());
        assert_eq!(pending.scanned, 0);
    }

    #[test]
    fn binary_messages_wait_for_the_full_frame() {
        let mut payload = Vec::new();
        let ping = serde_json::parse_value("{\"verb\": \"ping\"}").unwrap();
        frame::encode_value(&ping, &mut payload);
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // Feed the frame one byte at a time: no message until complete.
        let mut pending = Pending::default();
        for (i, b) in wire.iter().enumerate() {
            pending.bytes.push(*b);
            let got = pending.next_message(FrameMode::Binary).unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "premature message at byte {i}");
            } else {
                assert_eq!(got.as_deref(), Some(payload.as_slice()));
            }
        }
        assert!(pending.bytes.is_empty());
    }

    #[test]
    fn json_lines_longer_than_the_frame_limit_are_rejected() {
        let limit = frame::MAX_FRAME_LEN as usize;
        let mut pending = Pending::default();
        pending.bytes.resize(limit, b' ');
        assert!(pending.next_message(FrameMode::Json).unwrap().is_none());
        pending.bytes.push(b' ');
        assert!(pending.next_message(FrameMode::Json).is_err());
        // A newline past the limit does not rescue the line.
        let mut pending = Pending::default();
        pending.bytes.resize(limit + 1, b' ');
        pending.bytes.push(b'\n');
        assert!(pending.next_message(FrameMode::Json).is_err());
    }

    #[test]
    fn oversized_binary_frames_are_rejected() {
        let mut pending = Pending::default();
        pending
            .bytes
            .extend_from_slice(&(frame::MAX_FRAME_LEN + 1).to_le_bytes());
        pending.bytes.extend_from_slice(&[0; 16]);
        assert!(pending.next_message(FrameMode::Binary).is_err());
    }
}
