//! # bisched-service
//!
//! The high-throughput solve daemon: a long-running TCP service (plain
//! `std::net`, JSON-lines protocol with an optional binary framing —
//! see `PROTOCOL.md`) in front of the [`bisched_core::Solver`] engine,
//! built for bulk workloads:
//!
//! * **Sharded front end** — the service runs as N independent shards;
//!   every solve request routes by its canonical 128-bit fingerprint
//!   (`fingerprint % shards`), and each shard owns its own cache, solve
//!   slots, histograms, and exemplar ring, so the solve hot path crosses
//!   no shard boundary and no global lock.
//! * **Canonicalization cache** — every instance is reduced to the
//!   normal form of [`bisched_model::canonical`] and memoized in a
//!   bounded LRU keyed by its 128-bit fingerprint, so repeated *and
//!   relabeled/isomorphic* submissions are answered without re-solving
//!   (the cached schedule is translated back through the request's
//!   labeling). Routing uses the same fingerprint, so isomorphic
//!   submissions always find the shard that cached them.
//! * **Snapshot / warm start** — with `cache_snapshot` set, a graceful
//!   shutdown writes every shard's cache entries to a versioned binary
//!   file and the next boot reloads them (re-bucketed by route, so the
//!   shard count may change between runs).
//! * **One solve path** — every request is served on its connection's
//!   thread. A cache miss takes one of its shard's `max(1, workers /
//!   shards)` solve slots, or waits for one, and then calls
//!   [`Solver::solve`](bisched_core::Solver::solve) in place (see
//!   [`slots`]).
//! * **Backpressure** — at most `queue_cap` misses wait per shard; the
//!   next one gets a typed `busy` response instead of unbounded
//!   buffering.
//! * **Bounded input** — a JSON line or binary frame is at most
//!   [`frame::MAX_FRAME_LEN`] bytes and nests at most
//!   [`frame::MAX_DEPTH`] arrays and objects deep; past either limit the
//!   request gets a typed `error` (depth) or the connection is dropped
//!   (length), and the daemon keeps serving.
//! * **Stats** — the `stats` verb (and shutdown log) reports cross-shard
//!   totals plus a per-shard breakdown: requests, hit rates, p50/p99.
//! * **Graceful shutdown** — the `shutdown` verb stops intake, lets
//!   every admitted miss finish, and joins all threads. No
//!   connect-to-self tricks: the accept loop is a non-blocking poll.
//!
//! ## Scaling the service
//!
//! One shard is a classic single-cache daemon. Raising `--shards N`
//! splits the keyspace N ways: because the router hashes the *canonical*
//! fingerprint, each shard sees a disjoint slice of instances and its
//! cache stays as effective as the single global one — there is no
//! cross-shard duplication for relabeled resubmissions, and no lock is
//! shared between shards on the solve path. On cache-hit traffic,
//! aggregate throughput therefore scales near-linearly until clients or
//! the accept loop saturate; the `service_scaling` lab suite measures
//! exactly this (1→8 shards) and the bench gate holds the ratio. Use
//! `bisched_cli submit --clients K` to drive a sharded daemon from K
//! concurrent connections and print per-shard hit rates.
//!
//! ```no_run
//! use bisched_service::{Client, Request, ServeOptions, Service};
//! use bisched_model::{Instance, InstanceData};
//! use bisched_graph::Graph;
//!
//! let service = Service::start(ServeOptions {
//!     shards: 4,
//!     ..ServeOptions::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(service.local_addr()).unwrap();
//!
//! let inst = Instance::identical(2, vec![3, 2, 4], Graph::path(3)).unwrap();
//! let resp = client.solve(InstanceData::from_instance(&inst)).unwrap();
//! assert_eq!(resp.status, "ok");
//!
//! client.shutdown_server().unwrap();
//! service.join();
//! ```

#![warn(missing_docs)]
pub mod cache;
pub mod client;
pub mod exemplar;
pub mod frame;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod slots;
mod snapshot;

pub use cache::{CacheCounters, LruCache};
pub use client::{Client, ClientError};
pub use exemplar::{ExemplarData, SpanData, TraceData};
pub use metrics::{LatencyHist, Metrics};
pub use protocol::{AttemptData, Request, Response, ShardStats, StatsData};
pub use server::{serve, ServeOptions, Service};
