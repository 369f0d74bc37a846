//! # bisched — scheduling with bipartite incompatibility graphs
//!
//! A faithful, production-grade Rust implementation of
//! *"Scheduling on uniform and unrelated machines with bipartite
//! incompatibility graphs"* (Tytus Pikies, Hanna Furmańczyk, IPPS 2022,
//! arXiv:2106.14354), together with every substrate it stands on.
//!
//! ## The model
//!
//! Jobs with processing requirements must be assigned to parallel machines
//! (identical `P`, uniform `Q`, or unrelated `R`) so that the jobs on any
//! one machine form an **independent set** of a bipartite incompatibility
//! graph; the objective is the makespan `C_max`.
//!
//! ## Quick start
//!
//! Solving goes through the [`Solver`](core::Solver) engine, built from a
//! [`SolverConfig`](core::SolverConfig):
//!
//! ```
//! use bisched::prelude::*;
//!
//! // Four jobs; 0–1 and 2–3 must not share a machine.
//! let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
//! // Two uniform machines, the first twice as fast.
//! let inst = Instance::uniform(vec![2, 1], vec![4, 3, 2, 3], g).unwrap();
//!
//! let report = Solver::new().solve(&inst).unwrap();
//! assert!(report.schedule.validate(&inst).is_ok());
//! println!("C_max = {} via {} ({})", report.makespan, report.method, report.guarantee);
//! ```
//!
//! Tuning, forcing a method, and portfolios:
//!
//! ```
//! use bisched::prelude::*;
//!
//! let inst = Instance::unrelated(
//!     vec![vec![3, 9, 4, 8], vec![8, 2, 7, 3]],
//!     Graph::from_edges(4, &[(0, 1), (2, 3)]),
//! )
//! .unwrap();
//!
//! // A sharper FPTAS and a forced method.
//! let solver = SolverConfig::new()
//!     .eps(0.05)
//!     .method(Method::R2Fptas)
//!     .build()
//!     .unwrap();
//! let report = solver.solve(&inst).unwrap();
//! assert_eq!(report.method, Method::R2Fptas);
//! assert_eq!(report.guarantee, Guarantee::OnePlusEps(0.05));
//!
//! // A portfolio races its members concurrently: the calling thread
//! // plus up to `available_parallelism - 1` threads it spawns and
//! // joins. The first engine to *prove* optimality cancels the rest
//! // (the losers' attempts are recorded with `cancelled: true`), and
//! // the result is never worse than any member's.
//! let portfolio = SolverConfig::new()
//!     .portfolio(vec![Method::R2TwoApprox, Method::R2Fptas])
//!     .build()
//!     .unwrap();
//! let best = portfolio.solve(&inst).unwrap();
//! assert!(best.makespan <= report.makespan);
//! assert!(best.race_time.is_some()); // races report their wall time
//! ```
//!
//! ## The exact oracle and its budgets
//!
//! [`exact::branch_and_bound`](exact) is the workspace's proven-optimum
//! oracle at `n ≲ 24`: a pruned search over per-job conflict bitmasks
//! with identical-machine symmetry breaking and the incremental
//! graph-aware lower bounds of `bisched_exact::lower_bounds`. Two budgets
//! bound it — a deterministic node limit
//! ([`SolverConfig::bnb_node_limit`](core::SolverConfig), CLI
//! `--node-limit`) and an optional wall-clock deadline
//! ([`SolverConfig::bnb_deadline`](core::SolverConfig), CLI
//! `--bnb-deadline-ms`). A search truncated by either returns its best
//! incumbent as a `Heuristic` (the report still reads `Optimal` when that
//! incumbent meets the reported lower bound); a search that finishes —
//! even on its very last budgeted node — is `Optimal`, and its `complete`
//! counter reads 1:
//!
//! ```
//! use bisched::prelude::*;
//! use std::time::Duration;
//!
//! let inst = Instance::identical(3, vec![4, 3, 3, 2, 2], Graph::path(5)).unwrap();
//! let solver = SolverConfig::new()
//!     .method(Method::BranchAndBound)
//!     .bnb_node_limit(1_000_000)
//!     .bnb_deadline(Some(Duration::from_secs(5)))
//!     .build()
//!     .unwrap();
//! let report = solver.solve(&inst).unwrap();
//! assert_eq!(report.guarantee, Guarantee::Optimal);
//! assert_eq!(report.attempts[0].stats.get("complete"), Some(1));
//! ```
//!
//! ## FPTAS knobs
//!
//! The `R2 || C_max` sweep behind Algorithm 5 (and, through Algorithm 1
//! and the Theorem 4 route, behind most `Auto` solves) is a pruned,
//! streaming DP ([`fptas`]): a greedy incumbent and suffix lower bounds
//! kill hopeless states, and only compact backpointers are retained per
//! layer. Each layer is one sorted merge of its parent's two child lists
//! with the Pareto-dominance rule applied inline. Two knobs steer it:
//!
//! * [`SolverConfig::eps`](core::SolverConfig) (CLI `--eps`) — the
//!   accuracy `ε ∈ (0, 1]` of the `(1+ε)` guarantee (Theorem 22);
//! * [`SolverConfig::fptas_state_cap`](core::SolverConfig) (CLI
//!   `--fptas-state-cap`) — a bound on the DP's live width, capping its
//!   memory. When a layer outgrows it the solver coarsens `ε` gracefully
//!   (doubling, never past Algorithm 5's `ε = 1` regime ceiling) and the
//!   reported guarantee carries the **effective** `ε`; a cap that even
//!   `ε = 1` cannot meet fails the FPTAS with a typed state-cap error,
//!   visible in [`SolveReport::attempts`](core::SolveReport), and `Auto`
//!   then falls back to Algorithm 4's 2-approximation.
//!
//! ```
//! use bisched::prelude::*;
//!
//! let inst = Instance::unrelated(
//!     vec![
//!         vec![40, 37, 51, 44, 60, 33, 48, 55],
//!         vec![41, 36, 52, 45, 61, 32, 47, 56],
//!     ],
//!     Graph::empty(8),
//! )
//! .unwrap();
//! let solver = SolverConfig::new()
//!     .method(Method::R2Fptas)
//!     .eps(0.05)
//!     .fptas_state_cap(Some(4096)) // bound the DP's live width
//!     .build()
//!     .unwrap();
//! let report = solver.solve(&inst).unwrap();
//! match report.guarantee {
//!     // ε as configured unless the cap forced coarsening (≤ 1 always).
//!     Guarantee::OnePlusEps(eps) => assert!((0.05..=1.0).contains(&eps)),
//!     other => panic!("unexpected guarantee {other}"),
//! }
//! ```
//!
//! The DP itself is reachable as
//! [`fptas::rm_cmax_fptas_with`], whose
//! [`FptasResult`](fptas::FptasResult) reports `expanded` / `pruned` /
//! `peak_states` counters; the `fptas-scaling` lab suite pins its
//! performance.
//!
//! ## Observing a solve
//!
//! Every attempt in a [`SolveReport`](core::SolveReport) carries the
//! engine's runtime counters as [`EngineStats`](core::EngineStats) —
//! nodes expanded, prunes per bound kind, CP propagations and probe
//! outcomes, FPTAS layer statistics — at no cost beyond the counters the
//! engines already kept. For a *timeline*, the [`obs`] flight recorder
//! captures engine spans, portfolio race events, incumbent updates, and
//! probe bounds into lock-free per-thread rings (when off, each emit
//! site costs one relaxed atomic load), and exports Chrome trace-event
//! JSON for `chrome://tracing` or <https://ui.perfetto.dev>:
//!
//! ```
//! use bisched::prelude::*;
//!
//! let inst = Instance::identical(3, vec![4, 3, 3, 2, 2], Graph::path(5)).unwrap();
//! let solver = SolverConfig::new()
//!     .method(Method::BranchAndBound)
//!     .build()
//!     .unwrap();
//!
//! bisched::obs::start_recording(1 << 14); // ring capacity per thread
//! let report = solver.solve(&inst).unwrap();
//! let trace = bisched::obs::stop_recording();
//!
//! // Counters ride on every attempt…
//! let run = &report.attempts[0];
//! assert!(run.stats.get("nodes").unwrap() > 0);
//! assert_eq!(run.stats.get("complete"), Some(1));
//! // …and the trace is ready for Perfetto (dropped events are counted,
//! // never silent).
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert_eq!(trace.dropped, 0);
//! ```
//!
//! The same recording folds into a **self-time profile** — per
//! `(thread, span-stack)` rows splitting wall time into total vs self
//! (time not spent in child spans), exported in the flamegraph-collapsed
//! format (`solve;portfolio_race;cp 1234`, self-µs as the weight):
//!
//! ```
//! # use bisched::prelude::*;
//! # let inst = Instance::identical(3, vec![4, 3, 3, 2, 2], Graph::path(5)).unwrap();
//! # let solver = SolverConfig::new().method(Method::BranchAndBound).build().unwrap();
//! # bisched::obs::start_recording(1 << 14);
//! # let _ = solver.solve(&inst).unwrap();
//! # let trace = bisched::obs::stop_recording();
//! let profile = bisched::obs::Profile::from_trace(&trace);
//! for row in &profile.rows {
//!     assert!(row.self_us <= row.total_us);
//! }
//! let collapsed = profile.to_collapsed(); // one `name(;name)* <µs>` per line
//! ```
//!
//! From the command line, `bisched_cli solve inst.txt --portfolio
//! exact-q2,branch-and-bound,cp --trace-out trace.json` records a whole
//! portfolio race (member spans, `race_publish`/`race_cancel` instants),
//! `--profile-out prof.collapsed` writes the collapsed profile of the
//! same recording (both flags compose), and `lab run --trace-out` /
//! `lab run --profile-out` do the same for a benchmark suite. A running
//! daemon serves Prometheus text exposition through the `metrics` verb
//! (`bisched_cli metrics --addr …`) and **slow-request exemplars**
//! through the `trace` verb (`bisched_cli trace --addr …`): always-on,
//! the K slowest requests of the current and previous windows as span
//! trees — canonicalize/slot-wait/solve phases plus one span per engine
//! attempt with its counters — so a p99 outlier is explainable after
//! the fact with no recording pre-armed. Each request is tagged with a
//! request id minted at accept; the id appears on the daemon's log
//! lines (`[rid=N]`, or a `request_id` field under `serve --log-json`),
//! on its flight-recorder spans, and on its exemplar, so one slow
//! request can be chased across all three surfaces. The daemon logs
//! through the leveled logger in [`obs::log`] (`serve --log-level
//! debug`).
//!
//! ## Running as a service
//!
//! For bulk traffic, [`service`] wraps the solver in a long-running
//! daemon (JSON-lines over TCP, with an opt-in length-prefixed binary
//! framing — see `crates/service/PROTOCOL.md`) built as **N independent
//! shards**: each request is routed by its instance's canonical
//! fingerprint to one shard, which owns its own cache, solve slots,
//! latency histograms, and slow-request exemplar ring, so the solve hot
//! path takes no cross-shard lock. Every request is served on its
//! connection's thread: a cache miss takes one of its shard's solve
//! slots (or waits for one) and calls [`Solver::solve`](core::Solver::solve)
//! in place, and a canonicalization cache (instances reduced to the
//! normal form of [`model::canonical`]) answers repeated *and
//! isomorphically relabeled* submissions without re-solving:
//!
//! ```
//! use bisched::prelude::*;
//! use bisched::model::InstanceData;
//! use bisched::service::{Client, ServeOptions, Service};
//!
//! let service = Service::start(ServeOptions::default()).unwrap();
//! let mut client = Client::connect(service.local_addr()).unwrap();
//!
//! let inst = Instance::identical(2, vec![3, 2, 4], Graph::path(3)).unwrap();
//! let first = client.solve(InstanceData::from_instance(&inst)).unwrap();
//! assert_eq!(first.status, "ok");
//! let again = client.solve(InstanceData::from_instance(&inst)).unwrap();
//! assert_eq!(again.cached, Some(true)); // served from the cache
//!
//! client.shutdown_server().unwrap();
//! service.join(); // lets admitted solves finish, logs final stats
//! ```
//!
//! From the command line, `bisched_cli serve --addr 127.0.0.1:7878`
//! starts the daemon:
//!
//! | `serve` flag | default | effect |
//! |---|---|---|
//! | `--addr` | `127.0.0.1:7878` | bind address (port `0` picks one) |
//! | `--shards` | `1` | independent shards; requests route by canonical fingerprint |
//! | `--workers` | cores (≤ 8) | concurrent solves, split across shards: `max(1, workers / shards)` solve slots each |
//! | `--cache-cap` | `4096` | LRU cache entries **per shard** (`0` disables) |
//! | `--queue-cap` | `1024` | misses that may wait for a solve slot **per shard** (full → `busy`) |
//! | `--cache-snapshot` | off | persist caches at shutdown, warm-start next boot |
//! | `--exemplar-k` / `--exemplar-window-s` | `8` / `60` | slow-request exemplar ring |
//! | `--log-level` / `--log-json` | `info` / off | leveled stderr logging |
//!
//! `bisched_cli submit --addr 127.0.0.1:7878 workload.jsonl --repeat 2`
//! pushes a JSONL workload through it, validates every returned
//! schedule, and prints req/s and the cache hit rate; `--clients K`
//! drives the daemon from K concurrent connections (aggregate req/s
//! plus a per-shard hit-rate breakdown), `--frame binary` negotiates
//! the v2 binary framing first. The `stats` verb exposes requests
//! served, hit rate, p50/p99 latency — split into solve-slot-wait and
//! solve-time components — per-engine win counts, per-engine
//! race-cancelled attempt counts (cancellations are neither wins nor
//! losses), and the per-shard breakdown; the `metrics` verb serves the
//! same counters as Prometheus text exposition, including
//! `bisched_shard_requests_total{shard="…"}`.
//!
//! ### Scaling the service
//!
//! Shards share no lock on the hit path, or anywhere else on the solve
//! path: routing by the isomorphism-invariant fingerprint sends every
//! relabeling of an instance to the same shard's cache, each shard owns
//! its cache, exemplar ring and solve slots, and backpressure (`busy`)
//! is a per-shard verdict. A unit test in the service's `server` module
//! holds one shard's cache and exemplar mutexes and all of its solve
//! slots, and asserts that another shard still answers a cache hit and
//! a fresh miss. To drive a sharded daemon from concurrent clients:
//!
//! ```text
//! bisched_cli serve --shards 8 --cache-snapshot cache.bsnap &
//! bisched_cli submit --addr 127.0.0.1:7878 w.jsonl --clients 8 --json
//! ```
//!
//! A daemon restarted with the same `--cache-snapshot` re-buckets the
//! persisted entries by fingerprint — across *any* shard count — and
//! answers its old working set from cache without invoking a solver.
//!
//! ## Benchmarking with the lab
//!
//! [`lab`] is the workspace's scenario corpus and benchmark harness: a
//! registry of named, seeded workloads spanning `{P, Q, R} ×` graph
//! families (complete bipartite, Gilbert's three `p(n)` regimes, crowns,
//! cubic bipartite, forests, caterpillars, bounded-degree, and the
//! adversarial Theorem 24 gadgets), a sequential runner with wall-time
//! percentiles and quality ratios, and a gate that checks deterministic
//! fields exactly and wall time against a threshold:
//!
//! ```text
//! bisched_cli lab list                                    # the corpus
//! bisched_cli lab run --suite quick --out BENCH_quick.json
//! bisched_cli lab run --suite paper-sec4                  # Section 4.1 tables
//! bisched_cli lab compare BENCH_baseline.json BENCH_quick.json
//! ```
//!
//! `lab run` writes a machine-readable `BENCH_<suite>.json` plus a
//! Markdown summary; `lab compare` exits nonzero when any deterministic
//! field of a cell moves (makespan, lower bound, guarantee, error, and
//! off races the winner and its counters) or its median wall time
//! regresses past the threshold. CI runs it against the committed
//! `BENCH_baseline.json` on every push, and `cargo test` holds an
//! in-process quick run to the baseline's deterministic fields. Every
//! scenario regenerates byte-identically from its embedded seed:
//!
//! ```
//! use bisched::lab::{suite, RunOptions};
//!
//! let quick = suite("quick").unwrap();
//! assert!(quick.scenarios.len() >= 10);
//! let inst = quick.scenarios[0].build(); // deterministic
//! assert_eq!(inst.num_jobs(), quick.scenarios[0].build().num_jobs());
//! ```
//!
//! Service-side load runs script through `bisched_cli submit --json`,
//! which emits one JSON object (req/s, cache hit rate, client-side
//! p50/p99 latency) instead of the human summary.
//!
//! ## Auditing the concurrency
//!
//! The concurrent protocols — the flight recorder's ring, the portfolio
//! race's [`SearchCtl`](exact::SearchCtl) bound exchange, the service's
//! solve-slot semaphore — are explored interleaving-by-interleaving
//! by the loom-style model checker in [`obs`]`::model`, swapped in by a
//! cfg so production builds pay nothing:
//!
//! ```text
//! RUSTFLAGS="--cfg bisched_model" cargo test -p bisched-obs -p bisched-exact -p bisched-service
//! ```
//!
//! Each suite asserts its exploration completed (no budget cut) and
//! carries a seeded-bug mutation test proving the checker still bites;
//! CI additionally runs the real-thread ring tests under Miri. See
//! `crates/obs/README.md` for the checker's scope and limits. Unsafe
//! code is a compile error outside `bisched-obs` (`unsafe_code =
//! "forbid"` in the workspace lints).
//!
//! ## Guarantees and where they come from
//!
//! Every report carries a typed [`Guarantee`](core::Guarantee) tied to the
//! paper:
//!
//! | [`Guarantee`](core::Guarantee) | provenance |
//! |---|---|
//! | `Optimal` | exact oracles — the `Q2`/`R2` DPs (Theorem 4 covers the polynomial `Q2, p_j = 1` regime), complete branch & bound, and the `bisched_cp` propagation engine when its makespan binary search closes (its proven lower bound meets its incumbent); a portfolio race also certifies its winner `Optimal` when any member's completed search proves nothing better exists |
//! | `Ratio(2)` | BJW \[3\] on `P`, `m ≥ 3` (best possible there) and Algorithm 4 / Theorem 21 on `R2` |
//! | `SqrtSumP` | Algorithm 1 / Theorem 9, matching Theorem 8's `Ω(n^{1/2−ε})` inapproximability wall |
//! | `OnePlusEps(ε)` | Algorithm 5 / Theorem 22, the `R2` FPTAS |
//! | `Heuristic` | no worst-case promise; for `R`, `m ≥ 3` Theorem 24 proves none is possible |
//!
//! ## Crate map
//!
//! * [`graph`] — bipartite graph kit (coloring, matching, flows,
//!   max-weight independent sets, Gilbert's `G_{n,n,p}`, the Figure 1
//!   gadgets);
//! * [`model`] — instances, schedules, exact rational makespans, the
//!   `C**_max` bound machinery, workload generators;
//! * [`exact`] — brute force, branch & bound, pseudo-polynomial `Q2`/`R2`
//!   oracles, the 1-PrExt decider, and the shared
//!   [`SearchCtl`](exact::SearchCtl) (cross-engine cancellation +
//!   incumbent-bound exchange) the portfolio race runs on;
//! * [`cp`] — the constraint-propagation engine: load/horizon
//!   propagation against a binary-searched makespan bound,
//!   conflict-graph domain pruning, activity-based branching with
//!   restarts;
//! * [`fptas`] — the `R2 || C_max` FPTAS substrate;
//! * [`baselines`] — graph-aware LPT and the Bodlaender–Jansen–Woeginger
//!   2-approximation;
//! * [`core`] — the paper's Algorithms 1–5, Theorem 4, the Theorem 8/24
//!   gap reductions, and the [`Solver`](core::Solver) engine;
//! * [`random`] — Section 4.1's random-graph analysis;
//! * [`obs`] — the flight recorder (lock-free per-thread event rings,
//!   Chrome trace-event export), the leveled logger, and the
//!   `cfg(bisched_model)` model-checking scheduler behind the `sync`
//!   facade;
//! * [`lab`] — the scenario corpus, benchmark harness, and
//!   perf-regression gate behind `bisched_cli lab`;
//! * [`service`] — the solve daemon: sharded by canonical fingerprint
//!   (per-shard cache, solve slots, histograms, exemplars — no
//!   cross-shard lock on the hot path), JSON-lines TCP protocol with
//!   opt-in binary framing, cache snapshot warm starts, stats and
//!   Prometheus metrics.

#![warn(missing_docs)]
pub use bisched_baselines as baselines;
pub use bisched_core as core;
pub use bisched_cp as cp;
pub use bisched_exact as exact;
pub use bisched_fptas as fptas;
pub use bisched_graph as graph;
pub use bisched_lab as lab;
pub use bisched_model as model;
pub use bisched_obs as obs;
pub use bisched_random as random;
pub use bisched_service as service;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use bisched_core::{
        alg1_sqrt_approx, alg2_random_graph, r2_fptas, r2_two_approx, Guarantee, Method,
        MethodPolicy, SolveError, SolveReport, Solver, SolverConfig,
    };
    pub use bisched_graph::{Graph, GraphBuilder};
    pub use bisched_model::{Instance, Rat, Schedule};
}
