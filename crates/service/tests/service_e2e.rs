//! End-to-end service tests: a daemon on an ephemeral loopback port, a
//! mixed {P,Q,R} × {2,3,8} workload pushed concurrently from several
//! client threads, response validation against the original instances,
//! cache-hit accounting, backpressure, hostile input, and a graceful
//! drain on shutdown.

use bisched_core::SolverConfig;
use bisched_graph::gilbert_bipartite;
use bisched_model::{
    Instance, InstanceData, JobSizes, Rat, Schedule, SpeedProfile, UnrelatedFamily,
};
use bisched_service::{Client, Request, ServeOptions, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Two instances for every (env, m) pair of {P,Q,R} × {2,3,8}.
fn mixed_workload() -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(0x5EEE);
    let mut out = Vec::new();
    for &m in &[2usize, 3, 8] {
        for round in 0..2u64 {
            // n ≥ 11 keeps Auto off the exhaustive branch-and-bound path,
            // which is slow in debug builds.
            let n = 11 + (m + round as usize) % 4;
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.35, &mut rng);
            let sizes = JobSizes::Uniform { lo: 1, hi: 25 }.sample(n, &mut rng);
            out.push(Instance::identical(m, sizes, g.clone()).unwrap());

            let g = gilbert_bipartite(n / 2, n - n / 2, 0.35, &mut rng);
            let sizes = JobSizes::Uniform { lo: 1, hi: 25 }.sample(n, &mut rng);
            let speeds = SpeedProfile::Geometric { ratio: 2 }.speeds(m);
            out.push(Instance::uniform(speeds, sizes, g).unwrap());

            let g = gilbert_bipartite(n / 2, n - n / 2, 0.35, &mut rng);
            let times = UnrelatedFamily::Uncorrelated { lo: 1, hi: 40 }.sample(m, n, &mut rng);
            out.push(Instance::unrelated(times, g).unwrap());
        }
    }
    out
}

/// Submits the whole workload on one connection, validating every
/// response against its instance; returns (ok, cached) counts.
fn submit_all(addr: std::net::SocketAddr, workload: &[Instance]) -> (usize, usize) {
    let mut client = Client::connect(addr).expect("connect");
    let mut ok = 0;
    let mut cached = 0;
    for (k, inst) in workload.iter().enumerate() {
        let mut req = Request::solve(InstanceData::from_instance(inst));
        req.id = Some(k as u64);
        let resp = client.request(&req).expect("response");
        assert_eq!(resp.status, "ok", "request {k}: {:?}", resp.error);
        assert_eq!(resp.id, Some(k as u64));
        let assignment = resp.assignment.clone().expect("assignment");
        let schedule = Schedule::new(assignment);
        schedule
            .validate(inst)
            .unwrap_or_else(|e| panic!("request {k} returned an invalid schedule: {e}"));
        // The reported makespan must be the mapped schedule's actual
        // makespan — this catches bad cache-hit label translation.
        let reported = Rat::new(resp.makespan_num.unwrap(), resp.makespan_den.unwrap());
        assert_eq!(
            schedule.makespan(inst),
            reported,
            "request {k}: reported makespan disagrees with the returned schedule"
        );
        ok += 1;
        if resp.cached == Some(true) {
            cached += 1;
        }
    }
    (ok, cached)
}

#[test]
fn concurrent_mixed_workload_validates_hits_cache_and_drains() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        cache_cap: 256,
        queue_cap: 512,
        ..ServeOptions::default()
    })
    .expect("start service");
    let addr = service.local_addr();
    let workload = Arc::new(mixed_workload());
    assert_eq!(workload.len(), 18); // {P,Q,R} x {2,3,8} x 2 rounds

    // Four client threads submit the *same* workload concurrently, so
    // every instance is solved at most a handful of times and served
    // from the cache afterwards.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || submit_all(addr, &workload))
        })
        .collect();
    let mut total_ok = 0;
    let mut total_cached = 0;
    for t in threads {
        let (ok, cached) = t.join().expect("client thread");
        total_ok += ok;
        total_cached += cached;
    }
    assert_eq!(total_ok, 4 * workload.len(), "every request answered ok");
    assert!(
        total_cached > 0,
        "duplicate submissions must be served from the cache"
    );

    // Stats agree: hits observed, everything solved, nothing dropped.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits > 0, "stats must report cache hits");
    assert_eq!(stats.solved, 4 * workload.len() as u64);
    assert_eq!(stats.errors, 0);
    // `batches` and `batched_jobs` both count fresh solves: one per miss.
    assert_eq!(stats.batches, stats.cache_misses);
    assert_eq!(stats.batched_jobs, stats.batches);
    assert!(stats.hit_rate > 0.0 && stats.hit_rate < 1.0);
    // The latency split is populated: every miss took a solve slot and
    // solved.
    assert!(stats.solve_p50_ms > 0.0, "solve-time histogram is empty");
    // Canonicalization is histogrammed on every routed solve, hits too.
    assert!(stats.canon_p99_ms > 0.0, "canonicalize histogram is empty");
    assert!(stats.canon_p99_ms >= stats.canon_p50_ms);

    // The `metrics` verb serves the same counters as Prometheus text.
    let text = client.metrics().expect("metrics");
    assert!(text.contains(&format!(
        "bisched_solved_total {}",
        4 * workload.len() as u64
    )));
    assert!(text.contains("# TYPE bisched_request_latency_seconds histogram"));
    assert!(text.contains(&format!(
        "bisched_slot_wait_seconds_count {}",
        stats.cache_misses
    )));
    assert!(text.contains(&format!("bisched_solves_total {}", stats.cache_misses)));
    assert!(text.contains("bisched_solve_time_seconds_bucket{le=\"+Inf\"}"));
    assert!(text.contains(&format!(
        "bisched_canonicalize_seconds_count {}",
        4 * workload.len()
    )));
    let wins: u64 = text
        .lines()
        .filter(|l| l.starts_with("bisched_method_wins_total{"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(wins, stats.cache_misses, "one win per fresh solve");

    // Graceful shutdown over the wire; join must drain and return the
    // final numbers without losing anything accepted.
    let resp = client.shutdown_server().expect("shutdown ack");
    assert_eq!(resp.status, "ok");
    drop(client);
    let final_stats = service.join();
    assert_eq!(final_stats.solved, 4 * workload.len() as u64);
    assert_eq!(final_stats.errors, 0);
}

#[test]
fn isomorphic_relabelings_hit_the_cache() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // Same instance under two different job labelings.
    let a = Instance::identical(
        2,
        vec![5, 3, 8, 2, 9],
        bisched_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]),
    )
    .unwrap();
    let b = Instance::identical(
        2,
        vec![9, 2, 8, 3, 5],
        bisched_graph::Graph::from_edges(5, &[(4, 3), (3, 2), (1, 0)]),
    )
    .unwrap();

    let ra = client.solve(InstanceData::from_instance(&a)).expect("a");
    assert_eq!(ra.status, "ok");
    assert_eq!(ra.cached, Some(false));
    let rb = client.solve(InstanceData::from_instance(&b)).expect("b");
    assert_eq!(rb.status, "ok");
    assert_eq!(rb.cached, Some(true), "relabeling must hit the cache");
    // And the cached answer is translated into b's labeling correctly.
    let schedule = Schedule::new(rb.assignment.unwrap());
    assert!(schedule.validate(&b).is_ok());
    assert_eq!(
        (rb.makespan_num, rb.makespan_den),
        (ra.makespan_num, ra.makespan_den),
        "isomorphic instances share their makespan"
    );

    service.shutdown();
    service.join();
}

#[test]
fn per_request_overrides_and_errors() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // Forced method that does not apply -> typed error response.
    let q3 = Instance::uniform(vec![3, 2, 1], vec![1; 6], bisched_graph::Graph::path(6)).unwrap();
    let mut req = Request::solve(InstanceData::from_instance(&q3));
    req.method = Some("fptas".into());
    let resp = client.request(&req).expect("response");
    assert_eq!(resp.status, "error");
    assert!(resp.error.unwrap().contains("not applicable"));

    // Unknown engine name rejected up front.
    let mut req = Request::solve(InstanceData::from_instance(&q3));
    req.method = Some("no-such-engine".into());
    let resp = client.request(&req).expect("response");
    assert_eq!(resp.status, "error");

    // Non-bipartite instance -> typed solve error.
    let odd = Instance::identical(3, vec![1; 5], bisched_graph::Graph::cycle(5)).unwrap();
    let resp = client
        .solve(InstanceData::from_instance(&odd))
        .expect("response");
    assert_eq!(resp.status, "error");
    assert!(resp.error.unwrap().contains("bipartite"));

    // Garbage and over-deep lines on a raw socket -> typed error
    // responses, and the same connection stays usable afterwards.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(service.local_addr()).expect("raw connect");
        let mut lines = BufReader::new(raw.try_clone().expect("clone"));
        writeln!(raw, "this is not json \u{1F41B}").expect("write garbage");
        let mut line = String::new();
        lines.read_line(&mut line).expect("error response");
        assert!(line.contains("\"status\":\"error\""), "got: {line}");
        // Two million `[`: a parser without a depth limit overflows the
        // connection thread's stack and aborts the whole daemon.
        let mut deep = vec![b'['; 2_000_000];
        deep.push(b'\n');
        raw.write_all(&deep).expect("write deep line");
        line.clear();
        lines.read_line(&mut line).expect("error response");
        assert!(line.contains("recursion limit"), "got: {line}");
        writeln!(raw, "{{\"verb\":\"ping\",\"id\":9}}").expect("write ping");
        line.clear();
        lines.read_line(&mut line).expect("ping response");
        assert!(line.contains("\"status\":\"ok\""), "got: {line}");
    }
    let ping = client.ping().expect("ping after errors");
    assert_eq!(ping.status, "ok");

    // `method: "auto"` restores Auto dispatch even when it was already
    // resolved (it is not silently ignored).
    let mut req = Request::solve(InstanceData::from_instance(&q3));
    req.method = Some("auto".into());
    let resp = client.request(&req).expect("auto method");
    assert_eq!(resp.status, "ok");

    // Different solver configurations never share cache entries: a
    // default-config (Auto) report must not answer a forced-method
    // request for the same instance, and each configuration caches
    // independently.
    let r2 = Instance::unrelated(
        vec![vec![3, 5, 2, 4, 6, 3], vec![4, 2, 6, 3, 2, 5]],
        bisched_graph::Graph::path(6),
    )
    .unwrap();
    let auto = client
        .solve(InstanceData::from_instance(&r2))
        .expect("auto");
    assert_eq!(auto.cached, Some(false));
    let mut forced = Request::solve(InstanceData::from_instance(&r2));
    forced.method = Some("twoapprox".into());
    let f1 = client.request(&forced).expect("forced 1");
    assert_eq!(
        (f1.status.as_str(), f1.cached, f1.method.as_deref()),
        ("ok", Some(false), Some("twoapprox")),
        "a forced method must not be served the Auto report"
    );
    let f2 = client.request(&forced).expect("forced 2");
    assert_eq!(
        (f2.cached, f2.method.as_deref()),
        (Some(true), Some("twoapprox"))
    );
    let auto2 = client
        .solve(InstanceData::from_instance(&r2))
        .expect("auto 2");
    assert_eq!(auto2.cached, Some(true));
    assert_eq!(auto2.method, auto.method);

    // no_cache forces a re-solve but still stores/refreshes.
    let mut req = Request::solve(InstanceData::from_instance(&q3));
    req.no_cache = Some(true);
    let r1 = client.request(&req).expect("r1");
    assert_eq!(r1.cached, Some(false));
    let r2 = client.solve(InstanceData::from_instance(&q3)).expect("r2");
    assert_eq!(r2.cached, Some(true));

    service.shutdown();
    service.join();
}

#[test]
fn trace_verb_returns_exemplars_with_engine_counters() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // Force branch-and-bound so the winning attempt carries `nodes`
    // counters all the way into the exemplar span tree.
    let inst = Instance::identical(
        2,
        vec![5, 3, 8, 2, 9, 4, 7, 6],
        bisched_graph::Graph::from_edges(8, &[(0, 1), (2, 3), (4, 5)]),
    )
    .unwrap();
    let mut req = Request::solve(InstanceData::from_instance(&inst));
    req.method = Some("branch-and-bound".into());
    req.id = Some(1);
    let resp = client.request(&req).expect("solve");
    assert_eq!(resp.status, "ok", "{:?}", resp.error);

    // Satellite: the solve response itself surfaces the counters.
    let attempts = resp.attempts.as_ref().expect("fresh solve has attempts");
    let winner = attempts
        .iter()
        .find(|a| a.method == "branch-and-bound" && a.outcome == "solved")
        .expect("forced engine attempt present");
    assert!(
        winner.stats.iter().any(|(n, v)| n == "nodes" && *v > 0),
        "bnb attempt must report a node count, got {:?}",
        winner.stats
    );

    // A cache hit must NOT carry attempts (they'd describe the original
    // solve, not this request).
    let hit = client.request(&req).expect("cached solve");
    assert_eq!(hit.cached, Some(true));
    assert!(hit.attempts.is_none());

    // The trace verb returns the request as a slow-request exemplar
    // whose span tree reaches the engine counters.
    let trace = client.trace(None).expect("trace");
    assert!(trace.k >= 1);
    let ex = trace
        .current
        .iter()
        .chain(&trace.previous)
        .find(|e| !e.cached && e.method.as_deref() == Some("branch-and-bound"))
        .expect("fresh bnb request captured as an exemplar");
    assert_eq!(ex.root.name, "solve_request");
    assert!(ex.total_ms > 0.0);
    let phases: Vec<&str> = ex.root.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(phases, vec!["canonicalize", "slot_wait", "solve"]);
    let solve = ex.root.children.last().unwrap();
    let engine = solve
        .children
        .iter()
        .find(|s| s.name == "branch-and-bound")
        .expect("engine span under solve");
    assert!(
        engine.counters.iter().any(|(n, v)| n == "nodes" && *v > 0),
        "exemplar engine span must carry counters, got {:?}",
        engine.counters
    );
    // The cached repeat is captured too — with a canonicalize-only tree.
    let cached_ex = trace
        .current
        .iter()
        .chain(&trace.previous)
        .find(|e| e.cached)
        .expect("cache hit captured as an exemplar");
    assert_eq!(cached_ex.root.children.len(), 1);
    assert_eq!(cached_ex.root.children[0].name, "canonicalize");

    service.shutdown();
    service.join();
}

#[test]
fn exemplar_ring_keeps_the_worst_under_concurrency() {
    // k = 1: whatever survives must be the single slowest request the
    // window saw, no matter how many clients raced.
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        exemplar_k: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let addr = service.local_addr();

    let workload = Arc::new(mixed_workload());
    let threads: Vec<_> = (0..3)
        .map(|_| {
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut worst: f64 = 0.0;
                for inst in workload.iter() {
                    let resp = client
                        .solve(InstanceData::from_instance(inst))
                        .expect("solve");
                    assert_eq!(resp.status, "ok");
                    worst = worst.max(resp.time_ms.unwrap());
                }
                worst
            })
        })
        .collect();
    let worst_seen = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .fold(0.0f64, f64::max);

    let mut client = Client::connect(addr).expect("connect");
    let trace = client.trace(None).expect("trace");
    assert_eq!(trace.k, 1);
    assert_eq!(
        trace.current.len(),
        1,
        "k = 1 keeps exactly one exemplar despite {} requests",
        3 * workload.len()
    );
    // `time_ms` and the exemplar's `total_ms` are the same measurement,
    // so the survivor must be exactly the slowest response any client
    // observed (faster exemplars were evicted by slower ones).
    assert_eq!(
        trace.current[0].total_ms, worst_seen,
        "the surviving exemplar must be the slowest request"
    );

    service.shutdown();
    service.join();
}

#[test]
fn exemplar_window_rolls_current_into_previous() {
    let window = std::time::Duration::from_secs(1);
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        exemplar_k: 4,
        exemplar_window: window,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    let inst = Instance::identical(2, vec![4, 2, 5], bisched_graph::Graph::path(3)).unwrap();
    let resp = client
        .solve(InstanceData::from_instance(&inst))
        .expect("solve");
    assert_eq!(resp.status, "ok");
    let before = client.trace(None).expect("trace before roll");
    assert_eq!(before.window, 0);
    assert_eq!(before.current.len(), 1);
    assert!(before.previous.is_empty());

    // One window later (well inside the second window, so the first
    // window's exemplar must survive as `previous`).
    std::thread::sleep(window + window / 5);
    let after = client.trace(None).expect("trace after roll");
    assert_eq!(after.window, 1, "window index advances");
    assert!(after.current.is_empty(), "new window starts empty");
    assert_eq!(
        after.previous.len(),
        1,
        "the completed window stays fetchable"
    );
    assert_eq!(
        after.previous[0].request_id, before.current[0].request_id,
        "same exemplar, one window older"
    );

    service.shutdown();
    service.join();
}

#[test]
fn sharded_daemon_routes_pins_and_aggregates() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        shards: 4,
        ..ServeOptions::default()
    })
    .expect("start service");
    let addr = service.local_addr();
    let workload = Arc::new(mixed_workload());

    // Three clients replay the same workload: requests fan out across
    // shards by fingerprint and duplicates hit each shard's own cache.
    let threads: Vec<_> = (0..3)
        .map(|_| {
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || submit_all(addr, &workload))
        })
        .collect();
    let mut total_ok = 0;
    for t in threads {
        let (ok, _) = t.join().expect("client thread");
        total_ok += ok;
    }
    assert_eq!(total_ok, 3 * workload.len());

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.solved, 3 * workload.len() as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shards.len(), 4, "one breakdown entry per shard");
    // The totals are exactly the sum of the per-shard rows.
    let sum: u64 = stats.shards.iter().map(|s| s.solved).sum();
    assert_eq!(sum, stats.solved);
    let hits: u64 = stats.shards.iter().map(|s| s.cache_hits).sum();
    assert_eq!(hits, stats.cache_hits);
    assert!(stats
        .shards
        .iter()
        .all(|s| s.canon_p99_ms >= s.canon_p50_ms));
    assert!(hits > 0, "duplicate submissions hit shard caches");
    // 18 distinct fingerprints over 4 shards: more than one shard works.
    let active = stats.shards.iter().filter(|s| s.solved > 0).count();
    assert!(active > 1, "workload must spread across shards");

    // Prometheus carries the per-shard series for every shard.
    let text = client.metrics().expect("metrics");
    for i in 0..4 {
        assert!(
            text.contains(&format!("bisched_shard_requests_total{{shard=\"{i}\"}}")),
            "missing shard {i} series"
        );
    }

    // The merged trace view tags exemplars with their shard; a per-shard
    // trace only returns that shard's exemplars.
    let merged = client.trace(None).expect("merged trace");
    let tagged: std::collections::BTreeSet<u64> = merged
        .current
        .iter()
        .chain(&merged.previous)
        .map(|e| e.shard)
        .collect();
    assert!(tagged.len() > 1, "exemplars from more than one shard");
    for &s in &tagged {
        let one = client.trace(Some(s)).expect("per-shard trace");
        assert!(one
            .current
            .iter()
            .chain(&one.previous)
            .all(|e| e.shard == s));
    }
    let err = client.trace(Some(99)).expect_err("out-of-range shard");
    assert!(err.to_string().contains("shard"), "got: {err}");

    service.shutdown();
    let final_stats = service.join();
    assert_eq!(final_stats.solved, 3 * workload.len() as u64);
    assert_eq!(final_stats.errors, 0);
}

#[test]
fn isomorphic_relabelings_route_to_the_same_shard() {
    // Routing uses the canonical fingerprint, so any relabeling of an
    // instance must land on the shard that cached the original — a
    // label-sensitive router would scatter isomorphic duplicates across
    // shards and re-solve them.
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        shards: 4,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let base: Vec<Instance> = (0..6)
        .map(|k| {
            let n = 8 + k;
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let sizes = JobSizes::Uniform { lo: 1, hi: 30 }.sample(n, &mut rng);
            Instance::identical(2 + k % 3, sizes, g).unwrap()
        })
        .collect();

    for inst in &base {
        let first = client.solve(InstanceData::from_instance(inst)).expect("a");
        assert_eq!(first.status, "ok", "{:?}", first.error);
        assert_eq!(first.cached, Some(false));
        // Relabel jobs by reversal: job j -> n-1-j.
        let data = InstanceData::from_instance(inst);
        let n = data.jobs as u32;
        let relabeled = InstanceData {
            processing: data
                .processing
                .as_ref()
                .map(|p| p.iter().rev().copied().collect()),
            times: data.times.as_ref().map(|rows| {
                rows.iter()
                    .map(|r| r.iter().rev().copied().collect())
                    .collect()
            }),
            edges: data
                .edges
                .iter()
                .map(|&(a, b)| (n - 1 - a, n - 1 - b))
                .collect(),
            ..data
        };
        let second = client.request(&Request::solve(relabeled)).expect("b");
        assert_eq!(second.status, "ok", "{:?}", second.error);
        assert_eq!(
            second.cached,
            Some(true),
            "relabeled duplicate must find the original's shard cache"
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_hits, base.len() as u64);
    assert_eq!(stats.cache_misses, base.len() as u64);
    // Per shard, hits mirror misses: the duplicate landed where the
    // original was cached.
    for (i, s) in stats.shards.iter().enumerate() {
        assert_eq!(
            s.cache_hits, s.cache_misses,
            "shard {i}: relabeled twin must route to its original"
        );
    }

    service.shutdown();
    service.join();
}

#[test]
fn binary_framing_upgrade_round_trips_solves_and_stats() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 2,
        ..ServeOptions::default()
    })
    .expect("start service");
    let addr = service.local_addr();

    // Solve over JSON first so the binary client can compare answers.
    let inst = Instance::identical(
        3,
        vec![7, 4, 9, 2, 5, 8, 3],
        bisched_graph::Graph::from_edges(7, &[(0, 1), (2, 3), (4, 5)]),
    )
    .unwrap();
    let mut json_client = Client::connect(addr).expect("connect json");
    let json_resp = json_client
        .solve(InstanceData::from_instance(&inst))
        .expect("json solve");
    assert_eq!(json_resp.status, "ok", "{:?}", json_resp.error);

    let mut client = Client::connect(addr).expect("connect");
    assert!(!client.is_binary());
    client.upgrade_binary().expect("upgrade");
    assert!(client.is_binary());

    // Same instance over binary frames: a cache hit with an identical
    // makespan proves the two framings describe the same request.
    let resp = client
        .solve(InstanceData::from_instance(&inst))
        .expect("binary solve");
    assert_eq!(resp.status, "ok", "{:?}", resp.error);
    assert_eq!(resp.cached, Some(true));
    assert_eq!(
        (resp.makespan_num, resp.makespan_den),
        (json_resp.makespan_num, json_resp.makespan_den)
    );
    let schedule = Schedule::new(resp.assignment.expect("assignment"));
    assert!(schedule.validate(&inst).is_ok());

    // Structured verbs survive the framing too.
    let stats = client.stats().expect("binary stats");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.shards.len(), 2);
    let trace = client.trace(None).expect("binary trace");
    assert!(trace.current.len() + trace.previous.len() >= 2);
    assert!(client.ping().expect("ping").status == "ok");

    // A fresh solve (not just cache hits) over binary framing.
    let fresh = Instance::identical(2, vec![6, 1, 4, 2], bisched_graph::Graph::path(4)).unwrap();
    let resp = client
        .solve(InstanceData::from_instance(&fresh))
        .expect("fresh binary solve");
    assert_eq!(resp.status, "ok", "{:?}", resp.error);
    assert_eq!(resp.cached, Some(false));

    // Downgrade works over the same connection.
    let mut req = Request::verb("upgrade");
    req.frame = Some("json".into());
    let resp = client.request(&req).expect("downgrade");
    assert_eq!(resp.status, "ok");
    // (Client keeps binary mode internally; use a raw JSON probe.)
    drop(client);
    let mut back = Client::connect(addr).expect("reconnect json");
    assert_eq!(back.ping().expect("ping").status, "ok");

    service.shutdown();
    service.join();
}

#[test]
fn snapshot_warm_restart_answers_from_cache_across_shard_counts() {
    let dir = std::env::temp_dir().join(format!("bisched-e2e-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("cache.bsnap");
    let _ = std::fs::remove_file(&snap);
    let workload = mixed_workload();

    // First life: 2 shards, cold cache, snapshot on drain.
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 2,
        cache_snapshot: Some(snap.clone()),
        ..ServeOptions::default()
    })
    .expect("start first life");
    let (ok, _) = submit_all(service.local_addr(), &workload);
    assert_eq!(ok, workload.len());
    service.shutdown();
    let first = service.join();
    assert_eq!(first.cache_misses, workload.len() as u64);
    assert!(snap.exists(), "drain must write the snapshot");

    // Second life: different shard count (re-bucketing) — every request
    // must be a cache hit and nothing may reach the solver.
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        shards: 3,
        cache_snapshot: Some(snap.clone()),
        ..ServeOptions::default()
    })
    .expect("start second life");
    let (ok, cached) = submit_all(service.local_addr(), &workload);
    assert_eq!(ok, workload.len());
    assert_eq!(cached, workload.len(), "warm start must serve everything");
    service.shutdown();
    let second = service.join();
    assert_eq!(second.cache_hits, workload.len() as u64);
    assert_eq!(second.cache_misses, 0);
    assert_eq!(second.batches, 0, "no solver work after a warm start");

    // A corrupt snapshot is a cold start, not a crash.
    std::fs::write(&snap, b"BSNAPgarbage").expect("corrupt");
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_snapshot: Some(snap.clone()),
        ..ServeOptions::default()
    })
    .expect("cold start on corrupt snapshot");
    let mut client = Client::connect(service.local_addr()).expect("connect");
    let inst = Instance::identical(2, vec![3, 1, 2], bisched_graph::Graph::path(3)).unwrap();
    let resp = client
        .solve(InstanceData::from_instance(&inst))
        .expect("solve");
    assert_eq!(resp.cached, Some(false));
    service.shutdown();
    service.join();
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn unsorted_q_speeds_answered_in_submitted_machine_order() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // Submitted speeds are [1, 3]: the server sorts them internally, so
    // without translation machine ids would silently refer to the wrong
    // machines. The reported makespan must match the schedule evaluated
    // under the *submitted* speed order.
    let data = InstanceData {
        env: "Q".into(),
        machines: None,
        speeds: Some(vec![1, 3]),
        processing: Some(vec![4, 4, 2]),
        times: None,
        jobs: 3,
        edges: vec![(0, 1)],
    };
    let resp = client.solve(data).expect("solve");
    assert_eq!(resp.status, "ok", "{:?}", resp.error);
    let assignment = resp.assignment.expect("assignment");
    assert_ne!(assignment[0], assignment[1], "edge (0,1) must split");
    let mut loads = [0u64; 2];
    for (j, &m) in assignment.iter().enumerate() {
        loads[m as usize] += [4u64, 4, 2][j];
    }
    let submitted_speeds = [1u64, 3];
    let makespan = (0..2)
        .map(|i| Rat::new(loads[i], submitted_speeds[i]))
        .max()
        .unwrap();
    let reported = Rat::new(resp.makespan_num.unwrap(), resp.makespan_den.unwrap());
    assert_eq!(
        makespan, reported,
        "assignment must be expressed in the submitted machine order"
    );

    service.shutdown();
    service.join();
}

#[test]
fn overload_answers_busy_and_every_admitted_miss_finishes() {
    // One solve slot and one waiting place: while a deadline-bound
    // branch-and-bound solve holds the slot, one more miss may wait and
    // every other one must be answered `busy`.
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        base_config: SolverConfig::new()
            .bnb_node_limit(u64::MAX)
            .bnb_deadline(Some(std::time::Duration::from_millis(400))),
        ..ServeOptions::default()
    })
    .expect("start service");
    let addr = service.local_addr();
    let mut rng = StdRng::seed_from_u64(0xB05E);
    let g = gilbert_bipartite(20, 20, 0.3, &mut rng);
    let times = UnrelatedFamily::Uncorrelated { lo: 1, hi: 100 }.sample(3, 40, &mut rng);
    let inst = Arc::new(Instance::unrelated(times, g).unwrap());

    const CLIENTS: usize = 6;
    let start = Arc::new(std::sync::Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let (inst, start) = (Arc::clone(&inst), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut req = Request::solve(InstanceData::from_instance(&inst));
                req.id = Some(k as u64);
                req.method = Some("branch-and-bound".into());
                req.no_cache = Some(true);
                start.wait();
                client.request(&req).expect("response")
            })
        })
        .collect();
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let count = |status: &str| responses.iter().filter(|r| r.status == status).count();
    let (ok, busy) = (count("ok"), count("busy"));
    assert_eq!(ok + busy, CLIENTS, "every answer is ok or busy");
    assert!(
        busy >= 1,
        "{CLIENTS} simultaneous misses on 1 slot + 1 waiting place"
    );
    assert!(ok >= 1, "the first miss holds the slot and finishes");
    for r in responses.iter().filter(|r| r.status == "ok") {
        let schedule = Schedule::new(r.assignment.clone().expect("assignment"));
        assert!(schedule.validate(&inst).is_ok(), "request {:?}", r.id);
    }
    service.shutdown();
    let stats = service.join();
    assert_eq!((stats.solved, stats.busy), (ok as u64, busy as u64));
    assert_eq!(
        stats.batches, ok as u64,
        "one fresh solve per admitted miss"
    );
    assert_eq!(stats.errors, 0);
}
