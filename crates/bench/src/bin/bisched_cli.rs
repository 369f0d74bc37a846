//! `bisched_cli` — command-line front end for the library.
//!
//! ```text
//! bisched_cli generate q <n> <m> <p> <seed>     emit a random Q instance (text format)
//! bisched_cli generate r <n> <m> <p> <seed>     emit a random R instance
//! bisched_cli info <file>                       describe an instance
//! bisched_cli solve <file> [--method <m>] [--portfolio <m1,m2,…>]
//!                          [--eps <e>] [--fptas-state-cap <states>]
//!                          [--node-limit <nodes>] [--cp-node-limit <nodes>]
//!                          [--bnb-deadline-ms <ms>] [--race-deadline-ms <ms>]
//!                          [--exact-budget <mass>] [--trace-out <file>]
//!                          [--profile-out <file>] [--json]
//! bisched_cli serve [--addr <host:port>] [--workers <n>] [--cache-cap <n>]
//!                   [--queue-cap <n>] [--shards <n>]
//!                   [--cache-snapshot <path>] [--log-level <level>]
//!                   [--log-json] [--exemplar-k <n>] [--exemplar-window-s <s>]
//! bisched_cli submit --addr <host:port> <file.jsonl> [--repeat <k>]
//!                    [--method <m>] [--clients <k>] [--frame json|binary]
//!                    [--no-cache] [--shutdown] [--json]
//! bisched_cli metrics --addr <host:port>
//! bisched_cli trace --addr <host:port> [--shard <i>] [--json]
//! bisched_cli lab list
//! bisched_cli lab run --suite <name> [--out <path>]
//!                     [--reps <n>] [--warmup <n>] [--trace-out <file>]
//!                     [--profile-out <file>]
//! bisched_cli lab compare <old.json> <new.json> [--fail-threshold <pct>]
//! ```
//!
//! `solve` runs the `Solver` engine. `--method` names one engine
//! (`exact-q2`, `exact-r2`, `branch-and-bound`, `cp`, `alg1`, `alg2`,
//! `bjw`, `fptas`, `twoapprox`, `greedy-lpt`, `greedy`) or `auto`
//! (default); `--portfolio` **races** several concurrently and keeps the
//! best (the first proven optimum cancels the rest); `--node-limit` and
//! `--bnb-deadline-ms` budget the branch-and-bound search (nodes and
//! wall clock — whichever is hit first truncates it to a heuristic),
//! `--cp-node-limit` budgets the CP engine's decision nodes,
//! `--race-deadline-ms` bounds a whole portfolio race's wall clock,
//! `--fptas-state-cap` bounds the FPTAS DP's live width (the solver
//! coarsens ε gracefully when the cap bites, and the reported guarantee
//! carries the effective ε), and
//! `--exact-budget` the pseudo-polynomial DP gate. `--trace-out` turns on
//! the flight recorder for the solve and writes a Chrome trace-event JSON
//! file — load it at `chrome://tracing` or <https://ui.perfetto.dev> to
//! see the portfolio race, engine spans, and incumbent/probe timelines on
//! a timeline per thread. `--profile-out` folds the same recording into a
//! **self-time profile** and writes flamegraph-collapsed stacks
//! (`solve;portfolio_race;cp 1234` — one line per distinct span stack,
//! self-microseconds as the weight; pipe into `flamegraph.pl` or paste
//! into a flamegraph viewer); both flags share one recording, so they
//! compose. `--json` emits the full
//! `SolveReport` — method, guarantee, makespan, lower bound, per-engine
//! timings (plus the race's own wall time and per-attempt `cancelled`
//! flags under a portfolio) — as a single JSON object for experiment
//! scripts.
//!
//! Instances use the text format of `bisched_model::io` (see its docs).
//! `serve` runs the `bisched-service` daemon until a `shutdown` request
//! arrives (`--workers N` sets the concurrent solves, split across shards
//! as solve slots, `--queue-cap K` how many misses may wait for a slot per
//! shard before the next is answered `busy`, `--shards N` splits it into
//! N independent cache/solve-slot shards routed by canonical fingerprint,
//! `--cache-snapshot <path>`
//! persists every shard's cache on drain and warm-starts the next boot
//! from it, `--log-level error|warn|info|debug|trace` tunes its stderr
//! logging, `--log-json` switches it to one JSON object per line, and
//! `--exemplar-k` / `--exemplar-window-s` size the always-on slow-request
//! exemplar buffer); `metrics` fetches a running daemon's Prometheus text
//! exposition (the `metrics` verb) and prints it to stdout, ready to be
//! relayed by a scrape endpoint; `trace` fetches the daemon's
//! slow-request exemplars (the `trace` verb) — the K worst requests of
//! the current and previous windows as span trees with engine counters,
//! merged across shards and tagged with their shard id, or one shard's
//! ring under `--shard <i>` —
//! and pretty-prints them (`--json` for the raw payload);
//! `submit` pushes a JSONL workload (one
//! `InstanceData` object
//! per line) through a running daemon, validates every returned schedule
//! client-side, and prints a throughput summary — `--repeat` replays the
//! file K times so cache behaviour shows up in the hit rate, `--clients
//! K` is the saturation mode (K concurrent connections replay the
//! workload with striped start offsets; the summary adds aggregate req/s
//! and the daemon's per-shard hit rates), `--frame binary` negotiates
//! the length-prefixed binary framing before submitting, and
//! `--json` swaps the summary for one machine-readable JSON object
//! (req/s, hit rate, client-side p50/p99 latency, per-shard hit rates)
//! so load runs can be scripted alongside the in-process lab suites.
//! `submit` retries a `busy` answer three times, 20 ms apart: its `busy`
//! counts the requests it dropped after that (and it then exits 1),
//! `busy_answers` every `busy` reply, retries included, like the
//! daemon's `stats.busy`; a retried request's latency includes the
//! pauses.
//!
//! `lab` drives the `bisched-lab` benchmark harness: `list` prints the
//! scenario corpus, `run` executes a suite and writes
//! `BENCH_<suite>.json` plus a Markdown summary, and `compare` is the
//! lab gate (nonzero exit on a moved deterministic field or a timing
//! regression).

use bisched_core::{EngineOutcome, Guarantee, Method, SolveReport, SolverConfig};
use bisched_graph::{gilbert_bipartite, is_bipartite, Components};
use bisched_model::{
    from_text, to_text, Instance, JobSizes, Rat, Schedule, SpeedProfile, UnrelatedFamily,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{Map, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("lab") => cmd_lab(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  bisched_cli generate q <n> <m> <p> <seed>
  bisched_cli generate r <n> <m> <p> <seed>
  bisched_cli info <file>
  bisched_cli solve <file> [--method auto|exact-q2|exact-r2|branch-and-bound|cp|alg1|alg2|
                            bjw|fptas|twoapprox|greedy-lpt|greedy]
                           [--portfolio <m1,m2,...>] [--eps <e>] [--fptas-state-cap <states>]
                           [--node-limit <nodes>] [--cp-node-limit <nodes>]
                           [--bnb-deadline-ms <ms>] [--race-deadline-ms <ms>]
                           [--exact-budget <mass>] [--trace-out <file>]
                           [--profile-out <file>] [--json]
  bisched_cli serve [--addr <host:port>] [--workers <n>] [--cache-cap <n>]
                    [--queue-cap <n>] [--shards <n>]
                    [--cache-snapshot <path>]
                    [--log-level error|warn|info|debug|trace] [--log-json]
                    [--exemplar-k <n>] [--exemplar-window-s <s>]
  bisched_cli submit --addr <host:port> <file.jsonl> [--repeat <k>] [--method <m>]
                     [--clients <k>] [--frame json|binary]
                     [--no-cache] [--shutdown] [--json]
                     (a `busy` answer is retried 3 times, 20 ms apart: `busy` counts
                      the requests dropped after that, `busy_answers` every `busy`
                      reply; a retried request's latency includes the pauses)
  bisched_cli metrics --addr <host:port>
  bisched_cli trace --addr <host:port> [--shard <i>] [--json]
  bisched_cli lab list
  bisched_cli lab run --suite <name> [--out <path>]
                      [--reps <n>] [--warmup <n>] [--trace-out <file>]
                      [--profile-out <file>]
                      (suites: quick, full, paper-sec4, fptas-scaling)
  bisched_cli lab compare <old.json> <new.json> [--fail-threshold <pct>]
                          (fails when a deterministic field moves: schema, makespan,
                           lower_bound, guarantee, error, and off races method,
                           counters, engine_attempts; or when a p50 grows past the
                           threshold, 75% by default)";

fn parse<T: std::str::FromStr>(s: Option<&String>, what: &str) -> Result<T, String> {
    s.ok_or_else(|| format!("missing {what}\n{USAGE}"))?
        .parse()
        .map_err(|_| format!("bad {what}: {s:?}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().map(String::as_str);
    let n: usize = parse(args.get(1), "n")?;
    let m: usize = parse(args.get(2), "m")?;
    let p: f64 = parse(args.get(3), "p")?;
    let seed: u64 = parse(args.get(4), "seed")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gilbert_bipartite(n / 2, n - n / 2, p, &mut rng);
    let inst = match kind {
        Some("q") => Instance::uniform(
            SpeedProfile::Geometric { ratio: 2 }.speeds(m),
            JobSizes::Uniform { lo: 1, hi: 50 }.sample(n, &mut rng),
            g,
        ),
        Some("r") => Instance::unrelated(
            UnrelatedFamily::Uncorrelated { lo: 1, hi: 100 }.sample(m, n, &mut rng),
            g,
        ),
        _ => return Err(format!("generate needs q|r\n{USAGE}")),
    }
    .map_err(|e| e.to_string())?;
    print!("{}", to_text(&inst));
    Ok(())
}

fn load(args: &[String]) -> Result<Instance, String> {
    let path = args
        .first()
        .ok_or_else(|| format!("missing file\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let inst = load(args)?;
    let g = inst.graph();
    println!("instance    {}", inst.describe());
    println!("jobs        {}", inst.num_jobs());
    println!("machines    {}", inst.num_machines());
    println!("edges       {}", g.num_edges());
    println!("bipartite   {}", is_bipartite(g));
    println!("components  {}", Components::of(g).count());
    println!("sum p_j     {}", inst.total_processing());
    println!("p_max       {}", inst.max_processing());
    Ok(())
}

/// The recording-backed output flags shared by `solve` and `lab run`.
#[derive(Default)]
struct RecorderOuts {
    /// Chrome trace-event JSON destination (`--trace-out`).
    trace: Option<String>,
    /// Flamegraph-collapsed self-time profile destination
    /// (`--profile-out`).
    profile: Option<String>,
}

impl RecorderOuts {
    fn wanted(&self) -> bool {
        self.trace.is_some() || self.profile.is_some()
    }

    /// Stops the recorder once and writes whichever outputs were asked
    /// for — both flags fold the same recording.
    fn write(&self) -> Result<(), String> {
        if !self.wanted() {
            return Ok(());
        }
        let trace = bisched_obs::stop_recording();
        if let Some(path) = &self.trace {
            std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "trace: {} events ({} dropped) -> {path}",
                trace.events.len(),
                trace.dropped
            );
        }
        if let Some(path) = &self.profile {
            let profile = bisched_obs::Profile::from_trace(&trace);
            std::fs::write(path, profile.to_collapsed()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("profile: {} span stacks -> {path}", profile.rows.len());
        }
        Ok(())
    }
}

/// Parses the `solve` flags into a solver configuration.
fn parse_solve_flags(args: &[String]) -> Result<(SolverConfig, bool, RecorderOuts), String> {
    let mut config = SolverConfig::new();
    let mut json = false;
    let mut outs = RecorderOuts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--trace-out" => outs.trace = Some(parse(it.next(), "--trace-out value")?),
            "--profile-out" => outs.profile = Some(parse(it.next(), "--profile-out value")?),
            "--eps" => {
                let eps: f64 = parse(it.next(), "--eps value")?;
                config = config.eps(eps);
            }
            "--fptas-state-cap" => {
                let cap: usize = parse(it.next(), "--fptas-state-cap value")?;
                config = config.fptas_state_cap(Some(cap));
            }
            "--node-limit" => {
                let nodes: u64 = parse(it.next(), "--node-limit value")?;
                config = config.bnb_node_limit(nodes);
            }
            "--bnb-deadline-ms" => {
                let ms: u64 = parse(it.next(), "--bnb-deadline-ms value")?;
                config = config.bnb_deadline(Some(std::time::Duration::from_millis(ms)));
            }
            "--cp-node-limit" => {
                let nodes: u64 = parse(it.next(), "--cp-node-limit value")?;
                config = config.cp_node_limit(nodes);
            }
            "--race-deadline-ms" => {
                let ms: u64 = parse(it.next(), "--race-deadline-ms value")?;
                config = config.race_deadline(Some(std::time::Duration::from_millis(ms)));
            }
            "--exact-budget" => {
                let budget: u64 = parse(it.next(), "--exact-budget value")?;
                config = config.exact_budget(budget);
            }
            "--method" => {
                let name = it
                    .next()
                    .ok_or(format!("missing --method value\n{USAGE}"))?;
                if name != "auto" {
                    let method: Method = name.parse().map_err(|e| format!("{e}\n{USAGE}"))?;
                    config = config.method(method);
                }
            }
            "--portfolio" => {
                let list = it
                    .next()
                    .ok_or(format!("missing --portfolio value\n{USAGE}"))?;
                let methods: Vec<Method> = list
                    .split(',')
                    .map(|name| name.trim().parse().map_err(|e| format!("{e}\n{USAGE}")))
                    .collect::<Result<_, String>>()?;
                config = config.portfolio(methods);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok((config, json, outs))
}

/// Per-thread flight-recorder ring capacity for `--trace-out` /
/// `--profile-out` (events are ~56 bytes, so this is a few MB per
/// recording thread).
const TRACE_CAPACITY: usize = 1 << 16;

/// Renders the full report as one JSON object for experiment scripts.
fn report_to_json(inst: &Instance, report: &SolveReport) -> Value {
    let float = |x: f64| Value::Number(serde_json::Number::from_f64(x));
    let rat = |r: &Rat| -> Value {
        let mut m = Map::new();
        m.insert(
            "num".into(),
            Value::Number(serde_json::Number::from_u64(r.num())),
        );
        m.insert(
            "den".into(),
            Value::Number(serde_json::Number::from_u64(r.den())),
        );
        m.insert("value".into(), float(r.to_f64()));
        Value::Object(m)
    };
    let guarantee = |g: &Guarantee| -> Value {
        let mut m = Map::new();
        let kind = match g {
            Guarantee::Optimal => "optimal",
            Guarantee::Ratio(_) => "ratio",
            Guarantee::SqrtSumP => "sqrt-sum-p",
            Guarantee::OnePlusEps(_) => "one-plus-eps",
            Guarantee::Heuristic => "heuristic",
        };
        m.insert("kind".into(), Value::String(kind.into()));
        if let Some(bound) = g.ratio_bound(inst) {
            m.insert("ratio_bound".into(), float(bound));
        }
        m.insert("provenance".into(), Value::String(g.provenance().into()));
        m.insert("display".into(), Value::String(g.to_string()));
        Value::Object(m)
    };
    let mut obj = Map::new();
    obj.insert("instance".into(), Value::String(inst.describe()));
    obj.insert("method".into(), Value::String(report.method.name().into()));
    obj.insert("guarantee".into(), guarantee(&report.guarantee));
    obj.insert("makespan".into(), rat(&report.makespan));
    obj.insert("lower_bound".into(), rat(&report.lower_bound));
    obj.insert(
        "total_time_s".into(),
        float(report.total_time.as_secs_f64()),
    );
    if let Some(race) = report.race_time {
        obj.insert("race_time_s".into(), float(race.as_secs_f64()));
    }
    obj.insert(
        "seed".into(),
        Value::Number(serde_json::Number::from_u64(report.seed)),
    );
    let attempts: Vec<Value> = report
        .attempts
        .iter()
        .map(|run| {
            let mut a = Map::new();
            a.insert("method".into(), Value::String(run.method.name().into()));
            let (status, detail) = match &run.outcome {
                EngineOutcome::Solved { makespan, .. } => {
                    a.insert("makespan".into(), rat(makespan));
                    ("solved", None)
                }
                EngineOutcome::NotApplicable { reason } => ("not-applicable", Some(reason)),
                EngineOutcome::Failed { reason } => ("failed", Some(reason)),
            };
            a.insert("status".into(), Value::String(status.into()));
            if let Some(reason) = detail {
                a.insert("reason".into(), Value::String(reason.clone()));
            }
            a.insert("cancelled".into(), Value::Bool(run.cancelled));
            a.insert("wall_time_s".into(), float(run.wall_time.as_secs_f64()));
            if !run.stats.is_empty() {
                let mut s = Map::new();
                for (k, v) in run.stats.iter() {
                    s.insert(k.into(), Value::Number(serde_json::Number::from_u64(v)));
                }
                a.insert("stats".into(), Value::Object(s));
            }
            Value::Object(a)
        })
        .collect();
    obj.insert("attempts".into(), Value::Array(attempts));
    obj.insert(
        "assignment".into(),
        Value::Array(
            report
                .schedule
                .assignment()
                .iter()
                .map(|&m| Value::Number(serde_json::Number::from_u64(m as u64)))
                .collect(),
        ),
    );
    Value::Object(obj)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use bisched_service::{ServeOptions, Service};
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".into(),
        ..ServeOptions::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = parse(it.next(), "--addr value")?,
            "--workers" => opts.workers = parse(it.next(), "--workers value")?,
            "--cache-cap" => opts.cache_cap = parse(it.next(), "--cache-cap value")?,
            "--queue-cap" => opts.queue_cap = parse(it.next(), "--queue-cap value")?,
            "--log-level" => {
                let level: bisched_obs::log::LogLevel = parse(it.next(), "--log-level value")?;
                bisched_obs::log::set_level(level);
            }
            "--log-json" => bisched_obs::log::set_format(bisched_obs::log::LogFormat::Json),
            "--exemplar-k" => opts.exemplar_k = parse(it.next(), "--exemplar-k value")?,
            "--exemplar-window-s" => {
                let secs: f64 = parse(it.next(), "--exemplar-window-s value")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--exemplar-window-s must be positive\n{USAGE}"));
                }
                opts.exemplar_window = std::time::Duration::from_secs_f64(secs);
            }
            "--shards" => {
                opts.shards = parse(it.next(), "--shards value")?;
                if opts.shards == 0 {
                    return Err(format!("--shards must be at least 1\n{USAGE}"));
                }
            }
            "--cache-snapshot" => {
                let path: String = parse(it.next(), "--cache-snapshot value")?;
                opts.cache_snapshot = Some(path.into());
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workers = opts.workers;
    let shards = opts.shards;
    let service = Service::start(opts).map_err(|e| format!("serve: {e}"))?;
    println!(
        "bisched-service listening on {} ({} workers, {} shard{}); send {{\"verb\":\"shutdown\"}} to stop",
        service.local_addr(),
        workers,
        shards,
        if shards == 1 { "" } else { "s" }
    );
    service.join(); // blocks until a shutdown request; logs final stats
    Ok(())
}

/// Per-connection submit counters, merged across `--clients` threads.
#[derive(Default)]
struct SubmitTally {
    requests: u64,
    ok: u64,
    /// Requests dropped: still `busy` after every retry.
    busy: u64,
    /// Every `busy` reply, retries included (what the daemon's
    /// `stats.busy` counts).
    busy_answers: u64,
    errors: u64,
    invalid: u64,
    hits: u64,
    latencies_ms: Vec<f64>,
}

impl SubmitTally {
    fn merge(&mut self, other: SubmitTally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.busy += other.busy;
        self.busy_answers += other.busy_answers;
        self.errors += other.errors;
        self.invalid += other.invalid;
        self.hits += other.hits;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// The per-request knobs one submit connection replays the workload
/// under.
#[derive(Clone)]
struct SubmitKnobs {
    repeat: usize,
    method: Option<String>,
    no_cache: bool,
    binary: bool,
}

/// Replays the whole workload `repeat` times on one connection,
/// starting at `offset` (clients stripe their start offsets so they
/// touch different shards at any instant).
fn run_submit_client(
    addr: &str,
    workload: &[(bisched_model::InstanceData, Instance)],
    knobs: &SubmitKnobs,
    offset: usize,
) -> Result<SubmitTally, String> {
    use bisched_service::{Client, Request};
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    if knobs.binary {
        client
            .upgrade_binary()
            .map_err(|e| format!("upgrade: {e}"))?;
    }
    let mut tally = SubmitTally::default();
    for round in 0..knobs.repeat.max(1) {
        for i in 0..workload.len() {
            let k = (offset + i) % workload.len();
            let (data, inst) = &workload[k];
            let mut req = Request::solve(data.clone());
            req.id = Some((round * workload.len() + k) as u64);
            req.method = knobs.method.clone();
            if knobs.no_cache {
                req.no_cache = Some(true);
            }
            tally.requests += 1;
            // Backpressure: retry `busy` a few times with a short pause
            // before counting the request as dropped. The latency of a
            // retried request includes the pauses.
            let t_req = std::time::Instant::now();
            let mut resp = client.request(&req).map_err(|e| format!("submit: {e}"))?;
            for _ in 0..3 {
                if resp.status != "busy" {
                    break;
                }
                tally.busy_answers += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
                resp = client.request(&req).map_err(|e| format!("submit: {e}"))?;
            }
            if resp.status == "ok" {
                tally.latencies_ms.push(t_req.elapsed().as_secs_f64() * 1e3);
            }
            match resp.status.as_str() {
                "ok" => {
                    let valid = resp
                        .assignment
                        .as_ref()
                        .is_some_and(|a| Schedule::new(a.clone()).validate(inst).is_ok());
                    if valid {
                        tally.ok += 1;
                    } else {
                        tally.invalid += 1;
                        eprintln!("request {k} (round {round}): invalid schedule returned");
                    }
                    if resp.cached == Some(true) {
                        tally.hits += 1;
                    }
                }
                "busy" => {
                    tally.busy += 1;
                    tally.busy_answers += 1;
                }
                _ => {
                    tally.errors += 1;
                    eprintln!(
                        "request {k} (round {round}): {}",
                        resp.error.unwrap_or_default()
                    );
                }
            }
        }
    }
    Ok(tally)
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    use bisched_service::Client;
    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    let mut clients: usize = 1;
    let mut shutdown = false;
    let mut json = false;
    let mut knobs = SubmitKnobs {
        repeat: 1,
        method: None,
        no_cache: false,
        binary: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse(it.next(), "--addr value")?),
            "--repeat" => knobs.repeat = parse(it.next(), "--repeat value")?,
            "--method" => knobs.method = Some(parse(it.next(), "--method value")?),
            "--clients" => {
                clients = parse(it.next(), "--clients value")?;
                if clients == 0 {
                    return Err(format!("--clients must be at least 1\n{USAGE}"));
                }
            }
            "--frame" => match parse::<String>(it.next(), "--frame value")?.as_str() {
                "binary" => knobs.binary = true,
                "json" => knobs.binary = false,
                other => return Err(format!("--frame must be json|binary, got {other}\n{USAGE}")),
            },
            "--no-cache" => knobs.no_cache = true,
            "--shutdown" => shutdown = true,
            "--json" => json = true,
            other if !other.starts_with("--") => file = Some(other.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("submit requires --addr\n{USAGE}"))?;
    let path = file.ok_or_else(|| format!("submit requires a .jsonl file\n{USAGE}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut workload: Vec<(bisched_model::InstanceData, Instance)> = Vec::new();
    for (k, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let data: bisched_model::InstanceData =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", k + 1))?;
        let inst = data
            .clone()
            .into_instance()
            .map_err(|e| format!("{path}:{}: {e}", k + 1))?;
        workload.push((data, inst));
    }
    if workload.is_empty() {
        return Err(format!("{path}: no instances"));
    }
    let workload = std::sync::Arc::new(workload);
    let t0 = std::time::Instant::now();
    let mut tally = SubmitTally::default();
    if clients == 1 {
        tally = run_submit_client(&addr, &workload, &knobs, 0)?;
    } else {
        // Saturation mode: K connections replay the same workload
        // concurrently, start offsets striped so the daemons' shards are
        // all busy from the first request.
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let workload = std::sync::Arc::clone(&workload);
                let knobs = knobs.clone();
                let offset = c * workload.len() / clients;
                std::thread::spawn(move || run_submit_client(&addr, &workload, &knobs, offset))
            })
            .collect();
        for t in threads {
            tally.merge(t.join().map_err(|_| "client thread panicked")??);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let SubmitTally {
        requests,
        ok,
        busy,
        busy_answers,
        errors,
        invalid,
        hits,
        mut latencies_ms,
    } = tally;
    // Per-shard cache behaviour comes from the daemon itself: one extra
    // stats round trip after the load run.
    let shard_stats = Client::connect(&addr)
        .ok()
        .and_then(|mut c| c.stats().ok())
        .map(|s| s.shards)
        .unwrap_or_default();
    let hit_rate = if requests > 0 {
        hits as f64 / requests as f64
    } else {
        0.0
    };
    let req_per_s = requests as f64 / elapsed.max(1e-9);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p50_ms = bisched_lab::percentile(&latencies_ms, 50.0);
    let p99_ms = bisched_lab::percentile(&latencies_ms, 99.0);
    if json {
        // One machine-readable object so the lab (and CI) can script
        // service-level load runs alongside the in-process suites.
        let float = |x: f64| Value::Number(serde_json::Number::from_f64(x));
        let int = |x: u64| Value::Number(serde_json::Number::from_u64(x));
        let mut obj = Map::new();
        obj.insert("requests".into(), int(requests));
        obj.insert("clients".into(), int(clients as u64));
        obj.insert("validated".into(), int(ok));
        obj.insert("invalid".into(), int(invalid));
        obj.insert("busy".into(), int(busy));
        obj.insert("busy_answers".into(), int(busy_answers));
        obj.insert("errors".into(), int(errors));
        obj.insert("cache_hits".into(), int(hits));
        obj.insert("hit_rate".into(), float(hit_rate));
        obj.insert("elapsed_s".into(), float(elapsed));
        obj.insert("req_per_s".into(), float(req_per_s));
        obj.insert("p50_ms".into(), float(p50_ms));
        obj.insert("p99_ms".into(), float(p99_ms));
        let shards: Vec<Value> = shard_stats
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("shard".into(), int(s.shard));
                m.insert("requests".into(), int(s.requests));
                m.insert("cache_hits".into(), int(s.cache_hits));
                m.insert("cache_misses".into(), int(s.cache_misses));
                m.insert("hit_rate".into(), float(s.hit_rate));
                Value::Object(m)
            })
            .collect();
        obj.insert("shards".into(), Value::Array(shards));
        println!("{}", Value::Object(obj));
    } else {
        println!("requests    {requests}");
        println!("clients     {clients}");
        println!("validated   {ok}/{requests}");
        println!("invalid     {invalid}");
        println!("busy        {busy}");
        println!("busy answers {busy_answers}");
        println!("errors      {errors}");
        println!("cache hits  {hits}");
        println!("hit rate    {hit_rate:.2}");
        println!("elapsed     {elapsed:.3} s");
        println!("throughput  {req_per_s:.1} req/s");
        println!("p50 latency {p50_ms:.3} ms");
        println!("p99 latency {p99_ms:.3} ms");
        for s in &shard_stats {
            println!(
                "shard {:<3} hits {:>6}  misses {:>6}  hit rate {:.2}",
                s.shard, s.cache_hits, s.cache_misses, s.hit_rate
            );
        }
    }
    if shutdown {
        Client::connect(&addr)
            .map_err(|e| format!("shutdown connect: {e}"))?
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        if !json {
            println!("server shutdown requested");
        }
    }
    // A dropped (still-busy) request is a failure too: exit 0 must mean
    // the whole workload was solved and validated.
    if invalid > 0 || errors > 0 || busy > 0 {
        return Err(format!(
            "{invalid} invalid schedules, {errors} errors, {busy} dropped busy"
        ));
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    use bisched_service::Client;
    let mut addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse(it.next(), "--addr value")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("metrics requires --addr\n{USAGE}"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    print!("{text}");
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use bisched_service::{Client, SpanData};
    let mut addr: Option<String> = None;
    let mut json = false;
    let mut shard: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse(it.next(), "--addr value")?),
            "--json" => json = true,
            "--shard" => shard = Some(parse(it.next(), "--shard value")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("trace requires --addr\n{USAGE}"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let exemplars = client.trace(shard).map_err(|e| format!("trace: {e}"))?;
    if json {
        println!(
            "{}",
            serde_json::to_string(&exemplars).expect("exemplars serialize")
        );
        return Ok(());
    }
    // Indented span tree per exemplar, slowest first — counters inline
    // so a slow request explains itself without another round trip.
    fn print_span(span: &SpanData, depth: usize) {
        let indent = "  ".repeat(depth + 1);
        let counters = if span.counters.is_empty() {
            String::new()
        } else {
            let kv: Vec<String> = span
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("  [{}]", kv.join(" "))
        };
        println!(
            "{indent}{:<16} +{:.3} ms  {:.3} ms{counters}",
            span.name, span.start_ms, span.dur_ms
        );
        for child in &span.children {
            print_span(child, depth + 1);
        }
    }
    println!(
        "slow-request exemplars: window {} ({}s, k={})",
        exemplars.window, exemplars.window_s, exemplars.k
    );
    for (label, bucket) in [
        ("current", &exemplars.current),
        ("previous", &exemplars.previous),
    ] {
        println!("{label} window: {} exemplar(s)", bucket.len());
        for ex in bucket {
            println!(
                "  request {}  shard {}  {:.3} ms  {}  fingerprint {}{}",
                ex.request_id,
                ex.shard,
                ex.total_ms,
                ex.method.as_deref().unwrap_or("-"),
                &ex.fingerprint[..8.min(ex.fingerprint.len())],
                if ex.cached { "  (cache hit)" } else { "" }
            );
            print_span(&ex.root, 1);
        }
    }
    Ok(())
}

fn cmd_lab(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => cmd_lab_list(),
        Some("run") => cmd_lab_run(&args[1..]),
        Some("compare") => cmd_lab_compare(&args[1..]),
        _ => Err(format!("lab needs list|run|compare\n{USAGE}")),
    }
}

fn cmd_lab_list() -> Result<(), String> {
    for name in bisched_lab::suite_names() {
        let suite = bisched_lab::suite(name).expect("registered suite");
        let configs: Vec<&str> = suite.configs.iter().map(|c| c.name.as_str()).collect();
        println!(
            "suite {:<12} {} scenarios x {} configs [{}]{}",
            suite.name,
            suite.scenarios.len(),
            suite.configs.len(),
            configs.join(", "),
            if suite.sec4.is_some() {
                "  + Section 4.1 tables"
            } else {
                ""
            }
        );
        for scenario in &suite.scenarios {
            println!("  {}", scenario.describe());
        }
    }
    Ok(())
}

fn cmd_lab_run(args: &[String]) -> Result<(), String> {
    let mut suite_name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut outs = RecorderOuts::default();
    let mut opts = bisched_lab::RunOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => suite_name = Some(parse(it.next(), "--suite value")?),
            "--out" => out = Some(parse(it.next(), "--out value")?),
            "--reps" => opts.reps = parse(it.next(), "--reps value")?,
            "--warmup" => opts.warmup = parse(it.next(), "--warmup value")?,
            "--trace-out" => outs.trace = Some(parse(it.next(), "--trace-out value")?),
            "--profile-out" => outs.profile = Some(parse(it.next(), "--profile-out value")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let name = suite_name.ok_or_else(|| format!("lab run requires --suite\n{USAGE}"))?;
    let suite = bisched_lab::suite(&name).ok_or_else(|| {
        format!(
            "unknown suite {name:?}; registered: {}",
            bisched_lab::suite_names().join(", ")
        )
    })?;
    // A traced/profiled lab run measures an *instrumented* suite: fine
    // for seeing where the time goes, not for committing as a baseline.
    if outs.wanted() {
        bisched_obs::start_recording(TRACE_CAPACITY);
    }
    let report = bisched_lab::run_suite(&suite, &opts);
    outs.write()?;
    let errored: Vec<&bisched_lab::CellReport> =
        report.cells.iter().filter(|c| c.error.is_some()).collect();
    for cell in &errored {
        eprintln!(
            "cell {} failed: {}",
            cell.key(),
            cell.error.as_deref().unwrap_or("?")
        );
    }
    let json_path = std::path::PathBuf::from(out.unwrap_or_else(|| format!("BENCH_{name}.json")));
    let md_path = report
        .write_files(&json_path)
        .map_err(|e| format!("{}: {e}", json_path.display()))?;
    println!(
        "suite {:<12} {} cells in {:.2} s  ->  {} + {}",
        report.suite,
        report.cells.len(),
        report.total_wall_s,
        json_path.display(),
        md_path.display()
    );
    if !errored.is_empty() {
        return Err(format!("{} cells failed to solve", errored.len()));
    }
    Ok(())
}

fn cmd_lab_compare(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut opts = bisched_lab::CompareOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fail-threshold" => {
                opts.fail_threshold_pct = parse(it.next(), "--fail-threshold value")?
            }
            other if !other.starts_with("--") => paths.push(arg),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(format!("lab compare needs <old.json> <new.json>\n{USAGE}"));
    };
    let load = |path: &str| -> Result<bisched_lab::LabReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    println!(
        "comparing {} ({} cells) vs {} ({} cells): deterministic fields exactly, \
         p50 at +{}%",
        old_path,
        old.cells.len(),
        new_path,
        new.cells.len(),
        opts.fail_threshold_pct,
    );
    let outcome = bisched_lab::compare(&old, &new, &opts);
    print!("{}", outcome.render());
    if outcome.passed() {
        Ok(())
    } else {
        Err(format!(
            "lab gate failed: {} drifted fields, {} regressions, {} missing cells",
            outcome.drift.len(),
            outcome.regressions.len(),
            outcome.missing.len()
        ))
    }
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let inst = load(args)?;
    let (config, json, outs) = parse_solve_flags(args.get(1..).unwrap_or(&[]))?;
    let solver = config.build().map_err(|e| e.to_string())?;
    if outs.wanted() {
        bisched_obs::start_recording(TRACE_CAPACITY);
    }
    let solve_result = solver.solve(&inst);
    outs.write()?;
    let report = solve_result.map_err(|e| e.to_string())?;
    report.schedule.validate(&inst).map_err(|e| e.to_string())?;
    if json {
        println!("{}", report_to_json(&inst, &report));
        return Ok(());
    }
    println!("method    {} — {}", report.method, report.guarantee);
    println!(
        "C_max     {}  (~{:.4}, lower bound ~{:.4})",
        report.makespan,
        report.makespan.to_f64(),
        report.lower_bound.to_f64()
    );
    for run in &report.attempts {
        let outcome = match &run.outcome {
            EngineOutcome::Solved { makespan, .. } => format!("C_max {makespan}"),
            EngineOutcome::NotApplicable { reason } => format!("n/a: {reason}"),
            EngineOutcome::Failed { reason } => format!("failed: {reason}"),
        };
        println!(
            "  tried {:<17} {:<28} ({:.2?}){}",
            run.method.name(),
            outcome,
            run.wall_time,
            if run.cancelled {
                "  [race-cancelled]"
            } else {
                ""
            }
        );
        if !run.stats.is_empty() {
            let kv: Vec<String> = run.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("        stats: {}", kv.join(" "));
        }
    }
    for i in 0..inst.num_machines() as u32 {
        let jobs = report.schedule.jobs_on(i);
        let load: u64 = match inst.env() {
            bisched_model::MachineEnvironment::Unrelated { times } => {
                jobs.iter().map(|&j| times[i as usize][j as usize]).sum()
            }
            _ => jobs.iter().map(|&j| inst.processing(j)).sum(),
        };
        let time = match inst.env() {
            bisched_model::MachineEnvironment::Uniform { speeds } => {
                Rat::new(load, speeds[i as usize])
            }
            _ => Rat::integer(load),
        };
        println!(
            "M{:<3} time {:>10}  jobs {:?}",
            i + 1,
            time.to_string(),
            jobs
        );
    }
    Ok(())
}
