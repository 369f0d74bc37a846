//! `bisched-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --cli <path to bisched_cli> [--state-dir <dir>]`
//!
//! Runs one workload against a freshly spawned daemon and prints the
//! metrics, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics over `--seconds` of closed-loop load; `--trace 1`
//! sends a fixed number of requests, replays them in-process under
//! spans, and prints the per-layer metrics. `perfbench/run.py` builds
//! the binaries and calls this.

use bisched_model::InstanceData;
use bisched_perfbench::check::{check, Answer, Verdict};
use bisched_perfbench::daemon::{Conn, Daemon};
use bisched_perfbench::load::{closed_loop, Limit, Phase};
use bisched_perfbench::metrics::{
    exact_counters, mean, micros, per_layer, percentile, result_line, END_TO_END, ENGINES,
};
use bisched_perfbench::trace::{Replay, WARM_ID_BASE};
use bisched_perfbench::workload::{generate, parse_instance, Stream, Workload};
use bisched_service::StatsData;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    cli: PathBuf,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let number =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
        cli: PathBuf::from(get("--cli")?),
        state_dir: flags.get("--state-dir").map(PathBuf::from),
    })
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A measured daemon run: set-up, timed phase, and the checked answers.
struct Run {
    setup: Vec<Duration>,
    phase: Phase,
    warm: Vec<Vec<u8>>,
    before: StatsData,
    after: StatsData,
    peak_rss_kib: u64,
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let stream = generate(w, args.seed, args.seconds)?;
    println!(
        "workload {} seed {} clients {}: {} warm + {} timed request lines, stream digest {:032x}",
        w.name(),
        args.seed,
        w.clients(),
        stream.warm.len(),
        stream.timed.len(),
        stream.digest()
    );
    let (trace_requests, replay_requests) = w.trace_sizes();
    let limit = if args.trace {
        Limit::Requests(trace_requests.min(stream.timed.len()))
    } else {
        Limit::Time(Duration::from_secs(args.seconds))
    };
    let run = drive(args, &stream, limit)?;
    if !w.repeats() && run.phase.samples.len() >= stream.timed.len() {
        println!("warning: the stream ran out before the time limit");
    }

    // Check every answer, off the clock. Hit streams repeat lines, so
    // each line is parsed once.
    let mut instances: HashMap<usize, InstanceData> = HashMap::new();
    let mut failed = run.phase.transport_errors;
    let mut invalid = 0;
    let mut answers = Vec::new();
    let warm = run.warm.iter().enumerate().map(|(i, r)| (r, i));
    let timed = run.phase.samples.iter().map(|s| {
        (
            &s.response,
            stream.warm.len() + s.index % stream.timed.len(),
        )
    });
    for (k, (response, line)) in warm.chain(timed).enumerate() {
        if let Entry::Vacant(slot) = instances.entry(line) {
            let text = stream
                .warm
                .get(line)
                .unwrap_or_else(|| &stream.timed[line - stream.warm.len()]);
            slot.insert(parse_instance(text)?);
        }
        match check(&instances[&line], response) {
            Verdict::Valid(a) => answers.push((k >= run.warm.len(), a)),
            Verdict::Busy | Verdict::NotOk(_) => failed += 1,
            Verdict::Invalid(e) => {
                println!("invalid answer: {e}");
                invalid += 1;
                failed += 1;
            }
        }
    }
    let attempted = run.warm.len() + run.phase.samples.len() + run.phase.transport_errors;
    println!(
        "answers: {attempted} attempted, {failed} failed, {invalid} invalid, failed_frac {}",
        failed as f64 / attempted.max(1) as f64
    );

    let mut values: HashMap<String, f64> = HashMap::new();
    let mut correct = invalid == 0;
    let table: Vec<(String, &str)> = if args.trace {
        let n = replay_requests.min(stream.timed.len());
        let spans = layer_metrics(&stream, n, &run, &answers, &mut values)?;
        if let Some(dir) = &args.state_dir {
            correct &= drift_check(dir, args, stream.digest(), &values)?;
            let path = dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
            std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans written to {}", path.display());
        }
        per_layer()
    } else {
        end_to_end_metrics(&run, &answers, &mut values);
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &table {
        println!(
            "{name:<32} {:>14.6} {unit}",
            values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    result_line(correct, attempted, failed, &table, &values)
}

/// Spawns the daemon several times to measure set-up (connect, warm
/// pass), keeps the last one for the timed phase, then shuts it down.
fn drive(args: &Args, stream: &Stream, limit: Limit) -> Result<Run, String> {
    let w = args.workload;
    let repeats = if w.repeats() { 5 } else { 15 };
    let mut setup = Vec::new();
    for rep in 0..repeats {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&args.cli)?;
        let mut conns: Vec<Conn> = (0..w.clients())
            .map(|_| daemon.connect())
            .collect::<Result<_, _>>()?;
        let warm: Vec<Vec<u8>> = stream
            .warm
            .iter()
            .map(|line| conns[0].call(line))
            .collect::<Result<_, _>>()?;
        setup.push(t0.elapsed());
        if rep + 1 < repeats {
            drop(conns);
            daemon.shutdown()?;
            continue;
        }
        let mut control = daemon.connect()?;
        let before = control.stats()?;
        let phase = closed_loop(conns, &stream.timed, w.repeats(), limit);
        let after = control.stats()?;
        let peak_rss_kib = daemon.peak_rss_kib().unwrap_or(0);
        drop(control);
        daemon.shutdown()?;
        return Ok(Run {
            setup,
            phase,
            warm,
            before,
            after,
            peak_rss_kib,
        });
    }
    unreachable!("the last set-up repetition returns")
}

fn end_to_end_metrics(
    run: &Run,
    answers: &[(bool, Box<Answer>)],
    values: &mut HashMap<String, f64>,
) {
    let setup: Vec<f64> = run.setup.iter().map(Duration::as_secs_f64).collect();
    let latency_ms: Vec<f64> = run
        .phase
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let timed: Vec<_> = answers.iter().filter(|(t, _)| *t).map(|(_, a)| a).collect();
    let log_ratio = mean(&timed.iter().map(|a| a.ratio_lb.ln()).collect::<Vec<_>>());
    let proven = timed.iter().filter(|a| a.proven).count();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("setup_s", percentile(&setup, 0.5));
    put(
        "req_per_s",
        latency_ms.len() as f64 / run.phase.elapsed.as_secs_f64(),
    );
    put("latency_p50_ms", percentile(&latency_ms, 0.5));
    put("latency_p90_ms", percentile(&latency_ms, 0.9));
    put("ratio_lb_geomean", log_ratio.exp());
    put("proven_frac", proven as f64 / timed.len().max(1) as f64);
    put("peak_rss_mb", run.peak_rss_kib as f64 / 1024.0);
    println!(
        "samples {} ({} beyond p90), set-up repetitions {}, elapsed {:.3} s",
        latency_ms.len(),
        latency_ms.len() / 10,
        setup.len(),
        run.phase.elapsed.as_secs_f64()
    );
}

/// Per-layer metrics from the traced replay of the first `n` timed
/// requests (after the warm pass), the daemon's `stats` verb, and the
/// engine attempts in the solve responses. Returns the replay's spans as
/// a Chrome trace.
fn layer_metrics(
    stream: &Stream,
    n: usize,
    run: &Run,
    answers: &[(bool, Box<Answer>)],
    values: &mut HashMap<String, f64>,
) -> Result<String, String> {
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };

    // --- replay: the same requests with the recorder off and on,
    // alternating which goes first, so the difference is the tracing
    // overhead.
    let mut off = Replay::new(false);
    let mut on = Replay::new(true);
    let (mut t_off, mut t_on) = (Duration::ZERO, Duration::ZERO);
    let mut cert_bytes = Vec::new();
    let mut solved = Vec::new();
    let lines = stream
        .warm
        .iter()
        .enumerate()
        .map(|(i, l)| (WARM_ID_BASE + i as u64, l))
        .chain(
            stream.timed[..n]
                .iter()
                .enumerate()
                .map(|(i, l)| (i as u64, l)),
        );
    for (k, (id, line)) in lines.enumerate() {
        let timed = |replay: &mut Replay| {
            let t0 = Instant::now();
            let out = replay.serve(id, line);
            (t0.elapsed(), out)
        };
        let ((d_off, _), (d_on, out)) = if k % 2 == 0 {
            let a = timed(&mut off);
            (a, timed(&mut on))
        } else {
            let b = timed(&mut on);
            (timed(&mut off), b)
        };
        t_off += d_off;
        t_on += d_on;
        let out = out?;
        if id < WARM_ID_BASE {
            cert_bytes.push(out.cert_bytes as f64);
        }
        solved.extend(out.solved);
    }
    put(
        "trace.overhead_frac",
        (t_on.as_secs_f64() - t_off.as_secs_f64()) / t_off.as_secs_f64(),
    );
    let spans = on.rec.spans();
    let self_times = on.rec.self_times();
    let durations = |name: &str, stream_only: bool| -> Vec<f64> {
        micros(
            spans
                .iter()
                .zip(&self_times)
                .filter(|(s, _)| s.name == name && (!stream_only || s.request < WARM_ID_BASE))
                .map(|(_, &d)| d),
        )
    };
    let p50 = |name: &str| percentile(&durations(name, true), 0.5);
    let canon = durations("canonical.canonicalize", true);
    put("canonical.canonicalize_us_p50", percentile(&canon, 0.5));
    put("canonical.canonicalize_us_p90", percentile(&canon, 0.9));
    let roots: f64 = micros(
        spans
            .iter()
            .filter(|s| s.name == "request" && s.request < WARM_ID_BASE)
            .map(|s| s.duration()),
    )
    .iter()
    .sum();
    put(
        "canonical.share",
        canon.iter().sum::<f64>() / roots.max(f64::MIN_POSITIVE),
    );
    put("canonical.translate_us", p50("canonical.translate"));
    put("canonical.cert_bytes", mean(&cert_bytes));
    put("protocol.decode_us", p50("protocol.decode"));
    put("protocol.encode_us", p50("protocol.encode"));
    put("io.into_instance_us", p50("io.into_instance"));
    put("frame.decode_us", p50("frame.decode"));
    put("frame.encode_us", p50("frame.encode"));
    put("schedule.validate_us", p50("schedule.validate"));
    put("cache.lookup_us", p50("cache.lookup"));
    put(
        "cache.insert_us",
        percentile(&durations("cache.insert", false), 0.5),
    );
    let solve_ms: Vec<f64> = durations("solver.solve", false)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    put("solver.solve_ms", percentile(&solve_ms, 0.5));
    let dispatch_us: Vec<f64> = solved
        .iter()
        .map(|r| {
            let engines = r
                .race_time
                .unwrap_or_else(|| r.attempts.iter().map(|a| a.wall_time).sum());
            r.total_time.saturating_sub(engines).as_secs_f64() * 1e6
        })
        .collect();
    put("solver.dispatch_us", mean(&dispatch_us));

    // --- the daemon's request stream and `stats` verb.
    let sent: Vec<f64> = run
        .phase
        .samples
        .iter()
        .map(|s| stream.timed[s.index % stream.timed.len()].len() as f64)
        .collect();
    put("protocol.request_bytes", mean(&sent));
    let received: Vec<f64> = run
        .phase
        .samples
        .iter()
        .map(|s| s.response.len() as f64)
        .collect();
    put("protocol.response_bytes", mean(&received));
    let (before, after) = (&run.before, &run.after);
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    put("cache.hits", hits as f64);
    put("cache.misses", misses as f64);
    put(
        "cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    put("cache.evictions", after.cache_evictions as f64);
    put("worker.queue_wait_ms_p50", after.queue_p50_ms);
    put("worker.queue_wait_ms_p99", after.queue_p99_ms);
    put(
        "worker.batch_size_mean",
        after.batched_jobs as f64 / after.batches.max(1) as f64,
    );
    put("worker.busy", after.busy as f64);
    put("service.server_ms_p50", after.p50_ms);
    let client_ms: Vec<f64> = micros(run.phase.samples.iter().map(|s| s.latency));
    put(
        "transport.us",
        percentile(&client_ms, 0.5) - after.p50_ms * 1e3,
    );
    put(
        "client.us_per_req",
        run.phase.client_cpu.as_secs_f64() * 1e6 / run.phase.samples.len().max(1) as f64,
    );

    // --- engine attempts carried by the solve responses (warm + timed).
    let mut engine_ms: HashMap<&str, f64> = HashMap::new();
    let mut engine_calls: HashMap<&str, f64> = HashMap::new();
    let mut counter: HashMap<&str, f64> = HashMap::new();
    let mut attempts_per_solve = Vec::new();
    let mut race_ms = Vec::new();
    let (mut races, mut cp_wins, mut cancelled, mut peak_states) = (0usize, 0usize, 0usize, 0f64);
    for (_, a) in answers {
        let Some(attempts) = &a.response.attempts else {
            continue;
        };
        attempts_per_solve.push(attempts.len() as f64);
        let is_race = ["cp", "branch-and-bound"]
            .iter()
            .all(|m| attempts.iter().any(|t| t.method == *m));
        if is_race {
            races += 1;
            race_ms.push(a.response.time_ms.unwrap_or(0.0));
            cp_wins += usize::from(a.response.method.as_deref() == Some("cp"));
        }
        for t in attempts {
            let Some(engine) = ENGINES.iter().find(|e| **e == t.method) else {
                continue;
            };
            *engine_ms.entry(engine).or_default() += t.wall_ms;
            *engine_calls.entry(engine).or_default() += 1.0;
            cancelled += usize::from(t.cancelled);
            for (name, v) in &t.stats {
                let key = match (t.method.as_str(), name.as_str()) {
                    ("fptas", "expanded") => "fptas.expanded",
                    ("fptas", "peak_states") => {
                        peak_states = peak_states.max(*v as f64);
                        continue;
                    }
                    ("branch-and-bound", "nodes") => "bnb.nodes",
                    ("branch-and-bound", p) if p.starts_with("prunes_") => "bnb.prunes",
                    ("cp", "nodes") => "cp.nodes",
                    ("cp", "propagations") => "cp.propagations",
                    _ => continue,
                };
                *counter.entry(key).or_default() += *v as f64;
            }
        }
    }
    for engine in ENGINES {
        put(
            &format!("engine.{engine}.ms"),
            engine_ms.get(engine).copied().unwrap_or(0.0),
        );
        put(
            &format!("engine.{engine}.calls"),
            engine_calls.get(engine).copied().unwrap_or(0.0),
        );
    }
    let count = |k: &str| counter.get(k).copied().unwrap_or(0.0);
    put("solver.attempts_per_solve", mean(&attempts_per_solve));
    put("fptas.expanded", count("fptas.expanded"));
    put("fptas.peak_states", peak_states);
    put("bnb.nodes", count("bnb.nodes"));
    put(
        "bnb.prunes_per_node",
        count("bnb.prunes") / count("bnb.nodes").max(1.0),
    );
    put("cp.nodes", count("cp.nodes"));
    put("cp.propagations", count("cp.propagations"));
    put("race.ms", percentile(&race_ms, 0.5));
    put("race.cancelled", cancelled as f64);
    put("race.winner_cp_frac", cp_wins as f64 / races.max(1) as f64);
    Ok(on.rec.chrome_json())
}

/// Compares this traced run's exact counters with the previous traced
/// run of the same request stream (kept under `dir`, keyed by workload,
/// seed and stream digest), prints any drift and the race-dependent
/// counters' change, and records this run. Returns `false` on drift.
fn drift_check(
    dir: &std::path::Path,
    args: &Args,
    digest: u128,
    values: &HashMap<String, f64>,
) -> Result<bool, String> {
    let race = args.workload == Workload::RaceExact;
    let exact = exact_counters(race);
    let noisy = ["bnb.nodes", "cp.nodes", "cp.propagations", "race.cancelled"];
    let name = format!(
        "counts-{}-{}-{digest:032x}.txt",
        args.workload.name(),
        args.seed
    );
    let path = dir.join(name);
    let previous: HashMap<String, f64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let mut steady = true;
    for name in &exact {
        if let Some(&old) = previous.get(name) {
            if old != values[name] {
                println!("drift: {name} was {old}, now {}", values[name]);
                steady = false;
            }
        }
    }
    if race {
        for name in noisy {
            if let Some(&old) = previous.get(name) {
                println!(
                    "race-dependent {name}: {} (previous run {old}, change {:+.1}%)",
                    values[name],
                    (values[name] - old) / old.max(1.0) * 100.0
                );
            }
        }
    }
    if previous.is_empty() {
        println!("exact counters recorded for later runs of this seed");
    } else if steady {
        println!("exact counters match the previous run of this seed");
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut recorded = exact.clone();
    recorded.extend(noisy.iter().map(|s| s.to_string()));
    recorded.dedup();
    let record: String = recorded
        .iter()
        .map(|k| format!("{k} {}\n", values[k]))
        .collect();
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(steady)
}
