//! The four named workloads and their request streams.
//!
//! Every instance comes from the lab's scenario registry
//! (`bisched_lab::scenarios`): either a registry scenario reseeded from
//! the workload seed, or a [`Scenario`] built from the registry's own
//! graph families, job-size distributions and machine models. Requests
//! are serialized to JSON lines here, before any clock starts, and the
//! same `(workload, seed, seconds)` always yields byte-identical lines.

use crate::trace::WARM_ID_BASE;
use bisched_core::solver::DEFAULT_EXACT_BUDGET;
use bisched_lab::scenarios::{suite, GraphFamily, ModelSpec, Scenario};
use bisched_model::canonical::fnv128;
use bisched_model::{
    canonicalize, Instance, InstanceData, JobSizes, MachineEnvironment, SpeedProfile,
};
use bisched_service::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The benchmark's workloads. Names are fixed: later changes cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Relabelings of a warmed corpus of weighted-job scenarios.
    HitWeighted,
    /// Relabelings of warmed unit-time instances on symmetric graphs.
    HitUnit,
    /// Never-seen P/Q/R instances under the default `Auto` policy.
    MissAuto,
    /// Fresh oracle-scale instances raced by CP and branch and bound.
    RaceExact,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::HitWeighted,
    Workload::HitUnit,
    Workload::MissAuto,
    Workload::RaceExact,
];

/// Timed requests generated per second of run time on the miss-path
/// workloads, whose streams must never wrap around. Well above the
/// rates a two-core host reaches (see `perfbench/README.md`).
const MISS_RATE_CAP: usize = 1_200;
const RACE_RATE_CAP: usize = 1_000;

/// Relabelings generated for a hit workload's stream (clients cycle it).
const HIT_STREAM_LEN: usize = 4_096;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitWeighted => "hit-weighted",
            Workload::HitUnit => "hit-unit",
            Workload::MissAuto => "miss-auto",
            Workload::RaceExact => "race-exact",
        }
    }

    /// Closed-loop client connections. The race runs both engines
    /// concurrently, so one client already loads both cores.
    pub fn clients(self) -> usize {
        match self {
            Workload::RaceExact => 1,
            _ => 2,
        }
    }

    /// Whether clients may cycle the stream: relabelings of a warmed
    /// corpus stay hits when resent, fresh instances would not stay
    /// misses.
    pub fn repeats(self) -> bool {
        matches!(self, Workload::HitWeighted | Workload::HitUnit)
    }

    /// Requests the traced run sends and replays. A fixed count keeps
    /// the deterministic counters exactly repeatable; `miss-auto` sends
    /// more than the daemon's 4096-entry cache holds, so it evicts.
    pub fn trace_sizes(self) -> (usize, usize) {
        match self {
            Workload::HitWeighted => (4_000, 1_000),
            Workload::HitUnit => (1_500, 300),
            Workload::MissAuto => (4_500, 400),
            Workload::RaceExact => (800, 200),
        }
    }
}

/// A workload's serialized requests.
pub struct Stream {
    /// Solve lines sent once during set-up (the hit workloads' corpus).
    pub warm: Vec<Vec<u8>>,
    /// The measured request lines, each ending in `\n`.
    pub timed: Vec<Vec<u8>>,
}

impl Stream {
    /// 128-bit FNV digest of every line, warm then timed, in order.
    pub fn digest(&self) -> u128 {
        let mut bytes = Vec::new();
        for line in self.warm.iter().chain(&self.timed) {
            bytes.extend_from_slice(line);
        }
        fnv128(&bytes)
    }
}

/// Builds `workload`'s stream for `seed`. `seconds` sizes the miss-path
/// streams so that they cannot run out within the timed phase.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Result<Stream, String> {
    let seconds = seconds.max(1) as usize;
    match workload {
        Workload::HitWeighted => Ok(hit_stream(weighted_corpus(seed), seed)),
        Workload::HitUnit => Ok(hit_stream(unit_corpus(seed), seed)),
        Workload::MissAuto => {
            let families = miss_families();
            let n = seconds * MISS_RATE_CAP;
            let stream = fresh_stream(&families, seed, n, None);
            let distinct = distinct_fingerprints(&stream.timed);
            if distinct != stream.timed.len() {
                return Err(format!(
                    "miss-auto stream has {} repeated canonical fingerprints",
                    stream.timed.len() - distinct
                ));
            }
            Ok(stream)
        }
        Workload::RaceExact => {
            let families = race_families();
            let portfolio = vec!["cp".to_string(), "branch-and-bound".to_string()];
            Ok(fresh_stream(
                &families,
                seed,
                seconds * RACE_RATE_CAP,
                Some(portfolio),
            ))
        }
    }
}

/// The quick registry's weighted-job scenarios: every `P`/`Q` scenario
/// with non-unit sizes and every `R` scenario except the seed-independent
/// Theorem 24 gadgets, each reseeded three times from the workload seed.
fn weighted_corpus(seed: u64) -> Vec<Instance> {
    let base = registry_scenarios(|s| {
        let gadget = matches!(
            s.graph,
            GraphFamily::Gadget24No { .. } | GraphFamily::Gadget24Yes { .. }
        );
        let unit_pq = s.model.alpha() != "R" && s.sizes == JobSizes::Unit;
        !gadget && !unit_pq
    });
    let mut corpus = Vec::new();
    for copy in 0..3u64 {
        for s in &base {
            corpus.push(build_reseeded(s, mix(seed, copy * 1_000 + s.seed)));
        }
    }
    corpus
}

/// Unit-time instances on the paper's structured bipartite families:
/// 2-regular graphs (disjoint even cycles) on 32–64 vertices, cubic
/// graphs with 16–32 vertices per side, `K_{n,n}` for n = 16–32, and the
/// crowns S₆–S₈, each on two of P3/Q2/Q3/Q4. `p8-crown64-unit` stays out:
/// canonicalizing it takes seconds (see the write-up).
fn unit_corpus(seed: u64) -> Vec<Instance> {
    let models = [
        ModelSpec::P { m: 3 },
        ModelSpec::Q {
            m: 2,
            profile: SpeedProfile::Geometric { ratio: 2 },
        },
        ModelSpec::Q {
            m: 3,
            profile: SpeedProfile::TwoTier {
                fast_count: 1,
                factor: 3,
            },
        },
        ModelSpec::Q {
            m: 4,
            profile: SpeedProfile::OneFast { factor: 4 },
        },
    ];
    let mut graphs = Vec::new();
    for n in [16, 24, 32] {
        graphs.push(GraphFamily::Regular { n, d: 2 });
        graphs.push(GraphFamily::Regular { n, d: 3 });
        graphs.push(GraphFamily::CompleteBipartite { a: n, b: n });
    }
    for n in [6, 7, 8] {
        graphs.push(GraphFamily::Crown { n });
    }
    let mut corpus = Vec::new();
    for (g, graph) in graphs.into_iter().enumerate() {
        for k in 0..2 {
            let scenario = Scenario {
                name: format!("unit-{}-{k}", graph.label()),
                model: models[(g + 2 * k) % models.len()],
                graph,
                sizes: JobSizes::Unit,
                seed: mix(seed, (g * 2 + k) as u64),
            };
            corpus.push(scenario.build());
        }
    }
    corpus
}

/// Miss-path families: the quick registry's P/Q/R scenarios minus the
/// seed-independent ones (Theorem 24 gadgets, unit crowns), whose
/// reseeded copies would repeat a canonical form.
fn miss_families() -> Vec<Scenario> {
    registry_scenarios(|s| match s.graph {
        GraphFamily::Gadget24No { .. } | GraphFamily::Gadget24Yes { .. } => false,
        // A fixed graph with unit P/Q jobs has no randomness left.
        GraphFamily::Crown { .. }
        | GraphFamily::CompleteBipartite { .. }
        | GraphFamily::Caterpillar { .. } => s.model.alpha() == "R" || s.sizes != JobSizes::Unit,
        _ => true,
    })
}

/// Oracle-scale families (20–40 jobs): the registry's `*-oracle` and
/// `*-dense-cp` scenarios.
fn race_families() -> Vec<Scenario> {
    registry_scenarios(|s| s.name.ends_with("-oracle") || s.name.ends_with("-dense-cp"))
}

fn registry_scenarios(keep: impl Fn(&Scenario) -> bool) -> Vec<Scenario> {
    suite("quick")
        .expect("the quick suite is registered")
        .scenarios
        .into_iter()
        .filter(|s| keep(s))
        .collect()
}

/// Builds `s` under a new seed. The registry's `*-fptas` scenarios exist
/// to reach Algorithm 5 under `Auto`, which needs the first machine's row
/// mass above the exact-DP budget. Relabeling and canonicalization may
/// put either row first, so a reseed with any row under the budget is
/// redrawn. (Just under the budget, `Auto` runs the exact R2 DP instead:
/// seconds and gigabytes per request, see the write-up.)
fn build_reseeded(s: &Scenario, seed: u64) -> Instance {
    let mut draw = seed;
    loop {
        let inst = Scenario {
            seed: draw,
            ..s.clone()
        }
        .build();
        let fptas_backed = match inst.env() {
            MachineEnvironment::Unrelated { times } => times
                .iter()
                .all(|row| row.iter().sum::<u64>() > DEFAULT_EXACT_BUDGET),
            _ => false,
        };
        if !s.name.ends_with("-fptas") || fptas_backed {
            return inst;
        }
        draw = mix(draw, 1);
    }
}

/// A hit stream: the corpus as warm lines, then [`HIT_STREAM_LEN`]
/// fresh random relabelings of it, round-robin.
fn hit_stream(corpus: Vec<Instance>, seed: u64) -> Stream {
    let warm = corpus
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            solve_line(
                WARM_ID_BASE + i as u64,
                InstanceData::from_instance(inst),
                None,
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x0068_6974));
    let timed = (0..HIT_STREAM_LEN)
        .map(|k| {
            let data = relabel(&corpus[k % corpus.len()], &mut rng);
            solve_line(k as u64, data, None)
        })
        .collect();
    Stream { warm, timed }
}

/// `n` fresh instances, request `k` drawn from `families[k % len]` with
/// its own seed. Built on two threads; each request depends only on its
/// index, so the result does not depend on the split.
fn fresh_stream(
    families: &[Scenario],
    seed: u64,
    n: usize,
    portfolio: Option<Vec<String>>,
) -> Stream {
    let build = |k: usize| {
        let family = &families[k % families.len()];
        let inst = build_reseeded(family, mix(seed, k as u64));
        let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x0072_656c_6162_656c, k as u64));
        solve_line(k as u64, relabel(&inst, &mut rng), portfolio.clone())
    };
    let half = n / 2;
    let timed = std::thread::scope(|scope| {
        let upper = scope.spawn(|| (half..n).map(build).collect::<Vec<_>>());
        let mut lines: Vec<Vec<u8>> = (0..half).map(build).collect();
        lines.extend(upper.join().expect("stream generator thread panicked"));
        lines
    });
    Stream {
        warm: Vec::new(),
        timed,
    }
}

/// Number of distinct canonical fingerprints among the instances of
/// `lines` (computed on two threads).
fn distinct_fingerprints(lines: &[Vec<u8>]) -> usize {
    let fingerprint = |line: &Vec<u8>| {
        let data = parse_instance(line).expect("generated lines parse");
        canonicalize(&data.into_instance().expect("generated instances are valid")).fingerprint
    };
    let half = lines.len() / 2;
    let prints: Vec<u128> = std::thread::scope(|scope| {
        let upper = scope.spawn(|| lines[half..].iter().map(fingerprint).collect::<Vec<_>>());
        let mut prints: Vec<u128> = lines[..half].iter().map(fingerprint).collect();
        prints.extend(upper.join().expect("fingerprint thread panicked"));
        prints
    });
    prints.into_iter().collect::<HashSet<_>>().len()
}

/// The instance a request line carries.
pub fn parse_instance(line: &[u8]) -> Result<InstanceData, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let req: Request = serde_json::from_str(text.trim_end()).map_err(|e| e.to_string())?;
    req.instance
        .ok_or_else(|| "request carries no instance".to_string())
}

fn solve_line(id: u64, data: InstanceData, portfolio: Option<Vec<String>>) -> Vec<u8> {
    let mut req = Request::solve(data);
    req.id = Some(id);
    req.portfolio = portfolio;
    let mut line = serde_json::to_string(&req)
        .expect("requests serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// A random relabeling of `inst`: jobs permuted (and the edge list with
/// them), `R` machine rows shuffled, `Q` speeds shuffled.
fn relabel(inst: &Instance, rng: &mut StdRng) -> InstanceData {
    let mut data = InstanceData::from_instance(inst);
    let mut perm: Vec<u32> = (0..inst.num_jobs() as u32).collect();
    shuffle(&mut perm, rng);
    let permute = |values: &[u64]| {
        let mut out = vec![0; values.len()];
        for (j, &v) in values.iter().enumerate() {
            out[perm[j] as usize] = v;
        }
        out
    };
    if let Some(p) = data.processing.as_mut() {
        *p = permute(p);
    }
    if let Some(times) = data.times.as_mut() {
        for row in times.iter_mut() {
            *row = permute(row);
        }
        shuffle(times, rng);
    }
    if let Some(speeds) = data.speeds.as_mut() {
        shuffle(speeds, rng);
    }
    for e in data.edges.iter_mut() {
        *e = (perm[e.0 as usize], perm[e.1 as usize]);
    }
    shuffle(&mut data.edges, rng);
    data
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// SplitMix64 of `seed` combined with `k`: independent per-request seeds.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
