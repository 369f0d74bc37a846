//! The scenario registry: named, seeded workload families spanning
//! `{P, Q, R} ×` graph families `×` job-size distributions `×` machine
//! counts.
//!
//! A [`Scenario`] is a pure description; [`Scenario::build`] derives the
//! concrete [`Instance`] deterministically from the embedded seed, so a
//! registry entry regenerates byte-identically forever — the property the
//! regression gate and the corpus tests both stand on.
//!
//! Graph families covered:
//!
//! * complete bipartite `K_{a,b}` (the `[20]`/`[24]` special case);
//! * Gilbert `G(n,n,p)` in the paper's sub-critical / critical /
//!   super-critical regimes (Section 4.1);
//! * crowns `S_n^0` and `d`-regular (cubic) bipartite graphs — the
//!   uniform-machine families of Furmańczyk–Kubale (1602.01867,
//!   1502.04240);
//! * forests and caterpillars (the tree-structured `[3]`/`[7]` line);
//! * bounded-degree ("bisubquartic", `[23]`) bipartite graphs;
//! * the adversarial Theorem 24 gadget instances, where the unrelated
//!   times encode a 1-PrExt gap.

use bisched_core::reduce_1prext_to_rm;
use bisched_exact::{claw_no_instance, path_yes_instance};
use bisched_graph::{
    bounded_degree_bipartite, caterpillar, gilbert_bipartite, random_forest, regular_bipartite,
    EdgeProbability, Graph,
};
use bisched_model::{Instance, JobSizes, SpeedProfile, UnrelatedFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named graph family with fixed shape parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphFamily {
    /// `K_{a,b}`.
    CompleteBipartite {
        /// Left part size.
        a: usize,
        /// Right part size.
        b: usize,
    },
    /// Gilbert `G(n,n,p(n))` in one of the paper's regimes.
    Gilbert {
        /// Side size `n` (the instance has `2n` jobs).
        n: usize,
        /// The `p(n)` regime.
        regime: EdgeProbability,
    },
    /// The crown `S_n^0`: `K_{n,n}` minus a perfect matching.
    Crown {
        /// Side size.
        n: usize,
    },
    /// Random `d`-regular bipartite graph (`d = 3` is the cubic family).
    Regular {
        /// Side size.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// A random labelled forest over `n` vertices in `trees` components.
    Forest {
        /// Total vertices.
        n: usize,
        /// Number of trees.
        trees: usize,
    },
    /// A caterpillar: spine of `spine` vertices, `legs` leaves each.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Pendant leaves per spine vertex.
        legs: usize,
    },
    /// Random bipartite graph with per-side maximum degree `max_deg`
    /// (`max_deg = 4` is the bisubquartic class of \[23\]).
    BoundedDegree {
        /// Side size.
        n: usize,
        /// Degree cap.
        max_deg: usize,
    },
    /// The Theorem 24 gadget: a 1-PrExt NO instance (claw) stretched into
    /// an `Rm` instance whose optimum jumps from `n` to `d`. Requires the
    /// `R` machine model; job times come from the reduction itself.
    Gadget24No {
        /// Independent-set padding of the claw source.
        padding: usize,
    },
    /// The Theorem 24 gadget over a YES instance (path): the cheap
    /// color-extension schedule exists.
    Gadget24Yes {
        /// Independent-set padding of the path source.
        padding: usize,
    },
}

impl GraphFamily {
    /// Short family key for report rows (stable across runs).
    pub fn label(&self) -> String {
        match *self {
            GraphFamily::CompleteBipartite { a, b } => format!("K{{{a},{b}}}"),
            GraphFamily::Gilbert { n, regime } => format!("G({n},{})", regime.label()),
            GraphFamily::Crown { n } => format!("crown({n})"),
            GraphFamily::Regular { n, d } => format!("{d}-regular({n})"),
            GraphFamily::Forest { n, trees } => format!("forest({n},{trees})"),
            GraphFamily::Caterpillar { spine, legs } => format!("caterpillar({spine}x{legs})"),
            GraphFamily::BoundedDegree { n, max_deg } => format!("deg<={max_deg}({n})"),
            GraphFamily::Gadget24No { padding } => format!("thm24-no({padding})"),
            GraphFamily::Gadget24Yes { padding } => format!("thm24-yes({padding})"),
        }
    }

    /// Samples the graph (deterministic given `rng`'s state).
    fn build(&self, rng: &mut StdRng) -> Graph {
        match *self {
            GraphFamily::CompleteBipartite { a, b } => Graph::complete_bipartite(a, b),
            GraphFamily::Gilbert { n, regime } => gilbert_bipartite(n, n, regime.eval(n), rng),
            GraphFamily::Crown { n } => Graph::crown(n),
            GraphFamily::Regular { n, d } => regular_bipartite(n, d, rng),
            GraphFamily::Forest { n, trees } => random_forest(n, trees, rng),
            GraphFamily::Caterpillar { spine, legs } => caterpillar(spine, legs),
            GraphFamily::BoundedDegree { n, max_deg } => {
                bounded_degree_bipartite(n, n, max_deg, 0.8, rng)
            }
            // The gadget families are whole-instance constructions;
            // `Scenario::build` intercepts them before this point because
            // the bare source graph without the reduction's times would
            // be a different workload than the registry promises.
            GraphFamily::Gadget24No { .. } | GraphFamily::Gadget24Yes { .. } => {
                unreachable!("Thm 24 gadgets are built by Scenario::build via the reduction")
            }
        }
    }
}

/// The machine environment of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelSpec {
    /// Identical machines (`P`).
    P {
        /// Machine count.
        m: usize,
    },
    /// Uniform machines (`Q`) with a speed profile.
    Q {
        /// Machine count.
        m: usize,
        /// Speed shape.
        profile: SpeedProfile,
    },
    /// Unrelated machines (`R`) with a processing-time family.
    R {
        /// Machine count.
        m: usize,
        /// Matrix shape.
        family: UnrelatedFamily,
    },
}

impl ModelSpec {
    /// `"P"`, `"Q"`, or `"R"`.
    pub fn alpha(&self) -> &'static str {
        match self {
            ModelSpec::P { .. } => "P",
            ModelSpec::Q { .. } => "Q",
            ModelSpec::R { .. } => "R",
        }
    }

    /// Machine count.
    pub fn machines(&self) -> usize {
        match *self {
            ModelSpec::P { m } | ModelSpec::Q { m, .. } | ModelSpec::R { m, .. } => m,
        }
    }
}

/// One named, seeded workload: everything needed to regenerate its
/// [`Instance`] byte-identically.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique registry name (stable; report rows key on it).
    pub name: String,
    /// Machine environment.
    pub model: ModelSpec,
    /// Incompatibility-graph family.
    pub graph: GraphFamily,
    /// Job-size distribution (ignored for `R` and the Thm 24 gadgets,
    /// where times live in the matrix).
    pub sizes: JobSizes,
    /// The deterministic seed.
    pub seed: u64,
}

impl Scenario {
    /// Builds the concrete instance. Deterministic: two calls return
    /// byte-identical instances.
    pub fn build(&self) -> Instance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The Thm 24 gadgets are whole-instance constructions: the
        // reduction fixes the unrelated times, so the model spec only
        // contributes the machine count.
        match self.graph {
            GraphFamily::Gadget24No { padding } => {
                let (g, pins) = claw_no_instance(padding);
                let d = 4 * g.num_vertices() as u64;
                return reduce_1prext_to_rm(&g, pins, d, self.model.machines().max(3)).instance;
            }
            GraphFamily::Gadget24Yes { padding } => {
                let (g, pins) = path_yes_instance(padding);
                let d = 4 * g.num_vertices() as u64;
                return reduce_1prext_to_rm(&g, pins, d, self.model.machines().max(3)).instance;
            }
            _ => {}
        }
        let graph = self.graph.build(&mut rng);
        let n = graph.num_vertices();
        match &self.model {
            ModelSpec::P { m } => Instance::identical(*m, self.sizes.sample(n, &mut rng), graph),
            ModelSpec::Q { m, profile } => {
                Instance::uniform(profile.speeds(*m), self.sizes.sample(n, &mut rng), graph)
            }
            ModelSpec::R { m, family } => {
                Instance::unrelated(family.sample(*m, n, &mut rng), graph)
            }
        }
        .expect("registry scenarios are constructed valid")
    }

    /// One-line description for `lab list`.
    pub fn describe(&self) -> String {
        format!(
            "{:<28} {}  m={:<2} {:<20} sizes={}",
            self.name,
            self.model.alpha(),
            self.model.machines(),
            self.graph.label(),
            self.sizes.label()
        )
    }
}

/// A named solver configuration for the experiment matrix.
#[derive(Clone, Debug)]
pub struct NamedConfig {
    /// Stable config key (report rows key on it).
    pub name: String,
    /// The configuration.
    pub config: bisched_core::SolverConfig,
}

/// A suite: scenarios × configs, plus the optional Section 4.1 table
/// pass.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Suite name (one of [`suite_names`]).
    pub name: String,
    /// The scenario corpus.
    pub scenarios: Vec<Scenario>,
    /// The solver configurations each scenario runs under.
    pub configs: Vec<NamedConfig>,
    /// Whether to also run the paper's Section 4.1 random-graph tables.
    pub sec4: Option<Sec4Params>,
}

/// Size parameters for the Section 4.1 reproduction pass.
#[derive(Clone, Copy, Debug)]
pub struct Sec4Params {
    /// Side size `n` for the statistics table.
    pub n: usize,
    /// Seeds per row.
    pub seeds: usize,
    /// Machine count for the Algorithm 2 ratio table.
    pub m: usize,
}

/// Names of the registered suites.
pub fn suite_names() -> &'static [&'static str] {
    &["quick", "full", "paper-sec4", "fptas-scaling"]
}

/// Looks up a registered suite.
pub fn suite(name: &str) -> Option<Suite> {
    match name {
        "quick" => Some(quick_suite()),
        "full" => Some(full_suite()),
        "paper-sec4" => Some(paper_sec4_suite()),
        "fptas-scaling" => Some(fptas_scaling_suite()),
        _ => None,
    }
}

fn sc(name: &str, model: ModelSpec, graph: GraphFamily, sizes: JobSizes, seed: u64) -> Scenario {
    Scenario {
        name: name.to_string(),
        model,
        graph,
        sizes,
        seed,
    }
}

fn auto() -> NamedConfig {
    NamedConfig {
        name: "auto".into(),
        config: bisched_core::SolverConfig::new(),
    }
}

/// `Auto` with the branch-and-bound fast path disabled: times the pure
/// approximation pipeline even on small instances.
fn auto_approx() -> NamedConfig {
    NamedConfig {
        name: "auto-approx".into(),
        config: bisched_core::SolverConfig::new().auto_exact_jobs(0),
    }
}

/// Graph-aware greedy baselines (LPT everywhere, min-completion on `R`).
fn baseline() -> NamedConfig {
    NamedConfig {
        name: "greedy".into(),
        config: bisched_core::SolverConfig::new().portfolio(vec![
            bisched_core::Method::GreedyLpt,
            bisched_core::Method::GreedyR,
        ]),
    }
}

/// Forces the CP engine with a CI-sized decision-node budget
/// (propagation nodes are costlier than branch-and-bound nodes, and the
/// quick suite runs in debug mode under the tier-1 tests).
fn cp() -> NamedConfig {
    NamedConfig {
        name: "cp".into(),
        config: bisched_core::SolverConfig::new()
            .method(bisched_core::Method::Cp)
            .cp_node_limit(60_000),
    }
}

/// The concurrent portfolio race the dense-conflict cells exist for: CP
/// and branch and bound start together (list order seeds the
/// single-worker schedule), share an incumbent bound, and the first
/// proof cancels the other. Both members prove the dense cells within
/// these budgets; CP nearly always gets there first. Budgets match the
/// single-engine configs so the race's p50 is comparable to the faster
/// member's.
fn race() -> NamedConfig {
    NamedConfig {
        name: "race".into(),
        config: bisched_core::SolverConfig::new()
            .portfolio(vec![
                bisched_core::Method::Cp,
                bisched_core::Method::BranchAndBound,
            ])
            .cp_node_limit(60_000)
            .bnb_node_limit(150_000),
    }
}

/// A sharper FPTAS setting (only differs from `auto` on `R2`).
fn sharp_eps() -> NamedConfig {
    NamedConfig {
        name: "eps-0.05".into(),
        config: bisched_core::SolverConfig::new()
            .eps(0.05)
            .auto_exact_jobs(0),
    }
}

/// Forces the approximation pipeline all the way down: the exact DP gate
/// and the branch-and-bound fast path are both disabled, so `R2` cells
/// time Algorithm 5's FPTAS at the given `ε` (and `P`/`Q` cells the
/// Algorithm 1 route, whose inner Algorithm 5 call is the same DP).
fn fptas_eps(name: &str, eps: f64) -> NamedConfig {
    NamedConfig {
        name: name.into(),
        config: bisched_core::SolverConfig::new()
            .eps(eps)
            .exact_budget(0)
            .auto_exact_jobs(0),
    }
}

/// The CI-sized corpus: all three machine models, eight graph families,
/// seconds of wall time. This is the regression-gate suite.
fn quick_suite() -> Suite {
    let crit = EdgeProbability::Critical { a: 2.0 };
    let sup = EdgeProbability::SuperCritical {
        c: 1.0,
        exponent: 0.5,
    };
    let sub = EdgeProbability::SubCritical { exponent: 1.5 };
    let scenarios = vec![
        // P — identical machines.
        sc(
            "p3-k24x36-uniform",
            ModelSpec::P { m: 3 },
            GraphFamily::CompleteBipartite { a: 24, b: 36 },
            JobSizes::Uniform { lo: 1, hi: 30 },
            101,
        ),
        sc(
            "p4-gilbert-crit-bimodal",
            ModelSpec::P { m: 4 },
            GraphFamily::Gilbert {
                n: 80,
                regime: crit,
            },
            JobSizes::Bimodal {
                small: (1, 4),
                big: (40, 80),
                big_percent: 20,
            },
            102,
        ),
        sc(
            "p8-crown64-unit",
            ModelSpec::P { m: 8 },
            GraphFamily::Crown { n: 64 },
            JobSizes::Unit,
            103,
        ),
        // Oracle-scale cells: small enough for the exact side channel,
        // hard enough that the pre-rewrite branch and bound exhausted the
        // 400k-node quality budget on them (no `ratio_opt`); the pruned
        // oracle proves both, so their `auto` cells carry C/OPT now.
        sc(
            "p4-gilbert20-oracle",
            ModelSpec::P { m: 4 },
            GraphFamily::Gilbert {
                n: 10,
                regime: EdgeProbability::Constant { p: 0.3 },
            },
            JobSizes::Uniform { lo: 1, hi: 9 },
            134,
        ),
        sc(
            "q4-gilbert24-oracle",
            ModelSpec::Q {
                m: 4,
                profile: SpeedProfile::TwoTier {
                    fast_count: 2,
                    factor: 4,
                },
            },
            GraphFamily::Gilbert {
                n: 12,
                regime: EdgeProbability::Constant { p: 0.25 },
            },
            JobSizes::Uniform { lo: 1, hi: 12 },
            141,
        ),
        // Q — uniform machines.
        sc(
            "q3-cubic64-uniform",
            ModelSpec::Q {
                m: 3,
                profile: SpeedProfile::Geometric { ratio: 2 },
            },
            GraphFamily::Regular { n: 64, d: 3 },
            JobSizes::Uniform { lo: 1, hi: 20 },
            104,
        ),
        sc(
            "q4-caterpillar-onefast",
            ModelSpec::Q {
                m: 4,
                profile: SpeedProfile::OneFast { factor: 8 },
            },
            GraphFamily::Caterpillar { spine: 24, legs: 4 },
            JobSizes::Uniform { lo: 1, hi: 25 },
            105,
        ),
        sc(
            "q2-forest60-uniform",
            ModelSpec::Q {
                m: 2,
                profile: SpeedProfile::Geometric { ratio: 2 },
            },
            GraphFamily::Forest { n: 60, trees: 4 },
            JobSizes::Uniform { lo: 1, hi: 15 },
            106,
        ),
        sc(
            "q8-gilbert-super-unit",
            ModelSpec::Q {
                m: 8,
                profile: SpeedProfile::TwoTier {
                    fast_count: 2,
                    factor: 4,
                },
            },
            GraphFamily::Gilbert { n: 96, regime: sup },
            JobSizes::Unit,
            107,
        ),
        // R — unrelated machines.
        sc(
            "r2-bounded-deg-uncorr",
            ModelSpec::R {
                m: 2,
                family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 40 },
            },
            GraphFamily::BoundedDegree { n: 40, max_deg: 4 },
            JobSizes::Unit,
            108,
        ),
        sc(
            "r3-gilbert-sub-jobcorr",
            ModelSpec::R {
                m: 3,
                family: UnrelatedFamily::JobCorrelated {
                    base: (5, 60),
                    spread: 8,
                },
            },
            GraphFamily::Gilbert { n: 64, regime: sub },
            JobSizes::Unit,
            109,
        ),
        // FPTAS-backed cells: big job-correlated values push the row mass
        // past the exact-DP budget, so even `auto` lands on Algorithm 5 —
        // these are the cells the bench gate watches the DP core through.
        sc(
            "r2-forest96-jobcorr-fptas",
            ModelSpec::R {
                m: 2,
                family: UnrelatedFamily::JobCorrelated {
                    base: (1_000, 100_000),
                    spread: 2_000,
                },
            },
            GraphFamily::Forest { n: 96, trees: 8 },
            JobSizes::Unit,
            151,
        ),
        sc(
            "r2-gilbert-sub96-jobcorr-fptas",
            ModelSpec::R {
                m: 2,
                family: UnrelatedFamily::JobCorrelated {
                    base: (1_000, 100_000),
                    spread: 2_000,
                },
            },
            GraphFamily::Gilbert { n: 48, regime: sub },
            JobSizes::Unit,
            152,
        ),
        // Dense-conflict cells (mid-density Gilbert, n >= 36 jobs): the
        // conflict graph is dense enough that a branch and bound cutting
        // only at the incumbent drowned in half-feasible subtrees and
        // exhausted even the 2M-node default unproven. Cutting on the
        // makespan grid, it now proves them in 433–4,683 nodes, while
        // CP's conflict-domain propagation plus makespan binary search
        // closes each proof in a few hundred decision nodes and nearly
        // always wins the `race` config. Maximally dense graphs (crowns,
        // near-complete Gilbert) collapse the feasible space and are easy
        // for both, so these cells sit deliberately in the
        // moderate-density zone.
        // These are the cells the `cp` and `race` configs exist for.
        sc(
            "p4-gilbert36-dense-cp",
            ModelSpec::P { m: 4 },
            GraphFamily::Gilbert {
                n: 18,
                regime: EdgeProbability::Constant { p: 0.35 },
            },
            JobSizes::Uniform { lo: 1, hi: 8 },
            64,
        ),
        sc(
            "p5-gilbert36-dense-cp",
            ModelSpec::P { m: 5 },
            GraphFamily::Gilbert {
                n: 18,
                regime: EdgeProbability::Constant { p: 0.40 },
            },
            JobSizes::Uniform { lo: 2, hi: 9 },
            61,
        ),
        sc(
            "p6-gilbert40-dense-cp",
            ModelSpec::P { m: 6 },
            GraphFamily::Gilbert {
                n: 20,
                regime: EdgeProbability::Constant { p: 0.40 },
            },
            JobSizes::Uniform { lo: 2, hi: 9 },
            63,
        ),
        sc(
            "r4-thm24-no-gadget",
            ModelSpec::R {
                m: 4,
                family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 1 },
            },
            GraphFamily::Gadget24No { padding: 16 },
            JobSizes::Unit,
            110,
        ),
        sc(
            "r3-thm24-yes-gadget",
            ModelSpec::R {
                m: 3,
                family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 1 },
            },
            GraphFamily::Gadget24Yes { padding: 4 },
            JobSizes::Unit,
            111,
        ),
    ];
    Suite {
        name: "quick".into(),
        scenarios,
        configs: vec![
            auto(),
            baseline(),
            fptas_eps("fptas", bisched_core::DEFAULT_EPS),
            cp(),
            race(),
        ],
        sec4: None,
    }
}

/// The FPTAS scaling grid: ε × n × m over the corpus's graph families.
/// The `n` axis runs through `R2` cells of growing job counts (each lands
/// on Algorithm 5's DP directly); the `m` axis through `Q` cells whose
/// Algorithm 1 route reaches the same DP through step S1, which projects
/// onto the two fastest machines, so every call into the DP still has two
/// machines. `lab compare` gates regressions.
fn fptas_scaling_suite() -> Suite {
    let jobcorr = UnrelatedFamily::JobCorrelated {
        base: (1_000, 100_000),
        spread: 2_000,
    };
    let scenarios = vec![
        sc(
            "r2-fscale-n40",
            ModelSpec::R {
                m: 2,
                family: jobcorr,
            },
            GraphFamily::BoundedDegree { n: 20, max_deg: 4 },
            JobSizes::Unit,
            161,
        ),
        sc(
            "r2-fscale-n80",
            ModelSpec::R {
                m: 2,
                family: jobcorr,
            },
            GraphFamily::BoundedDegree { n: 40, max_deg: 4 },
            JobSizes::Unit,
            162,
        ),
        sc(
            "r2-fscale-n160",
            ModelSpec::R {
                m: 2,
                family: jobcorr,
            },
            GraphFamily::BoundedDegree { n: 80, max_deg: 4 },
            JobSizes::Unit,
            163,
        ),
        sc(
            "q3-fscale-cubic96",
            ModelSpec::Q {
                m: 3,
                profile: SpeedProfile::Geometric { ratio: 2 },
            },
            GraphFamily::Regular { n: 48, d: 3 },
            JobSizes::Uniform { lo: 1, hi: 30 },
            164,
        ),
        sc(
            "q6-fscale-crown96",
            ModelSpec::Q {
                m: 6,
                profile: SpeedProfile::TwoTier {
                    fast_count: 2,
                    factor: 4,
                },
            },
            GraphFamily::Crown { n: 48 },
            JobSizes::Uniform { lo: 1, hi: 30 },
            165,
        ),
    ];
    Suite {
        name: "fptas-scaling".into(),
        scenarios,
        configs: vec![
            fptas_eps("eps-1.0", 1.0),
            fptas_eps("eps-0.25", 0.25),
            fptas_eps("eps-0.05", 0.05),
        ],
        sec4: None,
    }
}

/// The nightly-sized corpus: the quick scenarios scaled up, extra regimes
/// and machine-correlated `R` shapes, and the full config matrix.
fn full_suite() -> Suite {
    let mut scenarios = quick_suite().scenarios;
    let crit4 = EdgeProbability::Critical { a: 4.0 };
    scenarios.extend([
        sc(
            "p6-k48x72-uniform",
            ModelSpec::P { m: 6 },
            GraphFamily::CompleteBipartite { a: 48, b: 72 },
            JobSizes::Uniform { lo: 1, hi: 50 },
            201,
        ),
        sc(
            "p4-forest192-bimodal",
            ModelSpec::P { m: 4 },
            GraphFamily::Forest { n: 192, trees: 8 },
            JobSizes::Bimodal {
                small: (1, 5),
                big: (60, 120),
                big_percent: 15,
            },
            202,
        ),
        sc(
            "q6-crown96-uniform",
            ModelSpec::Q {
                m: 6,
                profile: SpeedProfile::Geometric { ratio: 2 },
            },
            GraphFamily::Crown { n: 96 },
            JobSizes::Uniform { lo: 1, hi: 40 },
            203,
        ),
        sc(
            "q5-cubic128-unit",
            ModelSpec::Q {
                m: 5,
                profile: SpeedProfile::OneFast { factor: 16 },
            },
            GraphFamily::Regular { n: 128, d: 3 },
            JobSizes::Unit,
            204,
        ),
        sc(
            "q4-gilbert-crit4-uniform",
            ModelSpec::Q {
                m: 4,
                profile: SpeedProfile::TwoTier {
                    fast_count: 2,
                    factor: 8,
                },
            },
            GraphFamily::Gilbert {
                n: 128,
                regime: crit4,
            },
            JobSizes::Uniform { lo: 1, hi: 30 },
            205,
        ),
        sc(
            "r2-k32x32-uncorr",
            ModelSpec::R {
                m: 2,
                family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 60 },
            },
            GraphFamily::CompleteBipartite { a: 32, b: 32 },
            JobSizes::Unit,
            206,
        ),
        sc(
            "r4-caterpillar-machcorr",
            ModelSpec::R {
                m: 4,
                family: UnrelatedFamily::MachineCorrelated {
                    base: (10, 90),
                    spread: 10,
                },
            },
            GraphFamily::Caterpillar { spine: 32, legs: 5 },
            JobSizes::Unit,
            207,
        ),
        sc(
            "r8-thm24-no-gadget",
            ModelSpec::R {
                m: 8,
                family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 1 },
            },
            GraphFamily::Gadget24No { padding: 40 },
            JobSizes::Unit,
            208,
        ),
    ]);
    Suite {
        name: "full".into(),
        scenarios,
        configs: vec![auto(), auto_approx(), baseline(), sharp_eps()],
        sec4: Some(Sec4Params {
            n: 256,
            seeds: 16,
            m: 6,
        }),
    }
}

/// The Section 4.1 reproduction: the paper's random-graph statistics and
/// Algorithm 2 ratio tables as machine-readable rows.
fn paper_sec4_suite() -> Suite {
    Suite {
        name: "paper-sec4".into(),
        scenarios: Vec::new(),
        configs: Vec::new(),
        sec4: Some(Sec4Params {
            n: 256,
            seeds: 16,
            m: 6,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_suites_resolve() {
        for name in suite_names() {
            let s = suite(name).expect("registered suite resolves");
            assert_eq!(&s.name, name);
            let mut seen = std::collections::HashSet::new();
            for scenario in &s.scenarios {
                assert!(seen.insert(scenario.name.clone()), "dup {}", scenario.name);
            }
        }
        assert!(suite("nope").is_none());
    }

    #[test]
    fn quick_suite_spans_models_and_families() {
        let s = suite("quick").unwrap();
        let models: std::collections::HashSet<_> =
            s.scenarios.iter().map(|x| x.model.alpha()).collect();
        assert_eq!(models.len(), 3, "quick must cover P, Q, and R");
        let families: std::collections::HashSet<_> = s
            .scenarios
            .iter()
            .map(|x| std::mem::discriminant(&x.graph))
            .collect();
        assert!(
            families.len() >= 6,
            "quick must cover >= 6 graph families, got {}",
            families.len()
        );
    }

    #[test]
    fn fptas_backed_cells_reach_algorithm5() {
        // The quick suite's jobcorr `R2` cells must exceed the exact-DP
        // budget (so `auto` lands on the FPTAS), and every `fptas-scaling`
        // `R2` cell must dispatch to Algorithm 5 under its eps configs.
        let quick = suite("quick").unwrap();
        let auto_solver = bisched_core::SolverConfig::new().build().unwrap();
        for scenario in quick
            .scenarios
            .iter()
            .filter(|x| x.name.ends_with("-fptas"))
        {
            let inst = scenario.build();
            let report = auto_solver.solve(&inst).unwrap();
            assert_eq!(
                report.method,
                bisched_core::Method::R2Fptas,
                "{} must be FPTAS-backed under auto, got {}",
                scenario.name,
                report.method
            );
        }
        let fscale = suite("fptas-scaling").unwrap();
        assert_eq!(fscale.configs.len(), 3, "the ε axis");
        for scenario in fscale.scenarios.iter().filter(|x| x.model.alpha() == "R") {
            let inst = scenario.build();
            for config in &fscale.configs {
                let solver = config.config.clone().build().unwrap();
                let report = solver.solve(&inst).unwrap();
                assert_eq!(
                    report.method,
                    bisched_core::Method::R2Fptas,
                    "{}/{} must time Algorithm 5",
                    scenario.name,
                    config.name
                );
            }
        }
    }

    #[test]
    fn gadget_scenarios_build_the_reduction_shape() {
        let s = suite("quick").unwrap();
        let gadget = s
            .scenarios
            .iter()
            .find(|x| matches!(x.graph, GraphFamily::Gadget24No { .. }))
            .unwrap();
        let inst = gadget.build();
        assert!(matches!(
            inst.env(),
            bisched_model::MachineEnvironment::Unrelated { .. }
        ));
        assert!(inst.num_machines() >= 3);
    }
}
