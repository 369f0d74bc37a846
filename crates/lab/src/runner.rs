//! The experiment runner: executes a suite's (scenario × config) matrix
//! with warmup, repetitions, wall-time percentiles, and quality ratios,
//! one cell at a time, so that no two timed solves share the cores.

use crate::quality::{exact_optimum, QualityOptions};
use crate::report::{CellReport, LabReport, SCHEMA_VERSION};
use crate::scenarios::{NamedConfig, Scenario, Sec4Params, Suite};
use bisched_model::SpeedProfile;
use bisched_random::{alg2_ratio_experiment, random_graph_statistics, Summary};
use std::time::Instant;

/// Runner knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Unmeasured warmup solves per cell.
    pub warmup: usize,
    /// Timed solves per cell.
    pub reps: usize,
    /// Exact-optimum side channel (see [`QualityOptions`]).
    pub quality: QualityOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            warmup: 1,
            reps: 5,
            quality: QualityOptions::default(),
        }
    }
}

/// The `p`-th percentile of a **sorted** sample (nearest-rank; `p` in
/// `[0, 100]`). Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one suite and assembles the report.
pub fn run_suite(suite: &Suite, opts: &RunOptions) -> LabReport {
    let t0 = Instant::now();
    // Scenario-major: the instance and its (expensive) exact optimum are
    // built once per scenario and shared across that scenario's configs.
    let run_scenario = |scenario: &Scenario| -> Vec<CellReport> {
        let inst = scenario.build();
        let optimum = exact_optimum(&inst, &opts.quality);
        suite
            .configs
            .iter()
            .map(|config| run_cell(scenario, &inst, optimum.as_ref(), config, opts))
            .collect()
    };
    let cells: Vec<CellReport> = suite.scenarios.iter().flat_map(run_scenario).collect();
    let (sec4_graph, sec4_alg2) = match suite.sec4 {
        Some(params) => {
            let (g, a) = run_sec4(params);
            (Some(g), Some(a))
        }
        None => (None, None),
    };
    LabReport {
        schema: SCHEMA_VERSION,
        suite: suite.name.clone(),
        warmup: opts.warmup,
        reps: opts.reps.max(1),
        total_wall_s: t0.elapsed().as_secs_f64(),
        cells,
        sec4_graph,
        sec4_alg2,
    }
}

/// Runs one (scenario × config) cell: warm up, time `reps` solves, and
/// score the solution quality against the shared exact optimum.
fn run_cell(
    scenario: &Scenario,
    inst: &bisched_model::Instance,
    optimum: Option<&bisched_model::Rat>,
    config: &NamedConfig,
    opts: &RunOptions,
) -> CellReport {
    let reps = opts.reps.max(1);
    let mut cell = CellReport {
        scenario: scenario.name.clone(),
        config: config.name.clone(),
        model: scenario.model.alpha().to_string(),
        family: scenario.graph.label(),
        jobs: inst.num_jobs(),
        machines: inst.num_machines(),
        reps,
        mean_ms: 0.0,
        p50_ms: 0.0,
        p90_ms: 0.0,
        max_ms: 0.0,
        makespan: 0.0,
        lower_bound: 0.0,
        ratio_lb: 0.0,
        ratio_opt: None,
        method: String::new(),
        guarantee: String::new(),
        counters: Vec::new(),
        engine_attempts: Vec::new(),
        raced: false,
        error: None,
    };
    let solver = match config.config.clone().build() {
        Ok(s) => s,
        Err(e) => {
            cell.error = Some(e.to_string());
            return cell;
        }
    };
    for _ in 0..opts.warmup {
        let _ = solver.solve(inst);
    }
    let mut times_ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let result = solver.solve(inst);
        times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(report) => last = Some(report),
            Err(e) => {
                cell.error = Some(e.to_string());
                return cell;
            }
        }
    }
    let report = last.expect("at least one rep ran");
    times_ms.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    // Summary (mean/min/max) is the same streaming fold the Section 4.1
    // tables use; percentiles come from the sorted sample.
    let summary = Summary::of(times_ms.iter().copied());
    cell.mean_ms = summary.mean();
    cell.max_ms = summary.max;
    cell.p50_ms = percentile(&times_ms, 50.0);
    cell.p90_ms = percentile(&times_ms, 90.0);
    cell.makespan = report.makespan.to_f64();
    cell.lower_bound = report.lower_bound.to_f64();
    cell.method = report.method.name().to_string();
    cell.guarantee = report.guarantee.to_string();
    cell.ratio_lb = if report.lower_bound.num() == 0 {
        1.0
    } else {
        report.makespan.ratio_to(&report.lower_bound)
    };
    cell.ratio_opt = optimum.map(|opt| report.makespan.ratio_to(opt));
    // Schema v2: the winner's counters and the per-engine attempt
    // counts from the last timed rep — what `lab compare` attributes p50
    // regressions to. A sequential solve repeats them exactly; a race's
    // winner and counts depend on thread timing, so the cell says
    // whether it raced.
    cell.raced = report.race_time.is_some();
    if let Some(winner) = report.winner_run() {
        cell.counters = winner
            .stats
            .iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
    }
    cell.engine_attempts = report
        .attempt_counts()
        .into_iter()
        .map(|(n, c)| (n.to_string(), c))
        .collect();
    cell
}

/// The Section 4.1 reproduction pass: the statistics table over the
/// paper's three regimes (plus the constant regime), and the Algorithm 2
/// ratio table across speed profiles.
fn run_sec4(
    params: Sec4Params,
) -> (
    Vec<bisched_random::RandomGraphRow>,
    Vec<bisched_random::Alg2Row>,
) {
    use bisched_graph::EdgeProbability;
    let regimes = [
        EdgeProbability::SubCritical { exponent: 1.5 },
        EdgeProbability::Critical { a: 1.0 },
        EdgeProbability::Critical { a: 4.0 },
        EdgeProbability::SuperCritical {
            c: 1.0,
            exponent: 0.5,
        },
        EdgeProbability::Constant { p: 0.2 },
    ];
    let stats: Vec<_> = regimes
        .iter()
        .map(|&r| random_graph_statistics(params.n, r, params.seeds, 42))
        .collect();
    let profiles = [
        SpeedProfile::Equal,
        SpeedProfile::Geometric { ratio: 2 },
        SpeedProfile::OneFast { factor: 16 },
    ];
    let alg2: Vec<_> = regimes
        .iter()
        .flat_map(|&r| {
            profiles
                .iter()
                .map(move |&p| alg2_ratio_experiment(params.n, r, p, params.m, params.seeds, 42))
        })
        .collect();
    (stats, alg2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::suite;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 90.0), 4.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// Runs the whole quick suite, checks what it covers, and holds its
    /// deterministic fields to the committed baseline through the lab
    /// gate's exact half.
    #[test]
    fn quick_suite_runs_and_every_cell_solves() {
        let s = suite("quick").unwrap();
        let opts = RunOptions {
            warmup: 0,
            reps: 1,
            quality: QualityOptions {
                exact_cap_jobs: 0, // skip the exact side channel for speed
                exact_node_limit: 1,
                ..QualityOptions::default()
            },
        };
        let report = run_suite(&s, &opts);
        assert_eq!(report.cells.len(), s.scenarios.len() * s.configs.len());
        for cell in &report.cells {
            assert!(cell.error.is_none(), "{}: {:?}", cell.key(), cell.error);
            assert!(cell.ratio_lb >= 1.0 - 1e-9, "{} below LB", cell.key());
            assert!(cell.max_ms >= cell.p50_ms);
            assert!(!cell.method.is_empty());
            assert!(
                !cell.engine_attempts.is_empty(),
                "{}: solved cells must record what ran",
                cell.key()
            );
        }
        // Every branch-and-bound, CP or FPTAS winner carries its headline
        // counter. Zero is legal (CP can prove at the root without a
        // decision node), so positive work is counted over the suite.
        let (mut instrumented, mut busy) = (0, 0);
        for cell in &report.cells {
            let headline = match cell.method.as_str() {
                "branch-and-bound" | "cp" => "nodes",
                "fptas" => "expanded",
                _ => continue,
            };
            let value = cell.counters.iter().find(|(k, _)| k == headline);
            let &(_, value) =
                value.unwrap_or_else(|| panic!("{}: no `{headline}` counter", cell.key()));
            instrumented += 1;
            busy += usize::from(value > 0);
        }
        assert!(
            instrumented >= 8,
            "only {instrumented} instrumented winners"
        );
        assert!(
            busy >= 8,
            "only {busy} instrumented winners did counted work"
        );
        let won = |method: &str| report.cells.iter().filter(|c| c.method == method).count();
        assert!(won("fptas") >= 4, "{} FPTAS-won cells", won("fptas"));
        assert!(won("cp") >= 3, "{} CP-won cells", won("cp"));
        for config in ["fptas", "cp", "race"] {
            assert!(
                report.cells.iter().any(|c| c.config == config),
                "no `{config}` cells"
            );
        }
        // The matrix covers all three machine models.
        let models: std::collections::HashSet<_> =
            report.cells.iter().map(|c| c.model.clone()).collect();
        assert_eq!(models.len(), 3);

        // Every cell is a deterministic run, so a change that moves one
        // re-seeds the baseline in the same commit.
        let baseline: LabReport =
            serde_json::from_str(include_str!("../../../BENCH_baseline.json")).unwrap();
        let keys = |r: &LabReport| r.cells.iter().map(CellReport::key).collect::<Vec<_>>();
        assert_eq!(
            keys(&baseline),
            keys(&report),
            "the baseline covers the suite"
        );
        let drift = crate::compare::drift(&baseline, &report);
        let lines: Vec<String> = drift.iter().map(|d| format!("  {d}")).collect();
        assert!(
            drift.is_empty(),
            "the quick suite moved from BENCH_baseline.json; if that is intended, \
             re-seed it with `bisched_cli lab run --suite quick --out BENCH_baseline.json`:\n{}",
            lines.join("\n")
        );
    }
}
