//! Pins what the quick suite's exact-engine cells prove under the lab's
//! own budgets.
//!
//! The three dense-conflict cells (mid-density Gilbert, 36–40 jobs) are
//! the cells the `cp` and `race` configs exist for. CP must prove each of
//! them within the `cp` config's node budget, branch and bound within the
//! `race` config's, and the two proofs must agree; the `race` config
//! itself must prove them with CP in it. A registry edit that drifts a
//! cell out of reach of either budget fails here. Two `Q` cells pin the
//! root bound both engines start from.
//!
//! Every proof is read from the engine's own `complete` counter: a
//! report whose makespan meets its lower bound reads `optimal` whether
//! or not the search finished, and each of these cells' optima equals
//! its lower bound.

use bisched_core::{Guarantee, Method, SolveReport, SolverConfig};
use bisched_lab::{suite, NamedConfig, Suite};

fn config<'a>(suite: &'a Suite, name: &str) -> &'a NamedConfig {
    suite
        .configs
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("the quick suite has a `{name}` config"))
}

fn solve(config: &SolverConfig, inst: &bisched_model::Instance) -> SolveReport {
    config.clone().build().unwrap().solve(inst).expect("solves")
}

/// Whether the engine that built the answer finished its search.
fn engine_proved(report: &SolveReport) -> bool {
    let run = report.winner_run().expect("the winner ran");
    run.stats.get("complete") == Some(1)
}

/// Whether a race of the exact engines proved its answer: the winner
/// finished its own search, or another member's finished search
/// cancelled the winner before its node budget ran out. The lab's race
/// sets node budgets only, so nothing else cuts a member short.
fn race_proved(report: &SolveReport, config: &SolverConfig) -> bool {
    let winner = report.winner_run().expect("the winner ran");
    let budget = match winner.method {
        Method::Cp => config.cp_node_limit,
        Method::BranchAndBound => config.bnb_node_limit,
        other => panic!("{other} is not a member of the race"),
    };
    let other_proved = report
        .attempts
        .iter()
        .any(|run| run.method != winner.method && run.stats.get("complete") == Some(1));
    let cut_short = winner.cancelled && winner.stats.get("nodes").is_some_and(|n| n < budget);
    engine_proved(report) || (cut_short && other_proved)
}

#[test]
fn both_engines_prove_the_dense_cells_within_their_lab_budgets() {
    let quick = suite("quick").expect("quick suite exists");
    // The `cp` config alone, and branch and bound alone under the `race`
    // config's node budget.
    let cp = &config(&quick, "cp").config;
    let bnb = config(&quick, "race")
        .config
        .clone()
        .method(Method::BranchAndBound);
    let dense: Vec<_> = quick
        .scenarios
        .iter()
        .filter(|s| s.name.ends_with("-cp"))
        .collect();
    assert_eq!(
        dense.len(),
        3,
        "the quick suite should carry exactly 3 dense-conflict cells"
    );
    for scenario in dense {
        let inst = scenario.build();
        let by_cp = solve(cp, &inst);
        assert_eq!(by_cp.method, Method::Cp);
        assert!(
            engine_proved(&by_cp),
            "{}: cp must prove optimality within {} nodes",
            scenario.name,
            cp.cp_node_limit
        );
        let by_bnb = solve(&bnb, &inst);
        assert_eq!(by_bnb.method, Method::BranchAndBound);
        assert!(
            engine_proved(&by_bnb),
            "{}: branch and bound must prove optimality within {} nodes",
            scenario.name,
            bnb.bnb_node_limit
        );
        assert_eq!(
            by_cp.makespan, by_bnb.makespan,
            "{}: the two proofs disagree",
            scenario.name
        );
    }
}

/// CP's binary search starts from the floored cover 27/2, the optimum,
/// so the `cp` config proves the `Q` oracle cell.
#[test]
fn cp_config_proves_the_q4_oracle_cell() {
    let quick = suite("quick").expect("quick suite exists");
    let cp = &config(&quick, "cp").config;
    let scenario = quick
        .scenarios
        .iter()
        .find(|s| s.name == "q4-gilbert24-oracle")
        .expect("the quick suite has the Q oracle cell");
    let report = solve(cp, &scenario.build());
    assert_eq!(report.method, Method::Cp);
    assert!(engine_proved(&report));
    assert_eq!(report.makespan, bisched_model::Rat::new(27, 2));
}

/// CP finds makespan 14 on `q8-gilbert-super-unit`, the floored cover,
/// and proves it within the `cp` config's node budget only because its
/// binary search starts from the cover (from `Σp/Σs` = 96/7 it cannot).
#[test]
fn cp_config_proves_the_q8_super_unit_cell() {
    let quick = suite("quick").expect("quick suite exists");
    let cp = &config(&quick, "cp").config;
    let scenario = quick
        .scenarios
        .iter()
        .find(|s| s.name == "q8-gilbert-super-unit")
        .expect("the quick suite has the Q8 super-critical cell");
    let report = solve(cp, &scenario.build());
    assert_eq!(report.method, Method::Cp);
    assert_eq!(report.makespan, bisched_model::Rat::integer(14));
    assert!(engine_proved(&report));
    let run = report.winner_run().expect("cp ran");
    assert!(run.stats.get("nodes").unwrap() < cp.cp_node_limit);
}

/// The `race` config proves the three dense cells and
/// `q8-gilbert-super-unit` with CP among its attempts. Branch and bound
/// may win the race. Each of these answers meets its lower bound, which
/// earns the `optimal` label with or without a proof, so the proof is
/// read from the engines.
#[test]
fn race_config_proves_the_dense_cells_and_the_q8_super_unit_cell() {
    let quick = suite("quick").expect("quick suite exists");
    let race = &config(&quick, "race").config;
    let cells: Vec<_> = quick
        .scenarios
        .iter()
        .filter(|s| s.name.ends_with("-cp") || s.name == "q8-gilbert-super-unit")
        .collect();
    assert_eq!(cells.len(), 4);
    for scenario in cells {
        let report = solve(race, &scenario.build());
        assert_eq!(report.guarantee, Guarantee::Optimal, "{}", scenario.name);
        assert!(
            report.attempts.iter().any(|run| run.method == Method::Cp),
            "{}: CP never ran",
            scenario.name
        );
        assert!(
            race_proved(&report, race),
            "{}: the race proved nothing: {:?}",
            scenario.name,
            report.attempts
        );
    }
}
