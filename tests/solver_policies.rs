//! Dispatch-policy matrix: what `Auto` selects across {P, Q, R} ×
//! {m = 1, 2, 3, 8}, that every `Force(Method)` either solves or refuses
//! with a typed error, and that `Portfolio` dominates its members.

use bisched::core::{
    EngineOutcome, Guarantee, Method, MethodPolicy, SolveError, Solver, SolverConfig,
};
use bisched::graph::Graph;
use bisched::model::Instance;

/// Twelve jobs (`> auto_exact_jobs`, so `Auto` skips branch and bound and
/// the environment dispatch is what's under test), sizes 1..=4.
const N: usize = 12;

fn processing() -> Vec<u64> {
    (0..N as u64).map(|j| 1 + j % 4).collect()
}

/// A bipartite graph when the machine count allows edges, else edge-free
/// (m = 1 is only feasible with no incompatibilities).
fn graph(m: usize) -> Graph {
    if m == 1 {
        Graph::empty(N)
    } else {
        Graph::from_edges(
            N,
            &[
                (0, 6),
                (1, 7),
                (2, 8),
                (3, 9),
                (4, 10),
                (5, 11),
                (0, 7),
                (2, 9),
            ],
        )
    }
}

/// The {P, Q, R} × {1, 2, 3, 8} instance matrix.
fn matrix() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for m in [1usize, 2, 3, 8] {
        let g = graph(m);
        out.push((
            format!("P{m}"),
            Instance::identical(m, processing(), g.clone()).unwrap(),
        ));
        out.push((
            format!("Q{m}"),
            Instance::uniform((1..=m as u64).rev().collect(), processing(), g.clone()).unwrap(),
        ));
        let times: Vec<Vec<u64>> = (0..m as u64)
            .map(|i| (0..N as u64).map(|j| 1 + (3 * i + 2 * j) % 7).collect())
            .collect();
        out.push((format!("R{m}"), Instance::unrelated(times, g).unwrap()));
    }
    out
}

#[test]
fn auto_selects_the_documented_method() {
    let solver = Solver::new();
    for (name, inst) in matrix() {
        let report = solver
            .solve(&inst)
            .unwrap_or_else(|e| panic!("{name}: auto failed: {e}"));
        report
            .schedule
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{name}: infeasible schedule: {e:?}"));
        assert!(report.makespan >= report.lower_bound, "{name}: below bound");

        let expected: &[Method] = match name.as_str() {
            // Two identical/uniform machines with Σp_j under the budget:
            // the exact subset-sum DP.
            "P2" | "Q2" => &[Method::ExactQ2],
            // Identical, m ≥ 3: best of BJW and Algorithm 1.
            "P3" | "P8" => &[Method::Bjw, Method::Alg1],
            // Uniform (and the trivial m = 1 cases): Algorithm 1.
            "P1" | "Q1" | "Q3" | "Q8" => &[Method::Alg1],
            // Two unrelated machines, row mass under the budget: exact DP.
            "R2" => &[Method::ExactR2],
            // Unrelated otherwise: Theorem 24 leaves only heuristics.
            "R1" | "R3" | "R8" => &[Method::GreedyR],
            other => panic!("unexpected matrix entry {other}"),
        };
        assert!(
            expected.contains(&report.method),
            "{name}: auto chose {}, expected one of {expected:?}",
            report.method
        );
        // Whatever won, the reported winner's makespan is the returned one.
        let winner = report
            .attempts
            .iter()
            .find(|a| a.method == report.method)
            .expect("winner must be among the attempts");
        assert_eq!(winner.makespan(), Some(&report.makespan), "{name}");
        // And no recorded attempt did strictly better.
        for run in &report.attempts {
            if let Some(mk) = run.makespan() {
                assert!(
                    *mk >= report.makespan,
                    "{name}: {} beat the winner",
                    run.method
                );
            }
        }
    }
}

#[test]
fn auto_prefers_proven_optima_on_small_instances() {
    // n = 5 ≤ auto_exact_jobs: a complete branch and bound wins outright.
    let inst = Instance::identical(
        3,
        vec![3, 2, 2, 1, 1],
        Graph::from_edges(5, &[(0, 1), (2, 3)]),
    )
    .unwrap();
    let report = Solver::new().solve(&inst).unwrap();
    assert_eq!(report.method, Method::BranchAndBound);
    assert_eq!(report.guarantee, Guarantee::Optimal);
    // The search itself proved it: the makespan also meets the lower
    // bound, which would label the report optimal without a proof.
    assert!(matches!(
        report.winner_run().unwrap().outcome,
        EngineOutcome::Solved {
            guarantee: Guarantee::Optimal,
            ..
        }
    ));
    let opt = bisched::exact::brute_force(&inst).unwrap();
    assert_eq!(report.makespan, opt.makespan);
}

#[test]
fn every_forced_method_solves_or_refuses_with_a_typed_error() {
    for (name, inst) in matrix() {
        for method in Method::ALL {
            let solver = SolverConfig::new().method(method).build().unwrap();
            match solver.solve(&inst) {
                Ok(report) => {
                    assert_eq!(report.method, method, "{name}/{method}");
                    report
                        .schedule
                        .validate(&inst)
                        .unwrap_or_else(|e| panic!("{name}/{method}: invalid: {e:?}"));
                    assert_eq!(report.attempts.len(), 1, "{name}/{method}");
                    assert!(
                        matches!(report.attempts[0].outcome, EngineOutcome::Solved { .. }),
                        "{name}/{method}"
                    );
                }
                Err(SolveError::NotApplicable { method: m, reason }) => {
                    assert_eq!(m, method, "{name}: refusal names the wrong method");
                    assert!(!reason.is_empty(), "{name}/{method}: empty reason");
                }
                Err(other) => panic!("{name}/{method}: untyped failure {other:?}"),
            }
        }
    }
}

#[test]
fn forced_applicability_matches_the_paper_table() {
    // Spot-check the applicability matrix rather than every cell: the
    // R2-only engines refuse P/Q and m ≠ 2; BJW refuses m < 3; Alg2
    // refuses non-unit jobs; the environment-agnostic engines always run.
    let by_name: std::collections::HashMap<String, Instance> = matrix().into_iter().collect();
    let solves = |name: &str, method: Method| -> bool {
        let solver = SolverConfig::new().method(method).build().unwrap();
        solver.solve(&by_name[name]).is_ok()
    };
    for name in ["P2", "Q2"] {
        assert!(solves(name, Method::ExactQ2));
        assert!(!solves(name, Method::ExactR2));
        assert!(!solves(name, Method::R2Fptas));
        assert!(!solves(name, Method::R2TwoApprox));
        assert!(!solves(name, Method::Bjw));
    }
    assert!(solves("R2", Method::ExactR2));
    assert!(solves("R2", Method::R2Fptas));
    assert!(solves("R2", Method::R2TwoApprox));
    assert!(!solves("R2", Method::ExactQ2));
    assert!(!solves("R2", Method::Alg1));
    assert!(solves("P3", Method::Bjw));
    assert!(solves("P8", Method::Bjw));
    assert!(!solves("R3", Method::Bjw));
    // Alg2 needs unit jobs; the matrix instances are non-unit.
    assert!(!solves("Q3", Method::Alg2));
    let unit = Instance::uniform(vec![2, 1, 1], vec![1; N], graph(3)).unwrap();
    let alg2 = SolverConfig::new().method(Method::Alg2).build().unwrap();
    assert!(alg2.solve(&unit).is_ok());
    for name in ["P1", "Q1", "R1", "P8", "Q8", "R8"] {
        assert!(solves(name, Method::BranchAndBound), "{name}");
        assert!(solves(name, Method::GreedyLpt), "{name}");
        assert!(solves(name, Method::GreedyR), "{name}");
    }
}

#[test]
fn portfolio_dominates_every_member_across_the_matrix() {
    for (name, inst) in matrix() {
        // Pick a portfolio whose members are applicable to the row's
        // environment, plus one that never is (it must be recorded, not
        // fatal).
        let members = match name.chars().next().unwrap() {
            'R' if inst.num_machines() == 2 => vec![
                Method::R2TwoApprox,
                Method::R2Fptas,
                Method::GreedyLpt,
                Method::Bjw, // never applicable on R
            ],
            'R' => vec![Method::GreedyR, Method::GreedyLpt, Method::R2Fptas],
            _ => vec![
                Method::GreedyLpt,
                Method::Alg1,
                Method::BranchAndBound,
                Method::ExactR2, // never applicable on P/Q
            ],
        };
        let solver = SolverConfig::new()
            .portfolio(members.clone())
            .build()
            .unwrap();
        let report = solver
            .solve(&inst)
            .unwrap_or_else(|e| panic!("{name}: portfolio failed: {e}"));
        assert_eq!(report.attempts.len(), members.len(), "{name}");
        let mut solved = 0;
        for (run, member) in report.attempts.iter().zip(&members) {
            assert_eq!(run.method, *member, "{name}: attempts in member order");
            if let Some(mk) = run.makespan() {
                solved += 1;
                assert!(
                    report.makespan <= *mk,
                    "{name}: portfolio lost to member {member}"
                );
            }
        }
        assert!(
            solved >= 2,
            "{name}: too few members ran to be a meaningful test"
        );
        assert!(members.contains(&report.method), "{name}");
    }
}

#[test]
fn portfolio_guarantee_is_the_strongest_applicable() {
    // On R2 the exact DP joins the portfolio, so even when the FPTAS
    // schedule ties, the report must claim optimality.
    let (_, r2) = matrix().into_iter().find(|(n, _)| n == "R2").unwrap();
    let solver = SolverConfig::new()
        .portfolio(vec![Method::R2TwoApprox, Method::ExactR2])
        .build()
        .unwrap();
    let report = solver.solve(&r2).unwrap();
    assert_eq!(report.guarantee, Guarantee::Optimal);
}

#[test]
fn policy_is_visible_on_the_config() {
    let solver = SolverConfig::new()
        .policy(MethodPolicy::Force(Method::Alg1))
        .build()
        .unwrap();
    assert_eq!(solver.config().policy, MethodPolicy::Force(Method::Alg1));
}
