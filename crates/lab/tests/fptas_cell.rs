//! Pins the quick suite's `r2-gilbert-sub96-jobcorr-fptas` cell, the one
//! that loads the two-machine FPTAS sweep, under the default `Auto`
//! solver: the sweep's additive grid keeps its candidate count down, and
//! the answer stays within the `(1+ε)` contract of the reported bound.

use bisched_core::{Method, SolverConfig, DEFAULT_EPS};
use bisched_lab::suite;

#[test]
fn sub96_auto_sweep_stays_small_and_within_eps() {
    let quick = suite("quick").expect("quick suite exists");
    let scenario = quick
        .scenarios
        .iter()
        .find(|s| s.name == "r2-gilbert-sub96-jobcorr-fptas")
        .expect("the quick suite carries the sub96 FPTAS cell");
    let report = SolverConfig::new()
        .build()
        .unwrap()
        .solve(&scenario.build())
        .expect("solves");
    assert_eq!(report.method, Method::R2Fptas);
    let expanded = report
        .winner_run()
        .and_then(|run| run.stats.get("expanded"))
        .expect("the FPTAS reports its candidates");
    // About 38.7k on the additive grid; a `(1+ε/2n)` log grid, whose
    // buckets are far narrower at these loads, expands about 117k.
    assert!(expanded < 60_000, "expanded {expanded} candidates");
    let ratio_lb = report.makespan.ratio_to(&report.lower_bound);
    assert!(ratio_lb <= 1.0 + DEFAULT_EPS, "C/LB = {ratio_lb}");
}
