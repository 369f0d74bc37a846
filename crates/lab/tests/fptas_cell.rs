//! Pins the quick suite's `r2-gilbert-sub96-jobcorr-fptas` cell, the one
//! that loads the two-machine FPTAS sweep, under the suite's `auto` and
//! `fptas` configs: the FPTAS wins, the sweep's additive grid keeps its
//! candidate count in a band that still loads it, and the answer stays
//! within the `(1+ε)` contract of the reported bound.

use bisched_core::{Method, DEFAULT_EPS};
use bisched_lab::suite;

#[test]
fn sub96_auto_sweep_stays_small_and_within_eps() {
    let quick = suite("quick").expect("quick suite exists");
    let scenario = quick
        .scenarios
        .iter()
        .find(|s| s.name == "r2-gilbert-sub96-jobcorr-fptas")
        .expect("the quick suite carries the sub96 FPTAS cell");
    let inst = scenario.build();
    for name in ["auto", "fptas"] {
        let config = quick
            .configs
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("the quick suite has a `{name}` config"));
        let report = config
            .config
            .clone()
            .build()
            .unwrap()
            .solve(&inst)
            .expect("solves");
        assert_eq!(report.method, Method::R2Fptas, "{name}");
        let expanded = report
            .winner_run()
            .and_then(|run| run.stats.get("expanded"))
            .expect("the FPTAS reports its candidates");
        // About 38.7k on the additive grid; a `(1+ε/2n)` log grid, whose
        // buckets are far narrower at these loads, expands about 117k.
        // Below 33,000 the cell would no longer load the sweep.
        assert!(
            (33_000..60_000).contains(&expanded),
            "{name}: expanded {expanded} candidates"
        );
        let ratio_lb = report.makespan.ratio_to(&report.lower_bound);
        assert!(ratio_lb <= 1.0 + DEFAULT_EPS, "{name}: C/LB = {ratio_lb}");
    }
}
