//! End-to-end validation of the Theorem 8 and Theorem 24 gap reductions
//! against the exact 1-PrExt decider — the executable version of the
//! paper's inapproximability arguments.

use bisched::core::{reduce_1prext_to_qm, reduce_1prext_to_rm};
use bisched::exact::{
    branch_and_bound, claw_no_instance, greedy_incumbent, path_yes_instance, precoloring_extension,
    standard_pins,
};
use bisched::graph::{gilbert_bipartite, Graph, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `count` random small bipartite 1-PrExt instances with known answers,
/// then one certified NO. Sparse random graphs are almost always YES, so
/// the claw keeps the NO branches of the callers reachable.
fn sample_instances(count: usize, seed: u64) -> Vec<(Graph, [Vertex; 3], bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let g = gilbert_bipartite(4, 4, 0.5, &mut rng);
        let pins = [0u32, 1, 4];
        let yes = precoloring_extension(&g, &standard_pins(&pins), 3).is_some();
        out.push((g, pins, yes));
    }
    let (g, pins) = claw_no_instance(3);
    assert!(precoloring_extension(&g, &standard_pins(&pins), 3).is_none());
    out.push((g, pins, false));
    out
}

#[test]
fn thm24_gap_matches_prext_answer_exactly() {
    let d = 64u64;
    let mut no_seen = 0;
    for (g, pins, yes) in sample_instances(12, 211) {
        let red = reduce_1prext_to_rm(&g, pins, d, 3);
        let opt = branch_and_bound(&red.instance, 50_000_000);
        assert!(opt.complete, "oracle must finish at this size");
        let mk = opt.optimum.unwrap().makespan;
        if yes {
            assert!(
                mk <= red.yes_bound(),
                "YES instance but OPT {mk} > n = {}",
                red.yes_bound()
            );
        } else {
            assert!(
                mk >= red.no_bound(),
                "NO instance but OPT {mk} < d = {}",
                red.no_bound()
            );
            no_seen += 1;
        }
    }
    assert!(no_seen > 0, "no NO sample reached the NO branch");
}

#[test]
fn thm24_optimal_schedule_decodes_iff_yes() {
    let mut no_seen = 0;
    for (g, pins, yes) in sample_instances(8, 223) {
        let red = reduce_1prext_to_rm(&g, pins, 64, 4);
        let opt = branch_and_bound(&red.instance, 50_000_000).optimum.unwrap();
        if yes {
            assert!(opt.makespan < red.no_bound());
            assert!(
                red.decodes_to_yes(&opt.schedule, &g),
                "cheap optimum must expose a proper extension"
            );
        } else {
            assert!(!red.decodes_to_yes(&opt.schedule, &g));
            no_seen += 1;
        }
    }
    assert!(no_seen > 0, "no NO sample reached the NO branch");
}

#[test]
fn thm8_yes_side_constructive() {
    // YES instances: the coloring-derived schedule beats the gap.
    let (g, pins) = path_yes_instance(4);
    let coloring = precoloring_extension(&g, &standard_pins(&pins), 3).expect("YES");
    for k in [1u64, 2, 3] {
        let red = reduce_1prext_to_qm(&g, pins, k, 5);
        let s = red.schedule_from_coloring(&coloring);
        s.validate(&red.instance).expect("witness feasible");
        let mk = s.makespan(&red.instance);
        assert!(mk <= red.yes_bound());
        assert!(
            red.no_bound().ratio_to(&mk) >= k as f64 * 0.8,
            "gap did not scale with k"
        );
    }
}

#[test]
fn thm8_no_side_contrapositive() {
    // NO instance: every schedule our solvers produce must respect the
    // forcing — either it costs ≥ the NO bound, or (impossibly) it would
    // decode to a proper extension.
    let (g, pins) = claw_no_instance(3);
    assert!(precoloring_extension(&g, &standard_pins(&pins), 3).is_none());
    let red = reduce_1prext_to_qm(&g, pins, 2, 4);
    let candidates = vec![
        greedy_incumbent(&red.instance).unwrap().schedule,
        bisched::core::alg1_sqrt_approx(&red.instance)
            .unwrap()
            .schedule,
        bisched::core::alg2_random_graph(&red.instance)
            .unwrap()
            .schedule,
    ];
    for s in candidates {
        s.validate(&red.instance).expect("feasible");
        let mk = s.makespan(&red.instance);
        assert!(
            mk >= red.no_bound() || red.decodes_to_yes(&s, &g),
            "schedule at {mk} beneath the NO bound without decoding — forcing violated"
        );
    }
}

#[test]
fn thm8_yes_side_decodes_roundtrip_on_random_instances() {
    for (g, pins, yes) in sample_instances(6, 227) {
        if !yes {
            continue;
        }
        let coloring = precoloring_extension(&g, &standard_pins(&pins), 3).unwrap();
        let red = reduce_1prext_to_qm(&g, pins, 2, 4);
        let s = red.schedule_from_coloring(&coloring);
        assert!(red.decodes_to_yes(&s, &g));
        assert!(s.makespan(&red.instance) < red.no_bound());
    }
}
