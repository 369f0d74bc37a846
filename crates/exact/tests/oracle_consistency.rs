//! Cross-oracle consistency: every exact engine must agree with every
//! other exact engine on its shared domain, across random instances.

use bisched_exact::{
    branch_and_bound, brute_force, precoloring_extension, q2_bipartite_exact,
    q_complete_bipartite_unit, r2_bipartite_exact,
};
use bisched_graph::{gilbert_bipartite, Graph};
use bisched_model::{graph_blind_lower_bound, root_bound, Instance, JobSizes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn q2_oracles_triangle() {
    let mut rng = StdRng::seed_from_u64(301);
    for _ in 0..25 {
        let n = rng.gen_range(2..=9);
        let g = gilbert_bipartite(n / 2, n - n / 2, 0.45, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 7 }.sample(n, &mut rng);
        let inst = Instance::uniform(vec![rng.gen_range(1..=4), 1], p, g).unwrap();
        let a = brute_force(&inst).unwrap().makespan;
        let b = q2_bipartite_exact(&inst).unwrap().makespan;
        let c = branch_and_bound(&inst, u64::MAX).optimum.unwrap().makespan;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}

#[test]
fn r2_oracles_triangle() {
    let mut rng = StdRng::seed_from_u64(303);
    for _ in 0..25 {
        let n: usize = rng.gen_range(2..=8);
        let g = gilbert_bipartite(n / 2, n - n / 2, 0.45, &mut rng);
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(1..=10)).collect())
            .collect();
        let inst = Instance::unrelated(times, g).unwrap();
        let a = brute_force(&inst).unwrap().makespan;
        let b = r2_bipartite_exact(&inst).unwrap().makespan;
        let c = branch_and_bound(&inst, u64::MAX).optimum.unwrap().makespan;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}

#[test]
fn complete_bipartite_vs_general_oracles() {
    let mut rng = StdRng::seed_from_u64(307);
    for _ in 0..15 {
        let a = rng.gen_range(1..=4);
        let b = rng.gen_range(1..=4);
        let m = rng.gen_range(2..=3);
        let speeds: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=3)).collect();
        let inst =
            Instance::uniform(speeds, vec![1; a + b], Graph::complete_bipartite(a, b)).unwrap();
        let fast = q_complete_bipartite_unit(&inst).unwrap().makespan;
        let slow = brute_force(&inst).unwrap().makespan;
        assert_eq!(fast, slow, "K_({a},{b})");
    }
}

#[test]
fn unit_q2_complete_bipartite_all_three() {
    // K_{a,b} on two machines is in the domain of *three* exact engines.
    for (a, b, s1, s2) in [(3usize, 5usize, 3u64, 1u64), (4, 4, 2, 2), (1, 6, 5, 2)] {
        let inst = Instance::uniform(
            vec![s1, s2],
            vec![1; a + b],
            Graph::complete_bipartite(a, b),
        )
        .unwrap();
        let x = q2_bipartite_exact(&inst).unwrap().makespan;
        let y = q_complete_bipartite_unit(&inst).unwrap().makespan;
        let z = brute_force(&inst).unwrap().makespan;
        assert_eq!(x, y);
        assert_eq!(x, z);
    }
}

#[test]
fn precolor_decider_consistent_with_schedule_feasibility() {
    // 1-PrExt YES <=> the Theorem-24-style 3-machine pinning instance has
    // a schedule under d. (A miniature of the Theorem 24 gap tests in
    // `bisched-core`, against the decider here.)
    let mut rng = StdRng::seed_from_u64(311);
    for _ in 0..10 {
        let g = gilbert_bipartite(3, 4, 0.5, &mut rng);
        let pins = [(0u32, 0u8), (1, 1), (3, 2)];
        let yes = precoloring_extension(&g, &pins, 3).is_some();
        let d = 50u64;
        let n = g.num_vertices();
        let mut times = vec![vec![1u64; n]; 3];
        for &(v, c) in &pins {
            for (i, row) in times.iter_mut().enumerate() {
                row[v as usize] = if i == c as usize { 1 } else { d };
            }
        }
        let inst = Instance::unrelated(times, g).unwrap();
        let opt = branch_and_bound(&inst, u64::MAX).optimum.unwrap();
        assert_eq!(
            yes,
            opt.makespan < bisched_model::Rat::integer(d),
            "decider and scheduler disagree"
        );
    }
}

#[test]
fn greedy_incumbent_never_beats_exact() {
    let mut rng = StdRng::seed_from_u64(313);
    for _ in 0..20 {
        let n = rng.gen_range(2..=8);
        let m = rng.gen_range(2..=3);
        let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(n, &mut rng);
        let inst = Instance::identical(m, p, g).unwrap();
        let greedy = bisched_exact::greedy_incumbent(&inst).unwrap();
        let exact = brute_force(&inst).unwrap();
        assert!(greedy.makespan >= exact.makespan);
    }
}

/// The served bound ≤ the root bound both exact engines start from ≤ the
/// brute-force optimum, on random `P`, `Q` and `R` instances with
/// `n ≤ 9`. The run must also see the edge pair lift the root above the
/// served bound, and the root meet the optimum.
#[test]
fn root_bound_sits_between_the_served_bound_and_the_optimum() {
    let mut rng = StdRng::seed_from_u64(311);
    let (mut lifted, mut tight) = (0, 0);
    for trial in 0..300 {
        let n = rng.gen_range(1..=9);
        let m = rng.gen_range(2..=4);
        let g = gilbert_bipartite(n / 2, n - n / 2, rng.gen_range(0.0..0.8), &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng);
        let inst = match trial % 3 {
            0 => Instance::identical(m, p, g).unwrap(),
            1 => {
                let speeds = (0..m).map(|_| rng.gen_range(1..=7)).collect();
                Instance::uniform(speeds, p, g).unwrap()
            }
            _ => {
                let times = (0..m)
                    .map(|_| (0..n).map(|_| rng.gen_range(1..=12)).collect())
                    .collect();
                Instance::unrelated(times, g).unwrap()
            }
        };
        let served = graph_blind_lower_bound(&inst);
        let root = root_bound(&inst);
        let opt = brute_force(&inst).expect("bipartite on m >= 2").makespan;
        assert!(served <= root, "{}: {served} > {root}", inst.describe());
        assert!(root <= opt, "{}: {root} > {opt}", inst.describe());
        lifted += (served < root) as u32;
        tight += (root == opt) as u32;
    }
    assert!(lifted > 0 && tight > 0, "lifted {lifted}, tight {tight}");
}
