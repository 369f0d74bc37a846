//! Property-based invariants across the whole stack (proptest).

use bisched::core::{alg1_sqrt_approx, r2_fptas, r2_two_approx};
use bisched::exact::{branch_and_bound, q2_bipartite_exact, r2_bipartite_exact};
use bisched::graph::{
    bipartition, inequitable_coloring_weighted, max_weight_independent_set, maximum_matching, Graph,
};
use bisched::model::{floor_capacities, min_time_to_cover, Instance};
use proptest::prelude::*;

/// Strategy: a random bipartite graph given part sizes and an edge mask.
fn bipartite_graph(max_side: usize) -> impl Strategy<Value = Graph> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(a, b)| {
        proptest::collection::vec(any::<bool>(), a * b).prop_map(move |mask| {
            let mut edges = Vec::new();
            for i in 0..a {
                for j in 0..b {
                    if mask[i * b + j] {
                        edges.push((i as u32, (a + j) as u32));
                    }
                }
            }
            Graph::from_edges(a + b, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inequitable_coloring_is_proper_and_majorized(
        g in bipartite_graph(8),
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let weights: Vec<u64> = (0..n).map(|i| 1 + (seed + i as u64) % 9).collect();
        let col = inequitable_coloring_weighted(&g, &weights).unwrap();
        prop_assert!(col.is_proper(&g));
        prop_assert!(col.major_weight() >= col.minor_weight());
        prop_assert_eq!(
            col.major_weight() + col.minor_weight(),
            weights.iter().sum::<u64>()
        );
        // Both classes are independent sets.
        prop_assert!(g.is_independent_set(&col.major()));
        prop_assert!(g.is_independent_set(&col.minor()));
    }

    #[test]
    fn koenig_duality(g in bipartite_graph(8)) {
        let bp = bipartition(&g).unwrap();
        let matching = maximum_matching(&g, &bp);
        let n = g.num_vertices();
        // α + μ = |V| (König) via the unweighted MWIS.
        let mwis = max_weight_independent_set(&g, &vec![1u64; n]);
        prop_assert_eq!(mwis.weight as usize + matching.size(), n);
        prop_assert!(g.is_independent_set(&mwis.vertices));
    }

    #[test]
    fn min_cover_time_is_monotone_and_tight(
        speeds in proptest::collection::vec(1u64..20, 1..6),
        demand in 0u64..200,
    ) {
        let t = min_time_to_cover(&speeds, demand);
        let caps: u64 = floor_capacities(&speeds, &t).iter().sum();
        prop_assert!(caps >= demand);
        // Monotonicity in demand.
        let t2 = min_time_to_cover(&speeds, demand + 1);
        prop_assert!(t2 >= t);
    }

    #[test]
    fn q2_exact_is_lower_than_any_orientation(
        g in bipartite_graph(6),
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let p: Vec<u64> = (0..n).map(|i| 1 + (seed * 7 + i as u64) % 6).collect();
        let inst = Instance::uniform(vec![2, 1], p, g).unwrap();
        let opt = q2_bipartite_exact(&inst).unwrap();
        prop_assert!(opt.schedule.validate(&inst).is_ok());
        // The trivial coloring split is an upper bound.
        let split = bisched::baselines::coloring_split(&inst).unwrap();
        prop_assert!(opt.makespan <= split.makespan(&inst));
    }

    #[test]
    fn alg1_respects_theorem9_budget_vs_the_optimum(
        g in bipartite_graph(7),
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let p: Vec<u64> = (0..n).map(|i| 1 + (seed * 3 + i as u64) % 8).collect();
        let inst = Instance::uniform(vec![4, 2, 1], p, g).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        prop_assert!(r.schedule.validate(&inst).is_ok());
        let exact = branch_and_bound(&inst, u64::MAX);
        prop_assert!(exact.complete);
        let opt = exact.optimum.unwrap().makespan;
        let budget = (inst.total_processing() as f64).sqrt() + 1e-9;
        prop_assert!(
            r.makespan.ratio_to(&opt) <= budget,
            "makespan {} > sqrt(sum p) * OPT {}",
            r.makespan,
            opt
        );
    }

    #[test]
    fn r2_chain_exact_le_fptas_le_twoapprox_bound(
        g in bipartite_graph(6),
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let times: Vec<Vec<u64>> = (0..2)
            .map(|i| (0..n).map(|j| 1 + (seed * 5 + i as u64 * 13 + j as u64) % 25).collect())
            .collect();
        let inst = Instance::unrelated(times, g).unwrap();
        let exact = r2_bipartite_exact(&inst).unwrap();
        let fptas = r2_fptas(&inst, 0.25).unwrap();
        let two = r2_two_approx(&inst).unwrap();
        prop_assert!(fptas.makespan(&inst) >= exact.makespan);
        prop_assert!(fptas.makespan(&inst).ratio_to(&exact.makespan) <= 1.25 + 1e-9);
        prop_assert!(two.makespan(&inst).ratio_to(&exact.makespan) <= 2.0 + 1e-9);
    }

    #[test]
    fn schedules_partition_jobs(
        g in bipartite_graph(6),
        seed in 0u64..100,
    ) {
        let n = g.num_vertices();
        let p: Vec<u64> = (0..n).map(|i| 1 + (seed + i as u64) % 4).collect();
        let inst = Instance::uniform(vec![3, 2, 1], p, g).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        let mut seen = vec![false; n];
        for i in 0..inst.num_machines() as u32 {
            for j in r.schedule.jobs_on(i) {
                prop_assert!(!seen[j as usize], "job {} scheduled twice", j);
                seen[j as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "some job unscheduled");
    }
}
