//! Algorithm 2: the a.a.s. 2-approximation for
//! `Q | G = G_{n,n,p(n)}, p_j = 1 | C_max` (Theorem 19).
//!
//! Despite Theorem 8's `Ω(n^{1/2-ε})` worst-case wall, random bipartite
//! graphs are benign: the inequitable coloring's minor class `V'_2` is
//! a.a.s. within a factor `1.6` of the minimum number of jobs that *must*
//! avoid `M_1` (Lemma 14), so parking `V'_2` on a prefix `M_2..M_k` of
//! machines sized to half its cardinality and spreading `V'_1` over the
//! rest lands within twice the optimum.
//!
//! The algorithm itself is deterministic and runs on *any* bipartite
//! unit-job instance; only its guarantee is probabilistic.

use bisched_graph::inequitable_coloring;
use bisched_model::{
    assign_min_completion_uniform, floor_capacities, min_time_to_cover, Instance,
    MachineEnvironment, Rat, Schedule,
};

use crate::alg1_sqrt::Alg1Error;

/// Result of Algorithm 2 with the quantities Theorem 19's proof tracks.
#[derive(Clone, Debug)]
pub struct Alg2Result {
    /// The schedule.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: Rat,
    /// The `C**_max` capacity bound of step 2 (`Σ⌊s_i T⌋ ≥ n`).
    pub cstar: Rat,
    /// The chosen split point `k` (1-based, as in the paper).
    pub k: usize,
    /// `|V'_2|` — the minor color class size.
    pub minor_size: usize,
}

/// Algorithm 2 for `Q | G = bipartite, p_j = 1 | C_max`.
pub fn alg2_random_graph(inst: &Instance) -> Result<Alg2Result, Alg1Error> {
    if matches!(inst.env(), MachineEnvironment::Unrelated { .. }) {
        return Err(Alg1Error::WrongEnvironment);
    }
    assert!(
        inst.is_unit(),
        "Algorithm 2 is stated for unit jobs (p_j = 1)"
    );
    let speeds = inst.speeds();
    let m = speeds.len();
    let n = inst.num_jobs();
    let coloring = inequitable_coloring(inst.graph()).map_err(|_| Alg1Error::NotBipartite)?;
    let major = coloring.major();
    let minor = coloring.minor();
    if m == 1 {
        if !minor.is_empty() {
            return Err(Alg1Error::Infeasible);
        }
        let schedule = Schedule::new(vec![0; n]);
        let makespan = schedule.makespan(inst);
        return Ok(Alg2Result {
            schedule,
            makespan,
            cstar: min_time_to_cover(&speeds, n as u64),
            k: 1,
            minor_size: 0,
        });
    }

    // Step 2: capacity bound at demand n.
    let cstar = min_time_to_cover(&speeds, n as u64);
    let caps = floor_capacities(&speeds, &cstar);

    // Step 3: least k with caps(M_2..M_k) ≥ |V'_2| / 2, else k = m.
    let mut k = 2usize;
    let mut cum = caps[1];
    while 2 * cum < minor.len() as u64 && k < m {
        cum += caps[k];
        k += 1;
    }

    // Step 4: V'_2 on M_2..M_k; V'_1 on M_1, M_{k+1}..M_m.
    let group_minor: Vec<u32> = (1..k as u32).collect();
    let mut group_major: Vec<u32> = vec![0];
    group_major.extend(k as u32..m as u32);

    let mut loads = vec![0u64; m];
    let mut assignment = vec![u32::MAX; n];
    let p = inst.processing_all();
    assign_min_completion_uniform(
        &speeds,
        p,
        &minor,
        &group_minor,
        &mut loads,
        &mut assignment,
    );
    assign_min_completion_uniform(
        &speeds,
        p,
        &major,
        &group_major,
        &mut loads,
        &mut assignment,
    );
    let schedule = Schedule::new(assignment);
    debug_assert!(schedule.validate(inst).is_ok());
    let makespan = schedule.makespan(inst);
    Ok(Alg2Result {
        schedule,
        makespan,
        cstar,
        k,
        minor_size: minor.len(),
    })
}

/// The paper's Section 6 improvement, implemented: after the Algorithm 2
/// split, *isolated* jobs (degree 0 — compatible with everything) are
/// pulled out and re-placed greedily across **all** machines, balancing the
/// schedule. In the sub-critical regime `p(n) = o(1/n)` almost all jobs are
/// isolated, which is precisely where the paper says Algorithm 2 "could be
/// improved, by better assigning the isolated jobs and using them to
/// 'balance' the schedule".
///
/// Never worse than Algorithm 2 on isolated-free graphs (identical
/// output).
pub fn alg2_balanced(inst: &Instance) -> Result<Alg2Result, Alg1Error> {
    let base = alg2_random_graph(inst)?;
    let g = inst.graph();
    let n = inst.num_jobs();
    let isolated: Vec<u32> = (0..n as u32).filter(|&v| g.degree(v) == 0).collect();
    if isolated.is_empty() {
        return Ok(base);
    }
    let speeds = inst.speeds();
    let m = speeds.len();
    // Strip the isolated jobs from the base schedule, then re-add them by
    // min-completion greedy over all machines (they conflict with nothing).
    let mut assignment = base.schedule.assignment().to_vec();
    let mut loads = vec![0u64; m];
    for (j, &i) in assignment.iter().enumerate() {
        if g.degree(j as u32) > 0 {
            loads[i as usize] += inst.processing(j as u32);
        }
    }
    let all_machines: Vec<u32> = (0..m as u32).collect();
    let p = inst.processing_all();
    let order = bisched_model::lpt_order(p, &isolated);
    assign_min_completion_uniform(
        &speeds,
        p,
        &order,
        &all_machines,
        &mut loads,
        &mut assignment,
    );
    let schedule = Schedule::new(assignment);
    debug_assert!(schedule.validate(inst).is_ok());
    let makespan = schedule.makespan(inst);
    Ok(Alg2Result {
        makespan: makespan.min(base.makespan),
        schedule: if makespan <= base.makespan {
            schedule
        } else {
            base.schedule
        },
        cstar: base.cstar,
        k: base.k,
        minor_size: base.minor_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::brute_force;
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::SpeedProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn feasible_on_random_graphs_all_profiles() {
        let mut rng = StdRng::seed_from_u64(79);
        for profile in [
            SpeedProfile::Equal,
            SpeedProfile::Geometric { ratio: 2 },
            SpeedProfile::OneFast { factor: 20 },
            SpeedProfile::TwoTier {
                fast_count: 2,
                factor: 5,
            },
        ] {
            for &p in &[0.01, 0.1, 0.6] {
                let g = gilbert_bipartite(30, 30, p, &mut rng);
                let inst = Instance::uniform(profile.speeds(5), vec![1; 60], g).unwrap();
                let r = alg2_random_graph(&inst).unwrap();
                assert!(r.schedule.validate(&inst).is_ok());
                assert!(r.makespan >= r.cstar, "makespan below the capacity LB");
            }
        }
    }

    #[test]
    fn empty_graph_spreads_over_everything() {
        // No edges: V'_2 is empty, k stays 2, all jobs on M_1 ∪ M_3..M_m —
        // the paper's own "p(n) = o(1/n)" behavior (M_2 underutilized).
        let inst = Instance::identical(4, vec![1; 12], Graph::empty(12)).unwrap();
        let r = alg2_random_graph(&inst).unwrap();
        assert_eq!(r.minor_size, 0);
        assert!(r.schedule.validate(&inst).is_ok());
        // Machine 1 (0-based index 1) received nothing.
        assert!(r.schedule.jobs_on(1).is_empty());
        // Still at most twice the optimum (4 machines -> OPT 3; we use 3).
        assert!(r.makespan <= Rat::integer(6));
    }

    #[test]
    fn complete_bipartite_two_blocks() {
        let g = Graph::complete_bipartite(6, 6);
        let inst = Instance::uniform(vec![3, 2, 1], vec![1; 12], g).unwrap();
        let r = alg2_random_graph(&inst).unwrap();
        assert!(r.schedule.validate(&inst).is_ok());
        let opt = brute_force(&inst).unwrap();
        // Not guaranteed deterministically, but this instance is benign.
        assert!(r.makespan.ratio_to(&opt.makespan) <= 2.0 + 1e-9);
    }

    #[test]
    fn ratio_to_capacity_bound_reasonable_on_random() {
        // Statistical smoke: over seeds, ratio vs C** should hover <= ~2.5
        // (Theorem 19 itself is gated with matching-aware LBs in
        // `bisched_random::experiments`).
        let mut rng = StdRng::seed_from_u64(83);
        let mut worst: f64 = 0.0;
        for _ in 0..10 {
            let g = gilbert_bipartite(40, 40, 2.0 / 40.0, &mut rng);
            let inst = Instance::uniform(
                SpeedProfile::Geometric { ratio: 2 }.speeds(4),
                vec![1; 80],
                g,
            )
            .unwrap();
            let r = alg2_random_graph(&inst).unwrap();
            worst = worst.max(r.makespan.ratio_to(&r.cstar));
        }
        assert!(
            worst <= 3.0,
            "suspiciously bad ratio {worst} vs capacity LB"
        );
    }

    #[test]
    fn one_machine_edge_cases() {
        let inst = Instance::uniform(vec![2], vec![1; 4], Graph::empty(4)).unwrap();
        let r = alg2_random_graph(&inst).unwrap();
        assert_eq!(r.makespan, Rat::integer(2));
        let bad = Instance::uniform(vec![2], vec![1, 1], Graph::from_edges(2, &[(0, 1)])).unwrap();
        assert_eq!(alg2_random_graph(&bad).unwrap_err(), Alg1Error::Infeasible);
    }

    #[test]
    #[should_panic(expected = "unit jobs")]
    fn non_unit_jobs_rejected() {
        let inst = Instance::identical(2, vec![2, 1], Graph::empty(2)).unwrap();
        let _ = alg2_random_graph(&inst);
    }

    #[test]
    fn balanced_variant_never_worse() {
        let mut rng = StdRng::seed_from_u64(87);
        for &p in &[0.0005, 0.01, 0.2] {
            for profile in [SpeedProfile::Equal, SpeedProfile::Geometric { ratio: 2 }] {
                let g = gilbert_bipartite(40, 40, p, &mut rng);
                let inst = Instance::uniform(profile.speeds(5), vec![1; 80], g).unwrap();
                let base = alg2_random_graph(&inst).unwrap();
                let balanced = alg2_balanced(&inst).unwrap();
                assert!(balanced.schedule.validate(&inst).is_ok());
                assert!(
                    balanced.makespan <= base.makespan,
                    "balancing regressed: {} > {}",
                    balanced.makespan,
                    base.makespan
                );
            }
        }
    }

    #[test]
    fn balanced_fixes_subcritical_waste() {
        // All-isolated jobs: base Algorithm 2 parks everything on
        // M_1 ∪ M_3.. (skipping M_2); balancing uses every machine and
        // reaches the capacity optimum.
        let inst = Instance::identical(4, vec![1; 12], Graph::empty(12)).unwrap();
        let base = alg2_random_graph(&inst).unwrap();
        let balanced = alg2_balanced(&inst).unwrap();
        assert_eq!(base.makespan, Rat::integer(4)); // 12 jobs on 3 machines
        assert_eq!(balanced.makespan, Rat::integer(3)); // 12 on 4
        let opt = brute_force(&inst).unwrap();
        assert_eq!(balanced.makespan, opt.makespan);
    }

    #[test]
    fn balanced_identical_when_no_isolated() {
        let g = Graph::complete_bipartite(5, 5);
        let inst = Instance::uniform(vec![2, 1, 1], vec![1; 10], g).unwrap();
        let base = alg2_random_graph(&inst).unwrap();
        let balanced = alg2_balanced(&inst).unwrap();
        assert_eq!(base.makespan, balanced.makespan);
        assert_eq!(base.schedule, balanced.schedule);
    }
}
