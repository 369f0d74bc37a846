//! Bodlaender–Jansen–Woeginger-style 2-approximation for
//! `P | G = bipartite | C_max` with `m ≥ 3` — the prior-art algorithm the
//! paper generalizes away from (\[3\] proved the ratio 2 is best possible on
//! identical machines).
//!
//! Shape of the algorithm: compute an inequitable 2-coloring
//! `(V'_1, V'_2)` weighted by processing requirements, split the `m`
//! machines into two disjoint groups with sizes proportional to the class
//! weights (each group non-empty), and LPT-list each class inside its
//! group. Classes never share a machine, so feasibility is structural.

use crate::greedy::BaselineError;
use bisched_graph::inequitable_coloring_weighted;
use bisched_model::{
    assign_min_completion_uniform, lpt_order, Instance, MachineEnvironment, Schedule,
};

/// BJW-style 2-approximation for identical machines, `m ≥ 3`.
///
/// Also accepts uniform speeds (groups are then chosen by aggregate speed
/// proportional to class weight), which is the natural generalization used
/// as a comparison point for Algorithm 1.
pub fn bjw_two_approx(inst: &Instance) -> Result<Schedule, BaselineError> {
    let m = inst.num_machines();
    if m < 3 {
        return Err(BaselineError::TooFewMachines { need: 3, got: m });
    }
    let speeds = match inst.env() {
        MachineEnvironment::Unrelated { .. } => {
            // BJW is defined for identical machines; no meaningful speeds.
            return Err(BaselineError::Stuck);
        }
        _ => inst.speeds(),
    };
    let coloring = inequitable_coloring_weighted(inst.graph(), inst.processing_all())
        .map_err(|_| BaselineError::NotBipartite)?;
    let w1 = coloring.major_weight();
    let w2 = coloring.minor_weight();
    let total_w = (w1 + w2).max(1);
    let total_speed: u64 = speeds.iter().sum();

    // Machines are sorted fastest-first. Give the major class a prefix of
    // machines whose aggregate speed is ~ proportional to its weight; both
    // groups stay non-empty.
    let mut split = 1usize;
    let mut acc = speeds[0];
    while split < m - 1 && (acc as u128) * (total_w as u128) < (total_speed as u128) * (w1 as u128)
    {
        acc += speeds[split];
        split += 1;
    }
    let group1: Vec<u32> = (0..split as u32).collect();
    let group2: Vec<u32> = (split as u32..m as u32).collect();

    let mut loads = vec![0u64; m];
    let mut assignment = vec![u32::MAX; inst.num_jobs()];
    let major = lpt_order(inst.processing_all(), &coloring.major());
    let minor = lpt_order(inst.processing_all(), &coloring.minor());
    assign_min_completion_uniform(
        &speeds,
        inst.processing_all(),
        &major,
        &group1,
        &mut loads,
        &mut assignment,
    );
    assign_min_completion_uniform(
        &speeds,
        inst.processing_all(),
        &minor,
        &group2,
        &mut loads,
        &mut assignment,
    );
    Ok(Schedule::new(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::{JobSizes, Rat};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn needs_three_machines() {
        let inst = Instance::identical(2, vec![1, 1], Graph::empty(2)).unwrap();
        assert_eq!(
            bjw_two_approx(&inst).unwrap_err(),
            BaselineError::TooFewMachines { need: 3, got: 2 }
        );
    }

    #[test]
    fn feasible_and_within_two_of_oracle() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..20 {
            let n = rng.gen_range(3..=8);
            let m = rng.gen_range(3..=4);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(n, &mut rng);
            let inst = Instance::identical(m, p, g).unwrap();
            let s = bjw_two_approx(&inst).unwrap();
            assert!(s.validate(&inst).is_ok());
            let opt = bisched_exact::brute_force(&inst).unwrap();
            let ratio = s.makespan(&inst).ratio_to(&opt.makespan);
            assert!(
                ratio <= 2.0 + 1e-9,
                "BJW ratio {ratio} > 2 on {}",
                inst.describe()
            );
        }
    }

    #[test]
    fn classes_never_share_machines() {
        let g = Graph::complete_bipartite(5, 5);
        let inst = Instance::identical(4, vec![1; 10], g.clone()).unwrap();
        let s = bjw_two_approx(&inst).unwrap();
        assert!(s.validate(&inst).is_ok());
        // All of side A on machines disjoint from side B's machines.
        let machines_a: std::collections::HashSet<u32> = (0..5).map(|j| s.machine_of(j)).collect();
        let machines_b: std::collections::HashSet<u32> = (5..10).map(|j| s.machine_of(j)).collect();
        assert!(machines_a.is_disjoint(&machines_b));
    }

    #[test]
    fn balanced_unit_jobs_near_optimal() {
        // 12 isolated unit jobs on 4 machines: OPT = 3; BJW groups still
        // see all machines, so the result must be <= 2 * OPT = 6.
        let inst = Instance::identical(4, vec![1; 12], Graph::empty(12)).unwrap();
        let s = bjw_two_approx(&inst).unwrap();
        assert!(s.makespan(&inst) <= Rat::integer(6));
    }

    #[test]
    fn uniform_speeds_accepted() {
        let g = Graph::complete_bipartite(2, 3);
        let inst = Instance::uniform(vec![4, 2, 1], vec![3, 3, 2, 2, 2], g).unwrap();
        let s = bjw_two_approx(&inst).unwrap();
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn rejects_unrelated() {
        let inst = Instance::unrelated(vec![vec![1], vec![1], vec![1]], Graph::empty(1)).unwrap();
        assert!(bjw_two_approx(&inst).is_err());
    }
}
