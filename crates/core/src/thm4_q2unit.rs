//! Theorem 4: the `O(n³)` algorithm for `Q2 | G = bipartite, p_j = 1 | C_max`
//! via the `R2` FPTAS.
//!
//! The paper's (appendix) construction: for every split `(n_1, n_2)` with
//! `n_1 + n_2 = n`, build the prepared `R2` instance with
//! `p_{i,j} = n_1 n_2 / n_i` (i.e. every job costs `n_2` on `M_1` and `n_1`
//! on `M_2`) and run the FPTAS with `ε ≈ 1/(n+1)`. If a schedule giving
//! exactly `n_i` jobs to `M_i` exists, its makespan is `n_1 n_2`, and any
//! misdistributed schedule costs at least `n_1 n_2 (1 + 1/n_i)` — beyond the
//! FPTAS guarantee — so the returned distribution *is* the feasibility
//! answer for the split. The best feasible split under the true speeds wins.
//!
//! `bisched-exact::q2_bipartite_exact` reaches the same optimum through a
//! direct subset-sum; the tests cross-check the routes.

use bisched_exact::Optimum;
use bisched_exact::OracleError;
use bisched_graph::is_bipartite;
use bisched_model::{Instance, MachineEnvironment, Rat, Schedule};

use crate::r2_fptas::r2_fptas;

/// Theorem 4's FPTAS-route exact algorithm for
/// `Q2 | G = bipartite, p_j = 1 | C_max`.
pub fn thm4_fptas_route(inst: &Instance) -> Result<Optimum, OracleError> {
    if inst.num_machines() != 2 {
        return Err(OracleError::NotTwoMachines {
            got: inst.num_machines(),
        });
    }
    let (s1, s2) = match inst.env() {
        MachineEnvironment::Identical { .. } => (1u64, 1u64),
        MachineEnvironment::Uniform { speeds } => (speeds[0], speeds[1]),
        MachineEnvironment::Unrelated { .. } => {
            return Err(OracleError::WrongEnvironment { got: "R" })
        }
    };
    assert!(inst.is_unit(), "Theorem 4 is for unit jobs");
    let g = inst.graph();
    if !is_bipartite(g) {
        return Err(OracleError::NotBipartite);
    }
    let n = inst.num_jobs();
    if n == 0 {
        return Ok(Optimum {
            schedule: Schedule::new(Vec::new()),
            makespan: Rat::ZERO,
        });
    }

    let mut best: Option<Optimum> = None;
    let consider = |makespan: Rat, schedule: Schedule, best: &mut Option<Optimum>| {
        if best.as_ref().is_none_or(|b| makespan < b.makespan) {
            *best = Some(Optimum { schedule, makespan });
        }
    };

    // Degenerate splits: everything on one machine (feasible iff no edges).
    if g.num_edges() == 0 {
        consider(Rat::new(n as u64, s1), Schedule::new(vec![0; n]), &mut best);
        consider(Rat::new(n as u64, s2), Schedule::new(vec![1; n]), &mut best);
    }

    // Proper splits, each checked through the FPTAS on the prepared
    // instance (p_{1,j} = n_2, p_{2,j} = n_1 for every job).
    let eps = 1.0 / (n as f64 + 1.0);
    for n1 in 1..n {
        let n2 = n - n1;
        let times = vec![vec![n2 as u64; n], vec![n1 as u64; n]];
        let prepared = Instance::unrelated(times, g.clone()).expect("valid prepared instance");
        let s = r2_fptas(&prepared, eps)?;
        let on_m1 = s.assignment().iter().filter(|&&i| i == 0).count();
        if on_m1 == n1 {
            // Split feasible; evaluate under the true speeds.
            let makespan = Rat::new(n1 as u64, s1).max(Rat::new(n2 as u64, s2));
            consider(makespan, s, &mut best);
        }
    }
    // At least one proper split is feasible whenever n >= 2 and G has an
    // edge (the 2-coloring itself); with n = 1 the degenerate splits fired.
    Ok(best.expect("a bipartite instance on two machines always has a schedule"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::q2_bipartite_exact;
    use bisched_graph::{gilbert_bipartite, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_direct_dp_on_fixed_cases() {
        let cases = vec![
            (Graph::empty(6), vec![2u64, 1]),
            (Graph::cycle(8), vec![3, 1]),
            (Graph::complete_bipartite(3, 5), vec![2, 2]),
            (Graph::path(7), vec![5, 1]),
        ];
        for (g, speeds) in cases {
            let n = g.num_vertices();
            let inst = Instance::uniform(speeds, vec![1; n], g).unwrap();
            let via_fptas = thm4_fptas_route(&inst).unwrap();
            let via_dp = q2_bipartite_exact(&inst).unwrap();
            assert_eq!(
                via_fptas.makespan,
                via_dp.makespan,
                "routes disagree on {}",
                inst.describe()
            );
            assert!(via_fptas.schedule.validate(&inst).is_ok());
        }
    }

    #[test]
    fn matches_direct_dp_randomized() {
        let mut rng = StdRng::seed_from_u64(89);
        for _ in 0..25 {
            let n = rng.gen_range(1..=12);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let s1 = rng.gen_range(1..=5);
            let s2 = rng.gen_range(1..=s1);
            let inst = Instance::uniform(vec![s1, s2], vec![1; n], g).unwrap();
            let via_fptas = thm4_fptas_route(&inst).unwrap();
            let via_dp = q2_bipartite_exact(&inst).unwrap();
            assert_eq!(via_fptas.makespan, via_dp.makespan, "n={n} s=({s1},{s2})");
        }
    }

    #[test]
    fn single_job() {
        let inst = Instance::uniform(vec![4, 1], vec![1], Graph::empty(1)).unwrap();
        let opt = thm4_fptas_route(&inst).unwrap();
        assert_eq!(opt.makespan, Rat::new(1, 4));
    }

    #[test]
    fn forced_even_split_on_complete_bipartite() {
        // K_{4,4}: each machine takes exactly one side.
        let inst =
            Instance::uniform(vec![2, 1], vec![1; 8], Graph::complete_bipartite(4, 4)).unwrap();
        let opt = thm4_fptas_route(&inst).unwrap();
        // max(4/2, 4/1) = 4 either way.
        assert_eq!(opt.makespan, Rat::integer(4));
    }

    #[test]
    #[should_panic(expected = "unit jobs")]
    fn rejects_weighted_jobs() {
        let inst = Instance::uniform(vec![1, 1], vec![2, 1], Graph::empty(2)).unwrap();
        let _ = thm4_fptas_route(&inst);
    }
}
