//! Algorithm 1: the `√(Σp_j)`-approximation for `Q | G = bipartite | C_max`
//! (Theorem 9) — best possible up to constants by the Theorem 8
//! inapproximability bound.
//!
//! Outline (numbering follows the paper's listing):
//!
//! 1. `Σp_j ≤ 4`: brute force.
//! 2. `I` := a maximum-weight independent set containing every *big* job
//!    (`p_j ≥ √Σp_j`), if the big jobs are independent.
//! 3. `S1` := Algorithm 5 (the `R2` FPTAS) on the two fastest machines with
//!    `ε = 1` — the fallback that is already `√Σp_j`-good whenever the
//!    optimum is concentrated on `M_1, M_2`.
//! 4. (Steps 4–10.) If `I` exists: compute the carving time `C**_max`
//!    from `Σp_j − w(I)` (not a lower bound in general: `I` must hold
//!    the big jobs, so it can be lighter than the heaviest independent
//!    set), carve the machines at that time into `M_2..M_{k'}` /
//!    `M_{k'+1}..M_k` / `M_1 ∪ M_{k+1}..M_m`, and list-schedule the
//!    inequitable-coloring classes of `J ∖ I` and `I` onto those groups
//!    (`S2`).
//! 5. (Step 12.) Return the better of `S1`, `S2`.

use bisched_exact::{branch_and_bound, OracleError};
use bisched_graph::{inequitable_coloring_weighted, max_weight_is_containing};
use bisched_model::{
    assign_min_completion_uniform, cstar_double_max, floor_capacities, lpt_order, Instance,
    MachineEnvironment, Rat, Schedule,
};

use crate::r2_fptas::r2_fptas;

/// Result of Algorithm 1: the schedule, its makespan and the candidate
/// that produced it.
#[derive(Clone, Debug)]
pub struct Alg1Result {
    /// The returned schedule.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: Rat,
    /// Which candidate won: `"brute"`, `"S1"` or `"S2"`.
    pub winner: &'static str,
}

/// Errors of Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg1Error {
    /// `G` is not bipartite.
    NotBipartite,
    /// The environment is unrelated (`R`) — Algorithm 1 is for `Q`/`P`.
    WrongEnvironment,
    /// One machine and at least one incompatibility: no schedule exists.
    Infeasible,
}

impl std::fmt::Display for Alg1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alg1Error::NotBipartite => write!(f, "incompatibility graph is not bipartite"),
            Alg1Error::WrongEnvironment => {
                write!(f, "Algorithm 1 handles uniform/identical machines only")
            }
            Alg1Error::Infeasible => write!(f, "no feasible schedule (m = 1 with an edge)"),
        }
    }
}

impl std::error::Error for Alg1Error {}

/// Algorithm 1 for `Q | G = bipartite | C_max` (also accepts `P`).
pub fn alg1_sqrt_approx(inst: &Instance) -> Result<Alg1Result, Alg1Error> {
    let speeds = match inst.env() {
        MachineEnvironment::Unrelated { .. } => return Err(Alg1Error::WrongEnvironment),
        _ => inst.speeds(),
    };
    let n = inst.num_jobs();
    let m = speeds.len();
    let g = inst.graph();
    if !bisched_graph::is_bipartite(g) {
        return Err(Alg1Error::NotBipartite);
    }
    if n == 0 {
        return Ok(Alg1Result {
            schedule: Schedule::new(Vec::new()),
            makespan: Rat::ZERO,
            winner: "brute",
        });
    }
    if m == 1 {
        if g.num_edges() > 0 {
            return Err(Alg1Error::Infeasible);
        }
        let schedule = Schedule::new(vec![0; n]);
        let makespan = schedule.makespan(inst);
        return Ok(Alg1Result {
            schedule,
            makespan,
            winner: "brute",
        });
    }

    let total: u64 = inst.total_processing();

    // Step 1: tiny instances by brute force (Σp_j ≤ 4 ⇒ n ≤ 4, and only
    // the min(m, n) fastest machines can matter on uniform speeds).
    if total <= 4 {
        let used = m.min(n).max(2);
        let small = Instance::uniform(
            speeds[..used].to_vec(),
            inst.processing_all().to_vec(),
            g.clone(),
        )
        .expect("validated components");
        let out = branch_and_bound(&small, u64::MAX);
        let opt = out.optimum.expect("bipartite on >= 2 machines is feasible");
        return Ok(Alg1Result {
            makespan: opt.makespan,
            schedule: opt.schedule,
            winner: "brute",
        });
    }

    // Step 2: the big jobs (p_j² ≥ Σp_j, i.e. p_j ≥ √Σp_j) and the
    // max-weight independent set containing them all, if any.
    let big: Vec<u32> = (0..n as u32)
        .filter(|&j| {
            let p = inst.processing(j) as u128;
            p * p >= total as u128
        })
        .collect();
    let independent_i = max_weight_is_containing(g, inst.processing_all(), &big);

    // Step 3: S1 — Algorithm 5 on the two fastest machines with ε = 1.
    let s1 = schedule_s1(inst, &speeds)?;
    let mut best = Alg1Result {
        makespan: s1.makespan(inst),
        schedule: s1,
        winner: "S1",
    };

    // Steps 4–10: S2, only when I exists and there are spare machines.
    if let Some(iset) = independent_i {
        if m >= 3 {
            let uncovered = total - iset.weight;
            let pmax = inst.max_processing();
            let cstar = cstar_double_max(&speeds, total, uncovered, pmax);
            let caps = floor_capacities(&speeds, &cstar);

            // Step 7: least k ≥ 3 with caps(M_2..M_k) covering J ∖ I.
            let mut k = 3usize;
            let mut cum: u64 = caps[1..k].iter().sum();
            while cum < uncovered && k < m {
                cum += caps[k];
                k += 1;
            }
            if cum >= uncovered {
                // Step 8: inequitable coloring of J ∖ I by weight.
                let mut in_i = vec![false; n];
                for &v in &iset.vertices {
                    in_i[v as usize] = true;
                }
                let (rest_graph, remap) =
                    g.induced_subgraph(&in_i.iter().map(|&b| !b).collect::<Vec<_>>());
                let rest_weights: Vec<u64> = (0..n)
                    .filter(|&v| !in_i[v])
                    .map(|v| inst.processing(v as u32))
                    .collect();
                let coloring = inequitable_coloring_weighted(&rest_graph, &rest_weights)
                    .expect("subgraph of a bipartite graph is bipartite");
                // Map color classes back to original ids.
                let mut back = vec![u32::MAX; rest_graph.num_vertices()];
                for v in 0..n {
                    if !in_i[v] {
                        back[remap[v] as usize] = v as u32;
                    }
                }
                let j1: Vec<u32> = coloring.major().iter().map(|&v| back[v as usize]).collect();
                let j2: Vec<u32> = coloring.minor().iter().map(|&v| back[v as usize]).collect();
                let w1: u64 = j1.iter().map(|&v| inst.processing(v)).sum();

                // Step 9: biggest k' with caps(M_2..M_{k'}) ≤ Σ_{J'_1} p_j.
                let mut kp = 2usize;
                let mut cum2 = caps[1];
                while kp < k && cum2 + caps[kp] <= w1 {
                    cum2 += caps[kp];
                    kp += 1;
                }
                // J'_2 must get a non-empty group when non-empty.
                if kp >= k && !j2.is_empty() {
                    kp = k - 1;
                }

                // Step 10: three machine groups (0-based indices).
                let group_j1: Vec<u32> = (1..kp as u32).collect();
                let group_j2: Vec<u32> = (kp as u32..k as u32).collect();
                let mut group_i: Vec<u32> = vec![0];
                group_i.extend(k as u32..m as u32);

                let mut loads = vec![0u64; m];
                let mut assignment = vec![u32::MAX; n];
                let p = inst.processing_all();
                assign_min_completion_uniform(
                    &speeds,
                    p,
                    &lpt_order(p, &j1),
                    &group_j1,
                    &mut loads,
                    &mut assignment,
                );
                assign_min_completion_uniform(
                    &speeds,
                    p,
                    &lpt_order(p, &j2),
                    &group_j2,
                    &mut loads,
                    &mut assignment,
                );
                assign_min_completion_uniform(
                    &speeds,
                    p,
                    &lpt_order(p, &iset.vertices),
                    &group_i,
                    &mut loads,
                    &mut assignment,
                );
                let s2 = Schedule::new(assignment);
                debug_assert!(s2.validate(inst).is_ok());
                let s2_makespan = s2.makespan(inst);
                if s2_makespan < best.makespan {
                    best.schedule = s2;
                    best.makespan = s2_makespan;
                    best.winner = "S2";
                }
            }
        }
    }
    Ok(best)
}

/// Step 3: `S1` — project onto the two fastest machines and run the `R2`
/// FPTAS with `ε = 1`. The `Q2 → R2` projection scales times by
/// `s_1 · s_2` to stay integral: `p_{1,j} = p_j · s_2`, `p_{2,j} = p_j · s_1`.
fn schedule_s1(inst: &Instance, speeds: &[u64]) -> Result<Schedule, Alg1Error> {
    let n = inst.num_jobs();
    let (s1, s2) = (speeds[0], speeds[1]);
    let times: Vec<Vec<u64>> = vec![
        (0..n)
            .map(|j| inst.processing(j as u32).checked_mul(s2).expect("overflow"))
            .collect(),
        (0..n)
            .map(|j| inst.processing(j as u32).checked_mul(s1).expect("overflow"))
            .collect(),
    ];
    let r2 = Instance::unrelated(times, inst.graph().clone()).expect("validated projection");
    let schedule = r2_fptas(&r2, 1.0).map_err(|e| match e {
        OracleError::NotBipartite => Alg1Error::NotBipartite,
        _ => unreachable!("projection is a valid R2 instance"),
    })?;
    debug_assert!(schedule.validate(inst).is_ok());
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::brute_force;
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::{JobSizes, SpeedProfile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tiny_instances_are_solved_exactly() {
        // Σp = 4 -> brute force path.
        let g = Graph::from_edges(3, &[(0, 1)]);
        let inst = Instance::uniform(vec![2, 1, 1], vec![2, 1, 1], g).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert_eq!(r.winner, "brute");
        let opt = brute_force(&inst).unwrap();
        assert_eq!(r.makespan, opt.makespan);
    }

    #[test]
    fn single_machine_cases() {
        let inst = Instance::uniform(vec![3], vec![6, 3], Graph::empty(2)).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert_eq!(r.makespan, Rat::integer(3));
        let bad = Instance::uniform(vec![3], vec![6, 3], Graph::from_edges(2, &[(0, 1)])).unwrap();
        assert_eq!(alg1_sqrt_approx(&bad).unwrap_err(), Alg1Error::Infeasible);
    }

    #[test]
    fn rejects_non_bipartite_and_unrelated() {
        let odd = Instance::identical(3, vec![2; 5], Graph::cycle(5)).unwrap();
        assert_eq!(alg1_sqrt_approx(&odd).unwrap_err(), Alg1Error::NotBipartite);
        let r = Instance::unrelated(vec![vec![1], vec![1]], Graph::empty(1)).unwrap();
        assert_eq!(
            alg1_sqrt_approx(&r).unwrap_err(),
            Alg1Error::WrongEnvironment
        );
    }

    #[test]
    fn theorem9_guarantee_versus_exact_randomized() {
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..25 {
            let n = rng.gen_range(3..=9);
            let m = rng.gen_range(2..=4);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng);
            let profile = match trial % 3 {
                0 => SpeedProfile::Equal,
                1 => SpeedProfile::Geometric { ratio: 2 },
                _ => SpeedProfile::OneFast { factor: 6 },
            };
            let inst = Instance::uniform(profile.speeds(m), p, g).unwrap();
            let r = alg1_sqrt_approx(&inst).unwrap();
            assert!(r.schedule.validate(&inst).is_ok());
            let opt = brute_force(&inst).unwrap();
            let ratio = r.makespan.ratio_to(&opt.makespan);
            let bound = (inst.total_processing() as f64).sqrt();
            assert!(
                ratio <= bound + 1e-9,
                "ratio {ratio} > √Σp = {bound} on {} (trial {trial})",
                inst.describe()
            );
        }
    }

    #[test]
    fn a_big_star_center_still_gets_the_optimum() {
        // The center (p = 4) is the one big job, so I = {center} and the
        // carving time C** = 6 exceeds OPT = 4: the leaves go on M_1 and
        // the center on M_2. S1 finds that schedule.
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let inst = Instance::uniform(vec![10, 1, 1], vec![4, 3, 3, 3, 3], star).unwrap();
        assert_eq!(brute_force(&inst).unwrap().makespan, Rat::integer(4));
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert!(r.schedule.validate(&inst).is_ok());
        assert_eq!(r.makespan, Rat::integer(4));
    }

    #[test]
    fn unit_jobs_many_slow_machines() {
        // The shape Theorem 8 exploits: one fast machine + slow tail.
        let g = Graph::complete_bipartite(4, 4);
        let inst = Instance::uniform(vec![10, 1, 1, 1, 1], vec![1; 8], g).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert!(r.schedule.validate(&inst).is_ok());
        let opt = brute_force(&inst).unwrap();
        let bound = (8f64).sqrt();
        assert!(r.makespan.ratio_to(&opt.makespan) <= bound + 1e-9);
    }

    #[test]
    fn s2_wins_when_spreading_helps() {
        // Many independent equal jobs on equal speeds: spreading beats
        // squeezing onto two machines. Note Algorithm 1 still reserves
        // M_2..M_k for J ∖ I (empty here), so with I = everything the jobs
        // land on M_1 ∪ M_4..M_6 — 4 of the 6 machines: makespan 12 versus
        // S1's 24 (and an absolute optimum of 8).
        let inst = Instance::identical(6, vec![2; 24], Graph::empty(24)).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert!(r.schedule.validate(&inst).is_ok());
        assert_eq!(r.makespan, Rat::integer(12), "got {}", r.makespan);
        assert_eq!(r.winner, "S2");
        // Within the Theorem 9 budget: 12 / 8 = 1.5 <= sqrt(48).
        assert!(r.makespan.ratio_to(&Rat::integer(8)) <= (48f64).sqrt());
    }

    #[test]
    fn empty_jobs() {
        let inst = Instance::uniform(vec![2, 1], vec![], Graph::empty(0)).unwrap();
        let r = alg1_sqrt_approx(&inst).unwrap();
        assert_eq!(r.makespan, Rat::ZERO);
    }
}
