//! Exact polynomial algorithm for `Q | G = complete bipartite, p_j = 1 |
//! C_max` under unary encoding — the related-work result \[24\] (Pikies,
//! Turowski, Kubale) that the paper's Section 2 builds on.
//!
//! With `G = K_{n_A,n_B}` every machine serves jobs from exactly one side,
//! so a schedule is a *bipartition of the machines* plus per-side counts.
//! The optimal makespan is the least event time `T = c/s_i` at which the
//! floored capacities `⌊s_i T⌋` admit a machine subset covering `n_A` whose
//! complement covers `n_B` — a subset-sum check. Binary search over the
//! `O(mN)` candidate times with an `O(mN²/64)` bitset feasibility test.
//!
//! (Under *binary* encoding the problem is NP-hard \[20\]; the unary/unit
//! restriction is exactly what \[24\] solves and what we implement.)

use crate::bitset::BitSet;
use crate::bruteforce::Optimum;
use bisched_model::{floor_capacities, Instance, MachineEnvironment, Rat, Schedule};

/// Result of the feasibility check: which machines serve side A.
fn feasible_split(caps: &[u64], n_a: usize, n_b: usize) -> Option<Vec<bool>> {
    let total_needed = n_a + n_b;
    // Clamp capacities: more than all jobs is never useful, and clamping
    // keeps the bitset small. sum(min(c_i, N)) >= min(sum c_i, N) per
    // subset, so feasibility is unchanged.
    let clamped: Vec<usize> = caps
        .iter()
        .map(|&c| (c as usize).min(total_needed))
        .collect();
    let total: usize = clamped.iter().sum();
    if total < total_needed {
        return None;
    }
    // Subset sums of clamped capacities, with per-machine layers kept for
    // reconstruction.
    let cap_space = total + 1;
    let mut layers: Vec<BitSet> = Vec::with_capacity(clamped.len() + 1);
    let mut dp = BitSet::new(cap_space);
    dp.set(0);
    layers.push(dp.clone());
    for &c in &clamped {
        let prev = dp.clone();
        dp.or_shifted(&prev, c);
        layers.push(dp.clone());
    }
    // Need a reachable x with x >= n_a and total - x >= n_b.
    let hi = total - n_b;
    let x = (n_a..=hi).find(|&x| dp.get(x))?;
    // Walk back: machine i is in the A-side subset iff its capacity was
    // "taken" on the path to x.
    let mut in_a = vec![false; clamped.len()];
    let mut rest = x;
    for (i, &c) in clamped.iter().enumerate().rev() {
        let without = layers[i].get(rest);
        if !without {
            debug_assert!(rest >= c && layers[i].get(rest - c));
            in_a[i] = true;
            rest -= c;
        }
    }
    debug_assert_eq!(rest, 0);
    Some(in_a)
}

/// Exact optimum for `Q | G = complete bipartite, p_j = 1 | C_max`.
///
/// `inst` must be a unit-job `P`/`Q` instance whose graph is a complete
/// bipartite `K_{n_A,n_B}` (verified; isolated-vertex-free sides). Use
/// `n_a = 0` or `n_b = 0` for the degenerate empty-side case.
pub fn q_complete_bipartite_unit(inst: &Instance) -> Result<Optimum, CompleteBipartiteError> {
    if matches!(inst.env(), MachineEnvironment::Unrelated { .. }) {
        return Err(CompleteBipartiteError::WrongEnvironment);
    }
    if !inst.is_unit() {
        return Err(CompleteBipartiteError::NotUnitJobs);
    }
    let g = inst.graph();
    let n = g.num_vertices();
    // Recognize K_{a,b}: 2-color, then check |E| = a*b.
    let bp = bisched_graph::bipartition(g).map_err(|_| CompleteBipartiteError::NotBipartite)?;
    let side_a = bp.part(bisched_graph::Side::Left);
    let side_b = bp.part(bisched_graph::Side::Right);
    let (n_a, n_b) = (side_a.len(), side_b.len());
    if n_a > 0 && n_b > 0 && g.num_edges() != n_a * n_b {
        return Err(CompleteBipartiteError::NotCompleteBipartite {
            edges: g.num_edges(),
            expected: n_a * n_b,
        });
    }
    let speeds = inst.speeds();
    let m = speeds.len();

    // Degenerate: one empty side — everything is mutually compatible.
    if n_a == 0 || n_b == 0 {
        let t = bisched_model::min_time_to_cover(&speeds, n as u64);
        let caps = floor_capacities(&speeds, &t);
        let schedule = fill(&side_a, &side_b, &vec![true; m], &caps, n, m);
        return Ok(Optimum {
            makespan: schedule.makespan(inst),
            schedule,
        });
    }
    if m < 2 {
        return Err(CompleteBipartiteError::Infeasible);
    }

    // Candidate times: every c/s_i for c in 1..=n; the optimum is the
    // least feasible one. Binary search over the sorted candidate set.
    let mut candidates: Vec<Rat> = Vec::with_capacity(m * n);
    for &s in &speeds {
        for c in 1..=n as u64 {
            candidates.push(Rat::new(c, s));
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    let feasible_at =
        |t: &Rat| -> Option<Vec<bool>> { feasible_split(&floor_capacities(&speeds, t), n_a, n_b) };
    // Invariant: feasibility is monotone in t.
    let mut lo = 0usize;
    let mut hi = candidates.len() - 1;
    if feasible_at(&candidates[hi]).is_none() {
        return Err(CompleteBipartiteError::Infeasible);
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible_at(&candidates[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = candidates[lo];
    let in_a = feasible_at(&t).expect("binary search landed on feasible");
    let caps = floor_capacities(&speeds, &t);
    let schedule = fill(&side_a, &side_b, &in_a, &caps, n, m);
    debug_assert!(schedule.validate(inst).is_ok());
    let makespan = schedule.makespan(inst);
    debug_assert!(makespan <= t);
    Ok(Optimum { schedule, makespan })
}

/// Fills side-A jobs onto the `in_a` machines (by capacity, fastest
/// first) and side-B jobs onto the rest.
fn fill(
    side_a: &[u32],
    side_b: &[u32],
    in_a: &[bool],
    caps: &[u64],
    n: usize,
    m: usize,
) -> Schedule {
    let mut assignment = vec![u32::MAX; n];
    for (side, jobs) in [(true, side_a), (false, side_b)] {
        let mut queue = jobs.iter().copied();
        'machines: for i in 0..m {
            if in_a[i] != side {
                continue;
            }
            for _ in 0..caps[i] {
                match queue.next() {
                    Some(j) => assignment[j as usize] = i as u32,
                    None => break 'machines,
                }
            }
        }
        // All jobs must have been placed (caps cover the side).
        debug_assert!(queue.next().is_none(), "capacity accounting broke");
    }
    Schedule::new(assignment)
}

/// Errors of the complete-bipartite solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompleteBipartiteError {
    /// Unrelated machines are out of scope (\[24\] shows `R` is hopeless).
    WrongEnvironment,
    /// The algorithm is for unit jobs (\[20\]: NP-hard otherwise).
    NotUnitJobs,
    /// The graph has an odd cycle.
    NotBipartite,
    /// Bipartite but not complete bipartite.
    NotCompleteBipartite {
        /// Edges found.
        edges: usize,
        /// `n_A * n_B`.
        expected: usize,
    },
    /// No feasible schedule (e.g. one machine, both sides non-empty).
    Infeasible,
}

impl std::fmt::Display for CompleteBipartiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompleteBipartiteError::WrongEnvironment => {
                write!(f, "solver requires identical or uniform machines")
            }
            CompleteBipartiteError::NotUnitJobs => write!(f, "solver requires unit jobs"),
            CompleteBipartiteError::NotBipartite => write!(f, "graph is not bipartite"),
            CompleteBipartiteError::NotCompleteBipartite { edges, expected } => {
                write!(f, "graph has {edges} edges, K_(a,b) needs {expected}")
            }
            CompleteBipartiteError::Infeasible => write!(f, "no feasible schedule"),
        }
    }
}

impl std::error::Error for CompleteBipartiteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::branch_and_bound;
    use bisched_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kab(a: usize, b: usize, speeds: Vec<u64>) -> Instance {
        Instance::uniform(speeds, vec![1; a + b], Graph::complete_bipartite(a, b)).unwrap()
    }

    #[test]
    fn two_machines_split_sides() {
        // K_{4,4}, speeds (2, 1): A on fast (2), B on slow (4) -> 4.
        let inst = kab(4, 4, vec![2, 1]);
        let opt = q_complete_bipartite_unit(&inst).unwrap();
        assert_eq!(opt.makespan, Rat::integer(4));
        assert!(opt.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn matches_branch_and_bound_randomized() {
        let mut rng = StdRng::seed_from_u64(131);
        for _ in 0..25 {
            let a = rng.gen_range(1..=5);
            let b = rng.gen_range(1..=5);
            let m = rng.gen_range(2..=4);
            let speeds: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let inst = kab(a, b, speeds);
            let fast = q_complete_bipartite_unit(&inst).unwrap();
            let slow = branch_and_bound(&inst, 10_000_000);
            assert!(slow.complete);
            assert_eq!(
                fast.makespan,
                slow.optimum.unwrap().makespan,
                "K_({a},{b}) on {:?}",
                inst.speeds()
            );
        }
    }

    #[test]
    fn empty_side_degenerates_to_q_cmax() {
        // No edges at all: pure Q||C_max with unit jobs.
        let inst = Instance::uniform(vec![3, 1], vec![1; 8], Graph::empty(8)).unwrap();
        let opt = q_complete_bipartite_unit(&inst).unwrap();
        // min T with floor(3T)+floor(T) >= 8 -> T = 2.
        assert_eq!(opt.makespan, Rat::integer(2));
    }

    #[test]
    fn one_machine_two_sides_infeasible() {
        let inst = kab(2, 2, vec![5]);
        assert_eq!(
            q_complete_bipartite_unit(&inst).unwrap_err(),
            CompleteBipartiteError::Infeasible
        );
    }

    #[test]
    fn rejects_wrong_shapes() {
        // Not complete bipartite: a path.
        let inst = Instance::uniform(vec![2, 1], vec![1; 4], Graph::path(4)).unwrap();
        assert!(matches!(
            q_complete_bipartite_unit(&inst).unwrap_err(),
            CompleteBipartiteError::NotCompleteBipartite { .. }
        ));
        // Weighted jobs.
        let w = Instance::uniform(vec![2, 1], vec![2, 1], Graph::complete_bipartite(1, 1)).unwrap();
        assert_eq!(
            q_complete_bipartite_unit(&w).unwrap_err(),
            CompleteBipartiteError::NotUnitJobs
        );
        // Odd cycle.
        let odd = Instance::uniform(vec![2, 1, 1], vec![1; 5], Graph::cycle(5)).unwrap();
        assert_eq!(
            q_complete_bipartite_unit(&odd).unwrap_err(),
            CompleteBipartiteError::NotBipartite
        );
        // Unrelated.
        let r = Instance::unrelated(vec![vec![1], vec![1]], Graph::empty(1)).unwrap();
        assert_eq!(
            q_complete_bipartite_unit(&r).unwrap_err(),
            CompleteBipartiteError::WrongEnvironment
        );
    }

    #[test]
    fn uneven_sides_prefer_fast_machines_for_big_side() {
        // K_{9,1}, speeds (5, 1): side A (9 jobs) on the fast machine
        // (9/5), side B (1 job) on the slow one (1) -> makespan 9/5.
        let inst = kab(9, 1, vec![5, 1]);
        let opt = q_complete_bipartite_unit(&inst).unwrap();
        assert_eq!(opt.makespan, Rat::new(9, 5));
    }

    #[test]
    fn many_machines_mix_sides() {
        let mut rng = StdRng::seed_from_u64(137);
        for _ in 0..10 {
            let a = rng.gen_range(3..=8);
            let b = rng.gen_range(3..=8);
            let inst = kab(a, b, vec![4, 3, 2, 1, 1]);
            let fast = q_complete_bipartite_unit(&inst).unwrap();
            assert!(fast.schedule.validate(&inst).is_ok());
            let slow = branch_and_bound(&inst, 50_000_000);
            if slow.complete {
                assert_eq!(fast.makespan, slow.optimum.unwrap().makespan);
            }
        }
    }
}
