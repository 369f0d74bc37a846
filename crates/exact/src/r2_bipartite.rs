//! Exact pseudo-polynomial solver for `R2 | G = bipartite | C_max`.
//!
//! The two-machine structure is the same as in the `Q2` oracle — per
//! connected component the 2-coloring is fixed up to a swap — but on
//! unrelated machines the two orientations contribute *different* sums:
//! either `(Σ_{j∈L} p_{1,j}, Σ_{j∈R} p_{2,j})` or the crossed pair. The DP
//! tracks, for every achievable load on `M_1`, the minimum possible load on
//! `M_2`, and minimizes `max(load_1, load_2)` at the end. This is the
//! ground-truth oracle for Algorithm 4's 2-approximation and Algorithm 5's
//! FPTAS experiments.
//!
//! Memory is two rolling `u64` tables over the `M_1` row mass plus one
//! bit per (component, reachable load): whether the first orientation
//! realises the optimum there. The bits are all the backward
//! reconstruction reads, so no per-component table copy is kept.

use crate::bitset::BitSet;
use crate::bruteforce::Optimum;
use crate::q2_bipartite::OracleError;
use bisched_graph::{bipartition, Components, Side};
use bisched_model::{Instance, MachineEnvironment, Rat, Schedule};

const UNREACH: u64 = u64::MAX;

/// Exact optimum for `R2 | G = bipartite | C_max`.
pub fn r2_bipartite_exact(inst: &Instance) -> Result<Optimum, OracleError> {
    if inst.num_machines() != 2 {
        return Err(OracleError::NotTwoMachines {
            got: inst.num_machines(),
        });
    }
    let times = match inst.env() {
        MachineEnvironment::Unrelated { times } => times,
        env => {
            return Err(OracleError::WrongEnvironment { got: env.alpha() });
        }
    };
    let g = inst.graph();
    let bp = bipartition(g).map_err(|_| OracleError::NotBipartite)?;
    let comps = Components::of(g);

    // Per component: the two (load1, load2) contributions.
    // Option A = left part on M1, right part on M2; option B = crossed.
    struct Choice {
        a: (u64, u64),
        b: (u64, u64),
    }
    let choices: Vec<Choice> = comps
        .iter()
        .map(|members| {
            let (mut l1, mut l2, mut r1, mut r2) = (0u64, 0u64, 0u64, 0u64);
            for &v in members {
                let p1 = times[0][v as usize];
                let p2 = times[1][v as usize];
                match bp.side(v) {
                    Side::Left => {
                        l1 += p1;
                        l2 += p2;
                    }
                    Side::Right => {
                        r1 += p1;
                        r2 += p2;
                    }
                }
            }
            Choice {
                a: (l1, r2),
                b: (r1, l2),
            }
        })
        .collect();

    let cap1: usize = times[0].iter().sum::<u64>() as usize + 1;
    // prev[x] = minimum load2 achievable with load1 = x after the first k
    // components (UNREACH if impossible); next is layer k + 1. Two rolling
    // tables instead of one per layer: the reconstruction only needs,
    // per layer and load, whether option A realises next[x] — one bit.
    let mut prev = vec![UNREACH; cap1];
    let mut next = vec![UNREACH; cap1];
    prev[0] = 0;
    // Loads above `reach` are unreachable so far, in both tables.
    let mut reach = 0usize;
    let mut take_a: Vec<BitSet> = Vec::with_capacity(choices.len());
    for ch in &choices {
        reach += ch.a.0.max(ch.b.0) as usize;
        let mut bits = BitSet::new(reach + 1);
        let via = |x: usize, (d1, d2): (u64, u64)| {
            x.checked_sub(d1 as usize)
                .map_or(UNREACH, |px| prev[px].saturating_add(d2))
        };
        for (x, slot) in next[..=reach].iter_mut().enumerate() {
            let (a, b) = (via(x, ch.a), via(x, ch.b));
            *slot = a.min(b);
            // The reconstruction's test: prev[x − a.0] + a.1 == next[x].
            if a != UNREACH && a <= b {
                bits.set(x);
            }
        }
        take_a.push(bits);
        std::mem::swap(&mut prev, &mut next);
    }

    let (best_x, &best_l2) = prev[..=reach]
        .iter()
        .enumerate()
        .filter(|(_, &l2)| l2 != UNREACH)
        .min_by_key(|&(x, &l2)| (x as u64).max(l2))
        .expect("the all-A assignment is always achievable");
    let makespan = Rat::integer((best_x as u64).max(best_l2));

    // Reconstruct component orientations backwards.
    let mut assignment = vec![0u32; inst.num_jobs()];
    let mut x = best_x;
    for (k, ch) in choices.iter().enumerate().rev() {
        let (d, m_left, m_right) = if take_a[k].get(x) {
            (ch.a, 0u32, 1u32)
        } else {
            (ch.b, 1u32, 0u32)
        };
        for &v in comps.members(k as u32) {
            assignment[v as usize] = match bp.side(v) {
                Side::Left => m_left,
                Side::Right => m_right,
            };
        }
        x -= d.0 as usize;
    }
    let schedule = Schedule::new(assignment);
    debug_assert!(schedule.validate(inst).is_ok());
    debug_assert_eq!(schedule.makespan(inst), makespan);
    Ok(Optimum { schedule, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force;
    use bisched_graph::{gilbert_bipartite, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_graph_min_assignment() {
        // Every job cheap on exactly one machine.
        let inst =
            Instance::unrelated(vec![vec![1, 9, 1], vec![9, 1, 9]], Graph::empty(3)).unwrap();
        let opt = r2_bipartite_exact(&inst).unwrap();
        assert_eq!(opt.makespan, Rat::integer(2));
    }

    #[test]
    fn crossed_orientation_can_win() {
        // Component {0-1}: A = (p10, p21) = (10, 10); B = (p11, p20) = (1, 1).
        let inst = Instance::unrelated(
            vec![vec![10, 1], vec![1, 10]],
            Graph::from_edges(2, &[(0, 1)]),
        )
        .unwrap();
        let opt = r2_bipartite_exact(&inst).unwrap();
        assert_eq!(opt.makespan, Rat::integer(1));
        // Job 0 on machine 1, job 1 on machine 0.
        assert_eq!(opt.schedule.machine_of(0), 1);
        assert_eq!(opt.schedule.machine_of(1), 0);
    }

    #[test]
    fn matches_bruteforce_randomized() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let n: usize = rng.gen_range(2..=9);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.5, &mut rng);
            let times: Vec<Vec<u64>> = (0..2)
                .map(|_| (0..n).map(|_| rng.gen_range(1..=12)).collect())
                .collect();
            let inst = Instance::unrelated(times, g).unwrap();
            let fast = r2_bipartite_exact(&inst).unwrap();
            let slow = brute_force(&inst).unwrap();
            assert_eq!(fast.makespan, slow.makespan, "n={n}");
            assert!(fast.schedule.validate(&inst).is_ok());
        }
    }

    #[test]
    fn identical_components_with_tied_options_match_bruteforce() {
        // Many copies of one edge: every load is reached along many paths,
        // so the reconstruction's take-A bits must agree with the table
        // they were taken from. With `tie` both orientations cost the same
        // `(load1, load2)`; otherwise they trade off, (2, 5) against
        // (6, 3), and mixed choices tie at equal loads.
        for (tie, copies) in [(true, 5usize), (false, 5), (true, 3), (false, 4)] {
            let edges: Vec<(u32, u32)> = (0..copies as u32).map(|c| (2 * c, 2 * c + 1)).collect();
            let g = Graph::from_edges(2 * copies, &edges);
            let (left, right) = if tie {
                ([3, 4], [3, 4])
            } else {
                ([2, 3], [6, 5])
            };
            let row =
                |i: usize| -> Vec<u64> { (0..copies).flat_map(|_| [left[i], right[i]]).collect() };
            let inst = Instance::unrelated(vec![row(0), row(1)], g).unwrap();
            let fast = r2_bipartite_exact(&inst).unwrap();
            let slow = brute_force(&inst).unwrap();
            assert_eq!(fast.makespan, slow.makespan, "tie={tie} copies={copies}");
            assert!(fast.schedule.validate(&inst).is_ok());
            assert_eq!(fast.schedule.makespan(&inst), fast.makespan);
        }
    }

    #[test]
    fn rejects_wrong_shapes() {
        let q = Instance::uniform(vec![1, 1], vec![1], Graph::empty(1)).unwrap();
        assert_eq!(
            r2_bipartite_exact(&q).unwrap_err(),
            OracleError::WrongEnvironment { got: "Q" }
        );
        let r3 = Instance::unrelated(vec![vec![1], vec![1], vec![1]], Graph::empty(1)).unwrap();
        assert_eq!(
            r2_bipartite_exact(&r3).unwrap_err(),
            OracleError::NotTwoMachines { got: 3 }
        );
        let odd = Instance::unrelated(vec![vec![1; 5], vec![1; 5]], Graph::cycle(5)).unwrap();
        assert_eq!(
            r2_bipartite_exact(&odd).unwrap_err(),
            OracleError::NotBipartite
        );
    }

    #[test]
    fn multi_component_interplay() {
        // Two components whose best orientations compete for machine 1.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let inst = Instance::unrelated(vec![vec![5, 9, 5, 9], vec![9, 5, 9, 5]], g).unwrap();
        // Best: component {0,1} as (0->M1, 1->M2): loads (5, 5);
        // component {2,3} likewise: total (10, 10) -> makespan 10.
        let opt = r2_bipartite_exact(&inst).unwrap();
        let bf = brute_force(&inst).unwrap();
        assert_eq!(opt.makespan, bf.makespan);
        assert_eq!(opt.makespan, Rat::integer(10));
    }
}
