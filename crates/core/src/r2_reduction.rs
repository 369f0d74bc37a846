//! Algorithm 3: reduction of `R2 | G = bipartite | C_max` to `R2 || C_max`.
//!
//! Per connected component the 2-coloring is unique up to a swap, so the
//! only decision is the component's *orientation*. Writing
//! `p*_{i,l} = Σ_{j ∈ V_l^k} p_{i,j}` for the aggregate time of part `l`
//! on machine `i`:
//!
//! * if one orientation is no worse on **both** machines, it is fixed
//!   outright and contributes only base loads `(P'_k, P''_k)`;
//! * otherwise the minima `min(p*_{1,1}, p*_{1,2})` and
//!   `min(p*_{2,1}, p*_{2,2})` are incurred in *every* schedule, and the
//!   orientation choice collapses to a single *difference job* `J_{n+k}`
//!   with `p_{i,n+k} = max − min` on each machine.
//!
//! The base loads plus difference jobs form an ordinary `R2 || C_max`
//! instance whose schedules are in makespan-preserving bijection with the
//! original ones (Theorem 21's proof); [`ReducedR2::reconstruct`] maps
//! back.

use bisched_graph::{bipartition, Components, Side};
use bisched_model::{Instance, MachineEnvironment, Schedule};

use bisched_exact::OracleError;

/// How a component's orientation is decided after reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Orientation fixed by dominance: the left part goes to this machine.
    Fixed {
        /// Machine (0 or 1) receiving the component's left part.
        left_on: u32,
    },
    /// Orientation decided by the difference job: if the reduced job lands
    /// on `M_1` the left part goes to `left_on_if_m1`, otherwise to the
    /// other machine.
    Choice {
        /// Machine receiving the left part when the difference job is on
        /// machine 0.
        left_on_if_m1: u32,
    },
}

/// Output of Algorithm 3.
#[derive(Clone, Debug)]
pub struct ReducedR2 {
    /// `2 × c` times of the difference jobs (zeros for fixed components).
    pub times: [Vec<u64>; 2],
    /// `P'`: per-component unavoidable load on `M_1`.
    pub p_prime: Vec<u64>,
    /// `P''`: per-component unavoidable load on `M_2`.
    pub p_pprime: Vec<u64>,
    /// Orientation decoding per component.
    pub orientations: Vec<Orientation>,
    /// Component structure (for reconstruction).
    components: Components,
    /// Per-vertex side in the bipartition.
    sides: Vec<Side>,
}

impl ReducedR2 {
    /// Number of components / reduced jobs.
    pub fn num_components(&self) -> usize {
        self.p_prime.len()
    }

    /// Total unavoidable load on `M_1` (`Σ_k P'_k`).
    pub fn base1(&self) -> u64 {
        self.p_prime.iter().sum()
    }

    /// Total unavoidable load on `M_2` (`Σ_k P''_k`).
    pub fn base2(&self) -> u64 {
        self.p_pprime.iter().sum()
    }

    /// Maps an assignment of the `c` difference jobs back to a schedule of
    /// the original jobs.
    pub fn reconstruct(&self, reduced_assignment: &[u32]) -> Schedule {
        assert_eq!(reduced_assignment.len(), self.num_components());
        let n = self.sides.len();
        let mut assignment = vec![0u32; n];
        for (k, orient) in self.orientations.iter().enumerate() {
            let left_on = match *orient {
                Orientation::Fixed { left_on } => left_on,
                Orientation::Choice { left_on_if_m1 } => {
                    if reduced_assignment[k] == 0 {
                        left_on_if_m1
                    } else {
                        1 - left_on_if_m1
                    }
                }
            };
            for &v in self.components.members(k as u32) {
                assignment[v as usize] = match self.sides[v as usize] {
                    Side::Left => left_on,
                    Side::Right => 1 - left_on,
                };
            }
        }
        Schedule::new(assignment)
    }
}

/// Algorithm 3. Errors if the instance is not `R2` or `G` not bipartite.
pub fn reduce_r2(inst: &Instance) -> Result<ReducedR2, OracleError> {
    if inst.num_machines() != 2 {
        return Err(OracleError::NotTwoMachines {
            got: inst.num_machines(),
        });
    }
    let times = match inst.env() {
        MachineEnvironment::Unrelated { times } => times,
        env => return Err(OracleError::WrongEnvironment { got: env.alpha() }),
    };
    let g = inst.graph();
    let bp = bipartition(g).map_err(|_| OracleError::NotBipartite)?;
    let components = Components::of(g);

    let c = components.count();
    let mut red_times = [vec![0u64; c], vec![0u64; c]];
    let mut p_prime = vec![0u64; c];
    let mut p_pprime = vec![0u64; c];
    let mut orientations = Vec::with_capacity(c);

    for (k, members) in components.iter().enumerate() {
        // p*_{i,l}: aggregate time of part l on machine i.
        let (mut p11, mut p12, mut p21, mut p22) = (0u64, 0u64, 0u64, 0u64);
        for &v in members {
            let (t1, t2) = (times[0][v as usize], times[1][v as usize]);
            match bp.side(v) {
                Side::Left => {
                    p11 += t1;
                    p21 += t2;
                }
                Side::Right => {
                    p12 += t1;
                    p22 += t2;
                }
            }
        }
        if p11 <= p12 && p22 <= p21 {
            // Left on M1, right on M2 dominates.
            p_prime[k] = p11;
            p_pprime[k] = p22;
            orientations.push(Orientation::Fixed { left_on: 0 });
        } else if p12 <= p11 && p21 <= p22 {
            // Crossed orientation dominates.
            p_prime[k] = p12;
            p_pprime[k] = p21;
            orientations.push(Orientation::Fixed { left_on: 1 });
        } else {
            // Genuine trade-off; maxima are aligned (see module docs).
            red_times[0][k] = p11.max(p12) - p11.min(p12);
            red_times[1][k] = p21.max(p22) - p21.min(p22);
            p_prime[k] = p11.min(p12);
            p_pprime[k] = p21.min(p22);
            // Difference job on M1 realizes the orientation whose M1 cost
            // is the max: left if p11 > p12, right otherwise.
            let left_on_if_m1 = if p11 > p12 { 0 } else { 1 };
            orientations.push(Orientation::Choice { left_on_if_m1 });
        }
    }
    Ok(ReducedR2 {
        times: red_times,
        p_prime,
        p_pprime,
        orientations,
        components,
        sides: bp.sides().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::{gilbert_bipartite, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn r2(times: Vec<Vec<u64>>, g: Graph) -> Instance {
        Instance::unrelated(times, g).unwrap()
    }

    #[test]
    fn dominated_component_is_fixed() {
        // Edge {0,1}: left {0}, right {1}. Orientation A costs (1, 1);
        // crossed costs (9, 9). A dominates.
        let inst = r2(
            vec![vec![1, 9], vec![9, 1]],
            Graph::from_edges(2, &[(0, 1)]),
        );
        let red = reduce_r2(&inst).unwrap();
        assert_eq!(red.orientations[0], Orientation::Fixed { left_on: 0 });
        assert_eq!(red.times[0][0], 0);
        assert_eq!(red.times[1][0], 0);
        assert_eq!(red.p_prime[0], 1);
        assert_eq!(red.p_pprime[0], 1);
    }

    #[test]
    fn crossing_component_gets_difference_job() {
        // Left {0}, right {1}: p*11=10, p*12=2, p*21=8, p*22=3.
        // Neither orientation dominates: A costs (10, 3), B costs (2, 8).
        let inst = r2(
            vec![vec![10, 2], vec![8, 3]],
            Graph::from_edges(2, &[(0, 1)]),
        );
        let red = reduce_r2(&inst).unwrap();
        assert_eq!(red.times[0][0], 8); // 10 - 2
        assert_eq!(red.times[1][0], 5); // 8 - 3
        assert_eq!(red.p_prime[0], 2);
        assert_eq!(red.p_pprime[0], 3);
        assert_eq!(
            red.orientations[0],
            Orientation::Choice { left_on_if_m1: 0 }
        );
    }

    #[test]
    fn one_sided_dominance_is_fixed_crosswise() {
        // B dominates: crossed orientation (2, 3) beats (10, 8) pointwise.
        let inst = r2(
            vec![vec![10, 2], vec![3, 8]],
            Graph::from_edges(2, &[(0, 1)]),
        );
        let red = reduce_r2(&inst).unwrap();
        assert_eq!(red.orientations[0], Orientation::Fixed { left_on: 1 });
        assert_eq!(red.p_prime[0], 2);
        assert_eq!(red.p_pprime[0], 3);
    }

    #[test]
    fn isolated_vertex_reduces_to_itself() {
        let inst = r2(vec![vec![4], vec![7]], Graph::empty(1));
        let red = reduce_r2(&inst).unwrap();
        assert_eq!(red.times[0][0], 4);
        assert_eq!(red.times[1][0], 7);
        assert_eq!(red.p_prime[0], 0);
        assert_eq!(red.p_pprime[0], 0);
    }

    #[test]
    fn reconstruction_preserves_makespan_bijection() {
        // Every assignment of reduced jobs must reconstruct to a feasible
        // schedule with makespan = base + reduced loads.
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..25 {
            let n: usize = rng.gen_range(2..=10);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let times: Vec<Vec<u64>> = (0..2)
                .map(|_| (0..n).map(|_| rng.gen_range(1..=20)).collect())
                .collect();
            let inst = r2(times.clone(), g);
            let red = reduce_r2(&inst).unwrap();
            let c = red.num_components();
            // Try a handful of reduced assignments.
            for code in 0..(1u32 << c.min(6)) {
                let red_assign: Vec<u32> = (0..c).map(|k| code >> k & 1).collect();
                let s = red.reconstruct(&red_assign);
                assert!(s.validate(&inst).is_ok());
                // Loads decompose: base + chosen difference jobs.
                let mut l1 = red.base1();
                let mut l2 = red.base2();
                for (k, &a) in red_assign.iter().enumerate() {
                    if a == 0 {
                        l1 += red.times[0][k];
                    } else {
                        l2 += red.times[1][k];
                    }
                }
                assert_eq!(s.loads(&inst), vec![l1, l2], "code={code}");
            }
        }
    }

    #[test]
    fn rejects_non_r2() {
        let q = Instance::uniform(vec![1, 1], vec![1], Graph::empty(1)).unwrap();
        assert!(reduce_r2(&q).is_err());
        let r3 = r2_or_3(3);
        assert!(reduce_r2(&r3).is_err());
    }

    fn r2_or_3(m: usize) -> Instance {
        Instance::unrelated(vec![vec![1]; m], Graph::empty(1)).unwrap()
    }

    #[test]
    fn rejects_odd_cycle() {
        let inst = r2(vec![vec![1; 5], vec![1; 5]], Graph::cycle(5));
        assert_eq!(reduce_r2(&inst).unwrap_err(), OracleError::NotBipartite);
    }
}
