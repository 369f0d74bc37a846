//! Lower bounds on the optimal makespan; the paper's `C**_max`.
//!
//! Algorithm 1 (step 5) defines `C**_max` as the smallest time such that
//! *rounded-down* machine capacities cover the work: in a schedule of length
//! `T`, machine `i`'s integer load is at most `⌊s_i · T⌋`, so
//! `Σ_i ⌊s_i · T⌋ ≥ Σ p_j` is necessary — and the same with machines
//! `M_2..M_m` against `Σ_{J∖I} p_j` (no independent set larger than `I` fits
//! on `M_1`), plus `T ≥ p_max / s_1`. All three are computed exactly.
//!
//! The minimal covering time is found by the event-heap procedure described
//! in Lemma 10's proof: start from the relaxed bound `demand / Σ s_i` (at
//! which the floored capacities are short by less than `m`), then advance
//! through per-machine capacity-increment events in time order. `O(m log m)`.
//!
//! Two instance-level bounds are built from these pieces:
//! [`graph_blind_lower_bound`] is the bound a solve report serves, and
//! [`root_bound`] adds the one graph term the exact engines start from.

use crate::instance::{Instance, MachineEnvironment};
use crate::rational::Rat;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Floored capacity `⌊s · t⌋` of a machine of speed `s` in time `t`.
pub fn floor_capacity(speed: u64, t: &Rat) -> u64 {
    ((speed as u128 * t.num() as u128) / t.den() as u128) as u64
}

/// Floored capacities of all `speeds` in time `t`.
pub fn floor_capacities(speeds: &[u64], t: &Rat) -> Vec<u64> {
    speeds.iter().map(|&s| floor_capacity(s, t)).collect()
}

/// The minimal time `T` (exact) such that `Σ_i ⌊s_i · T⌋ ≥ demand`.
///
/// Panics if `speeds` is empty while `demand > 0` (no machine can ever
/// cover positive demand).
pub fn min_time_to_cover(speeds: &[u64], demand: u64) -> Rat {
    if demand == 0 {
        return Rat::ZERO;
    }
    assert!(
        !speeds.is_empty(),
        "positive demand cannot be covered by zero machines"
    );
    let total_speed: u64 = speeds.iter().sum();
    // Relaxed bound: if capacities were not floored, T0 = demand / Σs_i.
    // For T < T0, Σ⌊s_i T⌋ ≤ Σ s_i T < demand, so T* ≥ T0.
    let t0 = Rat::new(demand, total_speed);
    let mut caps = floor_capacities(speeds, &t0);
    let mut covered: u64 = caps.iter().sum();
    if covered >= demand {
        return t0;
    }
    // Event heap: next time each machine's floored capacity increments.
    // The shortfall is < m (each floor loses < 1), so at most m pops.
    let mut heap: BinaryHeap<Reverse<(Rat, u32)>> = speeds
        .iter()
        .enumerate()
        .map(|(i, &s)| Reverse((Rat::new(caps[i] + 1, s), i as u32)))
        .collect();
    loop {
        let Reverse((t, i)) = heap.pop().expect("heap refilled until demand met");
        caps[i as usize] += 1;
        covered += 1;
        if covered >= demand {
            return t;
        }
        heap.push(Reverse((
            Rat::new(caps[i as usize] + 1, speeds[i as usize]),
            i,
        )));
    }
}

/// Algorithm 1's `C**_max`: the smallest time satisfying all three of
///
/// 1. `Σ_{i∈[m]} ⌊s_i T⌋ ≥ Σ p_j`,
/// 2. `Σ_{i≥2} ⌊s_i T⌋ ≥ uncovered` (work that provably cannot ride on
///    `M_1`, i.e. `Σ p_j` minus the weight of a heaviest independent set),
/// 3. `s_1 T ≥ p_max`.
///
/// This is a valid lower bound on `C*_max` for `Q | G | C_max`.
pub fn cstar_double_max(speeds: &[u64], total: u64, uncovered: u64, pmax: u64) -> Rat {
    assert!(!speeds.is_empty());
    let t1 = min_time_to_cover(speeds, total);
    let t2 = if speeds.len() > 1 {
        min_time_to_cover(&speeds[1..], uncovered)
    } else {
        // With a single machine the uncovered work must be zero for any
        // schedule to exist; the capacity condition degenerates.
        Rat::ZERO
    };
    let t3 = Rat::new(pmax, speeds[0]);
    t1.max(t2).max(t3)
}

/// Capacity lower bound for `Q || C_max`-style instances ignoring the graph:
/// `max(min-cover time, p_max / s_1)`.
pub fn capacity_lower_bound(speeds: &[u64], processing: &[u64]) -> Rat {
    let total: u64 = processing.iter().sum();
    let pmax = processing.iter().copied().max().unwrap_or(0);
    let t1 = min_time_to_cover(speeds, total);
    let t3 = Rat::new(pmax, speeds[0]);
    t1.max(t3)
}

/// Lower bound for `R || C_max` (graph-oblivious): every job costs at least
/// its row minimum, so `C*_max ≥ max(max_j min_i p_{i,j},
/// ⌈Σ_j min_i p_{i,j} / m⌉)`.
pub fn unrelated_lower_bound(times: &[Vec<u64>]) -> u64 {
    let m = times.len();
    assert!(m > 0);
    let n = times[0].len();
    let mut total_min = 0u64;
    let mut max_min = 0u64;
    for j in 0..n {
        let mn = times.iter().map(|row| row[j]).min().expect("m >= 1");
        total_min += mn;
        max_min = max_min.max(mn);
    }
    max_min.max(total_min.div_ceil(m as u64))
}

/// The lower bound a solve report serves: on `P`/`Q` the floored cover
/// and `p_max / s_1` ([`capacity_lower_bound`]), on `R` the row-minimum
/// bound ([`unrelated_lower_bound`]). It ignores the incompatibility
/// graph, so `C*_max` may be strictly larger.
pub fn graph_blind_lower_bound(inst: &Instance) -> Rat {
    match inst.env() {
        MachineEnvironment::Unrelated { times } => Rat::integer(unrelated_lower_bound(times)),
        _ => capacity_lower_bound(&inst.speeds(), inst.processing_all()),
    }
}

/// The bound branch and bound and CP start from:
/// [`graph_blind_lower_bound`] joined with the edge-pair bound. Two
/// adjacent jobs run on two distinct machines, at best the two fastest,
/// so on `Q` no schedule ends before `(p_u + p_v) / (s_1 + s_2)` for any
/// edge `uv`. On `P` that is at most `p_max`, and on `R` the row-minimum
/// bound stands alone.
pub fn root_bound(inst: &Instance) -> Rat {
    let bound = graph_blind_lower_bound(inst);
    let pair_speed = match inst.env() {
        MachineEnvironment::Uniform { speeds } if speeds.len() >= 2 => speeds[0] + speeds[1],
        _ => return bound,
    };
    let p = inst.processing_all();
    let heaviest_pair = inst
        .graph()
        .edges()
        .map(|(u, v)| p[u as usize] + p[v as usize])
        .max()
        .unwrap_or(0);
    bound.max(Rat::new(heaviest_pair, pair_speed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::Graph;

    /// Oracle: linear scan over candidate times `c / s_i`.
    fn min_cover_oracle(speeds: &[u64], demand: u64) -> Rat {
        let mut candidates: Vec<Rat> = Vec::new();
        for &s in speeds {
            for c in 1..=demand {
                candidates.push(Rat::new(c, s));
            }
        }
        candidates.sort();
        for t in candidates {
            let total: u64 = floor_capacities(speeds, &t).iter().sum();
            if total >= demand {
                return t;
            }
        }
        unreachable!("demand {demand} must be coverable")
    }

    #[test]
    fn floor_capacity_basics() {
        assert_eq!(floor_capacity(3, &Rat::new(7, 2)), 10); // 10.5 -> 10
        assert_eq!(floor_capacity(1, &Rat::integer(4)), 4);
        assert_eq!(floor_capacity(5, &Rat::ZERO), 0);
    }

    #[test]
    fn single_machine_cover() {
        // speed 2, demand 7 -> T = 7/2
        assert_eq!(min_time_to_cover(&[2], 7), Rat::new(7, 2));
        // speed 3, demand 3 -> T = 1
        assert_eq!(min_time_to_cover(&[3], 3), Rat::integer(1));
    }

    #[test]
    fn equal_speed_machines() {
        // 3 unit-speed machines, demand 7: at T = 3, caps (3,3,3) = 9 >= 7;
        // at T = 7/3, caps (2,2,2) = 6 < 7. Minimal integer-step event: 3.
        assert_eq!(min_time_to_cover(&[1, 1, 1], 7), Rat::integer(3));
    }

    #[test]
    fn mixed_speeds_match_oracle() {
        let cases: Vec<(Vec<u64>, u64)> = vec![
            (vec![2, 1], 5),
            (vec![3, 2, 1], 11),
            (vec![5, 1, 1], 9),
            (vec![7, 3], 1),
            (vec![4], 13),
            (vec![2, 2, 2, 2], 9),
            (vec![49, 5, 1], 20),
        ];
        for (speeds, demand) in cases {
            assert_eq!(
                min_time_to_cover(&speeds, demand),
                min_cover_oracle(&speeds, demand),
                "speeds={speeds:?}, demand={demand}"
            );
        }
    }

    #[test]
    fn zero_demand_is_free() {
        assert_eq!(min_time_to_cover(&[3, 1], 0), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero machines")]
    fn no_machines_positive_demand_panics() {
        min_time_to_cover(&[], 1);
    }

    #[test]
    fn cover_time_is_tight() {
        // Property: at T* the demand is covered; strictly before the last
        // event it is not. Verify via a slightly smaller rational.
        let speeds = [3u64, 2, 2, 1];
        for demand in 1..40u64 {
            let t = min_time_to_cover(&speeds, demand);
            let total: u64 = floor_capacities(&speeds, &t).iter().sum();
            assert!(total >= demand);
            // t - epsilon: scale num/den to make room for subtracting 1.
            let eps_smaller = Rat::new(t.num() * 1000 - 1, t.den() * 1000);
            let total_before: u64 = floor_capacities(&speeds, &eps_smaller).iter().sum();
            assert!(
                total_before < demand,
                "T={t} not minimal for demand {demand}: {total_before} already covered"
            );
        }
    }

    #[test]
    fn cstar_combines_three_conditions() {
        // speeds (4, 1); total 12, uncovered 3, pmax 8.
        // cond1: min T with floor(4T)+floor(T) >= 12 -> around 12/5
        // cond2: floor(T) >= 3 -> T >= 3
        // cond3: T >= 8/4 = 2
        let t = cstar_double_max(&[4, 1], 12, 3, 8);
        assert_eq!(t, Rat::integer(3));
        // Make pmax dominate.
        let t2 = cstar_double_max(&[4, 1], 12, 3, 40);
        assert_eq!(t2, Rat::integer(10));
    }

    #[test]
    fn cstar_single_machine() {
        let t = cstar_double_max(&[2], 10, 0, 6);
        assert_eq!(t, Rat::integer(5));
    }

    #[test]
    fn capacity_lb_examples() {
        // speeds (2,1), jobs 3+3+3=9: min T with floor(2T)+floor(T)>=9 is 3.
        assert_eq!(capacity_lower_bound(&[2, 1], &[3, 3, 3]), Rat::integer(3));
        // One huge job forces pmax/s1.
        assert_eq!(
            capacity_lower_bound(&[2, 1], &[10, 1]),
            Rat::new(10, 2).max(Rat::new(11, 3))
        );
    }

    #[test]
    fn root_bound_adds_the_edge_pair_on_uniform_machines() {
        // Speeds (4, 1, 1), two adjacent size-10 jobs: the floored cover
        // is 7/2 and p_max/s_1 is 5/2, but the pair needs both of the two
        // fastest machines, 20/5 = 4.
        let inst = Instance::uniform(vec![4, 1, 1], vec![10, 10], Graph::path(2)).unwrap();
        assert_eq!(graph_blind_lower_bound(&inst), Rat::new(7, 2));
        assert_eq!(root_bound(&inst), Rat::integer(4));
        // Without the edge the cover stands.
        let free = Instance::uniform(vec![4, 1, 1], vec![10, 10], Graph::empty(2)).unwrap();
        assert_eq!(root_bound(&free), Rat::new(7, 2));
    }

    #[test]
    fn root_bound_on_identical_and_unrelated_machines() {
        // P: an edge pair never beats p_max, 9 here.
        let p = Instance::identical(2, vec![9, 1, 1], Graph::path(3)).unwrap();
        assert_eq!(root_bound(&p), Rat::integer(9));
        // R: the row-minimum bound alone, edges or not.
        let r = Instance::unrelated(vec![vec![4, 9, 4], vec![7, 4, 8]], Graph::path(3)).unwrap();
        assert_eq!(root_bound(&r), Rat::integer(6));
        assert_eq!(root_bound(&r), graph_blind_lower_bound(&r));
        // One machine has no pair to split over.
        let one = Instance::uniform(vec![3], vec![6, 3], Graph::empty(2)).unwrap();
        assert_eq!(root_bound(&one), Rat::integer(3));
    }

    #[test]
    fn unrelated_lb_examples() {
        // mins per job: 1, 2 -> total 3, m = 2 -> ceil(3/2) = 2 = max_min.
        assert_eq!(unrelated_lower_bound(&[vec![1, 5], vec![9, 2]]), 2);
        // mins 4, 4, 4 on 2 machines: ceil(12/2) = 6.
        assert_eq!(unrelated_lower_bound(&[vec![4, 9, 4], vec![7, 4, 8]]), 6);
    }
}
