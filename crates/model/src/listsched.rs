//! List scheduling onto machine groups.
//!
//! Algorithms 1 and 2 first split jobs into classes (independent sets) and
//! machines into groups, then scatter each class over its group "by a simple
//! list scheduling". Because each class is an independent set, there are no
//! graph constraints *inside* a group — the greedy only has to balance
//! loads. We use min-completion-time greedy (each job to the machine that
//! finishes it earliest), the classical `Q||C_max` list rule.

use crate::instance::{JobId, MachineId};
use crate::rational::Rat;

/// Jobs sorted by non-increasing processing requirement (LPT order); ties
/// broken by id for determinism.
pub fn lpt_order(processing: &[u64], jobs: &[JobId]) -> Vec<JobId> {
    let mut order = jobs.to_vec();
    order.sort_by(|&a, &b| {
        processing[b as usize]
            .cmp(&processing[a as usize])
            .then(a.cmp(&b))
    });
    order
}

/// Assigns `jobs` (in the given order) to machines from `group`, each job to
/// the machine minimizing its completion time `(load + p_j) / s_i`.
///
/// `loads` and `out` cover *all* machines/jobs; only `group` members'
/// loads and `jobs`' assignments are touched. The caller is responsible for
/// `jobs` being pairwise compatible (an independent set).
pub fn assign_min_completion_uniform(
    speeds: &[u64],
    processing: &[u64],
    jobs: &[JobId],
    group: &[MachineId],
    loads: &mut [u64],
    out: &mut [MachineId],
) {
    assert!(!group.is_empty() || jobs.is_empty(), "jobs but no machines");
    for &j in jobs {
        let p = processing[j as usize];
        let best = group
            .iter()
            .copied()
            .min_by_key(|&i| Rat::new(loads[i as usize] + p, speeds[i as usize]))
            .expect("group non-empty");
        loads[best as usize] += p;
        out[j as usize] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_sorts_descending_with_stable_ties() {
        let p = [3u64, 9, 3, 1];
        let order = lpt_order(&p, &[0, 1, 2, 3]);
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn greedy_balances_equal_speeds() {
        let speeds = [1u64, 1];
        let p = [5u64, 4, 3, 3, 3];
        let jobs = lpt_order(&p, &[0, 1, 2, 3, 4]);
        let mut loads = [0u64; 2];
        let mut out = [u32::MAX; 5];
        assign_min_completion_uniform(&speeds, &p, &jobs, &[0, 1], &mut loads, &mut out);
        // LPT on two machines: 5+3, 4+3+3 -> loads {8, 10} in some order.
        let mut l = loads.to_vec();
        l.sort();
        assert_eq!(l, vec![8, 10]);
    }

    #[test]
    fn greedy_prefers_fast_machine() {
        let speeds = [10u64, 1];
        let p = [10u64, 10, 10];
        let mut loads = [0u64; 2];
        let mut out = [u32::MAX; 3];
        assign_min_completion_uniform(&speeds, &p, &[0, 1, 2], &[0, 1], &mut loads, &mut out);
        // All three jobs complete faster on the speed-10 machine
        // (1, 2, 3 time units) than on the slow one (10).
        assert_eq!(out, [0, 0, 0]);
        assert_eq!(loads, [30, 0]);
    }

    #[test]
    fn group_restriction_respected() {
        let speeds = [100u64, 1, 1];
        let p = [4u64, 4];
        let mut loads = [0u64; 3];
        let mut out = [u32::MAX; 2];
        // Machine 0 is not in the group, so jobs must spread over 1 and 2.
        assign_min_completion_uniform(&speeds, &p, &[0, 1], &[1, 2], &mut loads, &mut out);
        assert_eq!(loads[0], 0);
        assert_eq!(loads[1] + loads[2], 8);
        assert!(out.iter().all(|&i| i == 1 || i == 2));
    }

    #[test]
    fn untouched_jobs_keep_sentinel() {
        let speeds = [1u64];
        let p = [2u64, 3];
        let mut loads = [0u64];
        let mut out = [u32::MAX; 2];
        assign_min_completion_uniform(&speeds, &p, &[1], &[0], &mut loads, &mut out);
        assert_eq!(out[0], u32::MAX);
        assert_eq!(out[1], 0);
    }

    #[test]
    #[should_panic(expected = "jobs but no machines")]
    fn empty_group_with_jobs_panics() {
        let mut loads: [u64; 0] = [];
        let mut out = [u32::MAX; 1];
        assign_min_completion_uniform(&[], &[1], &[0], &[], &mut loads, &mut out);
    }
}
