//! Deep property tests of the `R2||C_max` FPTAS: the `(1+ε)` contract on
//! arbitrary two-machine matrices, the full ε grid, the additive grid's
//! `ε·LB` bound, and the pruned, streaming merge's invariants (pruning
//! parity, width monotonicity, job order independence).

use bisched_fptas::{makespan_of, rm_cmax_exact, rm_cmax_fptas, rm_cmax_fptas_with, FptasParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn matrix(max_n: usize, max_p: u64) -> impl Strategy<Value = [Vec<u64>; 2]> {
    (0..=max_n).prop_flat_map(move |n| {
        let row = || proptest::collection::vec(1..=max_p, n);
        (row(), row()).prop_map(|(a, b)| [a, b])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[allow(clippy::needless_range_loop)] // j addresses column j across machine rows
    fn exact_mode_is_optimal_vs_enumeration(times in matrix(6, 20)) {
        let n = times[0].len();
        let r = rm_cmax_exact(&times);
        // The reported makespan is the true makespan of the schedule.
        prop_assert_eq!(makespan_of(&times, r.schedule.assignment()), r.makespan);
        // Enumerate.
        let mut best = u64::MAX;
        for code in 0..1u64 << n {
            let mut loads = [0u64; 2];
            for j in 0..n {
                let i = (code >> j & 1) as usize;
                loads[i] += times[i][j];
            }
            best = best.min(loads[0].max(loads[1]));
        }
        prop_assert_eq!(r.makespan, best);
    }

    #[test]
    fn fptas_contract_over_grid(times in matrix(7, 50), eps_pct in 1u32..=200) {
        let eps = eps_pct as f64 / 100.0;
        let exact = rm_cmax_exact(&times).makespan;
        let approx = rm_cmax_fptas(&times, eps);
        prop_assert_eq!(
            makespan_of(&times, approx.schedule.assignment()),
            approx.makespan
        );
        prop_assert!(
            approx.makespan as f64 <= (1.0 + eps) * exact as f64 + 1e-9,
            "eps={eps}: {} vs exact {}",
            approx.makespan,
            exact
        );
        // Trimming can only keep fewer or equal states.
        prop_assert!(approx.peak_states <= rm_cmax_exact(&times).peak_states);
    }

    #[test]
    fn schedule_assigns_every_job(times in matrix(8, 30)) {
        let n = times[0].len();
        let r = rm_cmax_fptas(&times, 0.3);
        prop_assert_eq!(r.schedule.num_jobs(), n);
        prop_assert!(r.schedule.assignment().iter().all(|&i| i < 2));
    }

    #[test]
    fn exact_mode_pruning_parity(times in matrix(9, 5_000)) {
        // With ε = 0 the bucket key is the exact coordinate prefix, so a
        // pruned state can never have been a bucket representative a
        // surviving state needed: pruned and unpruned sweeps are makespan-
        // identical (both are the optimum).
        let pruned = rm_cmax_exact(&times);
        let mut p = FptasParams::new(0.0);
        p.prune = false;
        let unpruned = rm_cmax_fptas_with(&times, &p).unwrap();
        prop_assert_eq!(pruned.makespan, unpruned.makespan);
        prop_assert!(pruned.peak_states <= unpruned.peak_states);
        prop_assert!(pruned.pruned >= unpruned.pruned);
    }

    #[test]
    fn trimmed_pruning_keeps_the_contract(times in matrix(9, 50_000), eps_pct in 1u32..=200) {
        // Under trimming the two sweeps may pick different bucket
        // representatives, so bit-identity is not a theorem; what *is* a
        // theorem — and what this property pins on arbitrary inputs — is
        // that both carry the (1+ε) contract. (The empirical "pruned is
        // never the worse of the two" observation lives in the fixed-seed
        // `pruned_never_worse_on_pinned_grid` test below, where it cannot
        // turn flaky if the proptest strategy or its RNG ever changes.)
        let eps = eps_pct as f64 / 100.0;
        let pruned = rm_cmax_fptas(&times, eps);
        let mut p = FptasParams::new(eps);
        p.prune = false;
        let unpruned = rm_cmax_fptas_with(&times, &p).unwrap();
        let opt = rm_cmax_exact(&times).makespan;
        prop_assert!(pruned.makespan as f64 <= (1.0 + eps) * opt as f64 + 1e-9);
        prop_assert!(unpruned.makespan as f64 <= (1.0 + eps) * opt as f64 + 1e-9);
    }

    #[test]
    fn peak_width_is_non_increasing_in_eps(times in matrix(10, 100_000)) {
        // Coarser grids keep fewer states. Adjacent ε grids are not
        // *nested* (a 2δ boundary need not be a δ boundary), so the width
        // may jitter by a state or two between neighbouring ε — the pin
        // allows that slack but rejects any real growth, and demands
        // strict end-to-end shrinkage whenever there is room to shrink.
        // Pruning is disabled so the property is about the grid alone
        // (the incumbent bound is ε-independent anyway).
        let run = |eps: f64| {
            let mut p = FptasParams::new(eps);
            p.prune = false;
            rm_cmax_fptas_with(&times, &p).unwrap().peak_states
        };
        let mut prev = usize::MAX;
        for eps in [0.05f64, 0.1, 0.2, 0.4, 0.8, 1.6] {
            let peak = run(eps);
            prop_assert!(
                peak <= prev.saturating_add(prev / 8 + 1),
                "peak grew from {} to {} at eps={}", prev, peak, eps
            );
            prev = prev.min(peak);
        }
        let fine = run(0.05);
        let coarse = run(1.6);
        prop_assert!(coarse <= fine);
        if fine > 64 {
            prop_assert!(coarse < fine, "wide sweep ({fine}) did not shrink at eps=1.6");
        }
    }

    #[test]
    fn sweep_ignores_job_order(
        times in matrix(9, 100),
        seed in any::<u64>(),
        eps_pct in 1u32..=200,
    ) {
        // The sweep sorts the columns itself, so a permuted matrix runs the
        // same DP, counters and all, exactly and trimmed; each schedule
        // comes back in its caller's job order.
        let n = times[0].len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for j in (1..n).rev() {
            perm.swap(j, rng.gen_range(0..=j));
        }
        let permuted = times
            .each_ref()
            .map(|row| perm.iter().map(|&j| row[j]).collect::<Vec<u64>>());
        for eps in [0.0, eps_pct as f64 / 100.0] {
            let a = rm_cmax_fptas(&times, eps);
            let b = rm_cmax_fptas(&permuted, eps);
            prop_assert_eq!(makespan_of(&times, a.schedule.assignment()), a.makespan);
            prop_assert_eq!(makespan_of(&permuted, b.schedule.assignment()), b.makespan);
            let original = (a.makespan, a.expanded, a.pruned, a.peak_states);
            let shuffled = (b.makespan, b.expanded, b.pruned, b.peak_states);
            prop_assert_eq!(original, shuffled, "eps={}: {:?} vs permuted {:?}", eps, original, shuffled);
        }
    }

    #[test]
    fn additive_grid_stays_within_eps_lb(
        times in matrix(9, 100_000),
        eps_pct in 1u32..=200,
        prune in any::<bool>(),
    ) {
        // The trims add up to less than `n·w ≤ ε·LB`, for the lower bound
        // the sweep computes from the matrix itself: half the row minima's
        // sum, or the largest row minimum. That is tighter than the
        // `(1+ε)·OPT` contract whenever `LB < OPT`.
        let eps = eps_pct as f64 / 100.0;
        let row_min: Vec<u64> = (0..times[0].len())
            .map(|j| times[0][j].min(times[1][j]))
            .collect();
        let lb = row_min
            .iter()
            .sum::<u64>()
            .div_ceil(2)
            .max(row_min.iter().copied().max().unwrap_or(0));
        let exact = rm_cmax_exact(&times).makespan;
        let mut p = FptasParams::new(eps);
        p.prune = prune;
        let approx = rm_cmax_fptas_with(&times, &p).unwrap();
        prop_assert!(lb <= exact);
        prop_assert!(
            (approx.makespan - exact) as f64 <= eps * lb as f64,
            "eps={}: {} vs exact {} + ε·LB, LB = {}", eps, approx.makespan, exact, lb
        );
    }
}

/// The empirical half of the pruning comparison, on a grid pinned by
/// explicit seeds (independent of any proptest internals): across 200
/// deterministic instances × the ε ladder, the pruned sweep — which also
/// folds in the greedy incumbent — never returns a worse makespan than
/// the unpruned one, and is identical in exact mode.
#[test]
fn pruned_never_worse_on_pinned_grid() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..=10);
        let hi = [20u64, 500, 100_000][(seed % 3) as usize];
        let times: [Vec<u64>; 2] =
            std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(1..=hi)).collect());
        for eps in [0.0f64, 0.1, 0.5, 1.0, 2.0] {
            let pruned = rm_cmax_fptas(&times, eps);
            let mut p = FptasParams::new(eps);
            p.prune = false;
            let unpruned = rm_cmax_fptas_with(&times, &p).unwrap();
            assert!(
                pruned.makespan <= unpruned.makespan,
                "seed={seed} eps={eps}: pruned {} vs unpruned {}",
                pruned.makespan,
                unpruned.makespan
            );
            if eps == 0.0 {
                assert_eq!(
                    pruned.makespan, unpruned.makespan,
                    "seed={seed}: exact parity"
                );
            }
        }
    }
}
