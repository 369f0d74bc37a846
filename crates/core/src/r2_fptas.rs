//! Algorithm 5: FPTAS for `R2 | G = bipartite | C_max` (Theorem 22).
//!
//! Pipeline: run the Algorithm 3 reduction once; take a 2-approximate
//! horizon `T` from Algorithm 4's greedy core on that reduction; then
//! encode the unavoidable base loads as two *guard jobs* pinned to their
//! machines by an unreasonable cost (`3T`, as the paper's prose suggests)
//! on the wrong machine; finally hand the difference jobs + guards to the
//! `Rm || C_max` FPTAS — its two-machine merge sweep — and decode the
//! orientation of every crossing component from where its difference job
//! landed.
//!
//! Any schedule of the prepared jobs maps to an original schedule of the
//! same makespan and vice versa, so the `(1+ε)` guarantee transfers.

use crate::r2_approx::assign_cheaper;
use crate::r2_reduction::reduce_r2;
use bisched_exact::OracleError;
use bisched_fptas::{rm_cmax_fptas_with, CapRelief, FptasError, FptasParams};
use bisched_model::{Instance, Schedule};

/// DP-core knobs threaded from [`SolverConfig`](crate::SolverConfig) into
/// the `Rm || C_max` sweep behind Algorithm 5.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FptasControls {
    /// Bound on any DP layer's live width (`None` = unbounded); see
    /// [`bisched_fptas::FptasParams::state_cap`].
    pub state_cap: Option<usize>,
    /// When the cap is hit: `true` coarsens `ε` (doubling, capped at the
    /// Algorithm 5 regime ceiling `ε = 1` so the guard-pinning argument
    /// and Theorem 22 stay valid) and reports the effective `ε`; `false`
    /// fails with a typed [`R2FptasError::StateCap`].
    pub coarsen: bool,
    /// Expand DP layers in parallel chunks (deterministic merge,
    /// result-identical; sequential under the vendored rayon). No effect
    /// on two-machine sweeps, which Algorithm 5 always runs.
    pub parallel: bool,
}

/// A successful Algorithm 5 run with the DP-core observability attached.
#[derive(Clone, Debug)]
pub struct R2FptasReport {
    /// The `(1+ε_effective)`-approximate schedule.
    pub schedule: Schedule,
    /// The `ε` the caller asked for.
    pub eps_requested: f64,
    /// The `ε` the guarantee actually carries (larger than requested only
    /// when a state cap forced coarsening).
    pub eps_effective: f64,
    /// Peak live width of the underlying DP.
    pub peak_states: usize,
    /// Candidate states the DP generated.
    pub expanded: u64,
    /// Candidates the incumbent bound / dominance filter discarded.
    pub pruned: u64,
}

/// Why Algorithm 5 produced no schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum R2FptasError {
    /// The Algorithm 3/4 preprocessing failed (wrong environment, odd
    /// cycle, …).
    Oracle(OracleError),
    /// The DP outgrew [`FptasControls::state_cap`] and coarsening was
    /// disabled or exhausted.
    StateCap(FptasError),
}

impl std::fmt::Display for R2FptasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            R2FptasError::Oracle(e) => write!(f, "{e}"),
            R2FptasError::StateCap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for R2FptasError {}

impl From<OracleError> for R2FptasError {
    fn from(e: OracleError) -> Self {
        R2FptasError::Oracle(e)
    }
}

/// Algorithm 5: `(1+ε)`-approximate schedule for
/// `R2 | G = bipartite | C_max`. Requires `ε ∈ (0, 1]` (the paper's FPTAS
/// regime; Algorithm 1 calls it with `ε = 1`).
pub fn r2_fptas(inst: &Instance, eps: f64) -> Result<Schedule, OracleError> {
    match r2_fptas_with(inst, eps, &FptasControls::default()) {
        Ok(report) => Ok(report.schedule),
        Err(R2FptasError::Oracle(e)) => Err(e),
        Err(R2FptasError::StateCap(_)) => {
            unreachable!("no state cap was configured")
        }
    }
}

/// Algorithm 5 with the DP-core knobs exposed: optional state cap (with
/// graceful `ε`-coarsening), parallel expansion, and the expanded /
/// pruned / peak-width counters in the report.
pub fn r2_fptas_with(
    inst: &Instance,
    eps: f64,
    controls: &FptasControls,
) -> Result<R2FptasReport, R2FptasError> {
    assert!(
        eps > 0.0 && eps <= 1.0,
        "Algorithm 5 requires ε in (0, 1], got {eps}"
    );
    let red = reduce_r2(inst)?;
    let c = red.num_components();
    if c == 0 {
        return Ok(R2FptasReport {
            schedule: Schedule::new(Vec::new()),
            eps_requested: eps,
            eps_effective: eps,
            peak_states: 0,
            expanded: 0,
            pruned: 0,
        });
    }

    // Step 1: 2-approximate horizon T from Algorithm 4, reusing the
    // reduction instead of running Algorithm 3 again.
    let t_horizon = assign_cheaper(&red).makespan(inst).ceil().max(1);

    // Steps 3-5: guard jobs carrying the base loads, pinned by cost 3T on
    // the wrong machine. A zero-cost guard is legal here (the FPTAS treats
    // times as plain numbers).
    let penalty = 3 * t_horizon;
    let mut times = red.times.clone();
    times[0].push(red.base1());
    times[1].push(penalty);
    times[0].push(penalty);
    times[1].push(red.base2());

    // Step 6: FPTAS on the prepared R2||C_max instance. Coarsening stops
    // at ε = 1: past that the misplaced-guard cost 3T would no longer
    // dominate the (1+ε)·OPT ≤ 2T of a correct placement.
    let mut params = FptasParams::new(eps);
    params.state_cap = controls.state_cap;
    params.parallel = controls.parallel;
    params.on_cap = if controls.coarsen {
        CapRelief::Coarsen { max_eps: 1.0 }
    } else {
        CapRelief::Fail
    };
    let result = rm_cmax_fptas_with(&times, &params).map_err(R2FptasError::StateCap)?;
    let assignment = result.schedule.assignment();
    // Guards must sit on their own machines: misplacing one costs 3T alone,
    // while the correct placement achieves ≤ (1+ε)·OPT ≤ 2T.
    debug_assert_eq!(assignment[c], 0, "guard 1 must be on M1");
    debug_assert_eq!(assignment[c + 1], 1, "guard 2 must be on M2");

    // Step 7: decode orientations from the difference jobs.
    Ok(R2FptasReport {
        schedule: red.reconstruct(&assignment[..c]),
        eps_requested: eps,
        eps_effective: result.eps_effective,
        peak_states: result.peak_states,
        expanded: result.expanded,
        pruned: result.pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::r2_bipartite_exact;
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::UnrelatedFamily;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_on_single_edge() {
        let inst = Instance::unrelated(
            vec![vec![10, 2], vec![3, 8]],
            Graph::from_edges(2, &[(0, 1)]),
        )
        .unwrap();
        let s = r2_fptas(&inst, 0.1).unwrap();
        assert!(s.validate(&inst).is_ok());
        let opt = r2_bipartite_exact(&inst).unwrap();
        // (1 + 0.1) * OPT, and here OPT is tiny so it's exact.
        assert_eq!(s.makespan(&inst), opt.makespan);
    }

    #[test]
    fn guarantee_holds_over_eps_sweep() {
        let mut rng = StdRng::seed_from_u64(61);
        for &eps in &[1.0, 0.5, 0.25, 0.1, 0.02] {
            for _ in 0..10 {
                let n: usize = rng.gen_range(2..=12);
                let g = gilbert_bipartite(n / 2, n - n / 2, 0.35, &mut rng);
                let times: Vec<Vec<u64>> = (0..2)
                    .map(|_| (0..n).map(|_| rng.gen_range(1..=40)).collect())
                    .collect();
                let inst = Instance::unrelated(times, g).unwrap();
                let s = r2_fptas(&inst, eps).unwrap();
                assert!(s.validate(&inst).is_ok());
                let opt = r2_bipartite_exact(&inst).unwrap();
                let ratio = s.makespan(&inst).ratio_to(&opt.makespan);
                assert!(ratio <= 1.0 + eps + 1e-9, "ε={eps}: ratio {ratio} (n={n})");
            }
        }
    }

    #[test]
    fn tighter_eps_never_worse_much() {
        // Not a theorem, but with the same seed the ε=0.02 schedule should
        // be at least as good as ε=1 on instances with real trade-offs.
        let mut rng = StdRng::seed_from_u64(67);
        let n = 14;
        let g = gilbert_bipartite(7, 7, 0.3, &mut rng);
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(1..=100)).collect())
            .collect();
        let inst = Instance::unrelated(times, g).unwrap();
        let coarse = r2_fptas(&inst, 1.0).unwrap().makespan(&inst);
        let fine = r2_fptas(&inst, 0.02).unwrap().makespan(&inst);
        assert!(fine <= coarse);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::unrelated(vec![vec![], vec![]], Graph::empty(0)).unwrap();
        let s = r2_fptas(&inst, 0.5).unwrap();
        assert_eq!(s.num_jobs(), 0);
    }

    #[test]
    fn all_isolated_reduces_to_plain_r2() {
        // No edges: Algorithm 5 = FPTAS on the original jobs.
        let inst =
            Instance::unrelated(vec![vec![5, 6, 7], vec![7, 6, 5]], Graph::empty(3)).unwrap();
        let s = r2_fptas(&inst, 0.1).unwrap();
        let opt = r2_bipartite_exact(&inst).unwrap();
        let ratio = s.makespan(&inst).ratio_to(&opt.makespan);
        assert!(ratio <= 1.1 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "requires ε in (0, 1]")]
    fn zero_eps_rejected() {
        let inst = Instance::unrelated(vec![vec![1], vec![1]], Graph::empty(1)).unwrap();
        let _ = r2_fptas(&inst, 0.0);
    }

    /// Job-correlated big-value times: the greedy incumbent stays loose
    /// enough that the DP width genuinely scales with ε (uncorrelated
    /// matrices collapse under pruning regardless of the grid).
    fn wide_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000u64..=100_000)).collect();
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                base.iter()
                    .map(|&b| b + rng.gen_range(0u64..=2_000))
                    .collect()
            })
            .collect();
        Instance::unrelated(times, Graph::empty(n)).unwrap()
    }

    #[test]
    fn state_cap_coarsens_and_reports_effective_eps() {
        let inst = wide_instance(24, 71);
        let free = r2_fptas_with(&inst, 0.02, &FptasControls::default()).unwrap();
        assert_eq!(free.eps_effective, 0.02);
        assert!(free.expanded > 0);
        // A cap ε = 0.02 cannot meet but the coarsest regime ε can.
        let cap = r2_fptas_with(&inst, 1.0, &FptasControls::default())
            .unwrap()
            .peak_states;
        assert!(cap < free.peak_states, "width must scale with ε here");
        let capped = FptasControls {
            state_cap: Some(cap),
            coarsen: true,
            parallel: false,
        };
        let r = r2_fptas_with(&inst, 0.02, &capped).expect("coarsening relieves the cap");
        assert!(r.eps_effective > 0.02);
        assert!(r.eps_effective <= 1.0, "Algorithm 5's regime is ε ≤ 1");
        assert!(r.schedule.validate(&inst).is_ok());
        // The coarsened run still keeps its (reported) promise.
        let opt = r2_bipartite_exact(&inst).unwrap();
        let ratio = r.schedule.makespan(&inst).ratio_to(&opt.makespan);
        assert!(ratio <= 1.0 + r.eps_effective + 1e-9);
    }

    #[test]
    fn state_cap_without_coarsening_is_a_typed_error() {
        let inst = wide_instance(24, 73);
        let controls = FptasControls {
            state_cap: Some(2),
            coarsen: false,
            parallel: false,
        };
        match r2_fptas_with(&inst, 0.02, &controls) {
            Err(R2FptasError::StateCap(e)) => {
                assert!(e.to_string().contains("state cap 2"), "{e}");
            }
            other => panic!("expected a state-cap error, got {other:?}"),
        }
    }

    #[test]
    fn two_machine_exact_sweep_matches_exact_r2() {
        // With no edges every job is its own component, so the exact R2
        // oracle solves plain `R2 || C_max`: an independent check of the
        // untrimmed two-machine merge, pruned and unpruned, past
        // brute-force sizes.
        let mut rng = StdRng::seed_from_u64(83);
        for _ in 0..24 {
            let n: usize = rng.gen_range(1..=28);
            let times: Vec<Vec<u64>> = (0..2)
                .map(|_| (0..n).map(|_| rng.gen_range(1..=1_000)).collect())
                .collect();
            let inst = Instance::unrelated(times.clone(), Graph::empty(n)).unwrap();
            let opt = r2_bipartite_exact(&inst).unwrap().makespan;
            for prune in [true, false] {
                let mut params = FptasParams::new(0.0);
                params.prune = prune;
                let r = rm_cmax_fptas_with(&times, &params).unwrap();
                assert_eq!(
                    bisched_model::Rat::integer(r.makespan),
                    opt,
                    "n={n} prune={prune}"
                );
                assert_eq!(
                    bisched_fptas::makespan_of(&times, r.schedule.assignment()),
                    r.makespan
                );
            }
        }
    }

    #[test]
    fn guarantee_holds_on_large_jobcorr_subcritical_gilbert() {
        // The shape that reaches the sweep from the daemon: job-correlated
        // times far above the grid's bucket width (so trimming merges
        // states) on sparse Gilbert graphs (so Algorithm 3 leaves many
        // difference jobs).
        let mut rng = StdRng::seed_from_u64(89);
        let family = UnrelatedFamily::JobCorrelated {
            base: (1_000, 10_000),
            spread: 500,
        };
        for _ in 0..4 {
            let n: usize = rng.gen_range(24..=40);
            let side = n / 2;
            let g = gilbert_bipartite(side, n - side, (side as f64).powf(-1.5), &mut rng);
            let inst = Instance::unrelated(family.sample(2, n, &mut rng), g).unwrap();
            let opt = r2_bipartite_exact(&inst).unwrap();
            for eps in [1.0, 0.125, 0.02] {
                let r = r2_fptas_with(&inst, eps, &FptasControls::default()).unwrap();
                assert!(r.schedule.validate(&inst).is_ok());
                assert!(r.expanded > 0);
                let ratio = r.schedule.makespan(&inst).ratio_to(&opt.makespan);
                assert!(ratio <= 1.0 + eps + 1e-9, "ε={eps}: ratio {ratio} (n={n})");
            }
        }
    }

    #[test]
    fn parallel_controls_match_sequential() {
        let inst = wide_instance(20, 79);
        let seq = r2_fptas_with(&inst, 0.1, &FptasControls::default()).unwrap();
        let par = r2_fptas_with(
            &inst,
            0.1,
            &FptasControls {
                parallel: true,
                ..FptasControls::default()
            },
        )
        .unwrap();
        assert_eq!(
            seq.schedule.assignment(),
            par.schedule.assignment(),
            "parallel expansion must be result-identical"
        );
        assert_eq!(seq.peak_states, par.peak_states);
    }
}
