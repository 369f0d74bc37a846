//! Experiment runners for Section 4.1: seed-parallel sweeps producing the
//! rows of the lab's `paper-sec4` tables. The tests below hold the paper's
//! claims to them: Corollary 11, Lemmas 12–14 and Theorem 19.

use crate::stats::{GraphStats, Summary};
use bisched_core::alg2_random_graph;
use bisched_graph::{gilbert_bipartite, EdgeProbability};
use bisched_model::{cstar_double_max, Instance, Rat, SpeedProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One row of the coloring/matching statistics table (Corollary 11,
/// Lemmas 12–14).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomGraphRow {
    /// Side size `n`.
    pub n: usize,
    /// Regime label.
    pub regime: String,
    /// Evaluated `p(n)`.
    pub p: f64,
    /// Seeds used.
    pub seeds: usize,
    /// `|V'_2|/n` summary.
    pub minor_fraction_mean: f64,
    /// Lemma 12's finite-`n` bound on the above (only meaningful in the
    /// critical regime).
    pub lemma12_bound: f64,
    /// `μ/n` summary.
    pub matching_fraction_mean: f64,
    /// Lemma 13's a.a.s. lower bound at `a = n·p`.
    pub lemma13_bound: f64,
    /// Mean of `|V'_2|/μ` (Lemma 14 ratio).
    pub ratio_mean: f64,
    /// Max of `|V'_2|/μ` over the seeds.
    pub ratio_max: f64,
}

/// Samples `seeds` realizations of `G_{n,n,p(n)}` and aggregates the
/// Section 4.1 statistics. Seed-parallel via rayon.
pub fn random_graph_statistics(
    n: usize,
    regime: EdgeProbability,
    seeds: usize,
    seed_base: u64,
) -> RandomGraphRow {
    let p = regime.eval(n);
    let stats: Vec<GraphStats> = (0..seeds)
        .into_par_iter()
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed_base + s as u64);
            let g = gilbert_bipartite(n, n, p, &mut rng);
            GraphStats::measure(&g, n)
        })
        .collect();
    let minor = Summary::of(stats.iter().map(|s| s.minor_fraction()));
    let matching = Summary::of(stats.iter().map(|s| s.matching_fraction()));
    let ratio = Summary::of(stats.iter().filter_map(|s| s.minor_to_matching()));
    let a = p * n as f64;
    RandomGraphRow {
        n,
        regime: regime.label(),
        p,
        seeds,
        minor_fraction_mean: minor.mean(),
        lemma12_bound: crate::stats::lemma12_bound(n, a),
        matching_fraction_mean: matching.mean(),
        lemma13_bound: crate::stats::lemma13_bound(a),
        ratio_mean: ratio.mean(),
        ratio_max: ratio.max,
    }
}

/// One row of the Algorithm 2 ratio table (Theorem 19).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Alg2Row {
    /// Side size `n` (the instance has `2n` unit jobs).
    pub n: usize,
    /// Regime label.
    pub regime: String,
    /// Speed profile label.
    pub speeds: String,
    /// Machines.
    pub m: usize,
    /// Seeds used.
    pub seeds: usize,
    /// Mean of `C_max(Alg2) / LB`.
    pub ratio_mean: f64,
    /// Max of the ratio over seeds.
    pub ratio_max: f64,
    /// Mean chosen split point `k`.
    pub k_mean: f64,
}

/// Runs Algorithm 2 on `seeds` realizations and reports the ratio against
/// the *graph-aware* lower bound
/// `max(C**(2n on all machines), C**(μ on M_2..M_m))` — the quantity
/// Theorem 19's proof actually compares against.
pub fn alg2_ratio_experiment(
    n: usize,
    regime: EdgeProbability,
    profile: SpeedProfile,
    m: usize,
    seeds: usize,
    seed_base: u64,
) -> Alg2Row {
    let p = regime.eval(n);
    let speeds = profile.speeds(m);
    let results: Vec<(f64, usize)> = (0..seeds)
        .into_par_iter()
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed_base + s as u64);
            let g = gilbert_bipartite(n, n, p, &mut rng);
            let stats = GraphStats::measure(&g, n);
            let inst = Instance::uniform(speeds.clone(), vec![1; 2 * n], g).expect("unit instance");
            let r = alg2_random_graph(&inst).expect("bipartite");
            // Graph-aware LB: all 2n jobs covered by all machines AND the
            // μ jobs that must avoid M1 covered by M2..Mm; pmax = 1.
            let lb = cstar_double_max(&speeds, 2 * n as u64, stats.matching as u64, 1);
            let lb = lb.max(Rat::new(1, speeds[0]));
            (r.makespan.ratio_to(&lb), r.k)
        })
        .collect();
    let ratio = Summary::of(results.iter().map(|&(r, _)| r));
    let k = Summary::of(results.iter().map(|&(_, k)| k as f64));
    Alg2Row {
        n,
        regime: regime.label(),
        speeds: profile.label(),
        m,
        seeds,
        ratio_mean: ratio.mean(),
        ratio_max: ratio.max,
        k_mean: k.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `p(n)` regime Theorem 19 covers, at one representative each.
    const REGIMES: [EdgeProbability; 5] = [
        EdgeProbability::SubCritical { exponent: 1.5 },
        EdgeProbability::Critical { a: 1.0 },
        EdgeProbability::Critical { a: 4.0 },
        EdgeProbability::SuperCritical {
            c: 1.0,
            exponent: 0.5,
        },
        EdgeProbability::Constant { p: 0.1 },
    ];

    #[test]
    fn statistics_row_is_consistent() {
        // Lemmas 12–14 are a.a.s. statements, so finite n gets the slack
        // named per check.
        for a in [0.5, 1.0, 2.0, 4.0, 8.0] {
            for n in [256usize, 1024] {
                let row = random_graph_statistics(n, EdgeProbability::Critical { a }, 8, 13);
                assert_eq!(row.seeds, 8);
                assert!((row.p - a / n as f64).abs() < 1e-12);
                assert!(row.minor_fraction_mean >= 0.0 && row.minor_fraction_mean <= 1.0);
                assert!(row.matching_fraction_mean <= 1.0);
                let root = 1.0 / (n as f64).sqrt();
                // Lemma 12: |V'2|/n ≤ 1 − (1 − a/n)^n + o(1).
                assert!(
                    row.minor_fraction_mean <= row.lemma12_bound + 0.05 + root,
                    "Lemma 12 violated: a={a}, n={n}: {} > {}",
                    row.minor_fraction_mean,
                    row.lemma12_bound
                );
                // Lemma 13: μ/n ≥ 1 − e^(e^−a − 1) − o(1).
                assert!(
                    row.matching_fraction_mean >= row.lemma13_bound - root,
                    "Lemma 13 violated: a={a}, n={n}: {} < {}",
                    row.matching_fraction_mean,
                    row.lemma13_bound
                );
                // Lemma 14: |V'2|/μ ≤ e/(e−1) < 1.6.
                assert!(
                    row.ratio_max <= 1.6 + 0.05,
                    "Lemma 14's 1.6 exceeded: a={a}, n={n}: {}",
                    row.ratio_max
                );
            }
        }
    }

    #[test]
    fn subcritical_minor_fraction_vanishes() {
        // Corollary 11: at p(n) = o(1/n), |V'2|/n → 0.
        let regime = EdgeProbability::SubCritical { exponent: 1.5 };
        let fractions: Vec<f64> = [128usize, 512, 2048]
            .iter()
            .map(|&n| random_graph_statistics(n, regime, 8, 11).minor_fraction_mean)
            .collect();
        assert!(
            fractions.windows(2).all(|w| w[1] < w[0]),
            "sub-critical |V'2|/n does not fall with n: {fractions:?}"
        );
    }

    #[test]
    fn alg2_row_ratio_sane() {
        // Theorem 19: Algorithm 2 is a.a.s. a 2-approximation in every
        // regime and for every speed shape; 0.25 is the finite-n slack.
        for regime in REGIMES {
            for profile in [
                SpeedProfile::Equal,
                SpeedProfile::Geometric { ratio: 2 },
                SpeedProfile::OneFast { factor: 16 },
                SpeedProfile::TwoTier {
                    fast_count: 2,
                    factor: 8,
                },
            ] {
                for n in [128usize, 512] {
                    let row = alg2_ratio_experiment(n, regime, profile, 6, 8, 29);
                    let cell = format!("{} {} n={n}", row.regime, row.speeds);
                    assert!(row.ratio_mean >= 1.0 - 1e-9, "{cell}: ratio below 1");
                    assert!(
                        row.ratio_max <= 2.0 + 0.25,
                        "{cell}: Theorem 19 violated, ratio {}",
                        row.ratio_max
                    );
                    assert!(row.k_mean >= 2.0, "{cell}: split below M_2");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed_base() {
        let a = random_graph_statistics(32, EdgeProbability::Constant { p: 0.1 }, 4, 7);
        let b = random_graph_statistics(32, EdgeProbability::Constant { p: 0.1 }, 4, 7);
        assert_eq!(a.minor_fraction_mean, b.minor_fraction_mean);
        assert_eq!(a.ratio_max, b.ratio_max);
    }
}
