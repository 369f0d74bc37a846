//! Typed solution-quality guarantees with paper-theorem provenance.

use bisched_model::{Instance, Rat};

/// What a [`SolveReport`](crate::SolveReport)'s schedule can promise,
/// replacing the old free-text `&'static str` guarantee.
///
/// Mapping to the paper:
///
/// | variant | provenance |
/// |---|---|
/// | [`Optimal`](Guarantee::Optimal) | exact oracles; Theorem 4 covers the polynomial `Q2, p_j = 1` regime of the `Q2` DP |
/// | [`Ratio(r)`](Guarantee::Ratio) | `2` from BJW \[3\] on `P, m ≥ 3` (best possible) and from Algorithm 4 / Theorem 21 on `R2` |
/// | [`SqrtSumP`](Guarantee::SqrtSumP) | Algorithm 1 / Theorem 9 — `√(Σ p_j) · C*`, matching the `Ω(n^{1/2−ε})` wall of Theorem 8 |
/// | [`OnePlusEps(ε)`](Guarantee::OnePlusEps) | Algorithm 5 / Theorem 22 — the `R2` FPTAS |
/// | [`Heuristic`](Guarantee::Heuristic) | no worst-case promise; for `R, m ≥ 3` Theorem 24 proves none is possible in polynomial time |
#[derive(Clone, Debug, PartialEq)]
pub enum Guarantee {
    /// The schedule is provably optimal.
    Optimal,
    /// Makespan is at most `r · C*` for the constant factor `r`.
    Ratio(Rat),
    /// Makespan is at most `√(Σ p_j) · C*` (Theorem 9; the bound is
    /// instance-dependent).
    SqrtSumP,
    /// Makespan is at most `(1 + ε) · C*` (Theorem 22 FPTAS).
    OnePlusEps(f64),
    /// No worst-case guarantee (for `R`, `m ≥ 3` Theorem 24 shows none
    /// can exist unless P = NP).
    Heuristic,
}

impl Guarantee {
    /// The multiplicative bound `makespan ≤ bound · C*` this guarantee
    /// promises on `inst`, or `None` for [`Guarantee::Heuristic`].
    ///
    /// `SqrtSumP` is instance-dependent, hence the `inst` parameter.
    pub fn ratio_bound(&self, inst: &Instance) -> Option<f64> {
        match self {
            Guarantee::Optimal => Some(1.0),
            Guarantee::Ratio(r) => Some(r.to_f64()),
            Guarantee::SqrtSumP => Some((inst.total_processing() as f64).sqrt()),
            Guarantee::OnePlusEps(eps) => Some(1.0 + eps),
            Guarantee::Heuristic => None,
        }
    }

    /// The paper theorem (or prior-art citation) backing this guarantee.
    pub fn provenance(&self) -> &'static str {
        match self {
            Guarantee::Optimal => "exact oracle (Theorem 4 regime / complete search)",
            Guarantee::Ratio(_) => "BJW [3] on P (m >= 3); Theorem 21 on R2",
            Guarantee::SqrtSumP => "Theorem 9 (Algorithm 1)",
            Guarantee::OnePlusEps(_) => "Theorem 22 (Algorithm 5 FPTAS)",
            Guarantee::Heuristic => "none (Theorem 24: no ratio possible for R, m >= 3)",
        }
    }

    /// Whether this guarantee is at least as strong as `other` on `inst`
    /// (smaller proven ratio bound wins; any bound beats none).
    pub fn at_least_as_strong(&self, other: &Guarantee, inst: &Instance) -> bool {
        match (self.ratio_bound(inst), other.ratio_bound(inst)) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => true,
        }
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Guarantee::Optimal => write!(f, "optimal"),
            Guarantee::Ratio(r) => write!(f, "{r} * OPT"),
            Guarantee::SqrtSumP => write!(f, "sqrt(sum p_j) * OPT"),
            Guarantee::OnePlusEps(eps) => write!(f, "(1+{eps}) * OPT"),
            Guarantee::Heuristic => write!(f, "heuristic (no guarantee)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::Graph;

    fn inst() -> Instance {
        // Σ p_j = 16 → SqrtSumP bound 4.
        Instance::identical(2, vec![4; 4], Graph::empty(4)).unwrap()
    }

    #[test]
    fn bounds_order_as_expected() {
        let i = inst();
        let opt = Guarantee::Optimal;
        let fptas = Guarantee::OnePlusEps(0.125);
        let two = Guarantee::Ratio(Rat::integer(2));
        let sqrt = Guarantee::SqrtSumP;
        let heur = Guarantee::Heuristic;
        assert!(opt.at_least_as_strong(&fptas, &i));
        assert!(fptas.at_least_as_strong(&two, &i));
        assert!(two.at_least_as_strong(&sqrt, &i));
        assert!(sqrt.at_least_as_strong(&heur, &i));
        assert!(!heur.at_least_as_strong(&sqrt, &i));
        assert_eq!(sqrt.ratio_bound(&i), Some(4.0));
    }
}
