//! Shared search control for racing engines: a cooperative cancellation
//! flag plus a cross-engine incumbent makespan bound.
//!
//! One [`SearchCtl`] is shared by every engine of a portfolio race. Each
//! budgeted search (branch and bound, the CP propagation solver) polls
//! [`SearchCtl::cancelled`] at its existing budget-check cadence and
//! publishes every incumbent improvement with
//! [`SearchCtl::publish_makespan`]; foreign bounds then feed its pruning
//! via [`SearchCtl::foreign_bound`] / [`SearchCtl::prunes`].
//!
//! ## Why an `f64`-bits bound stays exact
//!
//! The bound lives in an `AtomicU64` holding the bit pattern of a
//! nonnegative `f64` (for nonnegative floats the bit order equals the
//! numeric order, so `fetch_min` is a lock-free running minimum).
//! Publishing rounds the exact rational makespan **up**
//! ([`rat_to_f64_up`]) and pruning compares a lower bound rounded
//! **down** ([`rat_to_f64_down`]), so:
//!
//! * the published value is always ≥ some engine's true achieved
//!   makespan, which is ≥ the race winner's makespan `W`;
//! * a subtree is pruned only when its exact lower bound ≥ that value,
//!   i.e. only when it cannot beat `W`.
//!
//! Hence a search that completes under foreign-bound pruning still
//! proves "nothing strictly better than `W` exists", which is exactly
//! the claim the race's `Optimal` guarantee makes — the (at most a few
//! ULP) slack of the float encoding only ever makes pruning *less*
//! aggressive, never unsound.

use bisched_model::Rat;
// The concurrency facade: std atomics in normal builds, the
// model-checked shims under `--cfg bisched_model` (the race-control
// protocol here is explored exhaustively by the `model_search_ctl`
// suite in tests/).
use bisched_obs::sync::{AtomicBool, AtomicU64, Ordering};

/// Converts `r` to an `f64` guaranteed `>=` the exact rational value.
pub fn rat_to_f64_up(r: &Rat) -> f64 {
    // `as f64` rounds to nearest (≤ half ULP off in either direction);
    // one `next_up`/`next_down` step makes each conversion one-sided,
    // and a final `next_up` absorbs the division's own rounding.
    ((r.num() as f64).next_up() / (r.den() as f64).next_down()).next_up()
}

/// Converts `r` to an `f64` guaranteed `<=` the exact rational value.
pub fn rat_to_f64_down(r: &Rat) -> f64 {
    fraction_to_f64_down(r.num(), r.den())
}

/// Converts `num / den` (`den > 0`, not necessarily in lowest terms) to
/// an `f64` guaranteed `<=` the exact value: the pruning side of the
/// directed rounding, for bounds kept as unreduced pairs.
pub fn fraction_to_f64_down(num: u64, den: u64) -> f64 {
    ((num as f64).next_down() / (den as f64).next_up())
        .next_down()
        .max(0.0)
}

/// Cooperative controls shared by the engines of one portfolio race.
#[derive(Debug)]
pub struct SearchCtl {
    cancel: AtomicBool,
    /// Bit pattern of the best published makespan (rounded up); starts
    /// at `+inf`.
    bound: AtomicU64,
}

impl Default for SearchCtl {
    fn default() -> Self {
        SearchCtl {
            cancel: AtomicBool::new(false),
            bound: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

impl SearchCtl {
    /// A fresh control: not cancelled, no published bound.
    pub fn new() -> Self {
        SearchCtl::default()
    }

    /// Requests cancellation of every search sharing this control.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Publishes an achieved makespan: the shared bound becomes the
    /// minimum of itself and `mk` rounded up to the next representable
    /// `f64`.
    pub fn publish_makespan(&self, mk: &Rat) {
        // Nonnegative f64 bit patterns are ordered like the values, so
        // fetch_min on the bits is a running minimum on the floats.
        self.bound
            .fetch_min(rat_to_f64_up(mk).to_bits(), Ordering::Relaxed);
    }

    /// The best published makespan, rounded up (`+inf` when none yet).
    pub fn foreign_bound(&self) -> f64 {
        f64::from_bits(self.bound.load(Ordering::Relaxed))
    }

    /// Whether a subtree with exact lower bound `lb` cannot beat the
    /// best published makespan (conservative: never prunes a subtree
    /// that could still improve on it).
    pub fn prunes(&self, lb: &Rat) -> bool {
        rat_to_f64_down(lb) >= self.foreign_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_rounding_brackets_the_exact_value() {
        for (num, den) in [
            (0, 1),
            (1, 1),
            (7, 2),
            (10, 3),
            (u64::MAX, 1),
            (u64::MAX, 3),
            (1, u64::MAX),
        ] {
            let r = Rat::new(num, den);
            let up = rat_to_f64_up(&r);
            let down = rat_to_f64_down(&r);
            let mid = num as f64 / den as f64;
            assert!(down <= mid && mid <= up, "{num}/{den}: {down} {mid} {up}");
            assert!(down >= 0.0);
            // The same value as an unreduced pair still rounds down.
            if let (Some(n3), Some(d3)) = (num.checked_mul(3), den.checked_mul(3)) {
                let unreduced = fraction_to_f64_down(n3, d3);
                assert!((0.0..=mid).contains(&unreduced), "{n3}/{d3}: {unreduced}");
            }
        }
    }

    #[test]
    fn bound_is_a_running_minimum_and_pruning_is_conservative() {
        let ctl = SearchCtl::new();
        assert!(!ctl.cancelled());
        assert_eq!(ctl.foreign_bound(), f64::INFINITY);
        // Nothing prunes against an empty bound.
        assert!(!ctl.prunes(&Rat::new(u64::MAX, 1)));

        ctl.publish_makespan(&Rat::new(10, 1));
        ctl.publish_makespan(&Rat::new(7, 2)); // 3.5, the new minimum
        ctl.publish_makespan(&Rat::new(5, 1)); // worse: ignored
        let b = ctl.foreign_bound();
        assert!((3.5..3.5001).contains(&b), "bound = {b}");

        // lb strictly above the bound prunes; lb strictly below survives.
        assert!(ctl.prunes(&Rat::new(4, 1)));
        assert!(!ctl.prunes(&Rat::new(3, 1)));

        ctl.cancel();
        assert!(ctl.cancelled());
    }
}
