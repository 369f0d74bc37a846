//! Property tests for the `SearchCtl` publish/prune round-trip — the
//! float-encoded bound exchange whose interleavings the
//! `cfg(bisched_model)` suite `model_search_ctl.rs` explores; here the
//! *numeric* soundness is hammered over random rationals, including the
//! negative-zero and `INFINITY` edges of the `f64`-bits encoding.
//!
//! The contract (see `bisched_exact::search_ctl` module docs):
//!
//! * `rat_to_f64_up` / `rat_to_f64_down` bracket the exact value;
//! * the published bound never tightens past a published makespan
//!   (`foreign_bound() >= min achieved`, exactly);
//! * `prunes(lb)` never fires for `lb` strictly below every published
//!   makespan — in particular, never for the true optimum;
//! * publishing a makespan never prunes that same makespan
//!   (an engine cannot prune its own incumbent's subtree);
//! * the stored bit pattern is always a nonnegative `f64` (sign bit
//!   clear), which is what makes `fetch_min` on the bits a running
//!   minimum on the values.

use bisched_exact::search_ctl::{rat_to_f64_down, rat_to_f64_up};
use bisched_exact::SearchCtl;
use bisched_model::Rat;
use proptest::prelude::*;

/// A nonnegative rational with moderate numerator (so one f64 ULP is
/// far below 1) — the regime every real makespan lives in.
fn rat() -> impl Strategy<Value = Rat> {
    (0u64..1_000_000_000_000, 1u64..1_000_000).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #[test]
    fn directed_roundings_bracket_the_exact_value(r in rat()) {
        let up = rat_to_f64_up(&r);
        let down = rat_to_f64_down(&r);
        let mid = r.num() as f64 / r.den() as f64; // nearest-rounded
        prop_assert!(down <= mid && mid <= up, "{down} !<= {mid} !<= {up}");
        prop_assert!(down >= 0.0);
        prop_assert!(!down.is_sign_negative(), "down produced -0.0: its bits would \
            sort above +inf and corrupt a bits-ordered fetch_min");
        prop_assert!(up.is_finite());
    }

    #[test]
    fn bound_is_exactly_the_min_published_and_never_overshoots_downward(
        mks in proptest::collection::vec(rat(), 1..5)
    ) {
        let ctl = SearchCtl::new();
        for mk in &mks {
            ctl.publish_makespan(mk);
        }
        let bound = ctl.foreign_bound();
        let min = mks.iter().cloned().reduce(|a, b| if b < a { b } else { a }).unwrap();
        prop_assert_eq!(bound, rat_to_f64_up(&min),
            "bound must equal the round-up of the minimum published makespan");
        // Never tightens past a published makespan: the bound stays at
        // or above the exact minimum (round-up is one-sided).
        prop_assert!(bound >= rat_to_f64_down(&min));
        prop_assert!(bound.to_bits() <= f64::INFINITY.to_bits());
        prop_assert!(!bound.is_sign_negative());
    }

    #[test]
    fn pruning_never_fires_below_every_published_makespan(
        mks in proptest::collection::vec(rat(), 1..5),
        lb in rat()
    ) {
        let ctl = SearchCtl::new();
        for mk in &mks {
            ctl.publish_makespan(mk);
        }
        let min = mks.iter().cloned().reduce(|a, b| if b < a { b } else { a }).unwrap();
        if lb < min {
            // Exact rational comparison: a subtree that can still beat
            // the best achieved makespan must survive.
            prop_assert!(!ctl.prunes(&lb),
                "pruned lb {}/{} strictly below the published minimum {}/{}",
                lb.num(), lb.den(), min.num(), min.den());
        }
        if ctl.prunes(&lb) {
            // The contrapositive, round-tripped: pruning certifies the
            // subtree cannot beat the winner.
            prop_assert!(lb >= min);
        }
    }

    #[test]
    fn an_engine_never_prunes_its_own_published_makespan(mk in rat()) {
        let ctl = SearchCtl::new();
        ctl.publish_makespan(&mk);
        prop_assert!(!ctl.prunes(&mk),
            "publish-up/prune-down must leave the just-published makespan unpruned");
        // One whole unit above the incumbent (far beyond any ULP slack
        // in this numerator regime) must prune.
        let above = Rat::new(mk.num() + mk.den(), mk.den());
        prop_assert!(ctl.prunes(&above));
    }

    #[test]
    fn cancel_and_bound_are_independent(mk in rat()) {
        let ctl = SearchCtl::new();
        prop_assert!(!ctl.cancelled());
        ctl.publish_makespan(&mk);
        prop_assert!(!ctl.cancelled(), "publishing must not cancel");
        ctl.cancel();
        prop_assert!(ctl.cancelled());
        prop_assert_eq!(ctl.foreign_bound(), rat_to_f64_up(&mk),
            "cancelling must not disturb the bound");
    }
}

/// The `INFINITY` edges, pinned deterministically: the empty bound is
/// `+inf`, publishing the largest representable makespan still tightens
/// it, and `+inf` never prunes anything.
#[test]
fn infinity_edges() {
    let ctl = SearchCtl::new();
    assert_eq!(ctl.foreign_bound(), f64::INFINITY);
    assert!(
        !ctl.prunes(&Rat::new(u64::MAX, 1)),
        "+inf bound must prune nothing"
    );
    ctl.publish_makespan(&Rat::new(u64::MAX, 1));
    let b = ctl.foreign_bound();
    assert!(b.is_finite(), "u64::MAX/1 rounds up to a finite f64");
    assert!(b >= u64::MAX as f64);
    assert!(ctl.prunes(&Rat::new(u64::MAX, 1)) == (rat_to_f64_down(&Rat::new(u64::MAX, 1)) >= b));
}

/// The negative-zero edge, pinned deterministically: zero makespans and
/// zero lower bounds keep positive-sign encodings end to end.
#[test]
fn negative_zero_edges() {
    let zero = Rat::new(0, 7);
    assert!(!rat_to_f64_down(&zero).is_sign_negative());
    assert!(rat_to_f64_up(&zero) >= 0.0);
    let ctl = SearchCtl::new();
    ctl.publish_makespan(&zero);
    let b = ctl.foreign_bound();
    assert!(
        b >= 0.0 && !b.is_sign_negative(),
        "stored bound must stay nonnegative-signed"
    );
    // A zero bound is the tightest possible: everything at or above the
    // round-up prunes, and the zero subtree itself still survives.
    assert!(!ctl.prunes(&zero));
    assert!(ctl.prunes(&Rat::new(1, 1)));
}
