//! Model-checked protocol suite for `bisched_exact::SearchCtl` — the
//! cross-engine incumbent bound + cancellation flag every portfolio
//! race shares (compiled only under `RUSTFLAGS="--cfg bisched_model"`;
//! plain `cargo test` skips the file).
//!
//! The real type is used, not a mirror: under `bisched_model` its
//! atomics are the instrumented facade, so every load/store/fetch_min
//! below is a scheduling point and the suite explores the complete
//! interleaving space at the default preemption bound (asserted via
//! `report.complete`).
//!
//! Invariants pinned here, matching the race logic in
//! `crates/core/src/solver/mod.rs` (`solve_race` / `race_member`):
//!
//! * the bound exchange is monotone: `foreign_bound()` never increases,
//!   and settles at the round-up of the minimum published makespan;
//! * publish-rounds-up / prune-rounds-down never prunes a subtree that
//!   could still beat the winner — in particular never the true optimum;
//! * first-proven-winner cancellation: a heuristic result is never
//!   certified `Optimal`, and a mid-run-cancelled engine never supplies
//!   the certificate;
//! * regression corpus: replacing the `fetch_min` publish with a
//!   load-then-store MUST be caught as a lost update — otherwise the
//!   checker has gone blind.

#![cfg(bisched_model)]

use bisched_exact::search_ctl::{rat_to_f64_down, rat_to_f64_up};
use bisched_exact::SearchCtl;
use bisched_model::Rat;
use bisched_obs::model::{self, Options};
use bisched_obs::sync::{AtomicU64, Mutex, Ordering};
use std::sync::Arc;

#[test]
fn bound_exchange_is_monotone_nonincreasing() {
    let report = model::check("searchctl_monotone", Options::default(), || {
        let ctl = Arc::new(SearchCtl::new());
        let a = {
            let ctl = Arc::clone(&ctl);
            model::spawn(move || {
                ctl.publish_makespan(&Rat::new(10, 1));
                ctl.publish_makespan(&Rat::new(7, 2)); // 3.5
            })
        };
        let b = {
            let ctl = Arc::clone(&ctl);
            model::spawn(move || {
                ctl.publish_makespan(&Rat::new(10, 3)); // 3.33…, the minimum
            })
        };
        // Concurrent sampler: the bound must only ever tighten.
        let s1 = ctl.foreign_bound();
        let s2 = ctl.foreign_bound();
        assert!(s2 <= s1, "bound went back up: {s1} then {s2}");
        a.join();
        b.join();
        let settled = ctl.foreign_bound();
        assert!(settled <= s2, "bound rose after joins: {s2} then {settled}");
        let expected = rat_to_f64_up(&Rat::new(10, 3));
        assert_eq!(
            settled, expected,
            "settled bound must be the round-up of the minimum published makespan"
        );
        assert!(
            settled >= 10.0 / 3.0,
            "round-up must not undershoot the exact value"
        );
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
    assert!(report.schedules > 1, "scheduler found no concurrency");
}

#[test]
fn pruning_never_kills_a_subtree_below_the_winner() {
    let report = model::check("searchctl_prune_sound", Options::default(), || {
        let ctl = Arc::new(SearchCtl::new());
        let publishers: Vec<_> = [Rat::new(7, 2), Rat::new(10, 3)]
            .into_iter()
            .map(|mk| {
                let ctl = Arc::clone(&ctl);
                model::spawn(move || ctl.publish_makespan(&mk))
            })
            .collect();
        // The winner's makespan will be 10/3; a subtree with exact lower
        // bound 3 (< 10/3) can still improve on it, so it must survive
        // at every point of every interleaving.
        let optimum_lb = Rat::new(3, 1);
        assert!(!ctl.prunes(&optimum_lb), "pruned below the winner mid-race");
        for p in publishers {
            p.join();
        }
        assert!(
            !ctl.prunes(&optimum_lb),
            "pruned below the winner after the race settled"
        );
        // Sanity on the other side: once both makespans are in, a lower
        // bound that cannot beat the winner (4 > 3.5 > 10/3) does prune.
        assert!(ctl.prunes(&Rat::new(4, 1)), "pruning never engaged");
        // Edge: a zero lower bound is never prunable while any finite
        // bound is positive.
        assert!(!ctl.prunes(&Rat::new(0, 1)));
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}

/// One mirrored race member, matching `race_member` in
/// `crates/core/src/solver/mod.rs`: skip when already cancelled,
/// otherwise search the candidate list under shared-bound pruning,
/// publish the result, and cancel the race on a proven optimum.
struct MemberResult {
    name: &'static str,
    makespan: Option<u64>,
    optimal: bool,
    cancelled: bool,
}

fn run_member(
    name: &'static str,
    candidates: &[u64],
    exhaustive: bool,
    ctl: &SearchCtl,
) -> MemberResult {
    if ctl.cancelled() {
        return MemberResult {
            name,
            makespan: None,
            optimal: false,
            cancelled: true,
        };
    }
    let mut best: Option<u64> = None;
    let mut complete = true;
    for &c in candidates {
        if ctl.cancelled() {
            // Mid-run cancellation: keep the incumbent, drop the proof —
            // exactly what a budget-cut branch-and-bound reports.
            complete = false;
            break;
        }
        let lb = Rat::new(c, 1);
        if ctl.prunes(&lb) {
            // Shared-bound pruning stays part of a complete proof (see
            // the soundness argument in bisched_exact::search_ctl).
            continue;
        }
        if best.is_none_or(|b| c < b) {
            best = Some(c);
        }
    }
    if let Some(mk) = best {
        ctl.publish_makespan(&Rat::new(mk, 1));
    }
    let optimal = exhaustive && complete && best.is_some();
    if optimal {
        ctl.cancel();
    }
    MemberResult {
        name,
        makespan: best,
        optimal,
        cancelled: !complete,
    }
}

/// Mirror of `solve_race`'s winner selection + certification: the
/// winner is the smallest achieved makespan; the race's `Optimal` badge
/// requires some member's *completed* proof.
fn certify(results: &[MemberResult]) -> (Option<u64>, bool) {
    let winner = results.iter().filter_map(|r| r.makespan).min();
    let certified = winner.is_some()
        && results
            .iter()
            .any(|r| r.makespan.is_some() && r.optimal && !r.cancelled);
    (winner, certified)
}

#[test]
fn heuristic_is_never_certified_optimal() {
    let report = model::check("searchctl_no_false_optimal", Options::default(), || {
        let ctl = Arc::new(SearchCtl::new());
        let results: Arc<Mutex<Vec<MemberResult>>> = Arc::new(Mutex::new(Vec::new()));

        // A: a heuristic — achieves 4, proves nothing, never cancels.
        let a = {
            let (ctl, results) = (Arc::clone(&ctl), Arc::clone(&results));
            model::spawn(move || {
                if ctl.cancelled() {
                    results.lock().unwrap().push(MemberResult {
                        name: "heuristic",
                        makespan: None,
                        optimal: false,
                        cancelled: true,
                    });
                    return;
                }
                ctl.publish_makespan(&Rat::new(4, 1));
                results.lock().unwrap().push(MemberResult {
                    name: "heuristic",
                    makespan: Some(4),
                    optimal: false,
                    cancelled: false,
                });
            })
        };
        // B: an exhaustive search over {4, 3}; the true optimum is 3.
        let b = {
            let (ctl, results) = (Arc::clone(&ctl), Arc::clone(&results));
            model::spawn(move || {
                let r = run_member("exact", &[4, 3], true, &ctl);
                results.lock().unwrap().push(r);
            })
        };
        a.join();
        b.join();

        let results = results.lock().unwrap();
        let (winner, certified) = certify(&results);
        // B never gets skipped (A never cancels), pruning is
        // conservative, so the true optimum always survives:
        assert_eq!(winner, Some(3), "the race lost the true optimum");
        for r in results.iter() {
            if r.name == "heuristic" {
                assert!(!r.optimal, "a heuristic claimed a proof");
            }
        }
        if certified {
            // The certificate must come from the completed exact search,
            // certifying the winner's makespan 3 — never A's 4.
            assert_eq!(winner, Some(3));
        }
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}

#[test]
fn cancelled_member_never_supplies_the_certificate() {
    let report = model::check("searchctl_cancelled_no_cert", Options::default(), || {
        let ctl = Arc::new(SearchCtl::new());
        let results: Arc<Mutex<Vec<MemberResult>>> = Arc::new(Mutex::new(Vec::new()));
        // B: fast exhaustive search — proves 3 optimal, cancels the race.
        let b = {
            let (ctl, results) = (Arc::clone(&ctl), Arc::clone(&results));
            model::spawn(move || {
                let r = run_member("fast_exact", &[3], true, &ctl);
                results.lock().unwrap().push(r);
            })
        };
        // C: slow exhaustive search racing the cancellation.
        let c = {
            let (ctl, results) = (Arc::clone(&ctl), Arc::clone(&results));
            model::spawn(move || {
                let r = run_member("slow_exact", &[4, 3], true, &ctl);
                results.lock().unwrap().push(r);
            })
        };
        b.join();
        c.join();

        let results = results.lock().unwrap();
        for r in results.iter() {
            if r.cancelled {
                assert!(
                    !r.optimal,
                    "member {} was cancelled mid-run yet claims a completed proof",
                    r.name
                );
            }
        }
        let (winner, certified) = certify(&results);
        assert_eq!(winner, Some(3), "the race lost the true optimum");
        assert!(
            certified,
            "B's completed proof must certify the winner in every interleaving"
        );
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}

/// Regression corpus: a publish implemented as load-then-store (instead
/// of `fetch_min`) loses concurrent updates; the checker must find the
/// interleaving where the settled bound is above the minimum published
/// makespan.
#[test]
fn mutation_load_store_publish_is_caught() {
    let violation =
        model::check_expect_violation("searchctl_lost_update", Options::default(), || {
            struct WeakCtl {
                bound: AtomicU64,
            }
            impl WeakCtl {
                fn publish(&self, mk: &Rat) {
                    // The seeded bug: a non-atomic read-modify-write.
                    let new = rat_to_f64_up(mk).to_bits();
                    let cur = self.bound.load(Ordering::Relaxed);
                    if new < cur {
                        self.bound.store(new, Ordering::Relaxed);
                    }
                }
            }
            let ctl = Arc::new(WeakCtl {
                bound: AtomicU64::new(f64::INFINITY.to_bits()),
            });
            let a = {
                let ctl = Arc::clone(&ctl);
                model::spawn(move || ctl.publish(&Rat::new(3, 1)))
            };
            let b = {
                let ctl = Arc::clone(&ctl);
                model::spawn(move || ctl.publish(&Rat::new(2, 1)))
            };
            a.join();
            b.join();
            let settled = f64::from_bits(ctl.bound.load(Ordering::Relaxed));
            assert!(
                settled <= rat_to_f64_up(&Rat::new(2, 1)),
                "lost update: settled bound {settled} is above the minimum published makespan"
            );
        });
    assert!(
        violation.message.contains("lost update"),
        "expected the lost-update assertion, got: {}",
        violation.message
    );
}

/// The directed roundings bracket the exact value even at the edges the
/// race actually hits (zero and the `fetch_min` identity `+inf` bit
/// pattern) — checked here so a rounding regression fails the model
/// suite too, not just the proptests.
#[test]
fn rounding_brackets_are_sound_at_the_edges() {
    let zero = Rat::new(0, 1);
    assert!(rat_to_f64_down(&zero) <= 0.0 && 0.0 <= rat_to_f64_up(&zero));
    assert!(rat_to_f64_down(&zero).is_sign_positive() || rat_to_f64_down(&zero) == 0.0);
    let big = Rat::new(u64::MAX, 1);
    assert!(rat_to_f64_up(&big) >= u64::MAX as f64);
    assert!(rat_to_f64_up(&big).is_finite());
    // The fetch_min identity: +inf bits compare above every published
    // nonnegative bound, so "no bound yet" loses to any real makespan.
    assert!(f64::INFINITY.to_bits() > rat_to_f64_up(&big).to_bits());
}
