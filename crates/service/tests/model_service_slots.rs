//! Model-checked suite for the service's solve-slot semaphore and shard
//! cache (compiled only under `RUSTFLAGS="--cfg bisched_model"`).
//!
//! The tests drive the real `bisched_service::slots::Slots`, whose mutex
//! and condvar come from the `bisched_obs::sync` facade, and the real
//! `LruCache` behind the facade mutex. Invariants explored over the
//! complete interleaving space (preemption bound 2):
//!
//! * at every step, running ≤ slots and waiting ≤ `queue_cap`;
//! * admitted + busy + refused == submitted;
//! * a shutdown that races the waiters still finishes every admitted
//!   miss, and refuses every miss after it;
//! * no wake-up is lost: a waiter that is never woken is never runnable
//!   again, which the checker reports as a deadlock in any test. The
//!   mutation tests pin that it does, for a release without a notify and
//!   for a release that frees the slot while a miss waits;
//! * concurrent duplicate-miss inserts and a racing reader stay
//!   consistent, and `len <= cap` holds through every eviction.

#![cfg(bisched_model)]

use bisched_graph::Graph;
use bisched_model::Instance;
use bisched_obs::model::{self, Options};
use bisched_obs::sync::Mutex;
use bisched_service::slots::{Admission, Permit, Slots};
use bisched_service::LruCache;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Admitted,
    Busy,
    Refused,
}

/// A shard's slots plus ghost state: misses holding a slot right now, and
/// admitted misses that finished.
struct Shard {
    slots: Slots,
    cap: usize,
    queue_cap: usize,
    running: Mutex<usize>,
    finished: Mutex<usize>,
}

impl Shard {
    fn new(cap: usize, queue_cap: usize) -> Arc<Shard> {
        Arc::new(Shard {
            slots: Slots::new(cap, queue_cap),
            cap,
            queue_cap,
            running: Mutex::new(0),
            finished: Mutex::new(0),
        })
    }

    /// One miss, as `handle_solve` serves it: take a slot or be refused,
    /// "solve" while holding it, release.
    fn miss(&self) -> Outcome {
        let permit = match self.slots.acquire() {
            Admission::Admitted(permit) => permit,
            Admission::Busy => return Outcome::Busy,
            Admission::Closed => return Outcome::Refused,
        };
        let running = {
            let mut running = self.running.lock().unwrap();
            *running += 1;
            *running
        };
        assert!(
            running <= self.cap,
            "{running} misses hold {} slots",
            self.cap
        );
        let waiting = self.slots.waiting();
        assert!(
            waiting <= self.queue_cap,
            "{waiting} misses wait, cap {}",
            self.queue_cap
        );
        *self.running.lock().unwrap() -= 1;
        *self.finished.lock().unwrap() += 1;
        drop(permit);
        Outcome::Admitted
    }

    fn held(&self) -> Permit<'_> {
        match self.slots.acquire() {
            Admission::Admitted(permit) => permit,
            other => panic!("an idle shard must admit, got {other:?}"),
        }
    }
}

/// Runs `misses` misses on model threads; returns each one's outcome.
fn submit(shard: &Arc<Shard>, misses: usize) -> Vec<model::JoinHandle<Outcome>> {
    (0..misses)
        .map(|_| {
            let shard = Arc::clone(shard);
            model::spawn(move || shard.miss())
        })
        .collect()
}

fn count(outcomes: &[Outcome], want: Outcome) -> usize {
    outcomes.iter().filter(|o| **o == want).count()
}

#[test]
fn running_and_waiting_stay_bounded_and_accounting_is_exact() {
    let report = model::check("slots_bounds", Options::default(), || {
        // One slot, one waiting place, three misses at once.
        let shard = Shard::new(1, 1);
        let outcomes: Vec<Outcome> = submit(&shard, 3).into_iter().map(|h| h.join()).collect();
        let admitted = count(&outcomes, Outcome::Admitted);
        assert_eq!(
            admitted + count(&outcomes, Outcome::Busy),
            3,
            "a miss vanished"
        );
        assert!(admitted >= 1, "an idle shard refused every miss");
        assert_eq!(*shard.finished.lock().unwrap(), admitted);
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
    assert!(report.schedules > 1, "scheduler found no concurrency");
}

#[test]
fn shutdown_racing_the_waiters_finishes_every_admitted_miss() {
    let report = model::check("slots_shutdown", Options::default(), || {
        // The slot is taken, so both misses wait (or are refused if the
        // close beats them) while the closer runs; each release must wake
        // a waiter, or a join below never returns.
        let shard = Shard::new(1, 2);
        let held = shard.held();
        let misses = submit(&shard, 2);
        let closer = {
            let shard = Arc::clone(&shard);
            model::spawn(move || shard.slots.close())
        };
        drop(held);
        closer.join();
        let outcomes: Vec<Outcome> = misses.into_iter().map(|h| h.join()).collect();
        let admitted = count(&outcomes, Outcome::Admitted);
        assert_eq!(
            admitted + count(&outcomes, Outcome::Refused),
            2,
            "no miss is busy"
        );
        assert_eq!(
            *shard.finished.lock().unwrap(),
            admitted,
            "an admitted miss never finished"
        );
        assert!(matches!(shard.slots.acquire(), Admission::Closed));
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
    assert!(report.schedules > 1, "scheduler found no concurrency");
}

/// One miss queues behind a held slot that `release` gives back; a broken
/// release must leave the miss blocked forever in some interleaving.
fn assert_release_loses_the_waiter(name: &str, release: fn(Permit<'_>)) {
    let violation = model::check_expect_violation(name, Options::default(), move || {
        let shard = Shard::new(1, 1);
        let held = shard.held();
        let miss = submit(&shard, 1).pop().unwrap();
        release(held);
        miss.join();
    });
    assert!(
        violation.message.contains("deadlock"),
        "expected the waiter to block forever, got: {}",
        violation.message
    );
}

#[test]
fn mutation_release_without_notify_is_caught() {
    assert_release_loses_the_waiter("slots_no_notify", |p| p.release_without_notify_for_model());
}

#[test]
fn mutation_release_that_frees_a_waited_slot_is_caught() {
    assert_release_loses_the_waiter("slots_barging", |p| p.release_to_free_for_model());
}

fn report_for(p: u64) -> Arc<bisched_core::SolveReport> {
    let inst = Instance::identical(2, vec![p, 1], Graph::empty(2)).unwrap();
    Arc::new(bisched_core::Solver::new().solve(&inst).unwrap())
}

#[test]
fn duplicate_miss_inserts_and_reader_stay_consistent() {
    // Reports are built natively before the exploration starts; the
    // model threads only move Arcs.
    let r1 = report_for(7);
    let report = model::check("cache_dup", Options::default(), move || {
        let cache = Arc::new(Mutex::new(LruCache::new(2)));
        // Two connection threads race duplicate misses for the same
        // fingerprint — the service deliberately has no single-flight
        // dedup (server.rs docs), so both insert; the second replaces
        // in place.
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let r = Arc::clone(&r1);
                model::spawn(move || {
                    cache.lock().unwrap().insert(1, vec![0xAB], r);
                })
            })
            .collect();
        // A racing reader: a hit must return the fully built report for
        // the right key (certificate check included), never a torn or
        // foreign value.
        {
            let mut cache = cache.lock().unwrap();
            if let Some(hit) = cache.get(1, &[0xAB]) {
                assert!(
                    Arc::ptr_eq(&hit, &r1),
                    "cache hit returned a report that was never inserted under key 1"
                );
            }
            assert!(
                cache.get(1, &[0xCD]).is_none(),
                "certificate mismatch must miss"
            );
        }
        for w in workers {
            w.join();
        }
        let mut cache = cache.lock().unwrap();
        assert_eq!(cache.len(), 1, "duplicate insert must replace in place");
        assert!(
            cache.get(1, &[0xAB]).is_some(),
            "post-join read must hit: both inserts happened-before the joins"
        );
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}

#[test]
fn eviction_interleavings_respect_the_capacity_bound() {
    let r1 = report_for(3);
    let r2 = report_for(5);
    let report = model::check("cache_evict", Options::default(), move || {
        let cache = Arc::new(Mutex::new(LruCache::new(1)));
        let inserters: Vec<_> = [(1u128, &r1), (2u128, &r2)]
            .into_iter()
            .map(|(key, r)| {
                let cache = Arc::clone(&cache);
                let r = Arc::clone(r);
                model::spawn(move || {
                    cache.lock().unwrap().insert(key, vec![key as u8], r);
                })
            })
            .collect();
        {
            let cache = cache.lock().unwrap();
            assert!(cache.len() <= 1, "cap-1 cache grew past its bound mid-race");
        }
        for i in inserters {
            i.join();
        }
        let mut cache = cache.lock().unwrap();
        assert_eq!(cache.len(), 1);
        // Exactly one of the two keys survived the eviction race; the
        // surviving entry must be internally consistent (key, cert, and
        // report all from the same insert).
        let hit1 = cache.get(1, &[1u8]).map(|r| Arc::ptr_eq(&r, &r1));
        let hit2 = cache.get(2, &[2u8]).map(|r| Arc::ptr_eq(&r, &r2));
        match (hit1, hit2) {
            (Some(true), None) | (None, Some(true)) => {}
            other => panic!("eviction race left an inconsistent cache: {other:?}"),
        }
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}
