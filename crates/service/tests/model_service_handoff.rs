//! Model-checked suite for the service's queue/LRU handoff (compiled
//! only under `RUSTFLAGS="--cfg bisched_model"`).
//!
//! The protocol under test lives in `crates/service/src/server.rs` and
//! `worker.rs`: requests check `shutting_down` (SeqCst), probe the
//! shared `Mutex<LruCache>`, and on a miss enqueue **under the queue
//! mutex** into a bounded channel; shutdown swaps the flag and closes
//! the queue under that same mutex; workers drain whatever was accepted
//! before the close ("no accepted job is dropped" — worker.rs docs).
//! The channel is mirrored as `Mutex<Chan { open, buf }>` (same lock
//! discipline: sends and the close serialize on one mutex; buffered
//! jobs stay drainable after the close), the cache is the **real**
//! `bisched_service::LruCache` behind the facade mutex.
//!
//! Invariants explored over the complete interleaving space:
//!
//! * the accept/close race never loses or duplicates an accepted job,
//!   and never accepts after the close;
//! * the bounded queue's busy accounting is exact (`accepted + busy ==
//!   submitted`);
//! * concurrent duplicate-miss inserts and a racing reader stay
//!   consistent: the reader only ever sees a fully built report for the
//!   right key, and `len <= cap` holds through every eviction
//!   interleaving.

#![cfg(bisched_model)]

use bisched_graph::Graph;
use bisched_model::Instance;
use bisched_obs::model::{self, Options};
use bisched_obs::sync::{AtomicBool, Mutex, Ordering};
use bisched_service::LruCache;
use std::sync::Arc;

/// Mirror of the `Mutex<Option<SyncSender<Job>>>` + channel-buffer pair.
struct Chan {
    open: bool,
    buf: Vec<u64>,
}

struct Handoff {
    shutting_down: AtomicBool,
    chan: Mutex<Chan>,
    cap: usize,
}

#[derive(Debug, PartialEq, Eq)]
enum Submit {
    Accepted,
    Busy,
    Refused,
}

impl Handoff {
    fn new(cap: usize) -> Self {
        Handoff {
            shutting_down: AtomicBool::new(false),
            chan: Mutex::new(Chan {
                open: true,
                buf: Vec::new(),
            }),
            cap,
        }
    }

    /// Mirror of the request path's enqueue step (`solve_in`).
    fn submit(&self, job: u64) -> Submit {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Submit::Refused;
        }
        let mut chan = self.chan.lock().unwrap();
        if !chan.open {
            return Submit::Refused; // tx dropped: Err(None) in the real code
        }
        if chan.buf.len() >= self.cap {
            return Submit::Busy; // TrySendError::Full
        }
        chan.buf.push(job);
        Submit::Accepted
    }

    /// Mirror of `Service::shutdown`: flag first, then close the queue
    /// under its mutex.
    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.chan.lock().unwrap().open = false;
    }

    /// Mirror of a worker draining after the close: buffered jobs are
    /// still received (`recv` keeps returning until empty+closed).
    fn drain(&self) -> Vec<u64> {
        let mut chan = self.chan.lock().unwrap();
        assert!(!chan.open, "drain models the post-close worker exit path");
        std::mem::take(&mut chan.buf)
    }
}

#[test]
fn shutdown_race_loses_no_accepted_job() {
    let report = model::check("handoff_shutdown", Options::default(), || {
        let h = Arc::new(Handoff::new(8));
        let outcomes: Arc<Mutex<Vec<(u64, Submit)>>> = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|job| {
                let (h, outcomes) = (Arc::clone(&h), Arc::clone(&outcomes));
                model::spawn(move || {
                    let r = h.submit(job);
                    outcomes.lock().unwrap().push((job, r));
                })
            })
            .collect();
        let closer = {
            let h = Arc::clone(&h);
            model::spawn(move || h.shutdown())
        };
        for p in producers {
            p.join();
        }
        closer.join();

        let drained = h.drain();
        let outcomes = outcomes.lock().unwrap();
        let mut accepted: Vec<u64> = outcomes
            .iter()
            .filter(|(_, r)| *r == Submit::Accepted)
            .map(|(j, _)| *j)
            .collect();
        accepted.sort_unstable();
        let mut got = drained.clone();
        got.sort_unstable();
        assert_eq!(
            got, accepted,
            "accepted jobs and the post-close drain must agree exactly \
             (lost or phantom job across the shutdown race)"
        );
        for (job, r) in outcomes.iter() {
            if *r != Submit::Accepted {
                assert!(
                    !drained.contains(job),
                    "job {job} was refused yet sits in the queue"
                );
            }
        }
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
    assert!(report.schedules > 1, "scheduler found no concurrency");
}

#[test]
fn bounded_queue_busy_accounting_is_exact() {
    let report = model::check("handoff_busy", Options::default(), || {
        let h = Arc::new(Handoff::new(1));
        let outcomes: Arc<Mutex<Vec<Submit>>> = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = [10u64, 11]
            .into_iter()
            .map(|job| {
                let (h, outcomes) = (Arc::clone(&h), Arc::clone(&outcomes));
                model::spawn(move || {
                    let r = h.submit(job);
                    outcomes.lock().unwrap().push(r);
                })
            })
            .collect();
        for p in producers {
            p.join();
        }
        let outcomes = outcomes.lock().unwrap();
        let accepted = outcomes.iter().filter(|r| **r == Submit::Accepted).count();
        let busy = outcomes.iter().filter(|r| **r == Submit::Busy).count();
        // No shutdown in flight: nothing may be refused, and with cap 1
        // and 2 submissions exactly one lands and exactly one bounces.
        assert_eq!(accepted + busy, 2, "a submission vanished");
        assert_eq!(accepted, 1, "bounded queue admitted {accepted} of cap 1");
        assert!(
            h.chan.lock().unwrap().buf.len() <= 1,
            "queue above its bound"
        );
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
}

/// Mirror of the sharded front end: one global `shutting_down` flag,
/// one `Mutex<Chan>` per shard (the per-shard `Mutex<Option<SyncSender>>`
/// and bounded channel in `server.rs`); `Service::begin_shutdown` swaps
/// the flag once, then closes every shard's queue in index order.
struct ShardedHandoff {
    shutting_down: AtomicBool,
    shards: Vec<Mutex<Chan>>,
    cap: usize,
}

impl ShardedHandoff {
    fn new(shards: usize, cap: usize) -> Self {
        ShardedHandoff {
            shutting_down: AtomicBool::new(false),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Chan {
                        open: true,
                        buf: Vec::new(),
                    })
                })
                .collect(),
            cap,
        }
    }

    /// Mirror of `handle_solve`: route, then enqueue on the owning
    /// shard only — no other shard's lock is touched.
    fn submit(&self, job: u64) -> Submit {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Submit::Refused;
        }
        let shard = (job % self.shards.len() as u64) as usize;
        let mut chan = self.shards[shard].lock().unwrap();
        if !chan.open {
            return Submit::Refused;
        }
        if chan.buf.len() >= self.cap {
            return Submit::Busy;
        }
        chan.buf.push(job);
        Submit::Accepted
    }

    /// Mirror of `Service::begin_shutdown`: flag first, then close each
    /// shard's queue under its own mutex, in index order.
    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            shard.lock().unwrap().open = false;
        }
    }

    fn drain(&self, shard: usize) -> Vec<u64> {
        let mut chan = self.shards[shard].lock().unwrap();
        assert!(!chan.open, "drain models the post-close worker exit path");
        std::mem::take(&mut chan.buf)
    }
}

#[test]
fn per_shard_shutdown_loses_no_accepted_job_on_any_shard() {
    let report = model::check("handoff_shard_shutdown", Options::default(), || {
        let h = Arc::new(ShardedHandoff::new(2, 8));
        let outcomes: Arc<Mutex<Vec<(u64, Submit)>>> = Arc::new(Mutex::new(Vec::new()));
        // Jobs 20 and 21 route to shards 0 and 1 respectively, so the
        // closer races BOTH shards' queue closes against an in-flight
        // submit on each.
        let producers: Vec<_> = [20u64, 21]
            .into_iter()
            .map(|job| {
                let (h, outcomes) = (Arc::clone(&h), Arc::clone(&outcomes));
                model::spawn(move || {
                    let r = h.submit(job);
                    outcomes.lock().unwrap().push((job, r));
                })
            })
            .collect();
        let closer = {
            let h = Arc::clone(&h);
            model::spawn(move || h.shutdown())
        };
        for p in producers {
            p.join();
        }
        closer.join();

        let outcomes = outcomes.lock().unwrap();
        for shard in 0..2usize {
            let drained = h.drain(shard);
            let mut accepted: Vec<u64> = outcomes
                .iter()
                .filter(|(job, r)| (*job % 2) as usize == shard && *r == Submit::Accepted)
                .map(|(job, _)| *job)
                .collect();
            accepted.sort_unstable();
            let mut got = drained;
            got.sort_unstable();
            assert_eq!(
                got, accepted,
                "shard {shard}: accepted jobs and the post-close drain \
                 must agree exactly across the sharded shutdown race"
            );
        }
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
    assert!(report.schedules > 1, "scheduler found no concurrency");
}

#[test]
fn shard_queues_bounce_independently_with_exact_accounting() {
    let report = model::check("handoff_shard_busy", Options::default(), || {
        // Cap 1 per shard: two jobs racing for shard 0, one for shard 1.
        // Shard 0's backpressure must bounce exactly one of its two
        // submissions and must not leak onto shard 1.
        let h = Arc::new(ShardedHandoff::new(2, 1));
        let outcomes: Arc<Mutex<Vec<(u64, Submit)>>> = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = [30u64, 32, 31]
            .into_iter()
            .map(|job| {
                let (h, outcomes) = (Arc::clone(&h), Arc::clone(&outcomes));
                model::spawn(move || {
                    let r = h.submit(job);
                    outcomes.lock().unwrap().push((job, r));
                })
            })
            .collect();
        for p in producers {
            p.join();
        }
        let outcomes = outcomes.lock().unwrap();
        let count = |shard: u64, want: Submit| {
            outcomes
                .iter()
                .filter(|(job, r)| job % 2 == shard && *r == want)
                .count()
        };
        assert_eq!(
            (count(0, Submit::Accepted), count(0, Submit::Busy)),
            (1, 1),
            "shard 0: two submissions into cap 1 must split accept/busy exactly"
        );
        assert_eq!(
            (count(1, Submit::Accepted), count(1, Submit::Busy)),
            (1, 0),
            "shard 1: its queue is independent — shard 0's pressure must not bounce it"
        );
        for (shard, chan) in h.shards.iter().enumerate() {
            assert!(
                chan.lock().unwrap().buf.len() <= 1,
                "shard {shard} queue above its bound"
            );
        }
    });
    assert!(report.complete, "exploration was budget-cut: {report:?}");
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
    let report = model::check("handoff_cache_dup", Options::default(), move || {
        let cache = Arc::new(Mutex::new(LruCache::new(2)));
        // Two workers race duplicate misses for the same fingerprint —
        // the service deliberately has no single-flight dedup
        // (worker.rs docs), so both insert; the second replaces in
        // place.
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
    let report = model::check("handoff_cache_evict", Options::default(), move || {
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
