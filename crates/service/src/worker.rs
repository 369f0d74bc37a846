//! The solver worker pools: each shard owns N threads over its own MPSC
//! queue, each draining up to `batch_max` queued jobs per wake-up into a
//! single [`Solver::solve_batch`] call (the micro-batching collector).
//! Workers never touch another shard's state, so the solve path is free
//! of cross-shard locks.
//!
//! Only misses that find every solve slot taken reach the queue: while
//! a shard runs fewer solves than it has workers, the connection thread
//! solves its miss itself through [`process_batch`]. Batches form only
//! from a backlog. Every job in a batch waits for the whole
//! `solve_batch` call, so a worker that had to wait for work takes the
//! job that woke it alone: a job arriving right behind it goes to the
//! next free worker instead of queueing behind a long solve. Workers
//! take queued jobs even while connection threads hold every slot, so
//! under overload a shard runs up to twice its worker count of solves.
//!
//! Workers solve **canonical** instances and publish the reports into
//! their shard's cache before replying. There is no single-flight
//! deduplication: k *concurrent* identical misses may each be solved
//! before the first insert lands; every submission after that is a cache
//! hit. When the server drops a shard queue's sender during shutdown,
//! each of that shard's workers finishes draining whatever was already
//! accepted and exits — no accepted job is dropped.

use crate::server::Shared;
use bisched_core::{SolveError, SolveReport, Solver, SolverConfig};
use bisched_model::Instance;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One queued solve: the canonicalized request plus its reply channel.
/// The handler keeps the label permutations; the worker only needs the
/// canonical instance and its cache key.
pub(crate) struct Job {
    /// The server-minted request id, for span/log attribution.
    pub request_id: u64,
    /// The instance in canonical form.
    pub instance: Instance,
    /// The raw canonical fingerprint (the shard routing key), recorded
    /// with the cache entry so snapshots can re-bucket it under a
    /// different shard count.
    pub route: u128,
    /// Cache key of the canonical form (fingerprint ⊕ config bytes).
    pub fingerprint: u128,
    /// Canonical certificate bytes (stored with the cache entry).
    pub certificate: Vec<u8>,
    /// Fully resolved solver configuration for this request.
    pub config: SolverConfig,
    /// Oneshot reply channel back to the connection handler.
    pub reply: Sender<JobReply>,
    /// When the handler enqueued the job — a worker draining it records
    /// the elapsed time as the job's queue-wait component.
    pub enqueued: std::time::Instant,
}

/// What a worker sends back (in **canonical** labeling; the handler maps
/// it through its [`Canonical`] perms).
pub(crate) enum JobReply {
    /// The canonical instance's solve report, with the job's measured
    /// phase timings (the handler folds them into its slow-request
    /// exemplar span tree).
    Solved {
        /// The report, shared with the cache.
        report: Arc<SolveReport>,
        /// Time the job waited in the bounded queue, microseconds.
        queue_us: u64,
        /// Wall time of the job's whole micro-batch `solve_batch` call,
        /// microseconds (every job in a batch waits for all of it).
        solve_us: u64,
    },
    /// The solve failed.
    Failed(SolveError),
}

/// Spawns `n` workers over `rx`, all serving shard `shard_idx`.
pub(crate) fn spawn_shard_workers(
    n: usize,
    batch_max: usize,
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    shard_idx: usize,
) -> Vec<JoinHandle<()>> {
    let rx = Arc::new(Mutex::new(rx));
    (0..n)
        .map(|i| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("bisched-worker-{shard_idx}-{i}"))
                .spawn(move || worker_loop(&rx, &shared, shard_idx, batch_max))
                .expect("spawn worker thread")
        })
        .collect()
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared, shard_idx: usize, batch_max: usize) {
    loop {
        // Hold the receiver only while collecting (the guard drops with
        // this statement); solving happens unlocked so the shard's other
        // workers keep draining.
        let Some(batch) = collect(&rx.lock().unwrap(), batch_max) else {
            return; // queue closed and drained: shutdown
        };
        let solving = &shared.shards[shard_idx].solving;
        solving.fetch_add(1, Ordering::Relaxed);
        process_batch(batch, shared, shard_idx);
        solving.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The next batch: up to `batch_max` jobs that were already queued, or,
/// when none was, the one job the worker blocks for. `None` once the
/// queue is closed and drained (shutdown).
fn collect<T>(rx: &Receiver<T>, batch_max: usize) -> Option<Vec<T>> {
    let first = match rx.try_recv() {
        Ok(job) => job,
        Err(TryRecvError::Empty) => return rx.recv().ok().map(|job| vec![job]),
        Err(TryRecvError::Disconnected) => return None,
    };
    let mut batch = vec![first];
    while batch.len() < batch_max {
        match rx.try_recv() {
            Ok(job) => batch.push(job),
            Err(_) => break,
        }
    }
    Some(batch)
}

/// Solves one collected batch: jobs are grouped by configuration (each
/// group shares one `Solver` and one `solve_batch` call), results are
/// cached in the owning shard and replied per job. Connection threads
/// call it too, with a batch of one, when they solve a miss themselves.
pub(crate) fn process_batch(batch: Vec<Job>, shared: &Shared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    let _batch_span = bisched_obs::span_arg("batch", "service", "jobs", batch.len() as u64);
    shard.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shard
        .metrics
        .batched_jobs
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    // Queue wait ends the moment the batch is collected; the solve phase
    // is measured separately below. The per-job wait is kept (via
    // `drained_at`) so the reply can carry it back to the handler.
    let drained_at = std::time::Instant::now();
    for job in &batch {
        shard
            .metrics
            .record_queue_wait(drained_at.duration_since(job.enqueued).as_micros() as u64);
    }
    let mut groups: Vec<(SolverConfig, Vec<Job>)> = Vec::new();
    for job in batch {
        match groups.iter_mut().find(|(c, _)| *c == job.config) {
            Some((_, jobs)) => jobs.push(job),
            None => {
                let config = job.config.clone();
                groups.push((config, vec![job]));
            }
        }
    }
    for (config, jobs) in groups {
        let solver: Solver = match config.build() {
            Ok(s) => s,
            Err(e) => {
                for job in jobs {
                    let _ = job.reply.send(JobReply::Failed(e.clone()));
                }
                continue;
            }
        };
        let instances: Vec<Instance> = jobs.iter().map(|j| j.instance.clone()).collect();
        let solve_t0 = std::time::Instant::now();
        let reports = solver.solve_batch(&instances);
        // Every job in the group waited for the whole `solve_batch` call
        // before its reply could be sent, so the group's wall time *is*
        // each job's solve-phase latency.
        let solve_us = solve_t0.elapsed().as_micros() as u64;
        for (job, result) in jobs.into_iter().zip(reports) {
            // Log lines emitted while settling this job carry its rid.
            let _rid = bisched_obs::log::request_scope(job.request_id);
            shard.metrics.record_solve_time(solve_us);
            let queue_us = drained_at.duration_since(job.enqueued).as_micros() as u64;
            match result {
                Ok(report) => {
                    let report = Arc::new(report);
                    shard.metrics.record_win(report.method);
                    for run in &report.attempts {
                        if run.cancelled {
                            shard.metrics.record_cancelled(run.method);
                        }
                    }
                    {
                        let mut cache = shard.cache.lock().unwrap();
                        let evictions_before = cache.counters().evictions;
                        cache.insert_routed(
                            job.route,
                            job.fingerprint,
                            job.certificate,
                            Arc::clone(&report),
                        );
                        if cache.counters().evictions > evictions_before {
                            bisched_obs::instant("cache_evict", "service", "", 0);
                        }
                    }
                    bisched_obs::instant("job_done", "service", "request_id", job.request_id);
                    let _ = job.reply.send(JobReply::Solved {
                        report,
                        queue_us,
                        solve_us,
                    });
                }
                Err(e) => {
                    let _ = job.reply.send(JobReply::Failed(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::collect;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn backlog_drains_up_to_batch_max() {
        let (tx, rx) = mpsc::channel();
        for job in 0..5 {
            tx.send(job).unwrap();
        }
        assert_eq!(collect(&rx, 3), Some(vec![0, 1, 2]));
        assert_eq!(collect(&rx, 3), Some(vec![3, 4]));
        drop(tx);
        assert_eq!(collect(&rx, 3), None);
    }

    #[test]
    fn closed_queue_drains_before_shutdown() {
        let (tx, rx) = mpsc::channel();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(collect(&rx, 16), Some(vec![7]));
        assert_eq!(collect(&rx, 16), None);
    }

    #[test]
    fn a_waiting_worker_takes_one_job() {
        let (tx, rx) = mpsc::channel();
        let collector = std::thread::spawn(move || {
            let first = collect(&rx, 16);
            (first, collect(&rx, 16))
        });
        // Give the collector time to block on the empty queue, then send
        // two jobs back to back: the second must not join the first's
        // batch, because another worker could be free to take it.
        std::thread::sleep(Duration::from_millis(100));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let (first, second) = collector.join().unwrap();
        assert_eq!(first, Some(vec![1]));
        assert_eq!(second, Some(vec![2]));
    }
}
