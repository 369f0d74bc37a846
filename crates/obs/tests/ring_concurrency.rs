//! Ring-buffer behaviour under real thread concurrency: N producer
//! threads emit into their own rings; the merged stream must be
//! timestamp-ordered, lossless below capacity, and drop-exact above it.

use bisched_obs::names;
use std::sync::{Barrier, Mutex};

/// The recorder is process-global, so the tests in this file serialize.
static LOCK: Mutex<()> = Mutex::new(());

const THREADS: usize = 8;
const PER_THREAD: u64 = 500;

fn emit_from_threads(events_per_thread: u64) {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..events_per_thread {
                    // Payload encodes (thread, sequence) so the merge
                    // can be audited event by event.
                    bisched_obs::instant(names::JOB_DONE, "test", "seq", t * 1_000_000 + i);
                }
            });
        }
    });
}

#[test]
fn merged_stream_is_timestamp_ordered_and_lossless_below_capacity() {
    let _g = LOCK.lock().unwrap();
    bisched_obs::start_recording(PER_THREAD as usize); // exactly enough
    emit_from_threads(PER_THREAD);
    let trace = bisched_obs::stop_recording();

    assert_eq!(trace.dropped, 0, "below capacity nothing may be dropped");
    assert_eq!(trace.events.len(), THREADS * PER_THREAD as usize);

    // Global merge order: non-decreasing timestamps.
    for w in trace.events.windows(2) {
        assert!(
            w[0].ts_us <= w[1].ts_us,
            "merged stream out of order: {} then {}",
            w[0].ts_us,
            w[1].ts_us
        );
    }

    // Per producer: every sequence number present exactly once, and the
    // per-thread substream (same emitting thread ⇒ same tid) preserves
    // both emission order and timestamp order.
    for t in 0..THREADS as u64 {
        let seqs: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.arg / 1_000_000 == t)
            .map(|e| e.arg % 1_000_000)
            .collect();
        assert_eq!(seqs.len(), PER_THREAD as usize, "thread {t} lost events");
        let tids: std::collections::BTreeSet<u64> = trace
            .events
            .iter()
            .filter(|e| e.arg / 1_000_000 == t)
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 1, "one producer must map to one ring/tid");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "thread {t} substream reordered");
        assert_eq!(sorted, (0..PER_THREAD).collect::<Vec<_>>());
    }
}

#[test]
fn drop_counter_is_exact_above_capacity() {
    let _g = LOCK.lock().unwrap();
    let capacity = 64u64;
    let overflow = 37u64;
    bisched_obs::start_recording(capacity as usize);
    emit_from_threads(capacity + overflow);
    let trace = bisched_obs::stop_recording();

    // Each thread keeps exactly `capacity` events and drops exactly
    // `overflow` — the counter is an exact tally, not an estimate.
    assert_eq!(trace.events.len(), THREADS * capacity as usize);
    assert_eq!(trace.dropped, THREADS as u64 * overflow);

    // What survives is each thread's prefix (drop-newest policy).
    for t in 0..THREADS as u64 {
        let seqs: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.arg / 1_000_000 == t)
            .map(|e| e.arg % 1_000_000)
            .collect();
        let mut sorted = seqs;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..capacity).collect::<Vec<_>>());
    }
}

#[test]
fn concurrent_emission_with_spans_keeps_nesting_sane() {
    let _g = LOCK.lock().unwrap();
    bisched_obs::start_recording(4096);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..50u64 {
                    let _s = bisched_obs::span_arg(names::SOLVE_REQUEST, "test", "i", i);
                    bisched_obs::instant(names::JOB_DONE, "test", "i", i);
                }
            });
        }
    });
    let trace = bisched_obs::stop_recording();
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.events.len(), 4 * 50 * 2);
    // Every span's instant (same tid, same i) lies within the span.
    for span in trace
        .events
        .iter()
        .filter(|e| e.kind == bisched_obs::EventKind::Span)
    {
        let inner = trace
            .events
            .iter()
            .find(|e| {
                e.kind == bisched_obs::EventKind::Instant && e.tid == span.tid && e.arg == span.arg
            })
            .expect("each span emitted one instant");
        assert!(span.ts_us <= inner.ts_us && inner.ts_us <= span.ts_us + span.dur_us);
    }
}
