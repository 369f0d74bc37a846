//! # bisched-obs — the workspace flight recorder
//!
//! An in-crate, dependency-free tracing substrate: per-thread lock-free
//! event buffers behind a guard-based span/instant/counter API that
//! compiles down to **one relaxed atomic load** when recording is off.
//! Engines call [`span`], [`instant`], and [`counter`] freely from their
//! hot paths; nothing blocks, nothing allocates after ring creation, and
//! a full buffer drops new events (counted exactly in
//! [`Trace::dropped`]) rather than stalling the producer.
//!
//! ## Life cycle
//!
//! ```
//! use bisched_obs::names;
//!
//! bisched_obs::start_recording(4096);          // capacity per thread
//! {
//!     let _s = bisched_obs::span(names::SOLVE, "core");
//!     bisched_obs::instant(names::BNB_INCUMBENT, "bnb", "makespan_floor", 17);
//!     bisched_obs::counter(names::FPTAS_LAYER_WIDTH, "fptas", 123);
//! }
//! let trace = bisched_obs::stop_recording();
//! assert_eq!(trace.dropped, 0);
//! assert_eq!(trace.events.len(), 3);
//! let json = trace.to_chrome_json();           // chrome://tracing / Perfetto
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```
//!
//! ## Design
//!
//! * One global `ENABLED: AtomicBool`. Every emission site loads it with
//!   `Ordering::Relaxed` and returns immediately when off — the entire
//!   disabled-path cost.
//! * Each emitting thread owns one append-only buffer of `Copy` events
//!   (`Box<[UnsafeCell<Event>]>`). Only the owner thread writes; slots
//!   are written at most once and published by a `Release` store of the
//!   ring's length, so a concurrent drain (`Acquire` load) sees only
//!   fully written events and can never observe a torn slot.
//! * Buffers register themselves in a global registry under a `Mutex`,
//!   taken once per thread per recording generation — never on the
//!   per-event path.
//! * [`stop_recording`] swaps the registry out, merges every thread's
//!   events into one timestamp-ordered stream, and sums the per-ring
//!   drop counters. A new [`start_recording`] bumps the generation, so
//!   stale thread-local rings from a previous recording are ignored.
//!
//! Event payloads are deliberately `Copy` and `&'static str`-keyed: no
//! formatting, hashing, or allocation happens at emission time. Event
//! names come from the closed registry in [`names`].

#![warn(missing_docs)]

pub mod log;
#[cfg(bisched_model)]
pub mod model;
pub mod names;
mod profile;
#[doc(hidden)]
pub mod ring;
pub mod sync;
mod trace;

pub use profile::{Profile, ProfileRow};
pub use trace::{Trace, TraceEvent};

use names::EventName;
use ring::{Event, Ring};
use std::cell::RefCell;
// The recorder's process-global control plane (enable flag, generation,
// registry) deliberately stays on the `std` primitives: model suites
// drive `ring::Ring` instances directly, and keeping the globals native
// means a `bisched_model` build of downstream crates records normally
// outside of model runs.
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What an [`Event`] renders as in the Chrome trace-event output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (`ph: "X"`): `ts` + `dur`.
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`): value plotted over time.
    Counter,
}

/// The one flag every emission site checks. Relaxed is sufficient: a
/// site that narrowly misses a toggle merely records (or skips) one
/// borderline event.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Recording generation; bumped by [`start_recording`] so thread-local
/// rings from an earlier recording are not written into the new one.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Per-thread ring capacity for the current recording.
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Dense thread ids handed to rings in registration order.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the recorder's first use; the `ts` domain of every
/// event in a process's traces.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    /// This thread's ring plus the generation it was created under.
    static LOCAL: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
}

/// Is recording on? One relaxed load — the entire disabled-path cost of
/// every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording with the given per-thread event capacity. Resets any
/// previous (un-stopped) recording's buffers. Threads allocate their
/// ring lazily on first emission.
pub fn start_recording(capacity_per_thread: usize) {
    let mut reg = REGISTRY.lock().unwrap();
    reg.clear();
    CAPACITY.store(capacity_per_thread.max(1), Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    epoch(); // pin the timestamp origin before any event
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the merged, timestamp-ordered trace with
/// the exact count of events dropped to the capacity bound.
pub fn stop_recording() -> Trace {
    ENABLED.store(false, Ordering::Relaxed);
    let rings: Vec<Arc<Ring>> = std::mem::take(&mut *REGISTRY.lock().unwrap());
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut dropped = 0u64;
    for ring in &rings {
        events.extend(ring.drain());
        dropped += ring.dropped_count();
    }
    trace::sort_events(&mut events);
    Trace { events, dropped }
}

/// Runs `f` with this thread's current-generation ring, creating and
/// registering it if needed.
fn with_ring(f: impl FnOnce(&Ring)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let gen = GENERATION.load(Ordering::Relaxed);
        let stale = match &*slot {
            Some((g, _)) => *g != gen,
            None => true,
        };
        if stale {
            let ring = Arc::new(Ring::new(
                CAPACITY.load(Ordering::Relaxed),
                NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ));
            REGISTRY.lock().unwrap().push(Arc::clone(&ring));
            *slot = Some((gen, ring));
        }
        let (_, ring) = slot.as_ref().unwrap();
        f(ring);
    });
}

fn emit(ev: Event) {
    with_ring(|ring| ring.push(ev));
}

/// Records a point-in-time marker with one integer payload.
#[inline]
pub fn instant(name: EventName, cat: &'static str, arg_name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    emit(Event {
        ts_us: now_us(),
        dur_us: 0,
        kind: EventKind::Instant,
        name: name.0,
        cat,
        arg_name,
        arg,
    });
}

/// Records a counter sample (`value` plotted over time under `name`).
#[inline]
pub fn counter(name: EventName, cat: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    emit(Event {
        ts_us: now_us(),
        dur_us: 0,
        kind: EventKind::Counter,
        name: name.0,
        cat,
        arg_name: "value",
        arg: value,
    });
}

/// Opens a span; the returned guard records a complete (`ph: "X"`) event
/// when dropped. Inert — a no-op holding no timestamp — when recording
/// is off at open time.
#[inline]
pub fn span(name: EventName, cat: &'static str) -> SpanGuard {
    span_arg(name, cat, "", 0)
}

/// [`span`] with one integer payload attached to the completed event.
#[inline]
pub fn span_arg(name: EventName, cat: &'static str, arg_name: &'static str, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start_us: 0,
            name: name.0,
            cat,
            arg_name,
            arg,
            active: false,
        };
    }
    SpanGuard {
        start_us: now_us(),
        name: name.0,
        cat,
        arg_name,
        arg,
        active: true,
    }
}

/// Guard for an open span; see [`span`].
#[must_use = "a span guard records its event when dropped"]
pub struct SpanGuard {
    start_us: u64,
    name: &'static str,
    cat: &'static str,
    arg_name: &'static str,
    arg: u64,
    active: bool,
}

impl SpanGuard {
    /// Replaces the span's integer payload (e.g. a result computed
    /// inside the span).
    pub fn set_arg(&mut self, arg_name: &'static str, arg: u64) {
        self.arg_name = arg_name;
        self.arg = arg;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // An inert guard stays inert even if recording started meanwhile
        // (it holds no meaningful start timestamp); an active guard still
        // records if recording stopped, which the drain simply ignores.
        if !self.active || !enabled() {
            return;
        }
        let end = now_us();
        emit(Event {
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            kind: EventKind::Span,
            name: self.name,
            cat: self.cat,
            arg_name: self.arg_name,
            arg: self.arg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests that record serialize on
    // this lock so they cannot interleave generations.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_emits_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        assert!(!enabled());
        instant(EventName("x"), "test", "v", 1);
        counter(EventName("c"), "test", 2);
        drop(span(EventName("s"), "test"));
        let trace = {
            start_recording(16);
            stop_recording()
        };
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn spans_instants_and_counters_round_trip() {
        let _g = TEST_LOCK.lock().unwrap();
        start_recording(64);
        {
            let mut s = span(EventName("outer"), "test");
            s.set_arg("answer", 42);
            instant(EventName("mark"), "test", "k", 7);
            counter(EventName("width"), "test", 9);
        }
        let trace = stop_recording();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), 3);
        let by_name = |n: &str| trace.events.iter().find(|e| e.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!((outer.arg_name, outer.arg), ("answer", 42));
        assert_eq!(by_name("mark").kind, EventKind::Instant);
        assert_eq!(by_name("width").kind, EventKind::Counter);
        // Events are timestamp-ordered and spans nest: the instant falls
        // inside [outer.ts, outer.ts + dur].
        let m = by_name("mark");
        assert!(outer.ts_us <= m.ts_us && m.ts_us <= outer.ts_us + outer.dur_us);
    }

    #[test]
    fn full_ring_drops_exactly_the_overflow() {
        let _g = TEST_LOCK.lock().unwrap();
        start_recording(8);
        for i in 0..20 {
            instant(EventName("e"), "test", "i", i);
        }
        let trace = stop_recording();
        assert_eq!(trace.events.len(), 8);
        assert_eq!(trace.dropped, 12);
    }

    #[test]
    fn restart_discards_previous_generation() {
        let _g = TEST_LOCK.lock().unwrap();
        start_recording(16);
        instant(EventName("old"), "test", "", 0);
        // No stop: a fresh start must still leave the old event behind.
        start_recording(16);
        instant(EventName("new"), "test", "", 0);
        let trace = stop_recording();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "new");
    }
}
