//! The flight recorder's per-thread event buffer, ported onto the
//! [`crate::sync`] facade so the `bisched_model` build can exhaustively
//! model-check its publish protocol (see `crates/obs/tests/model_ring.rs`
//! and `crates/obs/README.md`).
//!
//! The module is `#[doc(hidden)]` public: the supported API is the
//! recorder front end in the crate root; this surface exists for the
//! model-checking and Miri suites, which need to drive a `Ring`
//! directly from multiple threads.
//!
//! ## Why Release/Acquire suffice
//!
//! A `Ring` is single-producer, multi-reader, append-only:
//!
//! 1. Only the owner thread stores to `len`, so its `Relaxed` load of
//!    `len` in [`Ring::push`] reads its own last store — no other
//!    thread ever writes it.
//! 2. A slot is written at most once, by the owner, strictly before the
//!    `Release` store of `len` that covers it; `len` is monotone.
//! 3. A drain `Acquire`-loads `len` and reads only slots below it. Each
//!    such slot's write is sequenced before some `Release` store of a
//!    length `> i`, which synchronizes-with the `Acquire` load the
//!    reader performed (reading from the latest store in the release
//!    sequence headed by it), so the write happens-before the read.
//!    A torn or stale slot read is therefore impossible.
//! 4. `dropped` is owner-incremented only, so `Relaxed` suffices; a
//!    drain that races a straggling producer may undercount *published*
//!    events but never miscounts drops (`stop_recording` reads it after
//!    the registry swap, and exactness under contention is pinned by
//!    the model suite).

use crate::sync::{AtomicU64, AtomicUsize, Ordering, UnsafeCell};
use crate::{EventKind, TraceEvent};

/// One recorded event. `Copy`, fixed-size, `&'static str`-keyed — built
/// and stored without touching the allocator.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Span duration (0 for instants/counters).
    pub dur_us: u64,
    /// How the event renders in the Chrome trace output.
    pub kind: EventKind,
    /// Event name.
    pub name: &'static str,
    /// Event category.
    pub cat: &'static str,
    /// Name of the integer payload.
    pub arg_name: &'static str,
    /// Integer payload.
    pub arg: u64,
}

pub(crate) const EMPTY_EVENT: Event = Event {
    ts_us: 0,
    dur_us: 0,
    kind: EventKind::Instant,
    name: "",
    cat: "",
    arg_name: "",
    arg: 0,
};

impl Event {
    /// A distinguishable test event carrying `i` in both timestamp and
    /// payload — the model/Miri suites use the pattern to detect torn
    /// or misattributed slot reads.
    pub fn probe(i: u64) -> Event {
        Event {
            ts_us: i,
            dur_us: 0,
            kind: EventKind::Instant,
            name: "probe",
            cat: "model",
            arg_name: "i",
            arg: i,
        }
    }
}

/// A single thread's append-only event buffer. The owning thread is the
/// only writer; slots are written once and published by a `Release`
/// store of `len`, making the post-stop drain race-free (the module
/// docs carry the full argument).
pub struct Ring {
    slots: Box<[UnsafeCell<Event>]>,
    /// Number of published events (`Release` on write, `Acquire` on
    /// drain). Monotone, never exceeds `slots.len()`.
    len: AtomicUsize,
    /// Events rejected because the buffer was full.
    dropped: AtomicU64,
    /// Small dense id for the owning thread, stable for the trace.
    tid: u64,
}

// SAFETY: sharing a `&Ring` across threads is sound because the only
// interior-mutable unsynchronized state is `slots`, and the protocol in
// the module docs (single writer, write-once slots, Release-published
// length, readers stay below an Acquire-loaded length) puts every slot
// write in happens-before order with every slot read. The model suite
// (`tests/model_ring.rs`) checks this claim on every interleaving up to
// the preemption bound.
unsafe impl Sync for Ring {}

// SAFETY: moving a `Ring` between threads adds no hazard beyond the
// `Sync` sharing argument above: the heap allocation it owns is
// address-stable, and `Event` is `Copy` `'static` data with no thread
// affinity. ("Owner thread" means whichever thread currently pushes —
// the protocol needs a unique writer, not a fixed one.)
unsafe impl Send for Ring {}

impl Ring {
    /// An empty ring with space for `capacity` events, attributed to
    /// thread id `tid` in drained traces.
    pub fn new(capacity: usize, tid: u64) -> Ring {
        let slots: Vec<UnsafeCell<Event>> = (0..capacity)
            .map(|_| UnsafeCell::new(EMPTY_EVENT))
            .collect();
        Ring {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
        }
    }

    /// Owner-thread-only append; drops (and counts) when full.
    pub fn push(&self, ev: Event) {
        let at = self.len.load(Ordering::Relaxed);
        if at >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owner thread writes, and `at` has not been
        // published yet, so no reader is looking at this slot.
        unsafe {
            self.slots[at].with_mut(|slot| *slot = ev);
        }
        self.len.store(at + 1, Ordering::Release);
    }

    /// [`Ring::push`] with the length published `Relaxed` instead of
    /// `Release` — a deliberately broken variant the model suite uses as
    /// a mutation test: the checker must flag the resulting torn-read
    /// race, or it has lost its teeth. Model builds only; never a
    /// production code path.
    #[cfg(bisched_model)]
    pub fn push_relaxed_for_model(&self, ev: Event) {
        let at = self.len.load(Ordering::Relaxed);
        if at >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: same single-writer slot access as `push`; the point of
        // this variant is that the *publication* below is too weak, and
        // the model must catch exactly that.
        unsafe {
            self.slots[at].with_mut(|slot| *slot = ev);
        }
        self.len.store(at + 1, Ordering::Relaxed);
    }

    /// Copies out every published event (safe concurrently with a
    /// straggling producer: unpublished slots are simply not read).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let n = self.len.load(Ordering::Acquire).min(self.slots.len());
        (0..n)
            .map(|i| {
                // SAFETY: slot `i < n` was fully written before the
                // Release store that published it.
                let ev = unsafe { self.slots[i].with(|slot| *slot) };
                TraceEvent {
                    ts_us: ev.ts_us,
                    dur_us: ev.dur_us,
                    kind: ev.kind,
                    name: ev.name,
                    cat: ev.cat,
                    arg_name: ev.arg_name,
                    arg: ev.arg,
                    tid: self.tid,
                }
            })
            .collect()
    }

    /// Number of events rejected because the buffer was full.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}
