//! A bounded model checker for the workspace's lock-free protocols
//! (compiled only under `--cfg bisched_model`).
//!
//! [`check`] runs a closure under a **deterministic controlled
//! scheduler**: every operation on a [`crate::sync`] facade type
//! (atomic load/store/RMW, `UnsafeCell` access, mutex lock/unlock,
//! condvar wait/notify, spawn/join) is a scheduling point where exactly
//! one thread is allowed to proceed. A depth-first search over those
//! choices enumerates every interleaving, subject to:
//!
//! * a **preemption bound** (context switches away from a runnable
//!   thread): classic Musuvathi–Qadeer bounding, since almost all
//!   protocol bugs need very few preemptions to surface;
//! * **seen-state hashing**: two interleavings reaching the same
//!   (thread histories, shadow memory, happens-before) state have the
//!   same future, so the subtree is explored once. Location identity in
//!   the hash is the *first-touch fingerprint* (op kind + toucher
//!   history), not the allocation address, so the hash is stable across
//!   re-executions; per-location contributions combine orderlessly.
//!
//! ## Memory model
//!
//! Values are **sequentially consistent** (every load observes the
//! latest store — no store buffering), while *synchronization* is
//! tracked precisely with vector clocks: `Release` stores publish the
//! writer's clock, `Acquire` loads join it, RMWs continue release
//! sequences, mutexes release/acquire at unlock/lock, spawn/join edges
//! are inherited, and a condvar wait is an unlock followed, once a
//! notify picks the waiter, by a lock. Every
//! [`crate::sync::UnsafeCell`] access is checked for happens-before
//! data-race freedom against that clock order — a torn read is reported
//! even though the *values* explored are SC. This is the loom approach: it cannot exhibit stale-value executions, but
//! it catches exactly the class of bug that breaks the workspace's
//! protocols (publishing data through an insufficiently-ordered flag),
//! and the `Relaxed`-publish mutation suites pin that it does.
//!
//! Assumptions the checker makes of a model (all hold for the suites in
//! this repo, and `crates/obs/README.md` documents them):
//!
//! * the closure is deterministic given the schedule (no wall-clock, no
//!   ambient randomness);
//! * ghost state (plain `std` bookkeeping inside a model) is never held
//!   locked across a facade operation;
//! * shared locations are created in deterministic order (first-touch
//!   fingerprints are then stable), which holds when models build their
//!   shared state before spawning.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What kind of atomic operation a facade shim is reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicKind {
    /// A plain load.
    Load,
    /// A plain store.
    Store,
    /// A read-modify-write (`swap`, `fetch_add`, `fetch_min`, …).
    Rmw,
}

/// Exploration limits for one [`check`] call.
#[derive(Clone, Debug)]
pub struct Options {
    /// Maximum context switches away from a still-runnable thread per
    /// interleaving (`None` = unbounded: the full interleaving space).
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules; hitting it marks the report
    /// incomplete rather than looping forever.
    pub max_schedules: usize,
    /// Hard cap on scheduling points in a single schedule.
    pub max_steps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            // The acceptance bar for the workspace's protocol models:
            // every interleaving reachable with at most two preemptions.
            preemption_bound: Some(2),
            max_schedules: 500_000,
            max_steps: 20_000,
        }
    }
}

impl Options {
    /// The full interleaving space: no preemption bound.
    pub fn unbounded() -> Self {
        Options {
            preemption_bound: None,
            ..Options::default()
        }
    }
}

/// What one [`check`] exploration did.
#[derive(Clone, Debug)]
pub struct Report {
    /// Interleavings executed (including seen-state-pruned prefixes).
    pub schedules: usize,
    /// Runs abandoned early because their state was already explored.
    pub pruned: usize,
    /// Deepest schedule (in scheduling points) encountered.
    pub max_depth: usize,
    /// `true` when the DFS exhausted the (bounded) interleaving space —
    /// the coverage claim; `false` when a budget in [`Options`] cut it.
    pub complete: bool,
}

/// A counterexample: the invariant that failed and the interleaving
/// that reached it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The panic message of the failed assertion (or the checker's own
    /// race/deadlock diagnosis).
    pub message: String,
    /// Human-readable trace of every scheduling point up to the
    /// failure: `T<tid> <op> = <value>` lines.
    pub trace: Vec<String>,
    /// The chosen thread at each scheduling point (replayable).
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model violation: {}", self.message)?;
        writeln!(f, "schedule (thread per step): {:?}", self.schedule)?;
        writeln!(f, "trace:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Thread-side plumbing
// ---------------------------------------------------------------------

/// Marker payload for panics that abandon a schedule (not violations).
struct AbortToken;

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Facade hook: an atomic operation. Outside a model run the native
/// closure executes directly.
pub(crate) fn atomic_op(
    addr: usize,
    kind: AtomicKind,
    ord: Ordering,
    desc: &'static str,
    native: impl FnOnce() -> u64,
) -> u64 {
    match current() {
        None => native(),
        Some((exec, tid)) => exec.scheduled_op(
            tid,
            Pending::Atomic {
                addr,
                kind,
                ord,
                desc,
            },
            native,
        ),
    }
}

/// Facade hook: an `UnsafeCell` access (`write == true` for `with_mut`).
pub(crate) fn cell_access(addr: usize, write: bool) {
    if let Some((exec, tid)) = current() {
        exec.scheduled_op(tid, Pending::Cell { addr, write }, || 0);
    }
}

/// Facade hook: block until the model mutex at `addr` is free, then
/// take it.
pub(crate) fn mutex_lock(addr: usize) {
    if let Some((exec, tid)) = current() {
        exec.scheduled_op(tid, Pending::MutexLock { addr }, || 0);
    }
}

/// Facade hook: release the model mutex at `addr`. Never panics while
/// unwinding (guards drop during aborts), at the cost of skipping the
/// scheduling point there.
pub(crate) fn mutex_unlock(addr: usize) {
    let Some((exec, tid)) = current() else { return };
    if std::thread::panicking() {
        // Unwinding through a guard: just mark the mutex free so the
        // abort drain can finish; the run is already abandoned.
        let mut st = exec.state.lock().unwrap();
        if let Some(id) = st.addr_ids.get(&addr).copied() {
            if let Some(m) = st.mutexes.get_mut(&id) {
                m.owner = None;
            }
        }
        exec.cv.notify_all();
        return;
    }
    exec.scheduled_op(tid, Pending::MutexUnlock { addr }, || 0);
}

/// Facade hook: the start of a condvar wait. Joins `cv`'s waiters while
/// the caller still holds the mutex, so no notify slips in before the
/// caller unlocks; the caller's next lock is held back until a notify
/// picks it. Returns `false` outside a model run, where the caller waits
/// on the native condvar instead.
pub(crate) fn condvar_wait(cv: usize) -> bool {
    let Some((exec, tid)) = current() else {
        return false;
    };
    exec.scheduled_op(tid, Pending::CondvarWait { cv }, || 0);
    true
}

/// Facade hook: `notify_one` (`all == false`) or `notify_all` on `cv`.
/// Returns `false` outside a model run, where the caller notifies the
/// native condvar instead.
pub(crate) fn condvar_notify(cv: usize, all: bool) -> bool {
    let Some((exec, tid)) = current() else {
        return false;
    };
    exec.scheduled_op(tid, Pending::Notify { cv, all }, || 0);
    true
}

/// Spawns a model thread. Must be called from inside a [`check`]
/// closure; the child participates in the controlled schedule.
pub fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let (exec, tid) = current().expect("model::spawn outside a model run");
    // The spawn is a scheduling point; `apply` allocates the child while
    // the grant holds the state lock and hands its tid back as the value.
    let child_tid = exec.scheduled_op(tid, Pending::Spawn, || 0) as usize;
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let exec2 = Arc::clone(&exec);
    let os = std::thread::Builder::new()
        .name(format!("bisched-model-{child_tid}"))
        .spawn(move || {
            run_model_thread(exec2, child_tid, move || {
                let v = f();
                *slot.lock().unwrap() = Some(v);
            });
        })
        .expect("spawn model thread");
    exec.state.lock().unwrap().os_handles.push(os);
    JoinHandle {
        exec,
        tid: child_tid,
        result,
    }
}

/// Handle to a model thread; see [`spawn`].
pub struct JoinHandle<T> {
    exec: Arc<Exec>,
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (in the model scheduler) until the thread finishes and
    /// returns its value, inheriting its happens-before edges.
    pub fn join(self) -> T {
        let (exec, me) = current().expect("JoinHandle::join outside a model run");
        debug_assert!(Arc::ptr_eq(&exec, &self.exec));
        exec.scheduled_op(me, Pending::Join { target: self.tid }, || 0);
        self.result
            .lock()
            .unwrap()
            .take()
            .expect("joined model thread left no result")
    }
}

/// Wrapper body shared by thread 0 and spawned children: registers with
/// the exec, waits for its start grant, runs `f`, classifies panics.
fn run_model_thread(exec: Arc<Exec>, tid: usize, f: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        exec.scheduled_op(tid, Pending::Start, || 0);
        f();
    }));
    let mut st = exec.state.lock().unwrap();
    if let Err(payload) = outcome {
        if payload.downcast_ref::<AbortToken>().is_none() && st.violation.is_none() {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "model thread panicked (non-string payload)".into());
            st.violation = Some(Violation {
                message: format!("thread T{tid}: {message}"),
                trace: st.trace.clone(),
                schedule: st.choice_trace.clone(),
            });
        }
    }
    st.threads[tid].status = Status::Finished;
    exec.cv.notify_all();
    drop(st);
    CURRENT.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Pending {
    Start,
    Spawn,
    Atomic {
        addr: usize,
        kind: AtomicKind,
        ord: Ordering,
        desc: &'static str,
    },
    Cell {
        addr: usize,
        write: bool,
    },
    MutexLock {
        addr: usize,
    },
    MutexUnlock {
        addr: usize,
    },
    CondvarWait {
        cv: usize,
    },
    Notify {
        cv: usize,
        all: bool,
    },
    Join {
        target: usize,
    },
}

#[derive(Clone, Debug)]
enum Status {
    /// Allocated by a spawn, OS thread not yet parked at its start op.
    Registering,
    /// Parked at a scheduling point, waiting for a grant.
    Wants(Pending),
    /// Granted; executing its operation.
    Granted,
    /// Between operations, running uninstrumented user code.
    Running,
    Finished,
}

type VClock = Vec<u32>;

fn clock_join(into: &mut VClock, other: &VClock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

#[derive(Clone, Debug)]
struct AtomicLoc {
    /// Release message: the publishing clock an acquire load joins.
    msg: Option<VClock>,
    /// Shadow of the current value (for state hashing).
    val: u64,
}

#[derive(Clone, Debug, Default)]
struct CellLoc {
    /// Last write: `(tid, epoch)`, plus the full clock for diagnostics.
    last_write: Option<(usize, u32)>,
    /// Per-thread epoch of each thread's latest read.
    readers: Vec<u32>,
}

#[derive(Clone, Debug, Default)]
struct MutexLoc {
    owner: Option<usize>,
    release: VClock,
}

struct LocMeta {
    /// Schedule-invariant identity: hash of (first toucher's history at
    /// first touch, op description). Used instead of the id in state
    /// hashes so hashing is stable across re-executions.
    fingerprint: u64,
}

struct St {
    threads: Vec<ThreadSlot>,
    registering: usize,
    aborting: bool,
    violation: Option<Violation>,
    trace: Vec<String>,
    choice_trace: Vec<usize>,
    os_handles: Vec<std::thread::JoinHandle<()>>,

    clocks: Vec<VClock>,
    histories: Vec<u64>,
    addr_ids: HashMap<usize, u32>,
    loc_meta: Vec<LocMeta>,
    atomics: HashMap<u32, AtomicLoc>,
    cells: HashMap<u32, CellLoc>,
    mutexes: HashMap<u32, MutexLoc>,
    /// Per condvar, the threads waiting for a notify, longest first.
    condvars: HashMap<u32, Vec<usize>>,
}

struct ThreadSlot {
    status: Status,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn mix(h: u64, v: u64) -> u64 {
    let mut h = h ^ v;
    h = h.wrapping_mul(FNV_PRIME);
    // splitmix-style finishing rotation for better diffusion than bare
    // FNV on structured integers.
    h ^= h >> 29;
    h.wrapping_mul(0xbf58476d1ce4e5b9)
}

impl St {
    fn new() -> St {
        St {
            threads: Vec::new(),
            registering: 0,
            aborting: false,
            violation: None,
            trace: Vec::new(),
            choice_trace: Vec::new(),
            os_handles: Vec::new(),
            clocks: Vec::new(),
            histories: Vec::new(),
            addr_ids: HashMap::new(),
            loc_meta: Vec::new(),
            atomics: HashMap::new(),
            cells: HashMap::new(),
            mutexes: HashMap::new(),
            condvars: HashMap::new(),
        }
    }

    /// Allocates a thread slot; the child's clock inherits the parent's
    /// (the spawn edge) when there is one.
    fn alloc_thread(&mut self, parent: usize) -> usize {
        let tid = self.threads.len();
        self.threads.push(ThreadSlot {
            status: Status::Registering,
        });
        self.registering += 1;
        let mut clock = if tid == 0 {
            Vec::new()
        } else {
            self.clocks[parent].clone()
        };
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        clock[tid] = 1;
        self.clocks.push(clock);
        self.histories.push(mix(FNV_OFFSET, tid as u64));
        tid
    }

    /// Dense id for `addr`, minting one (with a schedule-invariant
    /// fingerprint) on first touch.
    fn intern(&mut self, addr: usize, toucher: usize, desc: &str) -> u32 {
        if let Some(&id) = self.addr_ids.get(&addr) {
            return id;
        }
        let id = self.loc_meta.len() as u32;
        let mut fp = mix(FNV_OFFSET, self.histories[toucher]);
        for b in desc.bytes() {
            fp = mix(fp, b as u64);
        }
        self.loc_meta.push(LocMeta { fingerprint: fp });
        self.addr_ids.insert(addr, id);
        id
    }

    fn fingerprint(&self, id: u32) -> u64 {
        self.loc_meta[id as usize].fingerprint
    }

    /// Orderless state hash: identical hashes ⇒ identical futures (up
    /// to hash collisions), the justification for seen-state pruning.
    fn state_hash(&self, budget_left: Option<usize>) -> u64 {
        let mut h = mix(FNV_OFFSET, budget_left.map_or(u64::MAX, |b| b as u64));
        for (tid, slot) in self.threads.iter().enumerate() {
            let tag = match slot.status {
                Status::Finished => 1u64,
                _ => 0,
            };
            let mut th = mix(mix(FNV_OFFSET, tid as u64), self.histories[tid]);
            th = mix(th, tag);
            for &c in &self.clocks[tid] {
                th = mix(th, c as u64);
            }
            h ^= th;
        }
        for (&id, a) in &self.atomics {
            let mut lh = mix(self.fingerprint(id), a.val);
            if let Some(msg) = &a.msg {
                for &c in msg {
                    lh = mix(lh, c as u64 + 1);
                }
            }
            h = h.wrapping_add(lh);
        }
        for (&id, c) in &self.cells {
            let mut lh = mix(self.fingerprint(id), 0x9e3779b97f4a7c15);
            if let Some((t, e)) = c.last_write {
                lh = mix(lh, ((t as u64) << 32) | e as u64);
            }
            for (t, &e) in c.readers.iter().enumerate() {
                if e > 0 {
                    lh = mix(lh, ((t as u64) << 32) | e as u64);
                }
            }
            h = h.wrapping_add(lh);
        }
        for (&id, m) in &self.mutexes {
            let mut lh = mix(self.fingerprint(id), m.owner.map_or(u64::MAX, |o| o as u64));
            for &c in &m.release {
                lh = mix(lh, c as u64);
            }
            h = h.wrapping_add(lh);
        }
        for (&id, waiters) in &self.condvars {
            let mut lh = mix(self.fingerprint(id), 0x632be59bd9b4e019);
            for &t in waiters {
                lh = mix(lh, t as u64);
            }
            h = h.wrapping_add(lh);
        }
        h
    }

    /// Whether `tid`'s `pending` can run right now (mutex free and, after
    /// a condvar wait, notified; join target finished; …).
    fn runnable(&self, tid: usize, pending: &Pending) -> bool {
        match pending {
            Pending::MutexLock { addr } => {
                let free = match self.addr_ids.get(addr) {
                    Some(id) => self.mutexes.get(id).is_none_or(|m| m.owner.is_none()),
                    None => true,
                };
                free && !self.condvars.values().any(|w| w.contains(&tid))
            }
            Pending::Join { target } => {
                matches!(self.threads[*target].status, Status::Finished)
            }
            _ => true,
        }
    }

    /// Happens-before bookkeeping + race checks for one granted
    /// operation; returns the (possibly op-determined) result value, or
    /// a violation message instead of panicking so the caller controls
    /// unwinding.
    fn apply(&mut self, tid: usize, pending: &Pending, val: u64) -> Result<u64, String> {
        // Every operation is a new epoch of its thread.
        if self.clocks[tid].len() <= tid {
            self.clocks[tid].resize(tid + 1, 0);
        }
        self.clocks[tid][tid] += 1;
        let (desc, addr) = match pending {
            Pending::Start => ("start", None),
            Pending::Spawn => ("spawn", None),
            Pending::Atomic { addr, desc, .. } => (*desc, Some(*addr)),
            Pending::Cell { addr, write } => {
                (if *write { "cell.write" } else { "cell.read" }, Some(*addr))
            }
            Pending::MutexLock { addr } => ("mutex.lock", Some(*addr)),
            Pending::MutexUnlock { addr } => ("mutex.unlock", Some(*addr)),
            Pending::CondvarWait { cv } => ("condvar.wait", Some(*cv)),
            Pending::Notify { cv, .. } => ("condvar.notify", Some(*cv)),
            Pending::Join { .. } => ("join", None),
        };
        let id = addr.map(|a| self.intern(a, tid, desc));
        let fp = id.map(|i| self.fingerprint(i)).unwrap_or(0);
        self.histories[tid] = mix(mix(mix(self.histories[tid], fp), val), desc.len() as u64);
        self.trace.push(match id {
            Some(i) => format!("T{tid} {desc}@L{i} = {val}"),
            None => format!("T{tid} {desc} = {val}"),
        });

        match pending {
            Pending::Start => Ok(val),
            // The child is allocated here, under the lock the grant
            // already holds (the thread side must not re-lock).
            Pending::Spawn => Ok(self.alloc_thread(tid) as u64),
            Pending::Join { target } => {
                let target_clock = self.clocks[*target].clone();
                clock_join(&mut self.clocks[tid], &target_clock);
                Ok(val)
            }
            Pending::Atomic { kind, ord, .. } => {
                let id = id.unwrap();
                let entry = self
                    .atomics
                    .entry(id)
                    .or_insert(AtomicLoc { msg: None, val: 0 });
                let acquire_side = matches!(
                    (kind, ord),
                    (
                        AtomicKind::Load | AtomicKind::Rmw,
                        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
                    )
                );
                let release_side = matches!(
                    (kind, ord),
                    (
                        AtomicKind::Store | AtomicKind::Rmw,
                        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
                    )
                );
                let msg = entry.msg.clone();
                entry.val = val;
                if acquire_side {
                    if let Some(msg) = &msg {
                        clock_join(&mut self.clocks[tid], msg);
                    }
                }
                let entry = self.atomics.get_mut(&id).unwrap();
                match kind {
                    AtomicKind::Store => {
                        // A plain store replaces the message: a relaxed
                        // store publishes nothing.
                        entry.msg = release_side.then(|| self.clocks[tid].clone());
                    }
                    AtomicKind::Rmw => {
                        // RMWs continue the release sequence of the
                        // message they read; a releasing RMW also adds
                        // its own clock.
                        if release_side {
                            let mut m = msg.unwrap_or_default();
                            clock_join(&mut m, &self.clocks[tid]);
                            entry.msg = Some(m);
                        }
                        // else: keep the existing message.
                    }
                    AtomicKind::Load => {}
                }
                Ok(val)
            }
            Pending::Cell { write, .. } => {
                let id = id.unwrap();
                let my_clock = self.clocks[tid].clone();
                let cell = self.cells.entry(id).or_default();
                if let Some((wt, we)) = cell.last_write {
                    if my_clock.get(wt).copied().unwrap_or(0) < we {
                        return Err(format!(
                            "data race on cell L{id}: {} by T{tid} is concurrent with the \
                             write by T{wt} (no happens-before edge — a torn access)",
                            if *write { "write" } else { "read" },
                        ));
                    }
                }
                if *write {
                    for (rt, &re) in cell.readers.iter().enumerate() {
                        if re > 0 && rt != tid && my_clock.get(rt).copied().unwrap_or(0) < re {
                            return Err(format!(
                                "data race on cell L{id}: write by T{tid} is concurrent \
                                 with a read by T{rt}"
                            ));
                        }
                    }
                    cell.last_write = Some((tid, my_clock[tid]));
                    cell.readers.iter_mut().for_each(|r| *r = 0);
                } else {
                    if cell.readers.len() <= tid {
                        cell.readers.resize(tid + 1, 0);
                    }
                    cell.readers[tid] = my_clock[tid];
                }
                Ok(val)
            }
            Pending::MutexLock { .. } => {
                let id = id.unwrap();
                let m = self.mutexes.entry(id).or_default();
                if let Some(owner) = m.owner {
                    return Err(format!(
                        "scheduler bug: mutex L{id} granted to T{tid} while held by T{owner}"
                    ));
                }
                m.owner = Some(tid);
                let rel = m.release.clone();
                clock_join(&mut self.clocks[tid], &rel);
                Ok(val)
            }
            Pending::MutexUnlock { .. } => {
                let id = id.unwrap();
                let clock = self.clocks[tid].clone();
                let m = self.mutexes.entry(id).or_default();
                m.owner = None;
                m.release = clock;
                Ok(val)
            }
            Pending::CondvarWait { .. } => {
                self.condvars.entry(id.unwrap()).or_default().push(tid);
                Ok(val)
            }
            Pending::Notify { all, .. } => {
                let waiters = self.condvars.entry(id.unwrap()).or_default();
                let woken = if *all { waiters.len() } else { 1 };
                waiters.drain(..woken.min(waiters.len()));
                Ok(val)
            }
        }
    }
}

struct Exec {
    state: Mutex<St>,
    cv: Condvar,
}

/// How long a quiescence wait may stall before the checker declares the
/// model wedged (a ghost lock held across a facade op, usually).
const WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

impl Exec {
    fn new() -> Exec {
        Exec {
            state: Mutex::new(St::new()),
            cv: Condvar::new(),
        }
    }

    /// The thread side of a scheduling point: park, wait for the grant,
    /// run the native op + bookkeeping, hand control back.
    fn scheduled_op(
        self: &Arc<Self>,
        tid: usize,
        pending: Pending,
        native: impl FnOnce() -> u64,
    ) -> u64 {
        let mut st = self.state.lock().unwrap();
        if matches!(pending, Pending::Start) {
            // The thread has reached its first scheduling point: it now
            // counts as parked, not registering, so the controller may
            // quiesce.
            st.registering -= 1;
        }
        if st.aborting {
            self.cv.notify_all();
            if std::thread::panicking() {
                // A destructor running while this thread unwinds out of
                // the abandoned run: do the op natively, since a second
                // panic would abort the process.
                return native();
            }
            drop(st);
            std::panic::panic_any(AbortToken);
        }
        st.threads[tid].status = Status::Wants(pending.clone());
        self.cv.notify_all();
        loop {
            if st.aborting {
                st.threads[tid].status = Status::Running;
                if std::thread::panicking() {
                    return native();
                }
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if matches!(st.threads[tid].status, Status::Granted) {
                break;
            }
            st = self.cv.wait(st).unwrap();
        }
        // Granted: the native op runs under the state lock (one thread
        // at a time — "SC for values"), then the HB bookkeeping.
        let val = native();
        let applied = st.apply(tid, &pending, val);
        st.threads[tid].status = Status::Running;
        self.cv.notify_all();
        match applied {
            Ok(v) => v,
            Err(message) => {
                if st.violation.is_none() {
                    st.violation = Some(Violation {
                        message,
                        trace: st.trace.clone(),
                        schedule: st.choice_trace.clone(),
                    });
                }
                drop(st);
                std::panic::panic_any(AbortToken);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The DFS controller
// ---------------------------------------------------------------------

enum RunOutcome {
    Complete(Vec<Choice>),
    Pruned(Vec<Choice>),
    Truncated(Vec<Choice>),
    Violated(Violation),
}

#[derive(Clone, Debug)]
struct Choice {
    allowed: usize,
    idx: usize,
}

/// Drives one schedule: replays `forced` choice indices, then explores
/// first-choice-greedily, recording the choice stack for backtracking.
fn drive(
    exec: &Arc<Exec>,
    forced: &[usize],
    opts: &Options,
    seen: &mut HashSet<u64>,
    pruned: &mut usize,
) -> RunOutcome {
    let mut choices: Vec<Choice> = Vec::new();
    let mut preemptions = 0usize;
    let mut last_running: Option<usize> = None;
    let mut st = exec.state.lock().unwrap();
    loop {
        // Quiesce: nobody granted/running/registering.
        loop {
            if st.violation.is_some() {
                break;
            }
            let busy = st.registering > 0
                || st
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, Status::Granted | Status::Running));
            if !busy {
                break;
            }
            let (guard, timeout) = exec.cv.wait_timeout(st, WEDGE_TIMEOUT).unwrap();
            st = guard;
            if timeout.timed_out() && st.violation.is_none() {
                let v = Violation {
                    message: "model wedged: a thread never reached its next scheduling \
                              point (ghost state held across a facade op?)"
                        .into(),
                    trace: st.trace.clone(),
                    schedule: st.choice_trace.clone(),
                };
                st.violation = Some(v);
                break;
            }
        }
        if let Some(v) = st.violation.clone() {
            st = abort_and_drain(exec, st);
            drop(st);
            return RunOutcome::Violated(v);
        }

        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| match &t.status {
                Status::Wants(p) if st.runnable(tid, p) => Some(tid),
                _ => None,
            })
            .collect();
        if runnable.is_empty() {
            let all_finished = st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished));
            if all_finished {
                drop(st);
                return RunOutcome::Complete(choices);
            }
            let stuck: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(tid, t)| match &t.status {
                    Status::Wants(p) => Some(format!("T{tid} blocked on {p:?}")),
                    _ => None,
                })
                .collect();
            let v = Violation {
                message: format!("deadlock: no runnable thread ({})", stuck.join("; ")),
                trace: st.trace.clone(),
                schedule: st.choice_trace.clone(),
            };
            st.violation = Some(v.clone());
            st = abort_and_drain(exec, st);
            drop(st);
            return RunOutcome::Violated(v);
        }

        // Seen-state pruning, only strictly past the forced prefix (the
        // state at the divergence point itself was seeded by the run
        // that discovered it — pruning there would kill every branch).
        if choices.len() > forced.len() {
            let budget_left = opts.preemption_bound.map(|b| b - preemptions.min(b));
            let h = st.state_hash(budget_left);
            if !seen.insert(h) {
                *pruned += 1;
                st = abort_and_drain(exec, st);
                drop(st);
                return RunOutcome::Pruned(choices);
            }
        }

        if choices.len() >= opts.max_steps {
            st = abort_and_drain(exec, st);
            drop(st);
            return RunOutcome::Truncated(choices);
        }

        // Preemption-bounded choice set: out of budget, stick with the
        // last-running thread while it stays runnable.
        let allowed: Vec<usize> = match (opts.preemption_bound, last_running) {
            (Some(bound), Some(last)) if preemptions >= bound && runnable.contains(&last) => {
                vec![last]
            }
            _ => runnable.clone(),
        };
        let idx = forced.get(choices.len()).copied().unwrap_or(0);
        debug_assert!(idx < allowed.len(), "stale forced schedule");
        let tid = allowed[idx];
        choices.push(Choice {
            allowed: allowed.len(),
            idx,
        });
        if let Some(last) = last_running {
            if last != tid && runnable.contains(&last) {
                preemptions += 1;
            }
        }
        last_running = Some(tid);
        st.choice_trace.push(tid);
        st.threads[tid].status = Status::Granted;
        exec.cv.notify_all();
    }
}

/// Sets the abort flag and waits until every model thread has
/// terminated (so the run's OS threads can be joined).
fn abort_and_drain<'a>(
    exec: &'a Exec,
    mut st: std::sync::MutexGuard<'a, St>,
) -> std::sync::MutexGuard<'a, St> {
    st.aborting = true;
    exec.cv.notify_all();
    loop {
        let done = st.registering == 0
            && st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished));
        if done {
            return st;
        }
        // Wake any thread parked at a Wants so it can observe the flag.
        for t in st.threads.iter_mut() {
            if let Status::Wants(_) = t.status {
                t.status = Status::Granted;
            }
        }
        exec.cv.notify_all();
        let (guard, _) = exec.cv.wait_timeout(st, WEDGE_TIMEOUT).unwrap();
        st = guard;
    }
}

fn run_schedule(
    f: &Arc<dyn Fn() + Send + Sync>,
    forced: &[usize],
    opts: &Options,
    seen: &mut HashSet<u64>,
    pruned: &mut usize,
) -> RunOutcome {
    let exec = Arc::new(Exec::new());
    exec.state.lock().unwrap().alloc_thread(0);
    let exec0 = Arc::clone(&exec);
    let body = Arc::clone(f);
    let root = std::thread::Builder::new()
        .name("bisched-model-0".into())
        .spawn(move || run_model_thread(exec0, 0, move || body()))
        .expect("spawn model root thread");
    let outcome = drive(&exec, forced, opts, seen, pruned);
    let _ = root.join();
    let handles = std::mem::take(&mut exec.state.lock().unwrap().os_handles);
    for h in handles {
        let _ = h.join();
    }
    outcome
}

/// Pops exhausted choice points and advances the deepest live one;
/// `None` when the whole space is explored.
fn next_forced(mut choices: Vec<Choice>) -> Option<Vec<usize>> {
    while let Some(last) = choices.last() {
        if last.idx + 1 < last.allowed {
            let mut forced: Vec<usize> = choices.iter().map(|c| c.idx).collect();
            *forced.last_mut().unwrap() += 1;
            return Some(forced);
        }
        choices.pop();
    }
    None
}

fn explore(
    name: &str,
    opts: &Options,
    f: Arc<dyn Fn() + Send + Sync>,
) -> (Report, Option<Violation>) {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut forced: Vec<usize> = Vec::new();
    let mut report = Report {
        schedules: 0,
        pruned: 0,
        max_depth: 0,
        complete: false,
    };
    loop {
        let outcome = run_schedule(&f, &forced, opts, &mut seen, &mut report.pruned);
        report.schedules += 1;
        let choices = match outcome {
            RunOutcome::Violated(v) => return (report, Some(v)),
            RunOutcome::Complete(c) | RunOutcome::Pruned(c) => c,
            RunOutcome::Truncated(c) => {
                // A cut run leaves its subtree unexplored; the report
                // must not claim completeness.
                report.max_depth = report.max_depth.max(c.len());
                match next_forced(c) {
                    Some(next) => {
                        forced = next;
                        continue;
                    }
                    None => {
                        return (report, None);
                    }
                }
            }
        };
        report.max_depth = report.max_depth.max(choices.len());
        match next_forced(choices) {
            None => {
                report.complete = true;
                return (report, None);
            }
            Some(next) => forced = next,
        }
        if report.schedules >= opts.max_schedules {
            eprintln!(
                "model {name}: schedule budget exhausted ({})",
                report.schedules
            );
            return (report, None);
        }
    }
}

/// Exhaustively explores the interleavings of `f` under `opts`,
/// panicking with a replayable counterexample if any interleaving
/// violates an invariant (assertion failure, data race on a facade
/// cell, or deadlock).
pub fn check(name: &str, opts: Options, f: impl Fn() + Send + Sync + 'static) -> Report {
    let (report, violation) = explore(name, &opts, Arc::new(f));
    if let Some(v) = violation {
        panic!(
            "model `{name}` failed after {} schedules:\n{v}",
            report.schedules
        );
    }
    report
}

/// Runs the exploration *expecting* a violation (the mutation-testing
/// entry point: a deliberately broken protocol must be caught). Panics
/// if the whole space explores cleanly.
pub fn check_expect_violation(
    name: &str,
    opts: Options,
    f: impl Fn() + Send + Sync + 'static,
) -> Violation {
    let (report, violation) = explore(name, &opts, Arc::new(f));
    match violation {
        Some(v) => v,
        None => panic!(
            "model `{name}` explored {} schedules (complete: {}) without catching the \
             seeded bug — the checker lost its teeth",
            report.schedules, report.complete
        ),
    }
}
