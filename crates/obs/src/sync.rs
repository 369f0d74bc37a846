//! The workspace's concurrency facade: `std::sync` types by day, a
//! model-checked instrumented runtime by night.
//!
//! Every concurrent protocol in the workspace — the flight recorder's
//! [`Ring`](crate::ring::Ring), `bisched_exact::SearchCtl`'s f64-bits
//! bound exchange, the service's per-shard solve-slot semaphore —
//! imports its atomics, cells, mutexes and condition variables from here
//! instead of `std`:
//!
//! * In a **normal build** every name in this module *is* the `std` item
//!   (a re-export) or a `#[repr(transparent)]` zero-cost wrapper whose
//!   accessors are `#[inline(always)]` pass-throughs. Release binaries
//!   compile the facade away entirely; the bench gate pins this.
//! * Under **`--cfg bisched_model`** the same names resolve to
//!   instrumented shims that report every operation to the deterministic
//!   scheduler in `crate::model`, which exhaustively explores thread
//!   interleavings (DFS over schedule choices, bounded preemptions,
//!   seen-state hashing) and checks happens-before race freedom on every
//!   [`UnsafeCell`] access with vector clocks.
//!
//! The facade deliberately exposes only the subset of the `std` API the
//! workspace's protocols use; growing it is a one-line addition to the
//! instrumented macro below. Code ported onto the facade accesses
//! `UnsafeCell` contents through the loom-style [`UnsafeCell::with`] /
//! [`UnsafeCell::with_mut`] closures so the model build can observe the
//! access; in normal builds both compile to a bare `.get()` dereference.
//!
//! See `crates/obs/README.md` for the checker's scope and limits.

pub use std::sync::atomic::Ordering;

#[cfg(not(bisched_model))]
mod imp {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::{Condvar, Mutex, MutexGuard};

    /// [`std::cell::UnsafeCell`] behind loom-style access closures, so
    /// the `bisched_model` build can observe (and race-check) every
    /// read and write. Normal builds inline both accessors down to the
    /// raw pointer dereference they wrap.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wraps `value`.
        pub const fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Immutable access to the contents.
        ///
        /// # Safety
        ///
        /// As for reading through [`std::cell::UnsafeCell::get`]: the
        /// caller must guarantee no concurrent mutable access for the
        /// duration of `f` (the model build checks this claim with
        /// vector clocks on every explored interleaving).
        #[inline(always)]
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access to the contents.
        ///
        /// # Safety
        ///
        /// As for writing through [`std::cell::UnsafeCell::get`]: the
        /// caller must guarantee exclusive access for the duration of
        /// `f` (model-checked, as above).
        #[inline(always)]
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access through a unique reference (safe: `&mut self`
        /// proves no aliasing).
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }

        /// Unwraps the contents.
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }
}

#[cfg(bisched_model)]
mod imp {
    //! Instrumented shims: every operation is a scheduling point of the
    //! controlled scheduler in [`crate::model`], plus the happens-before
    //! bookkeeping that powers its race detector. Outside a model run
    //! (no scheduler registered on this thread) every shim falls through
    //! to the native operation, so `bisched_model` builds still behave
    //! normally in ordinary tests.

    use crate::model;
    use std::sync::atomic::Ordering;

    macro_rules! instrumented_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $val:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                native: $std,
            }

            impl $name {
                /// Creates a new atomic (const, like the `std` type).
                pub const fn new(v: $val) -> Self {
                    Self { native: <$std>::new(v) }
                }

                /// Instrumented `load`.
                pub fn load(&self, order: Ordering) -> $val {
                    model::atomic_op(
                        self as *const _ as usize,
                        model::AtomicKind::Load,
                        order,
                        concat!(stringify!($name), ".load"),
                        || self.native.load(Ordering::SeqCst) as u64,
                    ) as $val
                }

                /// Instrumented `store`.
                pub fn store(&self, v: $val, order: Ordering) {
                    model::atomic_op(
                        self as *const _ as usize,
                        model::AtomicKind::Store,
                        order,
                        concat!(stringify!($name), ".store"),
                        || {
                            self.native.store(v, Ordering::SeqCst);
                            v as u64
                        },
                    );
                }

                /// Instrumented `swap`.
                pub fn swap(&self, v: $val, order: Ordering) -> $val {
                    model::atomic_op(
                        self as *const _ as usize,
                        model::AtomicKind::Rmw,
                        order,
                        concat!(stringify!($name), ".swap"),
                        || self.native.swap(v, Ordering::SeqCst) as u64,
                    ) as $val
                }

                /// Unwraps the current value (unique access).
                pub fn into_inner(self) -> $val {
                    self.native.into_inner()
                }
            }
        };
    }

    instrumented_atomic!(
        /// Model-checked stand-in for [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    instrumented_atomic!(
        /// Model-checked stand-in for [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );

    impl AtomicU64 {
        /// Instrumented `fetch_add`.
        pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Rmw,
                order,
                "AtomicU64.fetch_add",
                || self.native.fetch_add(v, Ordering::SeqCst),
            )
        }

        /// Instrumented `fetch_min`.
        pub fn fetch_min(&self, v: u64, order: Ordering) -> u64 {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Rmw,
                order,
                "AtomicU64.fetch_min",
                || self.native.fetch_min(v, Ordering::SeqCst),
            )
        }
    }

    impl AtomicUsize {
        /// Instrumented `fetch_add`.
        pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Rmw,
                order,
                "AtomicUsize.fetch_add",
                || self.native.fetch_add(v, Ordering::SeqCst) as u64,
            ) as usize
        }
    }

    /// Model-checked stand-in for [`std::sync::atomic::AtomicBool`].
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        native: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic (const, like the `std` type).
        pub const fn new(v: bool) -> Self {
            Self {
                native: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Instrumented `load`.
        pub fn load(&self, order: Ordering) -> bool {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Load,
                order,
                "AtomicBool.load",
                || self.native.load(Ordering::SeqCst) as u64,
            ) != 0
        }

        /// Instrumented `store`.
        pub fn store(&self, v: bool, order: Ordering) {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Store,
                order,
                "AtomicBool.store",
                || {
                    self.native.store(v, Ordering::SeqCst);
                    v as u64
                },
            );
        }

        /// Instrumented `swap`.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            model::atomic_op(
                self as *const _ as usize,
                model::AtomicKind::Rmw,
                order,
                "AtomicBool.swap",
                || self.native.swap(v, Ordering::SeqCst) as u64,
            ) != 0
        }
    }

    /// Model-checked stand-in for [`std::cell::UnsafeCell`]: every
    /// access is a scheduling point and a vector-clock race check.
    #[derive(Debug, Default)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wraps `value`.
        pub const fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Immutable access; the model reports a violation if any write
        /// to this cell does not happen-before this read.
        ///
        /// # Safety
        ///
        /// Same contract as the normal-build accessor (no concurrent
        /// mutable access) — here the model enforces it.
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            model::cell_access(self as *const _ as usize, false);
            f(self.0.get())
        }

        /// Mutable access; the model reports a violation if any other
        /// access to this cell is concurrent with this write.
        ///
        /// # Safety
        ///
        /// Same contract as the normal-build accessor (exclusive
        /// access) — here the model enforces it.
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            model::cell_access(self as *const _ as usize, true);
            f(self.0.get())
        }

        /// Exclusive access through a unique reference.
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }

        /// Unwraps the contents.
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }

    /// Model-checked stand-in for [`std::sync::Mutex`]: `lock` blocks in
    /// the controlled scheduler until the owner releases (never in the
    /// OS), so lock-order deadlocks surface as model violations instead
    /// of hangs.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        native: std::sync::Mutex<T>,
    }

    /// Guard for the instrumented [`Mutex`]; releases at drop through a
    /// scheduler-visible unlock operation.
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        mutex: &'a Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex (const, like the `std` type).
        pub const fn new(value: T) -> Self {
            Mutex {
                native: std::sync::Mutex::new(value),
            }
        }

        /// Instrumented `lock`; the error half of the `LockResult` is
        /// never produced inside a model run (the scheduler serializes
        /// lock holders, so the native mutex is never contended or
        /// poisoned there).
        pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
            model::mutex_lock(self as *const _ as usize);
            match self.native.lock() {
                Ok(inner) => Ok(MutexGuard {
                    inner: Some(inner),
                    mutex: self,
                }),
                Err(poison) => {
                    let inner = poison.into_inner();
                    Err(std::sync::PoisonError::new(MutexGuard {
                        inner: Some(inner),
                        mutex: self,
                    }))
                }
            }
        }

        /// Unwraps the protected value (unique access).
        pub fn into_inner(self) -> std::sync::LockResult<T> {
            self.native.into_inner()
        }

        /// Exclusive access through a unique reference.
        pub fn get_mut(&mut self) -> std::sync::LockResult<&mut T> {
            self.native.get_mut()
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard accessed after drop")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard accessed after drop")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the native guard first so the scheduler-visible
            // unlock hands a genuinely free mutex to the next thread.
            drop(self.inner.take());
            model::mutex_unlock(self.mutex as *const Mutex<T> as usize);
        }
    }

    /// Model-checked stand-in for [`std::sync::Condvar`]. Inside a model
    /// run, [`wait`](Condvar::wait) joins the condvar's waiters, unlocks,
    /// and locks again, and the scheduler holds that lock back until a
    /// notify (a scheduling point) picks the waiter. A waiter that is
    /// never notified therefore shows up as the checker's deadlock
    /// violation instead of a hang. Spurious wake-ups are not modelled;
    /// `notify_one` wakes the longest waiter.
    #[derive(Debug, Default)]
    pub struct Condvar {
        native: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable (const, like the `std` type).
        pub const fn new() -> Self {
            Condvar {
                native: std::sync::Condvar::new(),
            }
        }

        /// Instrumented `wait`: releases `guard`'s mutex, blocks until
        /// notified, and returns with the mutex held again.
        pub fn wait<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
        ) -> std::sync::LockResult<MutexGuard<'a, T>> {
            if model::condvar_wait(self as *const _ as usize) {
                let mutex = guard.mutex;
                drop(guard);
                return mutex.lock();
            }
            let inner = guard.inner.take().expect("guard accessed after drop");
            match self.native.wait(inner) {
                Ok(inner) => {
                    guard.inner = Some(inner);
                    Ok(guard)
                }
                Err(poison) => {
                    guard.inner = Some(poison.into_inner());
                    Err(std::sync::PoisonError::new(guard))
                }
            }
        }

        /// Instrumented `notify_one`.
        pub fn notify_one(&self) {
            if !model::condvar_notify(self as *const _ as usize, false) {
                self.native.notify_one();
            }
        }

        /// Instrumented `notify_all`.
        pub fn notify_all(&self) {
            if !model::condvar_notify(self as *const _ as usize, true) {
                self.native.notify_all();
            }
        }
    }
}

pub use imp::*;
