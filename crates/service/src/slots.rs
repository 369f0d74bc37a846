//! The per-shard solve-slot semaphore: the daemon's one bound on
//! concurrent solves.
//!
//! A cache miss takes one of its shard's slots, or waits for one, and
//! then solves on its own connection thread. At most `queue_cap` misses
//! wait per shard; the next one is answered `busy`. A slot goes back at
//! the end of the solve, when the [`Permit`] drops.
//!
//! A release hands its slot straight to a waiter when one is waiting, so
//! the slot is never free while a miss waits and a newcomer cannot take
//! it first (no barging). A waiter consumes a handed slot only after a
//! notify woke it, so a miss that starts waiting between a hand-off and
//! the woken waiter's return cannot take that slot either.
//!
//! [`Slots::close`] (shutdown) refuses every later miss. Misses admitted
//! before it, running or waiting, all finish: each running miss releases
//! its slot, and each release with a waiter hands that slot on.
//!
//! The mutex and condvar come from the `bisched_obs::sync` facade, so the
//! `model_service_slots` suite runs this exact code under the model
//! checker.

use bisched_obs::sync::{Condvar, Mutex, MutexGuard};
use std::sync::PoisonError;

/// One shard's solve slots and the misses waiting for them.
#[derive(Debug)]
pub struct Slots {
    state: Mutex<State>,
    /// Notified once per slot a release hands to a waiter.
    handed: Condvar,
    queue_cap: usize,
}

#[derive(Debug)]
struct State {
    /// Slots no miss holds.
    free: usize,
    /// Misses blocked in [`Slots::acquire`] that no slot was handed to yet.
    waiting: usize,
    /// Slots handed to waiters that have not woken up yet.
    granted: usize,
    /// Set by [`Slots::close`]: later misses are refused.
    closed: bool,
}

/// What [`Slots::acquire`] decided for one miss.
#[derive(Debug)]
pub enum Admission<'a> {
    /// The miss holds a slot until the permit drops.
    Admitted(Permit<'a>),
    /// Every slot is taken and `queue_cap` misses already wait.
    Busy,
    /// The shard is shutting down.
    Closed,
}

/// A held solve slot; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit<'a> {
    slots: &'a Slots,
}

impl Slots {
    /// `slots` concurrent solves (at least 1), with at most `queue_cap`
    /// misses waiting (at least 1).
    pub fn new(slots: usize, queue_cap: usize) -> Slots {
        Slots {
            state: Mutex::new(State {
                free: slots.max(1),
                waiting: 0,
                granted: 0,
                closed: false,
            }),
            handed: Condvar::new(),
            queue_cap: queue_cap.max(1),
        }
    }

    /// The state, even after a thread panicked holding it: every update
    /// below is a complete step, so the counts are valid at any point.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, waits for one, or refuses the miss.
    pub fn acquire(&self) -> Admission<'_> {
        let mut st = self.state();
        if st.closed {
            return Admission::Closed;
        }
        // A release never frees a slot while a miss waits, so a free slot
        // means nobody is ahead of this miss.
        if st.free > 0 {
            st.free -= 1;
            return Admission::Admitted(Permit { slots: self });
        }
        if st.waiting >= self.queue_cap {
            return Admission::Busy;
        }
        st.waiting += 1;
        loop {
            st = self.handed.wait(st).unwrap_or_else(PoisonError::into_inner);
            if st.granted > 0 {
                st.granted -= 1;
                return Admission::Admitted(Permit { slots: self });
            }
        }
    }

    /// Refuses every later [`acquire`](Self::acquire); admitted misses
    /// keep their slots and their place in line.
    pub fn close(&self) {
        self.state().closed = true;
    }

    /// Misses waiting for a slot that none was handed to yet.
    pub fn waiting(&self) -> usize {
        self.state().waiting
    }

    fn release(&self) {
        let mut st = self.state();
        if st.waiting > 0 {
            st.waiting -= 1;
            st.granted += 1;
            self.handed.notify_one();
        } else {
            st.free += 1;
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.slots.release();
    }
}

/// Broken releases for the model suite's mutation tests: the checker
/// must catch each of them, or it has lost its teeth. Model builds only;
/// never a production code path.
#[cfg(bisched_model)]
impl Permit<'_> {
    /// Hands the slot to a waiter without notifying it: a lost wake-up.
    pub fn release_without_notify_for_model(self) {
        let slots = self.slots;
        std::mem::forget(self);
        let mut st = slots.state();
        if st.waiting > 0 {
            st.waiting -= 1;
            st.granted += 1;
        } else {
            st.free += 1;
        }
    }

    /// Frees the slot even while a miss waits, so a newcomer can take it
    /// ahead of the waiter, and the waiter is never handed one.
    pub fn release_to_free_for_model(self) {
        let slots = self.slots;
        std::mem::forget(self);
        slots.state().free += 1;
        slots.handed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn admitted(admission: Admission<'_>) -> Permit<'_> {
        match admission {
            Admission::Admitted(permit) => permit,
            other => panic!("expected a slot, got {other:?}"),
        }
    }

    /// Polls until `n` misses wait on `slots` (a real thread is blocked
    /// in `acquire`), failing after ten seconds.
    fn until_waiting(slots: &Slots, n: usize) {
        let t0 = Instant::now();
        while slots.waiting() != n {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "no waiter showed up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_full_queue_answers_busy_and_a_release_goes_to_the_waiter() {
        let slots = Arc::new(Slots::new(1, 1));
        let held = admitted(slots.acquire());
        let waiter_ran = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (slots, ran) = (Arc::clone(&slots), Arc::clone(&waiter_ran));
            std::thread::spawn(move || {
                let _permit = admitted(slots.acquire());
                ran.store(true, Ordering::SeqCst);
            })
        };
        until_waiting(&slots, 1);
        // One slot taken, one miss waiting: the next miss is busy.
        assert!(matches!(slots.acquire(), Admission::Busy));
        // Release, then arrive as a newcomer at once: the slot is already
        // the waiter's, so the newcomer waits until the waiter is done.
        drop(held);
        let _newcomer = admitted(slots.acquire());
        assert!(
            waiter_ran.load(Ordering::SeqCst),
            "the newcomer took the slot ahead of the waiter"
        );
        waiter.join().unwrap();
    }

    #[test]
    fn close_refuses_newcomers_and_lets_waiters_finish() {
        let slots = Arc::new(Slots::new(1, 4));
        let held = admitted(slots.acquire());
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || matches!(slots.acquire(), Admission::Admitted(_)))
            })
            .collect();
        until_waiting(&slots, 2);
        slots.close();
        assert!(matches!(slots.acquire(), Admission::Closed));
        drop(held);
        for w in waiters {
            assert!(w.join().unwrap(), "a miss admitted before close finishes");
        }
    }
}
