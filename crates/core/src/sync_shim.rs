//! Blocking-primitive abstraction, the [`AtomicU64Like`] pattern
//! extended to `Mutex`/`Condvar`.
//!
//! The WAL's group-commit protocol (`oisum-service::wal`) is a blocking
//! algorithm: a ticketed queue under one mutex, every commit under a
//! second, and a condvar the reactor's commit pump waits on. Its
//! correctness argument — the dense committed watermark, the empty→1
//! wakeup skip, the `segment`-before-`state` lock order — quantifies over
//! *schedules*, exactly like the atomic accumulator's order-invariance
//! argument. [`AtomicU64Like`] let `oisum-loom-lite` exhaustively
//! explore the real accumulator code; this trait does the same for the
//! real blocking code.
//!
//! Production instantiates [`StdSyncShim`] (every method a `#[inline]`
//! delegation to `std::sync`, so the generic protocol compiles to the
//! same machine code the concrete one did); the model checker
//! substitutes virtual primitives whose every operation is a scheduling
//! point and whose scheduler understands *blocked* threads — which is
//! what turns "no runnable thread" into a reportable deadlock instead
//! of a hung test.
//!
//! Poisoning policy: the `std` implementation recovers from poisoned
//! locks with `into_inner`. The protocol state these shims guard is
//! plain data whose invariants are re-checked by readers; a panic while
//! holding the lock (a failing assertion in a chaos drill) must not
//! wedge shutdown. This matches the WAL's long-standing behavior.

use crate::atomic::AtomicU64Like;
use core::ops::DerefMut;
use core::time::Duration;
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex, MutexGuard};

/// The blocking primitives a protocol needs, abstracted so the same
/// code runs on `std::sync` in production and on model-checked virtual
/// primitives under exploration.
///
/// Implementations are zero-sized marker types; all methods are
/// associated functions so a generic protocol struct stores only the
/// associated state types, never the shim itself.
///
/// `mutex` and `condvar` take a `&'static str` label: production
/// ignores it, while the model checker uses it to name locks in
/// deadlock/inversion reports and to match them against a declared
/// lock order.
pub trait SyncShimLike: 'static {
    /// The atomic cell type that rides along with the blocking
    /// primitives (protocols mix both; the model must intercept both).
    type Atomic: AtomicU64Like;
    /// A mutual-exclusion lock over `T`.
    type Mutex<T: Send + 'static>: Send + Sync;
    /// The guard proving `Self::Mutex<T>` is held.
    type Guard<'a, T: Send + 'static>: DerefMut<Target = T>;
    /// A condition variable usable with `Self::Mutex`.
    type Condvar: Send + Sync;

    /// A new mutex holding `value`. `label` names the lock for the
    /// model checker's reports and declared-order matching.
    fn mutex<T: Send + 'static>(label: &'static str, value: T) -> Self::Mutex<T>;
    /// Blocking acquire.
    fn lock<'a, T: Send + 'static>(m: &'a Self::Mutex<T>) -> Self::Guard<'a, T>;
    /// A new condition variable named `label`.
    fn condvar(label: &'static str) -> Self::Condvar;
    /// Releases the guard, parks until notified, reacquires. Spurious
    /// wakeups are permitted (the model checker exploits this freedom),
    /// so every call must sit in a predicate loop — the
    /// `condvar-predicate` lint enforces that shape.
    fn wait<'a, T: Send + 'static + 'a>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T>;
    /// [`SyncShimLike::wait`] with a timeout. Callers must treat a
    /// return as "woke for some reason" and re-check their predicate;
    /// the model implements it as an immediate timeout with a
    /// release/reacquire window, which is one of the behaviors the real
    /// primitive may exhibit.
    fn wait_timeout<'a, T: Send + 'static + 'a>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Duration,
    ) -> Self::Guard<'a, T>;
    /// Wakes one waiter. The model treats this as [`notify_all`]
    /// (a sound over-approximation given predicate loops: extra wakeups
    /// are spurious wakeups, which waiters must tolerate anyway).
    ///
    /// [`notify_all`]: SyncShimLike::notify_all
    fn notify_one(cv: &Self::Condvar);
    /// Wakes every waiter.
    fn notify_all(cv: &Self::Condvar);
}

/// The production shim: `std::sync` primitives, labels ignored, every
/// method an `#[inline]` delegation — instantiating a protocol with
/// this is byte-for-byte the hand-written concrete version.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdSyncShim;

impl SyncShimLike for StdSyncShim {
    type Atomic = AtomicU64;
    type Mutex<T: Send + 'static> = Mutex<T>;
    type Guard<'a, T: Send + 'static> = MutexGuard<'a, T>;
    type Condvar = Condvar;

    #[inline]
    fn mutex<T: Send + 'static>(_label: &'static str, value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    #[inline]
    fn lock<'a, T: Send + 'static>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn condvar(_label: &'static str) -> Condvar {
        Condvar::new()
    }

    #[inline]
    fn wait<'a, T: Send + 'static + 'a>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn wait_timeout<'a, T: Send + 'static + 'a>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let (guard, _timed_out) = cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard
    }

    #[inline]
    fn notify_one(cv: &Condvar) {
        cv.notify_one();
    }

    #[inline]
    fn notify_all(cv: &Condvar) {
        cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // A miniature counted-handoff protocol written only against the
    // trait, exercised here on the std shim (the model shim gets the
    // exhaustive treatment in oisum-loom-lite).
    struct Cell<S: SyncShimLike> {
        slot: S::Mutex<Option<u64>>,
        ready: S::Condvar,
    }

    fn put<S: SyncShimLike>(c: &Cell<S>, v: u64) {
        let mut g = S::lock(&c.slot);
        *g = Some(v);
        drop(g);
        S::notify_all(&c.ready);
    }

    fn take<S: SyncShimLike>(c: &Cell<S>) -> u64 {
        let mut g = S::lock(&c.slot);
        while g.is_none() {
            g = S::wait(&c.ready, g);
        }
        g.take().unwrap()
    }

    #[test]
    fn std_shim_roundtrip() {
        let cell: Arc<Cell<StdSyncShim>> = Arc::new(Cell {
            slot: StdSyncShim::mutex("slot", None),
            ready: StdSyncShim::condvar("ready"),
        });
        let producer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || put(&cell, 42))
        };
        assert_eq!(take(&cell), 42);
        producer.join().unwrap();
    }

    #[test]
    fn std_wait_timeout_returns() {
        let m = StdSyncShim::mutex("m", ());
        let cv = StdSyncShim::condvar("cv");
        let g = StdSyncShim::lock(&m);
        let _g = StdSyncShim::wait_timeout(&cv, g, Duration::from_millis(1));
    }
}
