//! Virtual blocking primitives: [`ModelMutex`], [`ModelCondvar`], and
//! the [`ModelSyncShim`] that plugs them into
//! [`SyncShimLike`](oisum_core::SyncShimLike)-generic protocol code.
//!
//! Each operation on these primitives is a *scheduling point*: the
//! calling model thread parks and the explorer chooses who runs next,
//! exactly as [`ModelAtomicU64`](crate::ModelAtomicU64) does for atomic
//! operations. What is new is that a contended `lock` or a `wait`
//! *blocks* the thread in the scheduler's eyes — removing it from the
//! runnable set until a release or notify restores it — which is the
//! information the explorer needs to call a stuck state a **deadlock**
//! or a **lost wakeup** rather than hanging.
//!
//! Each mutex also carries a label and an optional *rank* assigned by
//! [`declare_lock_order`]. Every acquisition records `held → acquired`
//! edges; a cycle in that graph, or an acquisition whose rank is lower
//! than a currently-held rank, aborts the execution with
//! [`Failure::LockOrderInversion`](crate::Failure).
//!
//! Two deliberate over-approximations, both sound for code that keeps
//! `Condvar::wait` inside a predicate loop (which `oisum-lint`'s
//! `condvar-predicate` rule enforces):
//!
//! * `notify_one` behaves as `notify_all` — the extra wakeups are
//!   indistinguishable from the spurious wakeups real condvars already
//!   permit;
//! * `wait_timeout` times out immediately after a release/reacquire
//!   window — one of the real primitive's legal behaviors, and the one
//!   that maximizes interleavings around the wait.
//!
//! On a thread *outside* an exploration (the controller building the
//! initial state or observing the final one), these primitives degrade
//! to their `std` behavior without scheduler involvement: those phases
//! are sequential by construction.

use crate::sched::{current_ctx, LockMeta, Scheduler};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Source of unique ids for model mutexes and condvars.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The declared lock order for scenarios built on this thread:
    /// labels earlier in the list must be acquired first. Thread-local
    /// (not global) so concurrently-running tests cannot see each
    /// other's declarations.
    static DECLARED_ORDER: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Declare the lock order for model mutexes subsequently constructed on
/// this thread: `declare_lock_order(&["segment", "state"])` gives rank
/// 0 to every mutex labeled `segment` and rank 1 to every `state`, and
/// any execution that acquires a lower rank while holding a higher one
/// fails with a lock-order inversion — even in schedules where the
/// acquisitions never actually deadlock. Call it before the
/// `Model::check` whose `mk_state` builds the mutexes; labels not in
/// the list stay unranked (cycle detection still applies to them).
pub fn declare_lock_order(labels: &[&'static str]) {
    DECLARED_ORDER.with(|d| *d.borrow_mut() = labels.to_vec());
}

fn rank_of(label: &str) -> Option<usize> {
    DECLARED_ORDER.with(|d| d.borrow().iter().position(|l| *l == label))
}

/// A mutex whose every acquisition is a scheduling point and whose
/// contention is visible to the explorer. Construct via
/// [`ModelMutex::new`] or generically via
/// [`ModelSyncShim`](ModelSyncShim)'s
/// [`mutex`](oisum_core::SyncShimLike::mutex).
#[derive(Debug)]
pub struct ModelMutex<T> {
    meta: LockMeta,
    inner: Mutex<T>,
}

impl<T: Send + 'static> ModelMutex<T> {
    /// A new labeled model mutex holding `value`. The label names the
    /// lock in failure reports and is matched against the
    /// [`declare_lock_order`] list in effect on the constructing thread.
    pub fn new(label: &'static str, value: T) -> Self {
        ModelMutex {
            meta: LockMeta {
                // ORDERING: Relaxed — a unique-id counter; only
                // uniqueness matters, no other memory is published.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                label,
                rank: rank_of(label),
            },
            inner: Mutex::new(value),
        }
    }

    /// Blocking acquire; a scheduling point. Under exploration a
    /// contended acquire blocks the model thread until the owner
    /// releases — and if no runnable thread can ever release, the
    /// execution is reported as a deadlock.
    pub fn lock(&self) -> ModelMutexGuard<'_, T> {
        let ctx = current_ctx();
        if let Some((sched, tid)) = &ctx {
            sched.mutex_lock(*tid, &self.meta);
        }
        // Under exploration the scheduler has just granted exclusive
        // virtual ownership, so this never contends for long: any
        // previous owner dropped the real guard before announcing the
        // release.
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        ModelMutexGuard {
            mutex: self,
            inner: Some(inner),
            ctx,
        }
    }

    /// The wrapped value, consuming the mutex (post-exploration
    /// observation).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Proof of [`ModelMutex`] ownership; releases on drop (release is not
/// itself a scheduling point — its effects become visible at the other
/// threads' next one).
pub struct ModelMutexGuard<'a, T> {
    mutex: &'a ModelMutex<T>,
    /// `None` only transiently inside [`ModelCondvar::wait`], which
    /// hands the release to the scheduler atomically with the park.
    inner: Option<MutexGuard<'a, T>>,
    ctx: Option<(Arc<Scheduler>, usize)>,
}

impl<T> Deref for ModelMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard dissolved")
    }
}

impl<T> DerefMut for ModelMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard dissolved")
    }
}

impl<T> Drop for ModelMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // Release the real lock before announcing the virtual
            // release, so a woken contender finds it free.
            drop(inner);
            if let Some((sched, tid)) = self.ctx.take() {
                sched.mutex_unlock(tid, self.mutex.meta.id);
            }
        }
    }
}

/// A condition variable whose waits and notifies are scheduling points
/// and whose waiters the explorer can see — which is what makes a
/// "everyone is parked and nobody will ever notify" state reportable as
/// a lost wakeup.
#[derive(Debug)]
pub struct ModelCondvar {
    id: u64,
    label: &'static str,
}

impl ModelCondvar {
    /// A new labeled model condvar.
    pub fn new(label: &'static str) -> Self {
        ModelCondvar {
            // ORDERING: Relaxed — a unique-id counter; only uniqueness
            // matters, no other memory is published.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            label,
        }
    }

    /// Atomically release the guard and park until notified, then
    /// reacquire. Spurious wakeups occur (every notify wakes every
    /// waiter), so callers must re-check their predicate in a loop.
    pub fn wait<'a, T: Send + 'static + 'a>(
        &self,
        mut guard: ModelMutexGuard<'a, T>,
    ) -> ModelMutexGuard<'a, T> {
        let mutex = guard.mutex;
        match guard.ctx.take() {
            Some((sched, tid)) => {
                // Hand the release to the scheduler: drop the real
                // guard here, then let cv_wait release virtual
                // ownership atomically with the park.
                drop(guard.inner.take());
                drop(guard);
                sched.cv_wait(tid, self.id, self.label, &mutex.meta);
                // Virtual ownership is back; take the real lock.
                let inner = mutex.inner.lock().unwrap_or_else(|e| e.into_inner());
                ModelMutexGuard {
                    mutex,
                    inner: Some(inner),
                    ctx: Some((sched, tid)),
                }
            }
            // Outside an exploration nothing can notify; behave as an
            // immediate spurious wakeup.
            None => guard,
        }
    }

    /// [`ModelCondvar::wait`] with a timeout: modeled as an immediate
    /// timeout after a release/reacquire window in which any other
    /// thread may run.
    pub fn wait_timeout<'a, T: Send + 'static + 'a>(
        &self,
        mut guard: ModelMutexGuard<'a, T>,
    ) -> ModelMutexGuard<'a, T> {
        let mutex = guard.mutex;
        match guard.ctx.take() {
            Some((sched, tid)) => {
                drop(guard.inner.take());
                drop(guard);
                sched.cv_wait_window(tid, &mutex.meta);
                let inner = mutex.inner.lock().unwrap_or_else(|e| e.into_inner());
                ModelMutexGuard {
                    mutex,
                    inner: Some(inner),
                    ctx: Some((sched, tid)),
                }
            }
            None => guard,
        }
    }

    /// Wake one waiter — modeled as [`ModelCondvar::notify_all`]; the
    /// over-approximation is sound for predicate-loop waiters.
    pub fn notify_one(&self) {
        self.notify_all();
    }

    /// Wake every waiter; a scheduling point.
    pub fn notify_all(&self) {
        if let Some((sched, tid)) = current_ctx() {
            sched.cv_notify(tid, self.id);
        }
    }
}

/// The model instantiation of [`SyncShimLike`](oisum_core::SyncShimLike):
/// protocol code written against the trait explores every schedule when
/// parameterized by this shim, and compiles to plain `std::sync` when
/// parameterized by [`StdSyncShim`](oisum_core::StdSyncShim).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSyncShim;

impl oisum_core::SyncShimLike for ModelSyncShim {
    type Atomic = crate::ModelAtomicU64;
    type Mutex<T: Send + 'static> = ModelMutex<T>;
    type Guard<'a, T: Send + 'static> = ModelMutexGuard<'a, T>;
    type Condvar = ModelCondvar;

    fn mutex<T: Send + 'static>(label: &'static str, value: T) -> ModelMutex<T> {
        ModelMutex::new(label, value)
    }

    fn lock<'a, T: Send + 'static>(m: &'a ModelMutex<T>) -> ModelMutexGuard<'a, T> {
        m.lock()
    }

    fn condvar(label: &'static str) -> ModelCondvar {
        ModelCondvar::new(label)
    }

    fn wait<'a, T: Send + 'static + 'a>(
        cv: &ModelCondvar,
        guard: ModelMutexGuard<'a, T>,
    ) -> ModelMutexGuard<'a, T> {
        cv.wait(guard)
    }

    fn wait_timeout<'a, T: Send + 'static + 'a>(
        cv: &ModelCondvar,
        guard: ModelMutexGuard<'a, T>,
        _timeout: core::time::Duration,
    ) -> ModelMutexGuard<'a, T> {
        cv.wait_timeout(guard)
    }

    fn notify_one(cv: &ModelCondvar) {
        cv.notify_one();
    }

    fn notify_all(cv: &ModelCondvar) {
        cv.notify_all();
    }
}
