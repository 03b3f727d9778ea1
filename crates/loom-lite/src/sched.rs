//! The cooperative scheduler: serializes model threads so that exactly
//! one runs at a time, parking each at every atomic operation and
//! tracking threads *blocked* on virtual mutexes and condvars.
//!
//! Protocol (all under one mutex, one condvar):
//!
//! * A model thread calls [`Scheduler::yield_point`] before each model
//!   operation (and once at spawn, the "register" yield): it marks
//!   itself `Parked`, then blocks until `granted == Some(tid)`; it
//!   consumes the grant and runs until its next yield point, blocking
//!   operation, or completion.
//! * The controller calls [`Scheduler::grant_and_wait`]: it publishes
//!   the grant, then blocks until the grantee is no longer `Running` —
//!   re-parked, blocked on a virtual primitive, or finished — at which
//!   point the system is stable and the next runnable set can be read
//!   deterministically.
//!
//! Unlike the atomics-only scheduler this grew from, a model thread may
//! now be `Blocked` on a [`crate::ModelMutex`] or [`crate::ModelCondvar`].
//! Blocked threads are *not* runnable: they leave the grant pool until a
//! release or notify moves them back to `Parked`. That is what turns a
//! stable state with no runnable thread from a hang into a *verdict*:
//!
//! * someone blocked on a mutex ⇒ **deadlock** (the ownership chain is
//!   reported);
//! * everyone blocked on condvars ⇒ **lost wakeup** (a waiter parked
//!   with no reachable notify).
//!
//! The scheduler also keeps, per execution, the set of held locks per
//! thread and the global acquisition-order edge set; acquiring `B`
//! while holding `A` inserts the edge `A → B`, and any cycle — or any
//! acquisition that violates a declared rank order — is reported as a
//! **lock-order inversion** the moment it is observed.
//!
//! When a verdict fires, the execution is *aborted*: every parked or
//! blocked thread is woken into a sentinel panic ([`ExplorationAborted`])
//! that the spawn wrapper swallows, so `std::thread::scope` joins
//! cleanly and the explorer can report the failure instead of hanging.

use crate::explore::Failure;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Identity and declared rank of one virtual lock, as registered by
/// [`crate::ModelMutex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LockMeta {
    /// Globally unique per mutex instance (fresh per execution, since
    /// `mk_state` builds fresh mutexes).
    pub id: u64,
    /// Human-readable lock name for reports.
    pub label: &'static str,
    /// Position in the declared lock order, when one is declared and
    /// names this label. Lower ranks must be acquired first.
    pub rank: Option<usize>,
}

/// Sentinel panic payload: the execution was aborted after a verdict;
/// the spawn wrapper swallows this instead of resurfacing it.
pub(crate) struct ExplorationAborted;

/// What one model thread is doing, from the controller's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Between a grant and its next park: executing real code.
    Running,
    /// Parked at a yield point awaiting a grant — the runnable state.
    Parked,
    /// Blocked acquiring the mutex with this id.
    BlockedMutex(u64),
    /// Parked in a condvar wait on the condvar with this id.
    BlockedCondvar(u64),
    /// Body returned (or unwound — still counts, so the controller
    /// never waits on a corpse).
    Finished,
}

pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

struct SchedState {
    /// Thread currently allowed to take one step (consumed by the
    /// grantee, which resets it to `None`).
    granted: Option<usize>,
    status: Vec<Status>,
    /// Virtual mutex ownership: lock id → (owner tid, meta).
    owners: HashMap<u64, (usize, LockMeta)>,
    /// Per-thread stack of held locks, in acquisition order.
    held: Vec<Vec<LockMeta>>,
    /// Acquisition-order edges observed this execution: (held, acquired).
    edges: Vec<(LockMeta, LockMeta)>,
    /// First verdict reached this execution; exploration stops on it.
    failure: Option<Failure>,
    /// Set alongside `failure` (or by the controller on a stall):
    /// every wait loop exits into [`ExplorationAborted`].
    aborting: bool,
    /// Labels of condvars with at least one waiter, for reports.
    cv_labels: HashMap<u64, &'static str>,
}

impl Scheduler {
    pub(crate) fn new(nthreads: usize) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                granted: None,
                status: vec![Status::Running; nthreads],
                owners: HashMap::new(),
                held: vec![Vec::new(); nthreads],
                edges: Vec::new(),
                failure: None,
                aborting: false,
                cv_labels: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Called by model thread `tid`: park until granted one step.
    pub(crate) fn yield_point(&self, tid: usize) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Parked;
        self.cv.notify_all();
        while st.granted != Some(tid) {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ExplorationAborted);
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.granted = None;
        st.status[tid] = Status::Running;
        self.cv.notify_all();
    }

    /// Called by model thread `tid` when its body has returned (or
    /// unwound).
    pub(crate) fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Finished;
        self.cv.notify_all();
    }

    /// Blocking acquire of virtual mutex `meta` by thread `tid`. The
    /// first attempt is a scheduling point; a contended attempt parks
    /// the thread as `BlockedMutex` until the owner releases (the
    /// wake-up grant doubles as the retry's scheduling point).
    pub(crate) fn mutex_lock(&self, tid: usize, meta: &LockMeta) {
        self.yield_point(tid);
        loop {
            {
                let mut st = self.lock_state();
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(ExplorationAborted);
                }
                if !st.owners.contains_key(&meta.id) {
                    self.acquire_locked(&mut st, tid, meta);
                    return;
                }
            }
            self.park_blocked(tid, Status::BlockedMutex(meta.id));
        }
    }

    /// Release by the owner. Not a scheduling point (an unlock is one
    /// atomic op whose aftermath other threads can only observe at
    /// *their* next scheduling point); contenders become runnable.
    pub(crate) fn mutex_unlock(&self, tid: usize, id: u64) {
        let mut st = self.lock_state();
        self.release_locked(&mut st, tid, id);
        self.cv.notify_all();
    }

    /// Condvar wait by `tid`: atomically registers as a waiter on
    /// `cv_id` and releases `mutex`, parks until a notify makes it
    /// runnable again, then reacquires `mutex` (contending normally).
    pub(crate) fn cv_wait(&self, tid: usize, cv_id: u64, cv_label: &'static str, mutex: &LockMeta) {
        {
            let mut st = self.lock_state();
            if st.aborting {
                drop(st);
                std::panic::panic_any(ExplorationAborted);
            }
            st.cv_labels.insert(cv_id, cv_label);
            st.status[tid] = Status::BlockedCondvar(cv_id);
            self.release_locked(&mut st, tid, mutex.id);
            self.cv.notify_all();
            while st.granted != Some(tid) {
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(ExplorationAborted);
                }
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.granted = None;
            st.status[tid] = Status::Running;
            self.cv.notify_all();
        }
        // Reacquisition after the wake-up grant: contend like any
        // other acquirer, without spending an extra scheduling point
        // (the grant that woke us *was* this step's choice).
        self.reacquire(tid, mutex);
    }

    /// The model of `wait_timeout`: release the mutex, spend one
    /// scheduling point with it released (any number of other threads
    /// may run there — the explorer branches over all of them), then
    /// reacquire. This is the "timed out after an arbitrary window"
    /// behavior; a notify arriving in the window is indistinguishable,
    /// which is exactly the freedom the real primitive has.
    pub(crate) fn cv_wait_window(&self, tid: usize, mutex: &LockMeta) {
        {
            let mut st = self.lock_state();
            if st.aborting {
                drop(st);
                std::panic::panic_any(ExplorationAborted);
            }
            self.release_locked(&mut st, tid, mutex.id);
            self.cv.notify_all();
        }
        self.yield_point(tid);
        self.reacquire(tid, mutex);
    }

    /// Notify on `cv_id`: every waiter becomes runnable (notify_one is
    /// modeled as notify_all — extra wakeups are spurious wakeups,
    /// which predicate loops must tolerate anyway). A scheduling point.
    pub(crate) fn cv_notify(&self, tid: usize, cv_id: u64) {
        self.yield_point(tid);
        let mut st = self.lock_state();
        for s in st.status.iter_mut() {
            if *s == Status::BlockedCondvar(cv_id) {
                *s = Status::Parked;
            }
        }
        self.cv.notify_all();
    }

    /// Contended reacquire without an initial yield: used on the wake
    /// path out of a condvar wait, where the wake-up grant already was
    /// the scheduling point.
    fn reacquire(&self, tid: usize, meta: &LockMeta) {
        loop {
            {
                let mut st = self.lock_state();
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(ExplorationAborted);
                }
                if !st.owners.contains_key(&meta.id) {
                    self.acquire_locked(&mut st, tid, meta);
                    return;
                }
            }
            self.park_blocked(tid, Status::BlockedMutex(meta.id));
        }
    }

    /// Record ownership plus the acquisition-order bookkeeping; fires
    /// the lock-order-inversion verdict (and aborts) when this
    /// acquisition closes a cycle or violates declared ranks.
    fn acquire_locked(&self, st: &mut SchedState, tid: usize, meta: &LockMeta) {
        st.owners.insert(meta.id, (tid, *meta));
        let mut verdict: Option<String> = None;
        for h in st.held[tid].clone() {
            st.edges.push((h, *meta));
            if let (Some(hr), Some(mr)) = (h.rank, meta.rank) {
                if hr > mr {
                    verdict = Some(format!(
                        "`{}` (rank {}) acquired while holding `{}` (rank {}); the declared \
                         order requires `{}` first",
                        meta.label, mr, h.label, hr, meta.label
                    ));
                }
            }
            if verdict.is_none() && reaches(&st.edges, meta.id, h.id) {
                verdict = Some(format!(
                    "acquiring `{}` while holding `{}` closes a cycle: a previously observed \
                     acquisition path already orders `{}` before `{}`",
                    meta.label, h.label, meta.label, h.label
                ));
            }
        }
        st.held[tid].push(*meta);
        if let Some(detail) = verdict {
            if st.failure.is_none() {
                st.failure = Some(Failure::LockOrderInversion { detail });
            }
            st.aborting = true;
            self.cv.notify_all();
            std::panic::panic_any(ExplorationAborted);
        }
    }

    fn release_locked(&self, st: &mut SchedState, tid: usize, id: u64) {
        st.owners.remove(&id);
        st.held[tid].retain(|m| m.id != id);
        for s in st.status.iter_mut() {
            if *s == Status::BlockedMutex(id) {
                *s = Status::Parked;
            }
        }
    }

    /// Park as `status` (a blocked state) until granted.
    fn park_blocked(&self, tid: usize, status: Status) {
        let mut st = self.lock_state();
        st.status[tid] = status;
        self.cv.notify_all();
        while st.granted != Some(tid) {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ExplorationAborted);
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.granted = None;
        st.status[tid] = Status::Running;
        self.cv.notify_all();
    }

    /// Controller: block until no thread is `Running` and no grant is
    /// outstanding, then return the sorted runnable (`Parked`) set.
    pub(crate) fn stable_runnable(&self) -> Vec<usize> {
        let mut st = self.lock_state();
        while st.granted.is_some() || st.status.contains(&Status::Running) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Parked)
            .map(|(i, _)| i)
            .collect()
    }

    /// Controller: let `tid` take one step and wait for the system to
    /// stabilize again.
    pub(crate) fn grant_and_wait(&self, tid: usize) {
        let mut st = self.lock_state();
        debug_assert!(st.status[tid] == Status::Parked);
        st.granted = Some(tid);
        self.cv.notify_all();
        while st.granted.is_some() || st.status[tid] == Status::Running {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Controller: the verdict a thread recorded mid-step, if any.
    pub(crate) fn pending_failure(&self) -> Option<Failure> {
        self.lock_state().failure.clone()
    }

    /// Controller, on a stable state with no runnable thread but
    /// unfinished threads: classify the stall.
    pub(crate) fn classify_stall(&self) -> Option<Failure> {
        let st = self.lock_state();
        let mut mutex_blocked = Vec::new();
        let mut cv_blocked = Vec::new();
        for (tid, s) in st.status.iter().enumerate() {
            match *s {
                Status::BlockedMutex(id) => mutex_blocked.push((tid, id)),
                Status::BlockedCondvar(id) => cv_blocked.push((tid, id)),
                Status::Finished => {}
                // stable_runnable only returns with nobody Running; a
                // Parked thread here would mean the runnable set was
                // not empty.
                Status::Running | Status::Parked => return None,
            }
        }
        if mutex_blocked.is_empty() && cv_blocked.is_empty() {
            return None;
        }
        if !mutex_blocked.is_empty() {
            let chains: Vec<String> = mutex_blocked
                .iter()
                .map(|(tid, id)| {
                    let (label, holder) = match st.owners.get(id) {
                        Some((owner, meta)) => (meta.label, format!("held by thread {owner}")),
                        None => ("?", "unowned".to_owned()),
                    };
                    format!("thread {tid} blocked on `{label}` ({holder})")
                })
                .collect();
            return Some(Failure::Deadlock {
                detail: chains.join("; "),
            });
        }
        let waits: Vec<String> = cv_blocked
            .iter()
            .map(|(tid, id)| {
                let label = st.cv_labels.get(id).copied().unwrap_or("?");
                format!("thread {tid} parked on condvar `{label}`")
            })
            .collect();
        Some(Failure::LostWakeup {
            detail: format!("{}; no runnable thread can ever notify", waits.join("; ")),
        })
    }

    /// Controller: wake every parked/blocked thread into the abort
    /// sentinel and wait until all of them have finished, so the thread
    /// scope joins.
    pub(crate) fn abort_and_drain(&self) {
        let mut st = self.lock_state();
        st.aborting = true;
        self.cv.notify_all();
        while st.status.iter().any(|s| *s != Status::Finished) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

thread_local! {
    /// The ambient execution context of a model thread: which scheduler
    /// it belongs to and its thread id. `None` on the controller (and on
    /// any thread outside an exploration), where model atomics and
    /// blocking primitives execute without yielding — construction
    /// before spawn and observation after join are sequential anyway.
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// Install/clear the ambient context for the current thread.
pub(crate) fn set_ctx(ctx: Option<(Arc<Scheduler>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// The ambient context, cloned, if the current thread is a model thread.
pub(crate) fn current_ctx() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().as_ref().map(|(s, t)| (Arc::clone(s), *t)))
}

/// Park at a scheduling point if the current thread is a model thread.
pub(crate) fn maybe_yield() {
    if let Some((sched, tid)) = current_ctx() {
        sched.yield_point(tid);
    }
}

/// Does `from` reach `to` in the acquisition-edge graph?
fn reaches(edges: &[(LockMeta, LockMeta)], from: u64, to: u64) -> bool {
    let mut seen = vec![from];
    let mut frontier = vec![from];
    while let Some(node) = frontier.pop() {
        for (a, b) in edges {
            if a.id == node && !seen.contains(&b.id) {
                if b.id == to {
                    return true;
                }
                seen.push(b.id);
                frontier.push(b.id);
            }
        }
    }
    false
}
