//! Blocking-primitive scenarios: sanity checks that well-formed
//! mutex/condvar protocols explore cleanly, seeded-bug regressions
//! proving each detector actually fires, and the cluster-reduce
//! rendezvous whose wait graph must stay acyclic.

use oisum_core::AtomicU64Like;
use oisum_loom_lite::{
    declare_lock_order, Failure, Model, ModelAtomicU64, ModelCondvar, ModelMutex, ThreadBody,
};

/// Two threads increment a shared counter under a model mutex: every
/// schedule must observe both increments, and none may fail.
#[test]
fn mutex_counter_all_schedules_sum() {
    let report = Model::default().check(
        || ModelMutex::new("counter", 0u64),
        vec![
            Box::new(|m: &ModelMutex<u64>| {
                *m.lock() += 1;
            }),
            Box::new(|m: &ModelMutex<u64>| {
                *m.lock() += 1;
            }),
        ],
        |m| *m.lock(),
    );
    assert_eq!(*report.sole_outcome(), 2);
    assert!(report.executions >= 2, "lock order alone is a choice point");
}

struct PingPong {
    slot: ModelMutex<Option<u64>>,
    cv: ModelCondvar,
    got: ModelAtomicU64,
}

/// A producer/consumer rendezvous with the wait in a predicate loop —
/// the well-formed shape — completes in every schedule: no deadlock, no
/// lost wakeup, one outcome.
#[test]
fn condvar_rendezvous_clean() {
    use std::sync::atomic::Ordering;
    let report = Model::default().check(
        || PingPong {
            slot: ModelMutex::new("slot", None),
            cv: ModelCondvar::new("slot_cv"),
            got: ModelAtomicU64::new(0),
        },
        vec![
            Box::new(|s: &PingPong| {
                let mut g = s.slot.lock();
                *g = Some(41);
                drop(g);
                s.cv.notify_one();
            }),
            Box::new(|s: &PingPong| {
                let mut g = s.slot.lock();
                while g.is_none() {
                    g = s.cv.wait(g);
                }
                let v = g.take().unwrap();
                s.got.store(v + 1, Ordering::SeqCst);
            }),
        ],
        |s| s.got.load(std::sync::atomic::Ordering::SeqCst),
    );
    assert_eq!(*report.sole_outcome(), 42);
}

/// Seeded bug #1 — a notify skip-guard (wake only when a waiter count
/// is nonzero) with the waiter-side increment removed. The notifier
/// updates the predicate, loads a waiter count that is still zero, and
/// skips the notify; in the schedule where the waiter parks first,
/// nothing ever wakes it. The checker must call it a lost wakeup, not
/// hang.
struct SkipGuard {
    state: ModelMutex<u64>, // committed watermark
    done: ModelCondvar,
    done_waiters: ModelAtomicU64,
}

#[test]
fn seeded_skip_guard_without_count_is_lost_wakeup() {
    use std::sync::atomic::Ordering;
    let report = Model::default().check(
        || SkipGuard {
            state: ModelMutex::new("state", 0),
            done: ModelCondvar::new("done"),
            done_waiters: ModelAtomicU64::new(0),
        },
        vec![
            // Waiter: parks until the watermark covers its ticket — but
            // the bug strips the `done_waiters` increment that the
            // notify skip-guard depends on.
            Box::new(|s: &SkipGuard| {
                let mut g = s.state.lock();
                while *g < 1 {
                    g = s.done.wait(g);
                }
            }),
            // Notifier: advances the watermark under the lock, then
            // skips the wake because it sees no counted waiters.
            Box::new(|s: &SkipGuard| {
                let mut g = s.state.lock();
                *g = 1;
                drop(g);
                if s.done_waiters.load(Ordering::SeqCst) > 0 {
                    s.done.notify_all();
                }
            }),
        ],
        |s| *s.state.lock(),
    );
    assert!(
        matches!(report.failure, Some(Failure::LostWakeup { .. })),
        "expected a lost wakeup, got {:?}",
        report.failure
    );
}

/// The counted-waiter protocol survives every schedule: either the
/// waiter sees the updated predicate and never parks, or the notifier
/// sees the increment and notifies.
#[test]
fn counted_skip_guard_is_sound() {
    use std::sync::atomic::Ordering;
    let report = Model::default().check(
        || SkipGuard {
            state: ModelMutex::new("state", 0),
            done: ModelCondvar::new("done"),
            done_waiters: ModelAtomicU64::new(0),
        },
        vec![
            Box::new(|s: &SkipGuard| {
                let mut g = s.state.lock();
                while *g < 1 {
                    s.done_waiters.fetch_add(1, Ordering::SeqCst);
                    g = s.done.wait(g);
                    s.done_waiters.fetch_sub(1, Ordering::SeqCst);
                }
            }),
            Box::new(|s: &SkipGuard| {
                let mut g = s.state.lock();
                *g = 1;
                drop(g);
                if s.done_waiters.load(Ordering::SeqCst) > 0 {
                    s.done.notify_all();
                }
            }),
        ],
        |s| *s.state.lock(),
    );
    assert_eq!(*report.sole_outcome(), 1);
}

/// Seeded bug #2 — the classic two-mutex inversion: one thread takes
/// `alpha` then `beta`, the other `beta` then `alpha`. The runtime
/// lock-graph detector closes the cycle in the very first schedule —
/// long before the explorer reaches a schedule that actually
/// deadlocks — which is the point: the hazard is reported even on runs
/// that got lucky.
struct TwoLocks {
    alpha: ModelMutex<u64>,
    beta: ModelMutex<u64>,
}

#[test]
fn seeded_two_mutex_inversion_caught_as_cycle() {
    let report = Model::default().check(
        || TwoLocks {
            alpha: ModelMutex::new("alpha", 0),
            beta: ModelMutex::new("beta", 0),
        },
        vec![
            Box::new(|s: &TwoLocks| {
                let _a = s.alpha.lock();
                let _b = s.beta.lock();
            }),
            Box::new(|s: &TwoLocks| {
                let _b = s.beta.lock();
                let _a = s.alpha.lock();
            }),
        ],
        |_| 0u64,
    );
    assert!(
        matches!(report.failure, Some(Failure::LockOrderInversion { .. })),
        "expected a lock-order inversion, got {:?}",
        report.failure
    );
}

/// A declared order is enforced even with no second thread and no
/// cycle: acquiring against the declaration is an inversion by fiat.
#[test]
fn declared_order_violation_is_inversion() {
    declare_lock_order(&["alpha", "beta"]);
    let report = Model::default().check(
        || TwoLocks {
            alpha: ModelMutex::new("alpha", 0),
            beta: ModelMutex::new("beta", 0),
        },
        vec![Box::new(|s: &TwoLocks| {
            let _b = s.beta.lock();
            let _a = s.alpha.lock();
        })],
        |_| 0u64,
    );
    declare_lock_order(&[]);
    assert!(
        matches!(report.failure, Some(Failure::LockOrderInversion { .. })),
        "expected a lock-order inversion, got {:?}",
        report.failure
    );
}

/// Respecting the declared order explores cleanly.
#[test]
fn declared_order_respected_is_clean() {
    declare_lock_order(&["alpha", "beta"]);
    let report = Model::default().check(
        || TwoLocks {
            alpha: ModelMutex::new("alpha", 0),
            beta: ModelMutex::new("beta", 0),
        },
        vec![
            Box::new(|s: &TwoLocks| {
                let _a = s.alpha.lock();
                let _b = s.beta.lock();
            }),
            Box::new(|s: &TwoLocks| {
                let _a = s.alpha.lock();
                let _b = s.beta.lock();
            }),
        ],
        |_| 0u64,
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), 0);
}

/// Re-acquiring a mutex the thread already holds can never be granted:
/// the scheduler sees one thread blocked on a mutex and nobody
/// runnable — a deadlock verdict, not a hang.
#[test]
fn self_deadlock_detected() {
    let report = Model::default().check(
        || ModelMutex::new("m", 0u64),
        vec![Box::new(|m: &ModelMutex<u64>| {
            let _g1 = m.lock();
            let _g2 = m.lock();
        })],
        |_| 0u64,
    );
    assert!(
        matches!(report.failure, Some(Failure::Deadlock { .. })),
        "expected a deadlock, got {:?}",
        report.failure
    );
}

/// The cluster reduce's rendezvous shape: a binomial tree over 4 ranks
/// where, each round, the rank with the mask bit set sends its partial
/// to `rank - mask` and exits, and the receiver folds it in. Masks
/// strictly decrease along every wait chain (a receiver with mask `m`
/// only ever waits on ranks `> r`), so the wait graph is acyclic — the
/// checker confirms: no deadlock, no lost wakeup, and rank 0 converges
/// to the full sum in every schedule. This is the model-scale witness
/// for the TCP binomial-tree reduction's liveness argument.
struct ReduceState {
    mboxes: Vec<(ModelMutex<Option<u64>>, ModelCondvar)>,
    result: ModelAtomicU64,
}

#[test]
fn binomial_reduce_rendezvous_acyclic() {
    use std::sync::atomic::Ordering;
    const RANKS: usize = 4;
    const MBOX_LABELS: [&str; RANKS] = ["mbox0", "mbox1", "mbox2", "mbox3"];
    let mk_state = || ReduceState {
        // One mailbox per *sender*: every rendezvous edge has exactly
        // one depositor and one consumer, so slots are never reused
        // across rounds (the TCP reduction gets the same property from
        // per-peer sockets).
        mboxes: MBOX_LABELS
            .iter()
            .map(|&l| (ModelMutex::new(l, None), ModelCondvar::new("mbox_cv")))
            .collect(),
        result: ModelAtomicU64::new(0),
    };
    let body = |rank: usize| -> ThreadBody<ReduceState> {
        Box::new(move |s: &ReduceState| {
            let mut acc = (rank + 1) as u64; // rank r contributes r+1
            let mut mask = 1usize;
            while mask < RANKS {
                if rank & mask != 0 {
                    // Deposit the partial in our own mailbox for the
                    // parent (`rank - mask`) and leave.
                    let (mbox, cv) = &s.mboxes[rank];
                    let mut g = mbox.lock();
                    debug_assert!(g.is_none(), "one deposit per rendezvous slot");
                    *g = Some(acc);
                    drop(g);
                    cv.notify_one();
                    return;
                }
                // Wait on the mailbox of the child with this mask bit —
                // always a strictly higher rank, which is what keeps
                // the wait graph acyclic.
                let (mbox, cv) = &s.mboxes[rank + mask];
                let mut g = mbox.lock();
                while g.is_none() {
                    g = cv.wait(g);
                }
                acc += g.take().unwrap();
                drop(g);
                mask <<= 1;
            }
            s.result.store(acc, Ordering::SeqCst);
        })
    };
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        mk_state,
        (0..RANKS).map(body).collect(),
        |s| s.result.load(std::sync::atomic::Ordering::SeqCst),
    );
    assert_eq!(*report.sole_outcome(), 10, "1 + 2 + 3 + 4 lands at rank 0");
}
