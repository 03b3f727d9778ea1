//! The *real* WAL group-commit protocol under exhaustive/bounded
//! schedule exploration.
//!
//! `oisum_service::wal::Shared` is generic over
//! [`oisum_core::SyncShimLike`] and a storage sink, so the exact
//! production code paths — `append`'s inline fast path, the contended
//! spin/park path, `submit` and the `wait_mark_beyond` pump the epoll
//! reactor parks on, `run_committer`'s drain loop, the `done_waiters`
//! notify skip-guard — run here against model primitives, with every
//! lock, wait, notify, and atomic a scheduling point. Each scenario
//! asserts, in every explored schedule:
//!
//! * **no verdicts** — no deadlock, no lost wakeup, no lock-order
//!   inversion (the `segment < state` order is declared to the
//!   checker);
//! * **dense watermark** — `committed` never exceeds `submitted`, and
//!   both equal the appended count at the end;
//! * **ACKed implies durable** — at every probe point the sink's synced
//!   watermark covers everything `committed` claims (with fsync on), so
//!   an `Ok` append was durable when ACKed;
//! * **clean close** — the sink is sealed exactly once, after all
//!   records (the sink double below refuses a second seal and any
//!   record after one).
//!
//! The contended park path once had a genuine stranding window here: an
//! appender that lost the segment-lock race to a direct committer whose
//! group did not cover its ticket could park on `done` just as that
//! committer's skip-guarded notify saw zero waiters — leaving the
//! record queued with nobody left to commit it until the next append,
//! flush, or close. These scenarios fail with a lost-wakeup verdict if
//! that hand-to-committer fix regresses.

use oisum_loom_lite::{declare_lock_order, Model, ModelSyncShim, ThreadBody};
use oisum_service::wal::{FsyncPolicy, MemSink, SegmentSink, Shared, WalError, LOCK_ORDER};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex as StdMutex};

/// [`MemSink`] behind an `Arc` so the scenario can still observe it
/// after the committer's close path takes it out of the protocol
/// (`*seg = None`, exactly as production drops the sealed file). The
/// inner `std` mutex is never contended — the protocol only touches the
/// sink under the model-checked `segment` lock — so it adds no blocking
/// the scheduler can't see.
struct SharedSink(Arc<StdMutex<MemSink>>);

impl SharedSink {
    fn mem(&self) -> std::sync::MutexGuard<'_, MemSink> {
        self.0.lock().unwrap()
    }
}

impl SegmentSink for SharedSink {
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
        fsync: bool,
    ) -> Result<(), WalError> {
        let mut m = self.mem();
        assert!(!m.sealed, "record committed after the seal");
        m.commit_one(stream, client_id, seq, value_bytes, fsync)
    }
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        self.mem().ensure_group_fits(incoming)
    }
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        let mut m = self.mem();
        assert!(!m.sealed, "group committed after the seal");
        m.commit_group(buf, count, fsync)
    }
    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        self.mem().rotate_if_full()
    }
    fn seal(&mut self) -> Result<(), WalError> {
        let mut m = self.mem();
        assert!(!m.sealed, "sealed twice");
        m.seal()
    }
    fn index(&self) -> u64 {
        self.mem().index()
    }
}

struct WalScenario {
    shared: Shared<ModelSyncShim, SharedSink>,
    sink: Arc<StdMutex<MemSink>>,
}

fn mk_scenario(fsync: FsyncPolicy) -> WalScenario {
    let sink = Arc::new(StdMutex::new(MemSink::default()));
    WalScenario {
        // spin_budget 0: a spin only re-checks the same state, so in
        // the model it would just multiply identical schedules.
        shared: Shared::new(fsync, SharedSink(Arc::clone(&sink)), 0, 0),
        sink,
    }
}

/// An appender thread: appends one record and, on ACK, probes the
/// ACKed-implies-durable and dense-watermark invariants at that very
/// point in the schedule (not just at the end).
fn appender(id: u64, fsyncs: bool) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        s.shared
            .append("model", id, 1, &id.to_le_bytes())
            .expect("append must be ACKed");
        s.shared.probe(|sink, submitted, committed| {
            assert!(committed <= submitted, "watermark must stay dense");
            if fsyncs {
                if let Some(sink) = sink {
                    let m = sink.mem();
                    assert!(
                        m.synced_records >= committed,
                        "ACKed-implies-durable: committed {} > synced {}",
                        committed,
                        m.synced_records
                    );
                }
            }
        });
    })
}

fn committer() -> ThreadBody<WalScenario> {
    Box::new(|s: &WalScenario| s.shared.run_committer())
}

/// An appender that doubles as the closer: appends, then waits
/// (blocking, counted — never polling) for all `n` tickets to commit
/// and stops the committer so it drains and seals. Folding the roles
/// keeps the thread count at three, which is what keeps the
/// preemption-bounded tree enumerable in seconds rather than minutes —
/// and the stranding window needs only two appenders plus the
/// committer anyway.
fn appender_then_closer(id: u64, fsyncs: bool, n: u64) -> ThreadBody<WalScenario> {
    let append = appender(id, fsyncs);
    Box::new(move |s: &WalScenario| {
        append(s);
        s.shared.wait_committed(n);
        s.shared.request_stop();
    })
}

/// A reactor-side submitter: enqueues one record without waiting for
/// its commit (the connection, not the thread, parks on the ticket).
fn submitter(id: u64, n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let ticket = s.shared.submit("model", id, 1, &id.to_le_bytes()).expect("submit accepted");
        assert!((1..=n).contains(&ticket), "tickets are issued densely");
    })
}

/// The reactor's WAL pump, doubling as the closer: parks in
/// `wait_mark_beyond` until the mark moves, checks at every wake that
/// the lock-free mark the reactor releases replies on covers only
/// synced records, and once all `n` tickets are durable stops the
/// committer so it drains and seals. The sink is read through its
/// plain mutex, which is never held across a scheduling point, so the
/// checks add one choice point per wake rather than two lock handoffs.
fn pump_then_closer(n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let cancel = AtomicBool::new(false);
        let mut seen = 0;
        while seen < n {
            let committed = s.shared.wait_mark_beyond(seen, &cancel);
            assert!(seen < committed && committed <= n, "watermark must stay dense");
            let mark = s.shared.commit_mark();
            assert!(mark >= committed, "the lock-free mark lags the watermark");
            let synced = s.sink.lock().unwrap().synced_records;
            assert!(synced >= mark, "mark {mark} covers unsynced records (synced {synced})");
            seen = committed;
        }
        s.shared.request_stop();
    })
}

/// Waits (blocking, counted — never polling) for all `n` tickets to
/// commit, then stops the committer so it drains and seals.
fn closer(n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        s.shared.wait_committed(n);
        s.shared.request_stop();
    })
}

/// The end-state every schedule must agree on.
fn observe(n: u64) -> impl Fn(&WalScenario) -> (u64, u64, u64, u64, bool) {
    move |s: &WalScenario| {
        let (submitted, committed) = s.shared.queue_snapshot();
        let m = s.sink.lock().unwrap();
        assert_eq!(submitted, n, "every append got a ticket");
        assert_eq!(committed, n, "dense watermark covers every ticket");
        (submitted, committed, m.records, m.synced_records, m.sealed)
    }
}

/// The ordering witness: the constant the production annotation
/// (`lint:lock-order`) and these scenarios both rely on.
#[test]
fn declared_order_matches_wal_annotation() {
    assert_eq!(LOCK_ORDER, ["segment", "state"]);
}

/// One appender + committer + closer, `group` policy. Bound 2 — the
/// CHESS result: almost every concurrency bug manifests within two
/// preemptions, and the tree stays enumerable.
#[test]
fn wal_group_single_appender() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Group),
        vec![appender(1, true), committer(), closer(1)],
        observe(1),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (1, 1, 1, 1, true));
    assert!(report.executions > 10, "blocking points must branch the tree");
}

/// Two racing appenders + committer under `group`: the contended path
/// (try_lock race, spin-exhausted park, committer handoff) is exercised
/// across schedules. Preemption-bounded (CHESS, bound 2) to keep the
/// tree tractable; the stranding regression above needs exactly two
/// preemptions, so the bound covers it.
#[test]
fn wal_group_two_appenders_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Group),
        vec![appender_then_closer(1, true, 2), appender(2, true), committer()],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true));
}

/// The reactor's path under `group`: two non-blocking submitters, the
/// committer, and a pump parked in `wait_mark_beyond`. Only the
/// committer drains here, woken by the empty→1 submit alone — a lost
/// wake strands a record and the pump with it, which the checker
/// reports as a lost wakeup.
#[test]
fn wal_group_submit_pump_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Group),
        vec![submitter(1, 2), submitter(2, 2), committer(), pump_then_closer(2)],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true));
}

/// `never` policy: no fsync anywhere — `synced_records` stays 0, but
/// the protocol's liveness and the dense watermark are policy-free.
#[test]
fn wal_never_two_appenders_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Never),
        vec![appender_then_closer(1, false, 2), appender(2, false), committer()],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 0, true));
}
