//! The *real* WAL group-commit protocol under bounded schedule
//! exploration.
//!
//! `oisum_service::wal::Shared` is generic over
//! [`oisum_core::SyncShimLike`] and a storage sink, so the exact
//! production code paths — `append`'s inline fast path, its contended
//! path (queue the record, block on the segment lock, then commit the
//! queue unless the mark already covers the ticket), `submit` and the
//! `commit_next` pump the epoll reactor runs, and `close` — run here
//! against model primitives, with every lock, wait, notify, and atomic
//! a scheduling point. Each scenario asserts, in every explored
//! schedule:
//!
//! * **no verdicts** — no deadlock, no lost wakeup, no lock-order
//!   inversion (the `segment < state` order is declared to the
//!   checker);
//! * **dense watermark** — `committed` never exceeds `submitted`, and
//!   both equal the accepted count at the end;
//! * **ACKed implies durable** — when `append` returns `Ok`, the
//!   appender's own record is already among the sink's durable records
//!   (synced under `group`, written under `never`), and every mark the
//!   pump returns covers only synced records;
//! * **clean close** — the sink is sealed exactly once, after all
//!   records (the sink double below refuses a second seal and any
//!   record after one);
//! * **refusals leave nothing** — an append that lost the race to
//!   `close` is refused, and the sink holds exactly the accepted
//!   records.
//!
//! Two seeded bugs must fail here: a contended appender that returns
//! once it holds the segment lock without committing (an ACK that is
//! not durable), and a `submit` that never wakes the pump (a lost
//! wakeup).

use oisum_loom_lite::{declare_lock_order, Model, ModelSyncShim, Report, ThreadBody};
use oisum_service::wal::{FsyncPolicy, MemSink, Record, SegmentSink, Shared, WalError, LOCK_ORDER};
use std::sync::{Arc, Mutex as StdMutex};

/// [`MemSink`] behind an `Arc` so the scenario can still observe it
/// after `close` takes it out of the protocol and drops it, exactly as
/// production drops the sealed file. The inner `std` mutex is never
/// contended — the protocol only touches the sink under the
/// model-checked `segment` lock, and no scenario holds it across a
/// scheduling point — so it adds no blocking the scheduler can't see.
struct SharedSink(Arc<StdMutex<MemSink>>);

impl SharedSink {
    fn mem(&self) -> std::sync::MutexGuard<'_, MemSink> {
        self.0.lock().unwrap()
    }
}

impl SegmentSink for SharedSink {
    fn commit_one(&mut self, record: &Record<'_>, fsync: bool) -> Result<(), WalError> {
        let mut m = self.mem();
        assert!(!m.sealed, "record committed after the seal");
        m.commit_one(record, fsync)
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
    /// Client ids whose append or submit was accepted, in ACK order.
    /// A plain mutex for the same reason as the sink's.
    accepted: StdMutex<Vec<u64>>,
}

fn mk_scenario(fsync: FsyncPolicy) -> WalScenario {
    let sink = Arc::new(StdMutex::new(MemSink::default()));
    WalScenario {
        shared: Shared::new(fsync, SharedSink(Arc::clone(&sink)), 0),
        sink,
        accepted: StdMutex::new(Vec::new()),
    }
}

/// The client ids of the framed records in `bytes`, in file order. A
/// record is `len | client_id seq total name_len name values | checksum`.
fn record_ids(bytes: &[u8]) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        ids.push(u64::from_be_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()));
        pos += 4 + len + 8;
    }
    ids
}

/// An appender thread: appends one record. On ACK it checks, at that
/// very point in the schedule, that its record is durable — synced
/// under `group`, written under `never`. A `Closed` refusal is the
/// outcome of losing the race to `close`; anything else fails.
fn appender(id: u64, fsyncs: bool) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let bytes = id.to_le_bytes();
        match s.shared.append(&Record::fold("model", id, 1, &bytes).unwrap()) {
            Ok(()) => {
                let m = s.sink.lock().unwrap();
                let durable = if fsyncs { m.synced_records } else { m.records };
                let ids = record_ids(&m.bytes);
                drop(m);
                assert!(
                    ids[..durable as usize].contains(&id),
                    "ACKed append {id} is not durable at its ACK (durable records {ids:?}[..{durable}])"
                );
                s.accepted.lock().unwrap().push(id);
            }
            Err(WalError::Closed) => {}
            Err(e) => panic!("append {id} failed: {e}"),
        }
        let (submitted, committed) = s.shared.queue_snapshot();
        assert!(committed <= submitted, "watermark must stay dense");
    })
}

/// Closes the log: commits whatever is queued, seals, and refuses
/// every later append.
fn closer() -> ThreadBody<WalScenario> {
    Box::new(|s: &WalScenario| s.shared.close().expect("close of an uncrashed log"))
}

/// A reactor-side submitter: enqueues one record without waiting for
/// its commit (the connection, not the thread, parks on the ticket).
fn submitter(id: u64, n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let bytes = id.to_le_bytes();
        let record = Record::fold("model", id, 1, &bytes).unwrap();
        let ticket = s.shared.submit(&record).expect("submit accepted");
        assert!((1..=n).contains(&ticket), "tickets are issued densely");
        s.accepted.lock().unwrap().push(id);
    })
}

/// The reactor's WAL pump: loops on `commit_next`, checking after every
/// group that the mark it returns — the one the reactor releases
/// replies on — is dense and covers only synced records, and closes
/// the log once the mark reaches `n`.
fn pump_then_closer(n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let mut seen = 0;
        while seen < n {
            let mark = s.shared.commit_next().expect("an open, uncrashed log has a next group");
            assert!(seen < mark && mark <= n, "watermark must stay dense");
            let synced = s.sink.lock().unwrap().synced_records;
            assert!(synced >= mark, "mark {mark} covers unsynced records (synced {synced})");
            seen = mark;
        }
        s.shared.close().expect("close of an uncrashed log");
        assert_eq!(s.shared.commit_next(), None, "a closed log has no next group");
    })
}

/// The end state every schedule must satisfy: the log is sealed, the
/// watermark covers exactly the accepted tickets, and the sink holds
/// exactly the accepted records. Returns `(accepted, records, synced)`.
fn observe(s: &WalScenario) -> (u64, u64, u64) {
    let (submitted, committed) = s.shared.queue_snapshot();
    let m = s.sink.lock().unwrap();
    let mut accepted = s.accepted.lock().unwrap().clone();
    let n = accepted.len() as u64;
    assert!(m.sealed, "close sealed the sink");
    assert_eq!((submitted, committed), (n, n), "dense watermark covers every accepted ticket");
    let mut ids = record_ids(&m.bytes);
    assert_eq!(m.records, ids.len() as u64);
    ids.sort_unstable();
    accepted.sort_unstable();
    assert_eq!(ids, accepted, "the sink holds exactly the accepted records");
    (n, m.records, m.synced_records)
}

/// Explores `bodies` at preemption bound 2 — the CHESS result: almost
/// every concurrency bug manifests within two preemptions, and the
/// tree stays enumerable — with the WAL's lock order declared.
fn explore(fsync: FsyncPolicy, bodies: Vec<ThreadBody<WalScenario>>) -> Report<(u64, u64, u64)> {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(fsync),
        bodies,
        observe,
    );
    declare_lock_order(&[]);
    assert!(
        report.failure.is_none(),
        "exploration failed after {} executions: {:?}",
        report.executions,
        report.failure
    );
    report
}

/// The ordering witness: the constant the production annotation
/// (`lint:lock-order`) and these scenarios both rely on.
#[test]
fn declared_order_matches_wal_annotation() {
    assert_eq!(LOCK_ORDER, ["segment", "state"]);
}

/// One appender racing `close` under `group`: the append either lands
/// before the seal, synced at its ACK, or is refused and leaves no
/// record. Both must happen in some schedule.
#[test]
fn wal_group_single_appender_races_close() {
    let report = explore(FsyncPolicy::Group, vec![appender(1, true), closer()]);
    let outcomes: Vec<_> = report.outcomes.keys().copied().collect();
    assert_eq!(outcomes, [(0, 0, 0), (1, 1, 1)]);
}

/// Two appenders racing `close` under `group`: the loser of the
/// segment `try_lock` takes the contended path — queue, block on the
/// segment lock, commit the queue unless the winner's group carried
/// its record — while `close` may win at any point.
#[test]
fn wal_group_two_appenders_race_close() {
    let report = explore(
        FsyncPolicy::Group,
        vec![appender(1, true), appender(2, true), closer()],
    );
    for &(accepted, records, synced) in report.outcomes.keys() {
        assert_eq!((records, synced), (accepted, accepted));
    }
    assert!(report.outcomes.contains_key(&(2, 2, 2)), "some schedule accepts both appends");
}

/// The same race under `never`: no fsync anywhere — `synced_records`
/// stays 0 — but liveness, the dense watermark, and "written at its
/// ACK" are policy-free.
#[test]
fn wal_never_two_appenders_race_close() {
    let report = explore(
        FsyncPolicy::Never,
        vec![appender(1, false), appender(2, false), closer()],
    );
    for &(accepted, records, synced) in report.outcomes.keys() {
        assert_eq!((records, synced), (accepted, 0));
    }
    assert!(report.outcomes.contains_key(&(2, 2, 0)), "some schedule accepts both appends");
}

/// The reactor's path under `group`: two non-blocking submitters and a
/// pump looping on `commit_next`, which closes once its mark reaches 2.
/// Only the pump commits here, woken by the empty→1 submit alone — a
/// lost wake strands a record and the pump with it, which the checker
/// reports as a lost wakeup.
#[test]
fn wal_group_submit_pump() {
    let report = explore(
        FsyncPolicy::Group,
        vec![submitter(1, 2), submitter(2, 2), pump_then_closer(2)],
    );
    assert_eq!(*report.sole_outcome(), (2, 2, 2));
}
