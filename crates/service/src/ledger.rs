//! The HP ledger: named accumulation streams, each one exact sum under
//! one lock.
//!
//! A stream is a plain [`ServiceHp`] sum, its overflow count, its
//! `batches` and `values` counters and its exactly-once dedup window,
//! all behind one `Mutex`. The paper's HP addition is exact integer
//! addition (§III), so one sum is exact whatever the order or the
//! interleaving of the deposits that reach it, which is what lets two
//! service runs with different client counts and batch orders agree
//! bit for bit.
//!
//! [`ShardedLedger::add_total_dedup`] is the ledger's one locked add: a
//! batch's exact total, folded before the lock is taken. Under the lock
//! it does three things: the dedup check, one 6-limb add and the window
//! update. Every batch reaches it as one total. A binary Add's total is
//! folded once in dispatch, which hands the same total to the WAL
//! record; a replayed record brings the total it logged; a peer
//! `MirrorAdd` goes through [`ShardedLedger::add_batch_le_bytes_dedup`],
//! which folds raw little-endian `f64` bytes into a carry-deferred
//! [`BatchAcc`] (`batch_total`) in front of the same add.
//!
//! Every read takes the same lock: `Sum`, `Stats`, a snapshot, a peer
//! pull and a tree-reduce contribution. So each one sees a state the
//! stream really held, whose window covers exactly the batches in its
//! sum. (A checkpoint whose window ran ahead of its sum would make WAL
//! replay skip ACKed batches after a crash.)
//!
//! The add counts an overflow by the paper's §III.B.1 sign test, the
//! rule [`HpFixed::checked_add`](oisum_core::HpFixed::checked_add)
//! uses: two addends of one sign whose sum has the other sign. The test
//! sees the running sum and one batch's total, so a wrap inside a single
//! batch is not counted.
//!
//! A `RwLock` guards only the stream *directory* (name → stream). A
//! deposit takes its read lock to clone the stream's `Arc`, then the
//! stream's own lock: two locks per deposit, tracked or not.

use crate::proto::UNTRACKED_CLIENT;
use crate::ServiceHp;
use oisum_core::{encode_f64_le_batch, BatchAcc};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, RwLock};

/// Number of integer/fractional limbs in the service accumulator format.
pub const SERVICE_LIMBS: usize = 6;

/// The exact total of a batch of raw little-endian `f64` bytes, folded
/// through the multi-lane encode kernel into a carry-deferred
/// [`BatchAcc`]. This is what a deposit adds and what the batch's WAL
/// record carries. Every value must be finite and below 2^191 in
/// magnitude (the kernel debug-asserts on the rest); callers that take
/// bytes from outside screen them first.
pub(crate) fn batch_total(bytes: &[u8]) -> ServiceHp {
    let mut acc = BatchAcc::new();
    encode_f64_le_batch(&mut acc, bytes);
    acc.finish()
}

/// One stream's sum and counters, as one read under its lock sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Exact accumulated sum.
    pub sum: ServiceHp,
    /// Batch adds the sign test found leaving the representable range
    /// (saturating); non-zero poisons the stream's range guarantee.
    pub overflows: u64,
    /// Batches applied.
    pub batches: u64,
    /// Values applied.
    pub values: u64,
}

impl Totals {
    /// Adds one applied batch of `values` summands whose exact total is
    /// `total`. The sum wraps as the paper's adder does; a wrap the sign
    /// test sees is counted.
    fn add(&mut self, total: &ServiceHp, values: u64) {
        match self.sum.checked_add(total) {
            Ok(sum) => self.sum = sum,
            Err(_) => {
                self.sum.add_assign(total);
                self.overflows = self.overflows.saturating_add(1);
            }
        }
        self.batches += 1;
        self.values += values;
    }
}

/// One named stream: its totals and its dedup window, under one lock.
#[derive(Debug, Default)]
struct Stream {
    totals: Totals,
    /// `client_id → highest applied seq`. A replay racing its original
    /// (a timed-out request still in flight while the retry arrives on a
    /// new connection) is decided under the lock that applies the
    /// original, so it cannot double-apply.
    window: HashMap<u64, u64>,
}

/// One stream, looked up by name once, for a caller that adds to it
/// many times (WAL recovery resolves each stream once per replay).
#[derive(Debug, Clone)]
pub(crate) struct StreamHandle(Arc<Mutex<Stream>>);

impl StreamHandle {
    /// The ledger's one locked add; see
    /// [`ShardedLedger::add_total_dedup`].
    pub(crate) fn add_total(&self, client_id: u64, seq: u64, total: &ServiceHp, values: u64) -> bool {
        let mut s = self.0.lock().unwrap();
        if client_id != UNTRACKED_CLIENT {
            // Seq 0 never applies: client seqs start at 1.
            let last = s.window.entry(client_id).or_default();
            if seq <= *last {
                return false;
            }
            *last = seq;
        }
        s.totals.add(total, values);
        true
    }
}

/// A stream's complete persistent state, as captured by
/// [`ShardedLedger::snapshot`] and re-installed by
/// [`ShardedLedger::restore`]. The default is a stream never written.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamState {
    /// Stream name.
    pub name: String,
    /// Exact accumulated sum.
    pub sum: ServiceHp,
    /// Overflows counted by the sign test.
    pub overflows: u64,
    /// Dedup window: `(client_id, last applied seq)`, sorted by id.
    pub dedup: Vec<(u64, u64)>,
    /// Batches applied. Carried through snapshots so a restored (or
    /// cluster-rejoined) stream keeps its exactly-once accounting, not
    /// just its sum.
    pub batches: u64,
    /// Values applied.
    pub values: u64,
}

/// Captures one stream's persistent state in one locked read, so the
/// window covers exactly the batches in the sum. Clients that never
/// applied a batch are left out of the window.
fn capture(name: &str, stream: &Mutex<Stream>) -> StreamState {
    let s = stream.lock().unwrap();
    let totals = s.totals;
    let mut dedup: Vec<(u64, u64)> = s.window.iter().map(|(&id, &seq)| (id, seq)).collect();
    drop(s);
    dedup.retain(|&(_, seq)| seq > 0);
    dedup.sort_unstable();
    StreamState {
        name: name.to_owned(),
        sum: totals.sum,
        overflows: totals.overflows,
        dedup,
        batches: totals.batches,
        values: totals.values,
    }
}

/// Builds a live stream out of persisted state, poison included: a
/// stream that overflowed stays flagged after a restart or rejoin.
fn revive(entry: &StreamState) -> Arc<Mutex<Stream>> {
    Arc::new(Mutex::new(Stream {
        totals: Totals {
            sum: entry.sum,
            overflows: entry.overflows,
            batches: entry.batches,
            values: entry.values,
        },
        window: entry.dedup.iter().copied().collect(),
    }))
}

/// Point-in-time statistics for one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Batches deposited.
    pub batches: u64,
    /// Values deposited.
    pub values: u64,
    /// Overflows counted by the sign test (saturating); non-zero
    /// poisons the stream's range guarantee.
    pub overflows: u64,
}

/// Aggregate statistics for the whole ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerStats {
    /// Per-stream counters, sorted by name.
    pub streams: Vec<StreamStats>,
}

/// A concurrent map of named streams, each one exact HP sum under one
/// lock; see the module docs.
#[derive(Debug, Default)]
pub struct ShardedLedger {
    streams: RwLock<BTreeMap<String, Arc<Mutex<Stream>>>>,
}

impl ShardedLedger {
    /// An empty ledger. The argument is ignored: a stream is one sum, not
    /// a bank of shards. It stays until perfbench, which builds against
    /// this signature, stops passing it.
    pub fn new(_shards: usize) -> Self {
        ShardedLedger::default()
    }

    /// The stream called `name`, created on first use.
    pub(crate) fn handle(&self, name: &str) -> StreamHandle {
        if let Some(s) = self.streams.read().unwrap().get(name) {
            return StreamHandle(Arc::clone(s));
        }
        let mut map = self.streams.write().unwrap();
        StreamHandle(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Adds one batch of `values` summands, whose exact total is
    /// `total`, to `name`, creating the stream on first use — the
    /// ledger's one locked add. Returns whether it applied.
    ///
    /// A batch carrying a `(client_id, seq)` retry identity lands
    /// **exactly once**: a replay of an already-applied identity is
    /// acknowledged without adding, so however many times a retry loop
    /// resends a frame, the stream's sum — and its `values` statistic —
    /// reflect one application. A `client_id` of [`UNTRACKED_CLIENT`]
    /// bypasses the window entirely. The stream's lock covers only the
    /// dedup check, one 6-limb add and the window update.
    pub fn add_total_dedup(
        &self,
        name: &str,
        client_id: u64,
        seq: u64,
        total: &ServiceHp,
        values: u64,
    ) -> bool {
        self.handle(name).add_total(client_id, seq, total, values)
    }

    /// Deposits a batch of raw little-endian `f64` bytes (length a
    /// multiple of 8) into `name`: `batch_total` with no lock held,
    /// then [`add_total_dedup`](Self::add_total_dedup). Returns
    /// `(values accounted for, applied)`; `applied` is `false` for a
    /// recognized replay. `_shard_hint` is ignored; it stays until
    /// perfbench, which builds against this signature, stops passing it.
    pub fn add_batch_le_bytes_dedup(
        &self,
        name: &str,
        _shard_hint: usize,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
    ) -> (u64, bool) {
        let values = (bytes.len() / 8) as u64;
        let total = batch_total(bytes);
        (values, self.add_total_dedup(name, client_id, seq, &total, values))
    }

    /// `name`'s sum and counters in one cut, or `None` for a stream that
    /// has never been written.
    pub fn totals(&self, name: &str) -> Option<Totals> {
        self.streams
            .read()
            .unwrap()
            .get(name)
            .map(|s| s.lock().unwrap().totals)
    }

    /// The exact HP sum of everything deposited into `name`, or `None`
    /// for a stream that has never been written.
    pub fn sum(&self, name: &str) -> Option<ServiceHp> {
        self.totals(name).map(|t| t.sum)
    }

    /// Overflows counted on `name` (0 for unknown streams).
    pub fn overflows(&self, name: &str) -> u64 {
        self.totals(name).map_or(0, |t| t.overflows)
    }

    /// Drops every stream.
    pub fn reset(&self) {
        self.streams.write().unwrap().clear();
    }

    /// Snapshots every stream, sorted by name, each in one cut: its
    /// dedup window covers exactly the batches in its sum, so a server
    /// restored from it recognizes the retry of every batch the sum
    /// holds as a replay, and of no other.
    pub fn snapshot(&self) -> Vec<StreamState> {
        self.streams
            .read()
            .unwrap()
            .iter()
            .map(|(name, s)| capture(name, s))
            .collect()
    }

    /// The persistent state of one stream, in one cut, or `None` if it
    /// has never been written. This is what a cluster node ships to a
    /// peer pulling a per-stream copy.
    pub fn stream_state(&self, name: &str) -> Option<StreamState> {
        let stream = Arc::clone(self.streams.read().unwrap().get(name)?);
        Some(capture(name, &stream))
    }

    /// Names of every stream, sorted.
    pub fn stream_names(&self) -> Vec<String> {
        self.streams.read().unwrap().keys().cloned().collect()
    }

    /// Restores a snapshot produced by [`Self::snapshot`], replacing any
    /// existing contents.
    pub fn restore(&self, entries: &[StreamState]) {
        let mut map = self.streams.write().unwrap();
        map.clear();
        for entry in entries {
            map.insert(entry.name.clone(), revive(entry));
        }
    }

    /// Installs (or replaces) a *single* stream from its persistent
    /// state, leaving every other stream untouched — the unit of a
    /// cluster rejoin, where a restarted node adopts per-stream copies
    /// pulled from replicas one at a time.
    pub fn install(&self, entry: &StreamState) {
        let stream = revive(entry);
        self.streams
            .write()
            .unwrap()
            .insert(entry.name.clone(), stream);
    }

    /// Aggregate statistics, streams sorted by name, each stream's
    /// counters read in one cut.
    pub fn stats(&self) -> LedgerStats {
        let streams = self.streams.read().unwrap();
        LedgerStats {
            streams: streams
                .iter()
                .map(|(name, s)| {
                    let t = s.lock().unwrap().totals;
                    StreamStats {
                        name: name.clone(),
                        batches: t.batches,
                        values: t.values,
                        overflows: t.overflows,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::le_bytes;
    use proptest::prelude::*;

    /// An untracked deposit.
    fn add(ledger: &ShardedLedger, name: &str, xs: &[f64]) {
        ledger.add_batch_le_bytes_dedup(name, 0, UNTRACKED_CLIENT, 0, &le_bytes(xs));
    }

    /// A tracked deposit; returns `(count, applied)`.
    fn add_tracked(
        ledger: &ShardedLedger,
        name: &str,
        client_id: u64,
        seq: u64,
        xs: &[f64],
    ) -> (u64, bool) {
        ledger.add_batch_le_bytes_dedup(name, 0, client_id, seq, &le_bytes(xs))
    }

    #[test]
    fn empty_stream_is_none() {
        let ledger = ShardedLedger::new(4);
        assert!(ledger.sum("nope").is_none());
    }

    #[test]
    fn single_batch_matches_slice_sum() {
        let ledger = ShardedLedger::new(4);
        let xs = [0.1, -2.5, 1e9, -1e-9, 0.25];
        add(&ledger, "s", &xs);
        assert_eq!(ledger.sum("s").unwrap(), ServiceHp::sum_f64_slice(&xs));
    }

    #[test]
    fn streams_are_independent() {
        let ledger = ShardedLedger::new(2);
        add(&ledger, "a", &[1.0]);
        add(&ledger, "b", &[2.0]);
        assert_eq!(ledger.sum("a").unwrap().to_f64(), 1.0);
        assert_eq!(ledger.sum("b").unwrap().to_f64(), 2.0);
    }

    #[test]
    fn snapshot_restore_roundtrip_is_bitwise() {
        let ledger = ShardedLedger::new(8);
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 - 250.0) * 1e-7).collect();
        for chunk in xs.chunks(37) {
            add(&ledger, "s", chunk);
        }
        add(&ledger, "t", &[42.0]);
        let snap = ledger.snapshot();
        let restored = ShardedLedger::new(3);
        restored.restore(&snap);
        assert_eq!(restored.sum("s"), ledger.sum("s"));
        assert_eq!(restored.sum("t"), ledger.sum("t"));
    }

    #[test]
    fn replayed_identity_applies_exactly_once() {
        let ledger = ShardedLedger::new(4);
        let xs = [0.1, -2.5, 1e9];
        assert_eq!(add_tracked(&ledger, "s", 7, 1, &xs), (3, true));
        // Replays of seq 1 — any number, any shard hint — deposit nothing.
        for hint in 0..5 {
            let (n, applied) = ledger.add_batch_le_bytes_dedup("s", hint, 7, 1, &le_bytes(&xs));
            assert_eq!((n, applied), (3, false));
        }
        assert_eq!(ledger.sum("s").unwrap(), ServiceHp::sum_f64_slice(&xs));
        assert_eq!(ledger.stats().streams[0].values, 3);
        // The next seq applies; an older (out-of-window) seq does not.
        assert!(add_tracked(&ledger, "s", 7, 2, &[1.0]).1);
        assert!(!add_tracked(&ledger, "s", 7, 1, &xs).1);
        // A different client with the same seq is unrelated.
        assert!(add_tracked(&ledger, "s", 8, 1, &[2.0]).1);
    }

    #[test]
    fn untracked_client_bypasses_dedup() {
        let ledger = ShardedLedger::new(2);
        for _ in 0..3 {
            assert_eq!(add_tracked(&ledger, "s", UNTRACKED_CLIENT, 1, &[1.0]), (1, true));
        }
        assert_eq!(ledger.sum("s").unwrap().to_f64(), 3.0);
    }

    #[test]
    fn snapshot_carries_the_dedup_window() {
        let ledger = ShardedLedger::new(3);
        add_tracked(&ledger, "s", 7, 4, &[1.5]);
        add_tracked(&ledger, "s", 9, 2, &[2.5]);
        let snap = ledger.snapshot();
        assert_eq!(snap[0].dedup, vec![(7, 4), (9, 2)]);

        let restored = ShardedLedger::new(5);
        restored.restore(&snap);
        // A replay of an identity applied before the snapshot must still
        // be recognized after restore.
        assert!(!add_tracked(&restored, "s", 7, 4, &[1.5]).1);
        assert!(!add_tracked(&restored, "s", 9, 1, &[2.5]).1);
        assert_eq!(restored.sum("s").unwrap(), ledger.sum("s").unwrap());
        // Fresh work continues from the window.
        assert!(add_tracked(&restored, "s", 7, 5, &[3.0]).1);
    }

    #[test]
    fn restore_preserves_counters_and_install_is_per_stream() {
        let ledger = ShardedLedger::new(4);
        add(&ledger, "a", &[1.0, 2.0]);
        add(&ledger, "a", &[3.0]);
        add_tracked(&ledger, "b", 7, 1, &[4.0]);
        let snap = ledger.snapshot();
        assert_eq!(snap[0].batches, 2);
        assert_eq!(snap[0].values, 3);

        // restore() carries the counters, not just the sums.
        let restored = ShardedLedger::new(2);
        restored.restore(&snap);
        let stats = restored.stats();
        assert_eq!((stats.streams[0].batches, stats.streams[0].values), (2, 3));
        assert_eq!((stats.streams[1].batches, stats.streams[1].values), (1, 1));

        // install() replaces exactly one stream, leaving the rest alone.
        let target = ShardedLedger::new(3);
        add(&target, "a", &[9.0]); // stale copy, about to be replaced
        add(&target, "c", &[5.0]);
        let b_state = ledger.stream_state("b").unwrap();
        let a_state = ledger.stream_state("a").unwrap();
        target.install(&a_state);
        target.install(&b_state);
        assert_eq!(target.sum("a"), ledger.sum("a"));
        assert_eq!(target.sum("b"), ledger.sum("b"));
        assert_eq!(target.sum("c").unwrap().to_f64(), 5.0);
        assert_eq!(target.stream_names(), vec!["a", "b", "c"]);
        // The installed dedup window is live.
        assert!(!add_tracked(&target, "b", 7, 1, &[4.0]).1);
    }

    #[test]
    fn poison_survives_restore_install_and_snapshot_load() {
        // Two deposits of 3e57 leave the 2^191 range: the second add's
        // sign test fails and poisons the stream.
        let ledger = ShardedLedger::new(2);
        add(&ledger, "hot", &[3e57]);
        add(&ledger, "hot", &[3e57]);
        add(&ledger, "cool", &[1.0]);
        let overflows = ledger.overflows("hot");
        assert!(overflows > 0);

        let restored = ShardedLedger::new(3);
        restored.restore(&ledger.snapshot());
        let installed = ShardedLedger::new(3);
        installed.install(&ledger.stream_state("hot").unwrap());
        installed.install(&ledger.stream_state("cool").unwrap());
        let path = std::env::temp_dir()
            .join(format!("oisum-ledger-poison-{}.json", std::process::id()));
        crate::snapshot::save(&path, &ledger).unwrap();
        let loaded = ShardedLedger::new(3);
        crate::snapshot::load(&path, &loaded).unwrap();
        std::fs::remove_file(&path).ok();

        for revived in [&restored, &installed, &loaded] {
            assert_eq!(revived.overflows("hot"), overflows);
            assert_eq!(revived.overflows("cool"), 0);
            assert_eq!(revived.sum("hot"), ledger.sum("hot"));
            assert_eq!(revived.stats().streams, ledger.stats().streams);
        }
    }

    #[test]
    fn stats_count_batches_and_values() {
        let ledger = ShardedLedger::new(2);
        add(&ledger, "s", &[1.0, 2.0]);
        add(&ledger, "s", &[3.0]);
        let stats = ledger.stats();
        assert_eq!(stats.streams.len(), 1);
        assert_eq!(stats.streams[0].batches, 2);
        assert_eq!(stats.streams[0].values, 3);
        assert_eq!(stats.streams[0].overflows, 0);
    }

    proptest! {
        /// The ledger invariant behind the whole service: whatever the
        /// batch partition and thread interleaving, the ledger total is
        /// bitwise the sequential HP sum.
        #[test]
        fn ledger_sum_matches_sequential_hp_sum(
            threads in 1usize..5,
            batch_size in 1usize..40,
            xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        ) {
            let ledger = ShardedLedger::new(1);
            let batches: Vec<&[f64]> = xs.chunks(batch_size).collect();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let ledger = &ledger;
                    let mine: Vec<&[f64]> = batches
                        .iter()
                        .copied()
                        .skip(t)
                        .step_by(threads)
                        .collect();
                    s.spawn(move || {
                        for b in mine {
                            add(ledger, "s", b);
                        }
                    });
                }
            });
            prop_assert_eq!(
                ledger.sum("s").unwrap(),
                ServiceHp::sum_f64_slice(&xs)
            );
        }
    }
}
