//! The sharded HP ledger: named accumulation streams, each backed by a
//! bank of cache-padded [`AtomicHp`] shards.
//!
//! Sharding exists purely to spread atomic contention — because HP
//! addition is exactly associative, the total over any shard assignment
//! is bitwise identical to the sequential sum of the same multiset of
//! values. A read folds the shards in index order with `wrapping_add`.
//! Neither the shard count nor the interleaving of concurrent
//! depositors can change a single bit of the result, which is what lets
//! two service runs with different client counts, batch orders, and
//! `--shards` settings agree exactly.
//!
//! Shard *selection* is deliberately not centralized: a shared
//! round-robin cursor would put one contended cache line in front of
//! every deposit from every connection. Instead each depositor walks
//! its own cursor and passes it as the `shard_hint` of
//! [`ShardedLedger::add_batch_le_bytes_dedup`]: the server keeps one per
//! connection, WAL recovery and the cluster's mirror handler one each.
//! Any assignment is valid; only contention changes.
//!
//! That call is the ledger's only deposit. Every batch arrives as raw
//! little-endian `f64` bytes, whether a binary Add frame, a peer
//! `MirrorAdd` or a replayed WAL record carried it. It folds into a carry-deferred [`BatchAcc`](oisum_core::BatchAcc)
//! and lands with [`AtomicHp::add_batch_le_bytes`]: exactly `N` atomic
//! RMWs per batch instead of `N` per value.
//!
//! Locking is two-level: a `RwLock` guards only the stream *directory*
//! (name → shard bank); the hot deposit path takes the read lock,
//! clones an `Arc`, and proceeds lock-free on the shard atomics.

use crate::proto::UNTRACKED_CLIENT;
use crate::ServiceHp;
use crossbeam::utils::CachePadded;
use oisum_core::AtomicHp;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of integer/fractional limbs in the service accumulator format.
pub const SERVICE_LIMBS: usize = 6;

/// One named stream: its shard bank, deposit statistics, and the
/// per-client dedup window for exactly-once retries.
#[derive(Debug)]
pub struct Stream {
    shards: Vec<CachePadded<AtomicHp<6, 3>>>,
    batches: AtomicU64,
    values: AtomicU64,
    /// `client_id → highest applied seq`, one slot per client. The outer
    /// `RwLock` guards only the directory (read-locked on the hot path);
    /// the per-client `Mutex` serializes check-then-deposit so a replay
    /// racing its original (a timed-out request still in flight while
    /// the retry arrives on a new connection) cannot double-apply.
    /// Contention on that inner lock is same-client only — a client's
    /// requests are serialized on its end anyway.
    dedup: RwLock<HashMap<u64, Arc<Mutex<u64>>>>,
}

impl Stream {
    fn new(shard_count: usize) -> Self {
        Stream {
            shards: (0..shard_count)
                .map(|_| CachePadded::new(AtomicHp::zero()))
                .collect(),
            batches: AtomicU64::new(0),
            values: AtomicU64::new(0),
            dedup: RwLock::new(HashMap::new()),
        }
    }

    /// The dedup slot for `client_id`, created on first use (seq 0: no
    /// batch applied yet; client seqs start at 1).
    fn dedup_slot(&self, client_id: u64) -> Arc<Mutex<u64>> {
        if let Some(slot) = self.dedup.read().unwrap().get(&client_id) {
            return Arc::clone(slot);
        }
        let mut map = self.dedup.write().unwrap();
        Arc::clone(map.entry(client_id).or_default())
    }

    /// Deposits a tracked batch exactly once. Returns
    /// `(values accounted for, false)` when `(client_id, seq)` was
    /// already applied — the deposit is skipped and the stats counters
    /// untouched, so `values` stays an exact count of applied summands.
    /// A recognized replay is counted from the byte length alone.
    fn add_batch_le_bytes_dedup(
        &self,
        shard_hint: usize,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
    ) -> (u64, bool) {
        let slot = self.dedup_slot(client_id);
        let mut last = slot.lock().unwrap();
        if seq <= *last {
            return ((bytes.len() / 8) as u64, false);
        }
        let n = self.add_batch_le_bytes_on(shard_hint, bytes);
        *last = seq;
        (n, true)
    }

    /// Deposits raw little-endian `f64` bytes (length a multiple of 8)
    /// into the shard selected by `shard_hint` (any value; reduced mod
    /// the bank size): the bytes feed the multi-lane encode kernel
    /// directly and land with one `N`-limb atomic deposit. Returns the
    /// number of values deposited.
    fn add_batch_le_bytes_on(&self, shard_hint: usize, bytes: &[u8]) -> u64 {
        let shard = &self.shards[shard_hint % self.shards.len()];
        shard.add_batch_le_bytes(bytes);
        let n = (bytes.len() / 8) as u64;
        // ORDERING: Relaxed — monotonic stats tallies; readers only need
        // eventually-consistent counts, never an edge with the deposits.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.values.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Folds the shards in index order. Exact at quiescence (the service
    /// replies to an `Add` only after its deposits land, so any `Sum`
    /// issued after those replies observes them).
    fn sum(&self) -> ServiceHp {
        self.shards
            .iter()
            .fold(ServiceHp::ZERO, |acc, s| acc.wrapping_add(&s.load()))
    }

    /// Total detected top-limb overflows across the shard bank.
    fn overflows(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |n, s| n.saturating_add(s.overflow_count()))
    }

    /// The dedup window as `(client_id, last applied seq)`, sorted by
    /// client id (clients that never applied a batch are omitted).
    fn dedup_entries(&self) -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = self
            .dedup
            .read()
            .unwrap()
            .iter()
            .map(|(&id, slot)| (id, *slot.lock().unwrap()))
            .filter(|&(_, seq)| seq > 0)
            .collect();
        entries.sort_unstable();
        entries
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
    /// Detected top-limb overflows.
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

/// Captures one stream's persistent state under its directory entry.
fn state_of(name: &str, s: &Stream) -> StreamState {
    StreamState {
        name: name.to_owned(),
        sum: s.sum(),
        overflows: s.overflows(),
        dedup: s.dedup_entries(),
        // ORDERING: Relaxed — monotonic counters; a state captured at
        // quiescence (the only time it is compared bitwise) is exact.
        batches: s.batches.load(Ordering::Relaxed),
        values: s.values.load(Ordering::Relaxed),
    }
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
    /// Detected top-limb overflows (saturating); non-zero poisons the
    /// stream's range guarantee.
    pub overflows: u64,
}

/// Aggregate statistics for the whole ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerStats {
    /// Shards per stream.
    pub shard_count: u64,
    /// Per-stream counters, sorted by name.
    pub streams: Vec<StreamStats>,
}

/// A concurrent map of named streams to sharded HP accumulators.
#[derive(Debug)]
pub struct ShardedLedger {
    streams: RwLock<BTreeMap<String, Arc<Stream>>>,
    shard_count: usize,
}

impl ShardedLedger {
    /// A ledger whose streams each hold `shard_count` shards (min 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedLedger {
            streams: RwLock::new(BTreeMap::new()),
            shard_count: shard_count.max(1),
        }
    }

    /// Shards allocated per stream.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    fn stream(&self, name: &str) -> Arc<Stream> {
        if let Some(s) = self.streams.read().unwrap().get(name) {
            return Arc::clone(s);
        }
        let mut map = self.streams.write().unwrap();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Stream::new(self.shard_count))),
        )
    }

    /// Deposits a batch into `name` on the shard selected by
    /// `shard_hint` (reduced mod the shard count), creating the stream
    /// on first use — the ledger's one deposit. `bytes` are raw
    /// little-endian `f64`s, length a multiple of 8.
    ///
    /// A batch carrying a `(client_id, seq)` retry identity lands
    /// **exactly once**: a replay of an already-applied identity is
    /// acknowledged without depositing, so however many times a retry
    /// loop resends a frame, the stream's sum — and its `values`
    /// statistic — reflect one application. Returns
    /// `(values accounted for, applied)`; `applied` is `false` for a
    /// recognized replay. A `client_id` of
    /// [`UNTRACKED_CLIENT`] bypasses the
    /// window entirely.
    ///
    /// The caller owns the cursor behind `shard_hint` (one per
    /// connection), so unrelated connections never contend on shard
    /// selection, and the bytes reach the multi-lane encode kernel with
    /// no per-value iterator at all.
    pub fn add_batch_le_bytes_dedup(
        &self,
        name: &str,
        shard_hint: usize,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
    ) -> (u64, bool) {
        let stream = self.stream(name);
        if client_id == UNTRACKED_CLIENT {
            (stream.add_batch_le_bytes_on(shard_hint, bytes), true)
        } else {
            stream.add_batch_le_bytes_dedup(shard_hint, client_id, seq, bytes)
        }
    }

    /// The exact HP sum of everything deposited into `name`, or `None`
    /// for a stream that has never been written.
    pub fn sum(&self, name: &str) -> Option<ServiceHp> {
        self.streams.read().unwrap().get(name).map(|s| s.sum())
    }

    /// Detected overflow count for `name` (0 for unknown streams).
    pub fn overflows(&self, name: &str) -> u64 {
        self.streams
            .read()
            .unwrap()
            .get(name)
            .map_or(0, |s| s.overflows())
    }

    /// Drops every stream.
    pub fn reset(&self) {
        self.streams.write().unwrap().clear();
    }

    /// Snapshots every stream, sorted by name. Shard structure is
    /// deliberately not preserved — the split is a contention artifact,
    /// not part of the value — but the dedup window *is*: a server
    /// restored from a snapshot taken after a deposit was applied must
    /// still recognize that deposit's retry as a replay.
    pub fn snapshot(&self) -> Vec<StreamState> {
        self.streams
            .read()
            .unwrap()
            .iter()
            .map(|(name, s)| state_of(name, s))
            .collect()
    }

    /// The persistent state of one stream, or `None` if it has never
    /// been written. This is what a cluster node ships to a peer pulling
    /// a per-stream copy, and what the tree reduce folds as this node's
    /// contribution.
    pub fn stream_state(&self, name: &str) -> Option<StreamState> {
        self.streams
            .read()
            .unwrap()
            .get(name)
            .map(|s| state_of(name, s))
    }

    /// Names of every stream, sorted.
    pub fn stream_names(&self) -> Vec<String> {
        self.streams.read().unwrap().keys().cloned().collect()
    }

    /// Restores a snapshot produced by [`Self::snapshot`], replacing any
    /// existing contents. Each restored sum and overflow count lands in
    /// shard 0; subsequent deposits spread over the bank as usual.
    pub fn restore(&self, entries: &[StreamState]) {
        let mut map = self.streams.write().unwrap();
        map.clear();
        for entry in entries {
            map.insert(entry.name.clone(), Arc::new(self.revive(entry)));
        }
    }

    /// Installs (or replaces) a *single* stream from its persistent
    /// state, leaving every other stream untouched — the unit of a
    /// cluster rejoin, where a restarted node adopts per-stream copies
    /// pulled from replicas one at a time.
    pub fn install(&self, entry: &StreamState) {
        let stream = Arc::new(self.revive(entry));
        self.streams
            .write()
            .unwrap()
            .insert(entry.name.clone(), stream);
    }

    /// Builds a live stream out of persisted state, poison included: a
    /// stream that overflowed stays flagged after a restart or rejoin.
    fn revive(&self, entry: &StreamState) -> Stream {
        let mut stream = Stream::new(self.shard_count);
        stream.shards[0] = CachePadded::new(AtomicHp::with_overflows(entry.sum, entry.overflows));
        let mut dedup = stream.dedup.write().unwrap();
        for &(client_id, seq) in &entry.dedup {
            dedup.insert(client_id, Arc::new(Mutex::new(seq)));
        }
        drop(dedup);
        // ORDERING: Relaxed — the stream is not yet shared; these stores
        // publish through the directory lock that installs it.
        stream.batches.store(entry.batches, Ordering::Relaxed);
        stream.values.store(entry.values, Ordering::Relaxed);
        stream
    }

    /// Aggregate statistics, streams sorted by name.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            shard_count: self.shard_count as u64,
            streams: self
                .streams
                .read()
                .unwrap()
                .iter()
                .map(|(name, s)| StreamStats {
                    name: name.clone(),
                    // ORDERING: Relaxed — advisory stats snapshot; the
                    // counters are monotonic and need no edge with the
                    // limb deposits they describe.
                    batches: s.batches.load(Ordering::Relaxed),
                    values: s.values.load(Ordering::Relaxed),
                    overflows: s.overflows(),
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

    /// An untracked deposit on shard 0.
    fn add(ledger: &ShardedLedger, name: &str, xs: &[f64]) {
        ledger.add_batch_le_bytes_dedup(name, 0, UNTRACKED_CLIENT, 0, &le_bytes(xs));
    }

    /// A tracked deposit on shard 0; returns `(count, applied)`.
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
        let restored = ShardedLedger::new(3); // different shard count
        restored.restore(&snap);
        assert_eq!(restored.sum("s"), ledger.sum("s"));
        assert_eq!(restored.sum("t"), ledger.sum("t"));
    }

    #[test]
    fn shard_hint_never_changes_the_sum() {
        // Any shard assignment is valid by order-invariance: pathological
        // hint patterns (all-one-shard, striped, "random") must agree
        // bitwise with the slice sum.
        let xs: Vec<f64> = (0..2_000).map(|i| (i as f64 - 1000.0) * 2.3e-6).collect();
        let expected = ServiceHp::sum_f64_slice(&xs);
        for pattern in [0usize, 1, 7, 0x9E37] {
            let ledger = ShardedLedger::new(5);
            for (b, chunk) in xs.chunks(97).enumerate() {
                let (n, applied) = ledger.add_batch_le_bytes_dedup(
                    "s",
                    b.wrapping_mul(pattern),
                    UNTRACKED_CLIENT,
                    0,
                    &le_bytes(chunk),
                );
                assert_eq!((n as usize, applied), (chunk.len(), true));
            }
            assert_eq!(ledger.sum("s").unwrap(), expected);
        }
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
        // Two deposits of 3e57 on one shard leave the 2^191 range: the
        // second top-limb deposit overflows and poisons the stream.
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
        assert_eq!(stats.shard_count, 2);
        assert_eq!(stats.streams.len(), 1);
        assert_eq!(stats.streams[0].batches, 2);
        assert_eq!(stats.streams[0].values, 3);
        assert_eq!(stats.streams[0].overflows, 0);
    }

    proptest! {
        /// The ledger invariant behind the whole service: whatever the
        /// shard count, batch partition, and thread interleaving, the
        /// ledger total is bitwise the sequential HP sum.
        #[test]
        fn ledger_sum_matches_sequential_hp_sum(
            shard_count in 1usize..9,
            threads in 1usize..5,
            batch_size in 1usize..40,
            xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        ) {
            let ledger = ShardedLedger::new(shard_count);
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
                        // Each thread walks its own cursor, as a
                        // connection does.
                        for (i, b) in mine.into_iter().enumerate() {
                            ledger.add_batch_le_bytes_dedup(
                                "s",
                                t + i,
                                UNTRACKED_CLIENT,
                                0,
                                &le_bytes(b),
                            );
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
