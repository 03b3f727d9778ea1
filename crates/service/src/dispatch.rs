//! The transport-agnostic request core: frame in → ledger op →
//! preformatted reply out.
//!
//! [`RequestCore`] owns everything a request needs — the ledger, the
//! snapshot path, and (optionally) a hook into a cluster — and knows
//! nothing about sockets. The client-facing TCP server and the cluster's
//! peer protocol both execute requests through it, so "what an `Add`
//! means" is defined exactly once: the server's connection loop is pure
//! transport (framing, fault seams, buffer reuse), and the cluster node
//! reuses the identical dispatch for operations that arrive via peers.
//!
//! Within the core, too, an `Add` has one definition. A batch arrives
//! only as a binary Add frame, whose little-endian value bytes run one
//! routine: refuse a batch holding a value the sum format cannot hold,
//! replicate a tracked batch, deposit it through
//! [`ShardedLedger::add_batch_le_bytes_dedup`], then make it durable
//! before the ACK. JSON frames carry the control ops alone.
//!
//! The cluster attaches through the [`ClusterOps`] trait rather than a
//! concrete type so this crate stays free of any cluster dependency
//! (the dependency points the other way: `oisum-cluster` depends on
//! `oisum-service`). With no hook installed the core behaves as a
//! one-node cluster — `ClusterSum` degenerates to the local sum — which
//! is exactly what makes N=1 vs N=3 comparisons meaningful: both run
//! the same code path.

use crate::ledger::{ShardedLedger, SERVICE_LIMBS};
use crate::proto::{
    ClientFrameView, ErrorCode, Request, Response, StreamStatsRepr, UNTRACKED_CLIENT,
};
use crate::snapshot::Checkpointer;
use crate::wal::Wal;
use oisum_core::kernel::first_out_of_range_le;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// The merged result of a cluster-wide sum (or a subtree partial).
///
/// Every field merges exactly: `limbs` by the carry-propagating
/// fixed-point add (the same [`ServiceHp::wrapping_add`](crate::ServiceHp)
/// the ledger uses to fold shards — associative and commutative on the
/// representation, so the tree shape cannot change a bit),
/// `values`/`holders` by integer addition, and `poisoned` by OR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSumOut {
    /// Merged accumulator limbs, most significant first.
    pub limbs: Vec<u64>,
    /// True if any contributing node detected a range overflow.
    pub poisoned: bool,
    /// Total values applied across contributing primaries.
    pub values: u64,
    /// Number of contributing nodes on which the stream exists.
    pub holders: u64,
}

/// What a cluster plugs into the request core.
///
/// Implementations must not block forever: peer I/O behind these calls
/// carries timeouts and bounded retries, so a partitioned cluster
/// surfaces as an `Err` (mapped to a typed `internal` reply), never as a
/// hung client connection.
pub trait ClusterOps: Send + Sync {
    /// Forward one tracked batch to its replica set *before* the local
    /// apply. Called only for tracked identities — an untracked batch
    /// has no `(client_id, seq)` to deduplicate replays with, so it
    /// stays node-local. An error means replication could not be
    /// guaranteed; the caller refuses the batch (no local apply, typed
    /// error to the client) and the client's retry re-forwards — mirrors
    /// that did apply recognize the replay.
    fn replicate(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), String>;

    /// Compute the cluster-wide sum of `stream` with this node as the
    /// reduce root.
    fn cluster_sum(&self, stream: &str) -> Result<ClusterSumOut, String>;
}

/// How a transport establishes tracked-batch durability before the ACK.
///
/// Both modes preserve the same invariant — an ACK is only sent once
/// the record's group commit (write + policy fsync) has finished — they
/// differ only in *who waits*. The ledger apply, the replication hook,
/// and the reply bytes are identical, so the two transports produce
/// bitwise-identical sums by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalMode {
    /// Block inside the dispatch until the commit covers the record —
    /// the threaded server, where each connection owns a thread that
    /// can afford to commit the record itself or wait for the group
    /// that carries it.
    Block,
    /// Enqueue the record and return its ticket without waiting — the
    /// epoll reactor, which parks the *connection* (zero threads) and
    /// releases the already-formatted reply once the WAL's commit mark
    /// covers the ticket.
    Submit,
}

/// The result of executing one frame under a chosen [`WalMode`].
#[derive(Debug)]
pub enum FrameOutcome {
    /// The reply is ready to send now; the bool asks the transport to
    /// initiate shutdown after sending it (mirrors
    /// [`RequestCore::handle_frame`]).
    Done(Response, bool),
    /// The batch is applied and its WAL record enqueued: send
    /// `response` only once the commit mark reaches `ticket` (or
    /// replace it with a typed error if the log crashes first). Only
    /// tracked `Add`s under [`WalMode::Submit`] produce this.
    WalPending {
        /// The dense group-commit ticket to watch the mark for.
        ticket: u64,
        /// The reply to release when the ticket commits.
        response: Response,
    },
}

/// The shared request executor; see the module docs.
pub struct RequestCore {
    ledger: Arc<ShardedLedger>,
    snapshots: Option<Checkpointer>,
    cluster: Option<Arc<dyn ClusterOps>>,
    wal: Option<Arc<Wal>>,
}

impl RequestCore {
    /// A core over `ledger` with no persistence and no cluster.
    pub fn new(ledger: Arc<ShardedLedger>) -> Self {
        RequestCore { ledger, snapshots: None, cluster: None, wal: None }
    }

    /// Sets the snapshot path `Snapshot` requests and graceful shutdown
    /// persist to.
    pub fn with_snapshot_path(mut self, path: Option<PathBuf>) -> Self {
        self.snapshots = path.map(Checkpointer::new);
        self
    }

    /// Attaches a cluster: tracked deposits fan out to replicas and
    /// `ClusterSum` reduces over every node.
    pub fn with_cluster(mut self, ops: Arc<dyn ClusterOps>) -> Self {
        self.cluster = Some(ops);
        self
    }

    /// Attaches a write-ahead log: every tracked deposit is appended and
    /// group-committed before its ACK, and `Snapshot` requests GC the
    /// segments a verified snapshot covers.
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The ledger requests execute against.
    pub fn ledger(&self) -> &Arc<ShardedLedger> {
        &self.ledger
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Executes one client frame (a binary Add or a JSON control
    /// request). Returns the reply and whether the transport should
    /// initiate shutdown after sending it. `shard_cursor` is the
    /// connection's private cursor, advanced once per `Add`.
    pub fn handle_frame(
        &self,
        frame: ClientFrameView<'_>,
        shard_cursor: &mut usize,
    ) -> (Response, bool) {
        match self.handle_frame_with(frame, shard_cursor, WalMode::Block) {
            FrameOutcome::Done(reply, stop) => (reply, stop),
            // lint:allow(service-unwrap) -- unreachable: WalMode::Block never pends
            FrameOutcome::WalPending { .. } => unreachable!("Block mode never pends"),
        }
    }

    /// [`handle_frame`](Self::handle_frame) under an explicit
    /// [`WalMode`]. Under [`WalMode::Submit`] a tracked `Add` with a
    /// WAL attached returns [`FrameOutcome::WalPending`] instead of
    /// blocking on the group commit; everything else completes inline.
    pub fn handle_frame_with(
        &self,
        frame: ClientFrameView<'_>,
        shard_cursor: &mut usize,
        mode: WalMode,
    ) -> FrameOutcome {
        let req = match frame {
            // The hot path: the raw value bytes go from the read buffer
            // straight into the multi-lane encode kernel.
            ClientFrameView::BinaryAdd(view) => {
                return self.add(
                    view.stream,
                    view.client_id,
                    view.seq,
                    view.value_bytes(),
                    shard_cursor,
                    mode,
                )
            }
            ClientFrameView::Json(req) => req,
        };
        let ledger = &self.ledger;
        let reply = match req {
            Request::Sum { stream } => match ledger.sum(&stream) {
                Some(sum) => Response::Sum {
                    limbs: sum.as_limbs().to_vec(),
                    poisoned: ledger.overflows(&stream) != 0,
                },
                None => unknown_stream(&stream),
            },
            Request::ClusterSum { stream } => self.cluster_sum(&stream),
            Request::Snapshot => self.snapshot(),
            Request::Reset => {
                ledger.reset();
                Response::ResetDone
            }
            Request::Stats => {
                let stats = ledger.stats();
                Response::Stats {
                    shard_count: stats.shard_count,
                    streams: stats
                        .streams
                        .into_iter()
                        .map(|s| StreamStatsRepr {
                            name: s.name,
                            batches: s.batches,
                            values: s.values,
                            overflows: s.overflows,
                        })
                        .collect(),
                }
            }
            Request::Shutdown => return FrameOutcome::Done(Response::ShuttingDown, true),
        };
        FrameOutcome::Done(reply, false)
    }

    /// Executes one binary Add: a tracked batch is replicated first,
    /// then deposited through the ledger's one deposit call, then made
    /// durable before its ACK. `value_bytes` are raw little-endian
    /// `f64`s; the shard cursor advances once.
    ///
    /// A batch holding a value the sum format cannot hold (a NaN, an
    /// infinity, or a magnitude of 2^191 or more) is refused as a bad
    /// request before any of that: the encoder's Listing-1 fallback
    /// would deposit saturated garbage limbs for it, and the overflow
    /// counter, which only sees carries out of the top limb, would not
    /// flag the stream.
    fn add(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
        shard_cursor: &mut usize,
        mode: WalMode,
    ) -> FrameOutcome {
        if let Some(i) = first_out_of_range_le::<SERVICE_LIMBS, 3>(value_bytes) {
            let message = format!(
                "add value {i} is not finite or not below 2^191 in magnitude, \
                 outside the sum format's range"
            );
            return FrameOutcome::Done(Response::Error { code: ErrorCode::BadRequest, message }, false);
        }
        let hint = *shard_cursor;
        *shard_cursor = shard_cursor.wrapping_add(1);
        let tracked = client_id != UNTRACKED_CLIENT;
        if tracked {
            if let Err(reply) = self.replicate(stream, client_id, seq, value_bytes) {
                return FrameOutcome::Done(reply, false);
            }
        }
        // Untracked clients skip the dedup window inside the ledger.
        let (count, applied) =
            self.ledger.add_batch_le_bytes_dedup(stream, hint, client_id, seq, value_bytes);
        let response = Response::Added { count, deduped: !applied };
        if !tracked {
            return FrameOutcome::Done(response, false);
        }
        match self.commit_step(stream, client_id, seq, value_bytes, mode) {
            Err(reply) => FrameOutcome::Done(reply, false),
            Ok(Some(ticket)) => FrameOutcome::WalPending { ticket, response },
            Ok(None) => FrameOutcome::Done(response, false),
        }
    }

    /// Makes a tracked batch durable if a WAL is attached: appends its
    /// record and blocks until its group commit (write + policy fsync)
    /// covers it. Called *after* the local apply and
    /// *before* the ACK — so "ACKed ⇒ durable" holds, and a batch that
    /// committed but died before the ACK is merely re-sent by the client
    /// and absorbed by the dedup watermark on replay. Replayed batches
    /// (`applied == false`) are appended too: the retry that reached us
    /// may be the first copy to survive a crash.
    ///
    /// `Err` is the refusal reply; the client treats it as a typed
    /// server error and does not retry, exactly like a replication
    /// refusal.
    ///
    /// The `server.crash.before_commit` / `server.crash.after_commit`
    /// seams poison the WAL on either side of the append, modelling a
    /// process kill between apply and commit (batch lost, never ACKed)
    /// and between commit and ACK (batch durable, never ACKed).
    /// Under [`WalMode::Block`] this is exactly the old blocking
    /// `commit_durable` (returns `Ok(None)` once the commit covers the
    /// record); under [`WalMode::Submit`] the record is enqueued and
    /// its ticket returned as `Ok(Some(ticket))` — the caller must hold
    /// the ACK until the commit mark covers it.
    fn commit_step(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
        mode: WalMode,
    ) -> Result<Option<u64>, Response> {
        let Some(wal) = &self.wal else { return Ok(None) };
        let refuse = |message: String| Response::Error {
            code: ErrorCode::Internal,
            message,
        };
        if oisum_faults::check("server.crash.before_commit").is_some() {
            wal.crash();
            return Err(refuse("injected crash before group commit".to_owned()));
        }
        let ticket = match mode {
            WalMode::Block => {
                wal.append(stream, client_id, seq, value_bytes)
                    .map_err(|e| refuse(format!("wal append failed: {e}")))?;
                None
            }
            WalMode::Submit => Some(
                wal.submit(stream, client_id, seq, value_bytes)
                    .map_err(|e| refuse(format!("wal submit failed: {e}")))?,
            ),
        };
        if oisum_faults::check("server.crash.after_commit").is_some() {
            wal.crash();
            return Err(refuse("injected crash after group commit".to_owned()));
        }
        Ok(ticket)
    }

    /// Replicates a tracked batch if a cluster is attached; `Err` is the
    /// refusal reply to send instead of applying.
    fn replicate(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), Response> {
        let Some(cluster) = &self.cluster else { return Ok(()) };
        cluster
            .replicate(stream, client_id, seq, value_bytes)
            .map_err(|message| Response::Error {
                code: ErrorCode::Internal,
                message: format!("replication failed: {message}"),
            })
    }

    /// Persists the ledger to the snapshot path, then deletes the WAL
    /// segments the verified snapshot covers.
    fn snapshot(&self) -> Response {
        let Some(snapshots) = &self.snapshots else {
            return Response::Error {
                code: ErrorCode::Internal,
                message: "server started without a snapshot path".to_owned(),
            };
        };
        match snapshots.checkpoint(&self.ledger, self.wal.as_deref()) {
            Ok(streams) => Response::Snapshot { streams: streams as u64 },
            Err(e) => Response::Error {
                code: ErrorCode::Internal,
                message: format!("snapshot failed: {e}"),
            },
        }
    }

    /// The shutdown tail both transports run once their connections are
    /// gone. Closing the WAL commits every queued record and seals the
    /// active segment, so every ACKed batch is recoverable from the log
    /// alone, snapshot path or not; the final snapshot that follows then
    /// covers every segment, and they are deleted. A crashed WAL is an
    /// error here, and the segments on disk stay the source of truth.
    pub(crate) fn close(&self) -> io::Result<()> {
        if let Some(wal) = &self.wal {
            wal.close()?;
        }
        if let Some(snapshots) = &self.snapshots {
            snapshots.checkpoint(&self.ledger, self.wal.as_deref())?;
        }
        Ok(())
    }

    /// The cluster-wide sum reply: delegated to the cluster when one is
    /// attached, otherwise computed locally as a one-node cluster.
    fn cluster_sum(&self, stream: &str) -> Response {
        let out = match &self.cluster {
            Some(cluster) => match cluster.cluster_sum(stream) {
                Ok(out) => out,
                Err(message) => {
                    return Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("cluster sum failed: {message}"),
                    }
                }
            },
            None => local_contribution(&self.ledger, stream),
        };
        if out.holders == 0 {
            return unknown_stream(stream);
        }
        Response::ClusterSum {
            limbs: out.limbs,
            poisoned: out.poisoned,
            values: out.values,
            holders: out.holders,
        }
    }
}

/// One node's contribution to a cluster sum: its primary partial, its
/// applied-values count, and whether it holds the stream at all. This is
/// the leaf the binomial tree folds — defined here so a plain server and
/// a cluster node compute it identically.
pub fn local_contribution(ledger: &ShardedLedger, stream: &str) -> ClusterSumOut {
    match ledger.stream_state(stream) {
        Some(state) => ClusterSumOut {
            limbs: state.sum.as_limbs().to_vec(),
            poisoned: state.overflows != 0,
            values: state.values,
            holders: 1,
        },
        None => ClusterSumOut {
            limbs: vec![0; crate::ledger::SERVICE_LIMBS],
            poisoned: false,
            values: 0,
            holders: 0,
        },
    }
}

fn unknown_stream(stream: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownStream,
        message: format!("stream `{stream}` has never been written"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{add_binary_bytes, le_bytes, parse_client_frame, MAGIC_ADD_BIN};
    use crate::snapshot;
    use crate::wal::{FsyncPolicy, WalConfig};
    use crate::ServiceHp;
    use oisum_core::convert::encode_listing1;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn core() -> RequestCore {
        RequestCore::new(Arc::new(ShardedLedger::new(4)))
    }

    fn run(core: &RequestCore, req: Request) -> (Response, bool) {
        let mut cursor = 0usize;
        core.handle_frame(ClientFrameView::Json(req), &mut cursor)
    }

    /// Executes one binary Add frame through `cursor`.
    fn add(
        core: &RequestCore,
        cursor: &mut usize,
        stream: &str,
        client_id: u64,
        seq: u64,
        values: &[f64],
    ) -> Response {
        let frame = add_binary_bytes(stream, client_id, seq, values).unwrap();
        let (reply, stop) =
            core.handle_frame(parse_client_frame(MAGIC_ADD_BIN, &frame[8..]).unwrap(), cursor);
        assert!(!stop);
        reply
    }

    /// A fresh WAL (no fsync: these tests check what is logged, not
    /// what survives power loss) in a per-test scratch directory.
    fn scratch_wal(name: &str) -> Arc<Wal> {
        let dir = std::env::temp_dir()
            .join(format!("oisum-dispatch-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::new(&dir) };
        Arc::new(Wal::open(config).unwrap())
    }

    #[test]
    fn cluster_sum_without_a_cluster_is_the_local_sum() {
        let core = core();
        let xs = [0.1, -2.5, 1e9, -1e-9];
        core.ledger().add_batch_le_bytes_dedup("s", 0, UNTRACKED_CLIENT, 0, &le_bytes(&xs));
        let (reply, stop) = run(&core, Request::ClusterSum { stream: "s".into() });
        assert!(!stop);
        let expected = ServiceHp::sum_f64_slice(&xs);
        assert_eq!(
            reply,
            Response::ClusterSum {
                limbs: expected.as_limbs().to_vec(),
                poisoned: false,
                values: 4,
                holders: 1,
            }
        );
        // Unknown streams are typed errors, exactly like `Sum`.
        let (reply, _) = run(&core, Request::ClusterSum { stream: "nope".into() });
        assert!(matches!(
            reply,
            Response::Error { code: ErrorCode::UnknownStream, .. }
        ));
    }

    /// Records replicate calls; fails them while `partitioned`.
    #[derive(Default)]
    struct RecordingCluster {
        calls: Mutex<Vec<(String, u64, u64, usize)>>,
        partitioned: Mutex<bool>,
    }

    impl ClusterOps for RecordingCluster {
        fn replicate(
            &self,
            stream: &str,
            client_id: u64,
            seq: u64,
            value_bytes: &[u8],
        ) -> Result<(), String> {
            if *self.partitioned.lock().unwrap() {
                return Err("peer unreachable".into());
            }
            self.calls.lock().unwrap().push((
                stream.to_owned(),
                client_id,
                seq,
                value_bytes.len(),
            ));
            Ok(())
        }

        fn cluster_sum(&self, _stream: &str) -> Result<ClusterSumOut, String> {
            Err("not under test".into())
        }
    }

    #[test]
    fn tracked_adds_replicate_before_apply_and_refuse_on_failure() {
        let cluster = Arc::new(RecordingCluster::default());
        let ledger = Arc::new(ShardedLedger::new(2));
        let core = RequestCore::new(Arc::clone(&ledger))
            .with_cluster(Arc::clone(&cluster) as Arc<dyn ClusterOps>);
        let mut cursor = 0usize;

        // Tracked adds: value bytes forwarded verbatim, then applied.
        let reply = add(&core, &mut cursor, "s", 7, 1, &[1.5, 2.5]);
        assert_eq!(reply, Response::Added { count: 2, deduped: false });
        assert_eq!(
            cluster.calls.lock().unwrap().as_slice(),
            &[("s".to_owned(), 7, 1, 16)]
        );
        let reply = add(&core, &mut cursor, "s", 7, 2, &[4.0]);
        assert_eq!(reply, Response::Added { count: 1, deduped: false });
        assert_eq!(cluster.calls.lock().unwrap().len(), 2);

        // Untracked adds are not replicated.
        let reply = add(&core, &mut cursor, "s", UNTRACKED_CLIENT, 0, &[9.0]);
        assert_eq!(reply, Response::Added { count: 1, deduped: false });
        assert_eq!(cluster.calls.lock().unwrap().len(), 2);

        // Replication failure refuses the batch: typed error, no local
        // apply — the ACK invariant "acked ⇒ replicated" holds.
        let before = ledger.sum("s").unwrap();
        *cluster.partitioned.lock().unwrap() = true;
        let reply = add(&core, &mut cursor, "s", 7, 3, &[100.0]);
        assert!(matches!(reply, Response::Error { code: ErrorCode::Internal, .. }));
        assert_eq!(ledger.sum("s").unwrap(), before);
    }

    /// Both identity shapes of a binary Add must deposit bitwise the
    /// Listing-1 sum, count one batch per applied Add, dedup a tracked
    /// replay, and write a WAL record only when tracked.
    #[test]
    fn every_add_shape_deposits_the_listing1_sum_once() {
        let xs = [0.1, -2.5e-30, 1e15, -0.0, 5e-324, 3.75, -7.0e-200];
        let n = xs.len() as u64;
        let listing1 = |copies: usize| {
            (0..copies).flat_map(|_| xs).fold(ServiceHp::ZERO, |acc, x| {
                acc.wrapping_add(&ServiceHp::from_limbs(encode_listing1::<6, 3>(x)))
            })
        };
        // (stream, client_id, tracked)
        let shapes = [("tracked", 7, true), ("untracked", UNTRACKED_CLIENT, false)];
        let wal = scratch_wal("shapes");
        let ledger = Arc::new(ShardedLedger::new(3));
        let core = RequestCore::new(Arc::clone(&ledger)).with_wal(Arc::clone(&wal));
        let mut cursor = 0usize;
        for (stream, client_id, tracked) in shapes {
            // The second send is a replay of the first.
            for send in 1..=2u64 {
                let logged = wal.group_stats().0;
                let reply = add(&core, &mut cursor, stream, client_id, 1, &xs);
                let applies = if tracked { 1 } else { send };
                let deduped = tracked && send == 2;
                assert_eq!(reply, Response::Added { count: n, deduped }, "{stream} send {send}");
                assert_eq!(
                    ledger.sum(stream).unwrap(),
                    listing1(applies as usize),
                    "{stream} send {send}"
                );
                let stats = ledger.stats();
                let s = stats.streams.iter().find(|s| s.name == stream).unwrap();
                assert_eq!((s.batches, s.values), (applies, applies * n), "{stream} send {send}");
                assert_eq!(wal.group_stats().0 - logged, u64::from(tracked), "{stream} send {send}");
            }
        }
        // The log holds the tracked shape alone, and replays to its sum.
        wal.close().unwrap();
        let recovered = ShardedLedger::new(2);
        let report = crate::recover(wal.dir(), &recovered).unwrap();
        assert_eq!((report.records, report.applied, report.deduped), (2, 1, 1));
        assert_eq!(recovered.stream_names(), vec!["tracked"]);
        assert_eq!(recovered.sum("tracked").unwrap(), listing1(1));
        std::fs::remove_dir_all(wal.dir()).ok();
    }

    /// A value the sum format cannot hold — a NaN, an infinity, or a
    /// magnitude of 2^191 or more — is refused as a bad request naming
    /// its index, tracked or not, before replication, deposit or
    /// logging. Just inside the range, ±(2^191 − ulp) deposit their
    /// Listing-1 encodings bit for bit.
    #[test]
    fn out_of_range_values_are_refused_before_apply() {
        let wal = scratch_wal("range");
        let cluster = Arc::new(RecordingCluster::default());
        let ledger = Arc::new(ShardedLedger::new(2));
        let core = RequestCore::new(Arc::clone(&ledger))
            .with_cluster(Arc::clone(&cluster) as Arc<dyn ClusterOps>)
            .with_wal(Arc::clone(&wal));
        let mut cursor = 0usize;
        let mut seq = 0u64;
        let mut send = |stream: &str, tracked: bool, values: &[f64]| {
            seq += 1;
            let id = if tracked { 7 } else { UNTRACKED_CLIENT };
            add(&core, &mut cursor, stream, id, seq, values)
        };
        let listing1 = |xs: &[f64]| {
            xs.iter().fold(ServiceHp::ZERO, |acc, &x| {
                acc.wrapping_add(&ServiceHp::from_limbs(encode_listing1::<6, 3>(x)))
            })
        };

        // "held" has a sum the refusals must leave alone; "fresh" must
        // never come into existence.
        assert_eq!(send("held", true, &[1.5]), Response::Added { count: 1, deduped: false });
        let held = ledger.sum("held").unwrap();
        let two191 = 2f64.powi(191);
        let bad = [1e300, -1e300, two191, -two191, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for x in bad {
            for stream in ["held", "fresh"] {
                for tracked in [true, false] {
                    let logged = wal.group_stats().0;
                    let reply = send(stream, tracked, &[0.25, x, -3.0]);
                    let what = format!("{x:?} {stream} tracked={tracked}");
                    let Response::Error { code, message } = reply else {
                        panic!("{what} was accepted: {reply:?}")
                    };
                    assert_eq!(code, ErrorCode::BadRequest, "{what}: {message}");
                    assert!(message.contains("value 1 "), "{what}: {message}");
                    assert_eq!(ledger.sum("held").unwrap(), held, "{what}");
                    assert!(ledger.sum("fresh").is_none(), "{what}");
                    assert_eq!(wal.group_stats().0, logged, "{what}: logged a record");
                }
            }
        }
        assert_eq!(cluster.calls.lock().unwrap().len(), 1, "a refused Add was replicated");

        let edge = f64::from_bits(two191.to_bits() - 1);
        let mut deposited = Vec::new();
        for tracked in [true, false] {
            for xs in [[edge, 0.5], [-edge, -0.5]] {
                let reply = send("edge", tracked, &xs);
                assert_eq!(reply, Response::Added { count: 2, deduped: false });
                deposited.extend_from_slice(&xs);
                assert_eq!(ledger.sum("edge").unwrap(), listing1(&deposited));
            }
        }
        wal.close().unwrap();
        std::fs::remove_dir_all(wal.dir()).ok();
    }

    /// `Snapshot` requests racing each other and live tracked Adds must
    /// leave a snapshot plus log that still holds every ACKed batch.
    /// Unserialized, two checkpoints shared a temp file, and one could
    /// verify the other's older snapshot and then delete segments only
    /// its own covered. Each round crashes after the Adds: the log is
    /// sealed without a final snapshot, and the snapshot on disk plus
    /// WAL replay must rebuild the live sum.
    #[test]
    fn concurrent_snapshots_keep_every_acked_batch() {
        const ROUNDS: usize = 60;
        const ADDS: u64 = 3_000;
        let (mut lost, mut refused) = (0, 0);
        for round in 0..ROUNDS {
            let dir = std::env::temp_dir()
                .join(format!("oisum-dispatch-unit-{}-checkpoints-{round}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let snap = dir.join("ledger.snap");
            let config = WalConfig {
                segment_bytes: 2048,
                fsync: FsyncPolicy::Never,
                ..WalConfig::new(dir.join("wal"))
            };
            let wal = Arc::new(Wal::open(config).unwrap());
            let ledger = Arc::new(ShardedLedger::new(2));
            let core = RequestCore::new(Arc::clone(&ledger))
                .with_snapshot_path(Some(snap.clone()))
                .with_wal(Arc::clone(&wal));
            let adding = AtomicBool::new(true);
            let failed = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        // ORDERING: Relaxed — a stop flag; the scope's
                        // join orders everything the test reads after.
                        while adding.load(Ordering::Relaxed) {
                            let (reply, _) = run(&core, Request::Snapshot);
                            if !matches!(reply, Response::Snapshot { .. }) {
                                // ORDERING: Relaxed — a tally read after the join.
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
                let mut cursor = 0usize;
                for seq in 1..=ADDS {
                    let reply = add(&core, &mut cursor, "s", 7, seq, &[seq as f64]);
                    assert_eq!(reply, Response::Added { count: 1, deduped: false });
                }
                // ORDERING: Relaxed — see the loads above.
                adding.store(false, Ordering::Relaxed);
            });
            refused += failed.into_inner();
            wal.close().unwrap();
            let recovered = ShardedLedger::new(2);
            if snap.exists() {
                snapshot::load(&snap, &recovered).unwrap();
            }
            crate::recover(wal.dir(), &recovered).unwrap();
            if recovered.sum("s") != ledger.sum("s") {
                lost += 1;
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(
            (lost, refused),
            (0, 0),
            "rounds that lost ACKed batches, and refused Snapshot requests, of {ROUNDS} rounds"
        );
    }
}
