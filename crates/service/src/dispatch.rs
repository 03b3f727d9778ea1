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
//! The cluster attaches through the [`ClusterOps`] trait rather than a
//! concrete type so this crate stays free of any cluster dependency
//! (the dependency points the other way: `oisum-cluster` depends on
//! `oisum-service`). With no hook installed the core behaves as a
//! one-node cluster — `ClusterSum` degenerates to the local sum — which
//! is exactly what makes N=1 vs N=3 comparisons meaningful: both run
//! the same code path.

use crate::ledger::ShardedLedger;
use crate::proto::{
    ClientFrameView, ErrorCode, Request, Response, StreamStatsRepr, UNTRACKED_CLIENT,
};
use crate::snapshot;
use crate::wal::Wal;
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
    snapshot_path: Option<PathBuf>,
    cluster: Option<Arc<dyn ClusterOps>>,
    wal: Option<Arc<Wal>>,
}

impl RequestCore {
    /// A core over `ledger` with no persistence and no cluster.
    pub fn new(ledger: Arc<ShardedLedger>) -> Self {
        RequestCore { ledger, snapshot_path: None, cluster: None, wal: None }
    }

    /// Sets the snapshot path `Snapshot` requests and graceful shutdown
    /// persist to.
    pub fn with_snapshot_path(mut self, path: Option<PathBuf>) -> Self {
        self.snapshot_path = path;
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

    /// The configured snapshot path, if any.
    pub fn snapshot_path(&self) -> Option<&PathBuf> {
        self.snapshot_path.as_ref()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Executes one client frame (either protocol version). Returns the
    /// reply and whether the transport should initiate shutdown after
    /// sending it. `shard_cursor` is the connection's private cursor,
    /// advanced once per `Add`.
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
        match frame {
            ClientFrameView::BinaryAdd(view) => {
                let hint = *shard_cursor;
                *shard_cursor = shard_cursor.wrapping_add(1);
                if view.client_id != UNTRACKED_CLIENT {
                    if let Err(reply) =
                        self.replicate(view.stream, view.client_id, view.seq, view.value_bytes())
                    {
                        return FrameOutcome::Done(reply, false);
                    }
                }
                // The hot path: the raw value bytes go from the read
                // buffer straight into the multi-lane encode kernel,
                // with no per-value iterator in between (untracked
                // clients skip the dedup window inside the ledger).
                let (count, applied) = self.ledger.add_batch_le_bytes_dedup(
                    view.stream,
                    hint,
                    view.client_id,
                    view.seq,
                    view.value_bytes(),
                );
                let response = Response::Added { count, deduped: !applied };
                if view.client_id != UNTRACKED_CLIENT {
                    return match self.commit_step(
                        view.stream,
                        view.client_id,
                        view.seq,
                        view.value_bytes(),
                        mode,
                    ) {
                        Err(reply) => FrameOutcome::Done(reply, false),
                        Ok(Some(ticket)) => FrameOutcome::WalPending { ticket, response },
                        Ok(None) => FrameOutcome::Done(response, false),
                    };
                }
                FrameOutcome::Done(response, false)
            }
            ClientFrameView::Json(req) => self.handle_request_with(req, shard_cursor, mode),
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

    /// Executes one JSON request.
    pub fn handle_request(&self, req: Request, shard_cursor: &mut usize) -> (Response, bool) {
        match self.handle_request_with(req, shard_cursor, WalMode::Block) {
            FrameOutcome::Done(reply, stop) => (reply, stop),
            // lint:allow(service-unwrap) -- unreachable: WalMode::Block never pends
            FrameOutcome::WalPending { .. } => unreachable!("Block mode never pends"),
        }
    }

    /// [`handle_request`](Self::handle_request) under an explicit
    /// [`WalMode`]; only a tracked `Add` can return
    /// [`FrameOutcome::WalPending`].
    pub fn handle_request_with(
        &self,
        req: Request,
        shard_cursor: &mut usize,
        mode: WalMode,
    ) -> FrameOutcome {
        let ledger = &self.ledger;
        match req {
            Request::Add { stream, values, client_id, seq } => {
                let hint = *shard_cursor;
                *shard_cursor = shard_cursor.wrapping_add(1);
                // A tracked identity goes through the exactly-once
                // window; an untracked one (no id, or the explicit
                // sentinel) deposits unconditionally, preserving the
                // PR-2 wire behavior.
                match (client_id, seq) {
                    (Some(id), Some(seq)) if id != UNTRACKED_CLIENT => {
                        // Replication and the WAL both consume the batch
                        // as raw LE bytes, the binary path's native form.
                        let bytes: Vec<u8> = if self.cluster.is_some() || self.wal.is_some() {
                            values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
                        } else {
                            Vec::new()
                        };
                        if self.cluster.is_some() {
                            if let Err(reply) = self.replicate(&stream, id, seq, &bytes) {
                                return FrameOutcome::Done(reply, false);
                            }
                        }
                        let (count, applied) =
                            ledger.add_batch_dedup(&stream, hint, id, seq, values.iter().copied());
                        let response = Response::Added { count, deduped: !applied };
                        match self.commit_step(&stream, id, seq, &bytes, mode) {
                            Err(reply) => FrameOutcome::Done(reply, false),
                            Ok(Some(ticket)) => FrameOutcome::WalPending { ticket, response },
                            Ok(None) => FrameOutcome::Done(response, false),
                        }
                    }
                    _ => FrameOutcome::Done(
                        Response::Added {
                            count: ledger.add_batch_on(&stream, hint, values.iter().copied()),
                            deduped: false,
                        },
                        false,
                    ),
                }
            }
            Request::Sum { stream } => match ledger.sum(&stream) {
                Some(sum) => FrameOutcome::Done(
                    Response::Sum {
                        limbs: sum.as_limbs().to_vec(),
                        poisoned: ledger.overflows(&stream) != 0,
                    },
                    false,
                ),
                None => FrameOutcome::Done(unknown_stream(&stream), false),
            },
            Request::ClusterSum { stream } => FrameOutcome::Done(self.cluster_sum(&stream), false),
            Request::Snapshot => match &self.snapshot_path {
                Some(path) => {
                    // GC boundary *before* the save: every record in a
                    // segment below the committer's active index was
                    // committed — hence applied, since applies precede
                    // commits — before the snapshot read the ledger, so
                    // a snapshot taken now dominates those segments.
                    let boundary = self.wal.as_ref().map(|w| w.active_segment());
                    match snapshot::save(path, ledger) {
                        Ok(streams) => {
                            if let (Some(wal), Some(boundary)) = (&self.wal, boundary) {
                                // Trust the bytes, not the Ok: only a
                                // snapshot that re-reads and re-seals is
                                // license to delete its WAL coverage.
                                if snapshot::verify(path) {
                                    let _ = wal.gc_below(boundary);
                                }
                            }
                            FrameOutcome::Done(
                                Response::Snapshot { streams: streams as u64 },
                                false,
                            )
                        }
                        Err(e) => FrameOutcome::Done(
                            Response::Error {
                                code: ErrorCode::Internal,
                                message: format!("snapshot failed: {e}"),
                            },
                            false,
                        ),
                    }
                }
                None => FrameOutcome::Done(
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: "server started without a snapshot path".to_owned(),
                    },
                    false,
                ),
            },
            Request::Reset => {
                ledger.reset();
                FrameOutcome::Done(Response::ResetDone, false)
            }
            Request::Stats => {
                let stats = ledger.stats();
                FrameOutcome::Done(
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
                    },
                    false,
                )
            }
            Request::Shutdown => FrameOutcome::Done(Response::ShuttingDown, true),
        }
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
    use crate::proto::ClientFrame;
    use crate::ServiceHp;
    use std::sync::Mutex;

    fn core() -> RequestCore {
        RequestCore::new(Arc::new(ShardedLedger::new(4)))
    }

    fn run(core: &RequestCore, req: Request) -> (Response, bool) {
        let mut cursor = 0usize;
        core.handle_request(req, &mut cursor)
    }

    #[test]
    fn cluster_sum_without_a_cluster_is_the_local_sum() {
        let core = core();
        let xs = [0.1, -2.5, 1e9, -1e-9];
        core.ledger().add("s", &xs);
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
        let cluster = Arc::new(RecordingCluster {
            calls: Mutex::new(Vec::new()),
            partitioned: Mutex::new(false),
        });
        let ledger = Arc::new(ShardedLedger::new(2));
        let core = RequestCore::new(Arc::clone(&ledger))
            .with_cluster(Arc::clone(&cluster) as Arc<dyn ClusterOps>);
        let mut cursor = 0usize;

        // Tracked JSON add: replicated (as raw LE bytes), then applied.
        let (reply, _) = core.handle_request(
            Request::Add {
                stream: "s".into(),
                values: vec![1.5, 2.5],
                client_id: Some(7),
                seq: Some(1),
            },
            &mut cursor,
        );
        assert_eq!(reply, Response::Added { count: 2, deduped: false });
        assert_eq!(
            cluster.calls.lock().unwrap().as_slice(),
            &[("s".to_owned(), 7, 1, 16)]
        );

        // Tracked binary add: value bytes forwarded verbatim.
        let mut frame = Vec::new();
        crate::proto::write_add_binary(&mut frame, "s", 7, 2, &[4.0]).unwrap();
        let Some(ClientFrame::BinaryAdd { .. }) =
            crate::proto::read_client_frame(&mut frame.as_slice()).unwrap()
        else {
            panic!("frame kind")
        };
        let mut read_buf = Vec::new();
        let view = crate::proto::read_client_frame_into(&mut frame.as_slice(), &mut read_buf)
            .unwrap()
            .unwrap();
        let (reply, _) = core.handle_frame(view, &mut cursor);
        assert_eq!(reply, Response::Added { count: 1, deduped: false });
        assert_eq!(cluster.calls.lock().unwrap().len(), 2);

        // Untracked adds are not replicated.
        let (reply, _) = core.handle_request(
            Request::Add { stream: "s".into(), values: vec![9.0], client_id: None, seq: None },
            &mut cursor,
        );
        assert_eq!(reply, Response::Added { count: 1, deduped: false });
        assert_eq!(cluster.calls.lock().unwrap().len(), 2);

        // Replication failure refuses the batch: typed error, no local
        // apply — the ACK invariant "acked ⇒ replicated" holds.
        let before = ledger.sum("s").unwrap();
        *cluster.partitioned.lock().unwrap() = true;
        let (reply, _) = core.handle_request(
            Request::Add {
                stream: "s".into(),
                values: vec![100.0],
                client_id: Some(7),
                seq: Some(3),
            },
            &mut cursor,
        );
        assert!(matches!(reply, Response::Error { code: ErrorCode::Internal, .. }));
        assert_eq!(ledger.sum("s").unwrap(), before);
    }
}
