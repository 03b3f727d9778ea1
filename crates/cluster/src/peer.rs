//! The peer RPC layer: how one node calls another over the peer port.
//!
//! Two connection disciplines, chosen by deadlock analysis rather than
//! taste:
//!
//! * **Mirror adds are pooled.** Replication is the hot path — one RPC
//!   per tracked batch — so each node keeps one long-lived connection
//!   per peer behind a mutex. This is safe precisely because the
//!   `MirrorAdd` handler is *local-only*: it applies into the mirror
//!   ledger and replies, never making a nested peer call, so holding a
//!   pool lock across the call cannot participate in a wait cycle.
//!
//! * **Tree sums and snapshot pulls use a fresh connection per call.**
//!   A `TreeSum` handler recursively RPCs its own subtree children; if
//!   those nested calls shared pooled connections, two concurrent
//!   reduces rooted at different nodes could each hold the connection
//!   lock the other needs — a classic cycle. Fresh connections make the
//!   wait graph mirror the tree schedule, which is acyclic (a child's
//!   recruit mask strictly decreases), so blocking RPCs terminate. The
//!   `Hello` handshake is pipelined with the request in a single write,
//!   so a fresh-connection call still costs one round trip.
//!
//! Retries are bounded and deterministic: a fixed attempt count with a
//! fixed backoff, no randomized jitter and no clock reads — the peer
//! request path must stay clean under the `cluster-nondet` lint so a
//! retried reduce cannot observe entropy. Transient transport errors
//! (dial refused, connection cut) are retried; typed refusals from the
//! peer (fingerprint mismatch, handler errors) are not.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use oisum_faults::{check, FaultAction};
use oisum_service::dispatch::ClusterSumOut;
use oisum_service::ledger::StreamState;
use oisum_service::proto::{
    peer_hello_into, peer_mirror_add_into, peer_snapshot_pull_into, peer_tree_sum_into,
    read_reply_into, ReplyView, Response, SnapshotScope,
};
use oisum_service::snapshot;

use crate::membership::Membership;

/// Bounds on a single peer call. Everything here is a constant of the
/// configuration — no clocks are consulted to adapt them at runtime.
#[derive(Debug, Clone, Copy)]
pub struct PeerCallConfig {
    /// Total attempts (first try + retries) before a transient error
    /// becomes the call's result.
    pub attempts: u32,
    /// Fixed sleep between attempts.
    pub backoff: Duration,
    /// Socket read timeout; a peer that stalls longer counts as a
    /// transient transport error.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for PeerCallConfig {
    fn default() -> Self {
        PeerCallConfig {
            attempts: 3,
            backoff: Duration::from_millis(20),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// A transient error retries (up to the attempt bound); a fatal one —
/// a typed refusal from the peer — returns immediately.
enum CallError {
    Transient(String),
    Fatal(String),
}

fn transient(e: io::Error) -> CallError {
    CallError::Transient(e.to_string())
}

/// One node's outgoing half of the peer protocol; see the module docs
/// for the pooled vs fresh-connection split.
pub struct PeerPool {
    me: u32,
    membership: Arc<Membership>,
    cfg: PeerCallConfig,
    /// Pooled mirror connections, indexed by peer id (`conns[me]` is
    /// simply never used).
    conns: Vec<Mutex<Option<TcpStream>>>,
}

impl PeerPool {
    pub fn new(me: u32, membership: Arc<Membership>, cfg: PeerCallConfig) -> PeerPool {
        let conns = (0..membership.len()).map(|_| Mutex::new(None)).collect();
        PeerPool { me, membership, cfg, conns }
    }

    /// Dials `peer`, resolving its address at call time (restarted nodes
    /// publish fresh ports into the membership address book). The
    /// `cluster.peer.connect` seam models partitions: `Delay` injects
    /// dial latency, anything else refuses the dial.
    fn dial(&self, peer: u32) -> Result<TcpStream, CallError> {
        if let Some(action) = check("cluster.peer.connect") {
            match action {
                FaultAction::Delay { ms } => std::thread::sleep(Duration::from_millis(ms)),
                _ => {
                    return Err(CallError::Transient(format!(
                        "injected dial fault to node {peer}"
                    )))
                }
            }
        }
        let addr = self.membership.peer_addr(peer);
        let conn = TcpStream::connect(&addr).map_err(transient)?;
        conn.set_nodelay(true).map_err(transient)?;
        conn.set_read_timeout(Some(self.cfg.read_timeout)).map_err(transient)?;
        conn.set_write_timeout(Some(self.cfg.write_timeout)).map_err(transient)?;
        Ok(conn)
    }

    /// Reads one reply, mapping typed errors to fatal call errors.
    fn read_reply(&self, conn: &mut TcpStream) -> Result<Response, CallError> {
        let mut buf = Vec::new();
        match read_reply_into(&mut &*conn, &mut buf).map_err(transient)? {
            Some(ReplyView::Reply(Response::Error { code, message })) => Err(CallError::Fatal(
                format!("peer refused ({code:?}): {message}"),
            )),
            Some(ReplyView::Reply(resp)) => Ok(resp),
            Some(ReplyView::SnapshotData(_)) => Err(CallError::Fatal(
                "unexpected snapshot data reply".to_owned(),
            )),
            None => Err(CallError::Transient("peer closed the connection".to_owned())),
        }
    }

    /// Validates the `Hello` ack: the peer must identify as the node we
    /// meant to dial (the address book is mutable; a stale entry must
    /// surface as an error, not a silently misrouted RPC).
    fn expect_hello_ack(&self, conn: &mut TcpStream, peer: u32) -> Result<(), CallError> {
        match self.read_reply(conn)? {
            Response::PeerHello { node_id } if node_id == u64::from(peer) => Ok(()),
            Response::PeerHello { node_id } => Err(CallError::Fatal(format!(
                "dialed node {peer} but node {node_id} answered"
            ))),
            other => Err(CallError::Fatal(format!(
                "expected hello ack, got {other:?}"
            ))),
        }
    }

    /// Retry loop shared by every call shape.
    fn with_attempts<T>(
        &self,
        mut call: impl FnMut() -> Result<T, CallError>,
    ) -> Result<T, String> {
        let mut last = String::new();
        for attempt in 0..self.cfg.attempts {
            if attempt > 0 {
                std::thread::sleep(self.cfg.backoff);
            }
            match call() {
                Ok(v) => return Ok(v),
                Err(CallError::Fatal(m)) => return Err(m),
                Err(CallError::Transient(m)) => last = m,
            }
        }
        Err(format!("gave up after {} attempts: {last}", self.cfg.attempts))
    }

    /// Replicates one tracked batch to `peer` over the pooled
    /// connection. Returns whether the mirror had already applied this
    /// `(client_id, seq)` — a replay after a cut ACK, not an error.
    pub fn mirror_add(
        &self,
        peer: u32,
        origin: u32,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<bool, String> {
        let slot = &self.conns[peer as usize];
        self.with_attempts(|| {
            let mut guard = slot.lock().unwrap();
            if guard.is_none() {
                let mut conn = self.dial(peer)?;
                let mut frame = Vec::new();
                peer_hello_into(&mut frame, self.me, self.membership.fingerprint())
                    .map_err(transient)?;
                conn.write_all(&frame).map_err(transient)?;
                self.expect_hello_ack(&mut conn, peer)?;
                *guard = Some(conn);
            }
            let conn = guard.as_mut().expect("pooled connection just ensured");
            let mut frame = Vec::new();
            peer_mirror_add_into(&mut frame, origin, stream, client_id, seq, value_bytes)
                .map_err(transient)?;
            let sent = conn
                .write_all(&frame)
                .and_then(|()| conn.flush())
                .map_err(transient)
                .and_then(|()| self.read_reply(conn));
            match sent {
                Ok(Response::Added { deduped, .. }) => Ok(deduped),
                Ok(other) => {
                    *guard = None;
                    Err(CallError::Fatal(format!("expected add ack, got {other:?}")))
                }
                Err(e) => {
                    // Connection state is unknown — drop it; the retry
                    // redials and the mirror's dedup window absorbs any
                    // replay of a batch that did land.
                    *guard = None;
                    Err(e)
                }
            }
        })
    }

    /// Asks `peer` for its binomial-subtree partial. Fresh connection
    /// per call (see module docs); the handshake and the request go out
    /// in one write.
    pub fn tree_sum(
        &self,
        peer: u32,
        root: u32,
        limit: u32,
        stream: &str,
    ) -> Result<ClusterSumOut, String> {
        self.with_attempts(|| {
            let mut conn = self.dial(peer)?;
            let mut frame = Vec::new();
            let mut request = Vec::new();
            peer_hello_into(&mut frame, self.me, self.membership.fingerprint())
                .map_err(transient)?;
            peer_tree_sum_into(&mut request, root, limit, stream).map_err(transient)?;
            frame.extend_from_slice(&request);
            conn.write_all(&frame).map_err(transient)?;
            self.expect_hello_ack(&mut conn, peer)?;
            match self.read_reply(&mut conn)? {
                Response::ClusterSum { limbs, poisoned, values, holders } => {
                    Ok(ClusterSumOut { limbs, poisoned, values, holders })
                }
                other => Err(CallError::Fatal(format!(
                    "expected subtree partial, got {other:?}"
                ))),
            }
        })
    }

    /// Pulls a sealed snapshot of the streams in `scope` from `peer` and
    /// parses it. A transfer cut mid-frame fails the framing read; a cut
    /// that somehow delivers broken bytes fails the snapshot parse — both
    /// are transient (the retry pulls a complete copy), so a partial
    /// snapshot can never be installed.
    pub fn snapshot_pull(
        &self,
        peer: u32,
        origin: u32,
        scope: SnapshotScope,
    ) -> Result<Vec<StreamState>, String> {
        self.with_attempts(|| {
            let mut conn = self.dial(peer)?;
            let mut frame = Vec::new();
            let mut request = Vec::new();
            peer_hello_into(&mut frame, self.me, self.membership.fingerprint())
                .map_err(transient)?;
            peer_snapshot_pull_into(&mut request, origin, scope).map_err(transient)?;
            frame.extend_from_slice(&request);
            conn.write_all(&frame).map_err(transient)?;
            self.expect_hello_ack(&mut conn, peer)?;
            let mut buf = Vec::new();
            match read_reply_into(&mut &conn, &mut buf).map_err(transient)? {
                Some(ReplyView::SnapshotData(sealed)) => snapshot::parse_sealed(sealed)
                    .map_err(|e| CallError::Transient(format!("snapshot transfer damaged: {e}"))),
                Some(ReplyView::Reply(Response::Error { code, message })) => Err(
                    CallError::Fatal(format!("peer refused ({code:?}): {message}")),
                ),
                Some(other) => Err(CallError::Fatal(format!(
                    "expected snapshot data, got {other:?}"
                ))),
                None => Err(CallError::Transient(
                    "peer closed the connection mid-transfer".to_owned(),
                )),
            }
        })
    }

    /// Drops the pooled connection to `peer`, forcing the next mirror
    /// add to redial. Tests use this to model an ingest node noticing a
    /// peer restart.
    pub fn forget(&self, peer: u32) {
        *self.conns[peer as usize].lock().unwrap() = None;
    }
}
