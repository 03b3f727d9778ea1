//! A cluster node: one client-facing summation server plus the peer
//! machinery that makes N of them behave as a single exact ledger.
//!
//! ## Data model
//!
//! Each node keeps two ledgers. Its **primary** holds the partials of
//! every batch it ingested from clients — this is the node's
//! contribution to cluster sums. Its **mirror** ledger holds copies of
//! *other* nodes' tracked batches, stored under `"{origin:08x}/{name}"`
//! so the same stream mirrored for two origins cannot collide. Mirrors
//! exist purely for durability: the cluster sum reduces primaries only,
//! so a value is counted exactly once no matter how many copies exist.
//!
//! ## Replication and the ACK invariant
//!
//! A tracked batch is forwarded to its mirror set (the first
//! `replication - 1` ring successors of the stream, excluding the
//! ingesting node) **before** the local apply, and ACKed only after
//! both. So `acked ⇒ replicated`: a batch whose ACK the client saw
//! survives the ingest node's death. The converse failure — mirrored
//! but not ACKed — is absorbed by the `(client_id, seq)` windows: the
//! client retries, the mirrors recognize the replay, and the ledger
//! counts the batch once. Untracked batches (no identity) have no
//! replay protection, so they stay node-local and unreplicated.
//!
//! ## The reduce
//!
//! `ClusterSum` runs the mpi-sim binomial-tree schedule over TCP. The
//! coordinator is virtual rank 0; the node at virtual rank `v` (recruited
//! at mask `limit`) combines, in increasing-mask order, the subtree
//! partials of virtual ranks `v + mask` for `mask = 1, 2, 4, … < limit`,
//! each fetched as a recursive `TreeSum` RPC. Child recruit masks
//! strictly decrease, so the recursion (and the blocking-RPC wait graph)
//! is a finite tree. Partials merge with the carry-propagating
//! fixed-point add — associative and commutative on the representation
//! itself — so the result is bitwise identical for every node count,
//! every coordinator, and every interleaving: the cluster inherits the
//! paper's order invariance wholesale.
//!
//! ## Restart and rejoin
//!
//! A restarting node first restores its local snapshot (if any), then
//! asks every peer for (a) the mirror copies they hold *for it* — to
//! recover primary partials past the snapshot — and (b) their primary
//! streams it is supposed to mirror — to rebuild its mirror ledger. A
//! pulled copy replaces the local one only when its dedup window
//! *strictly dominates* (it provably saw every batch the local copy saw,
//! and more). Transfers are sealed snapshots: a connection cut
//! mid-transfer fails validation and the pull retries, so a torn copy is
//! never installed.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use oisum_faults::{check, FaultAction};
use oisum_service::dispatch::{local_contribution, ClusterOps, ClusterSumOut};
use oisum_service::ledger::{ShardedLedger, StreamState};
use oisum_service::proto::{
    frame_into, peer_snapshot_data_into, read_peer_request_into, ErrorCode, PeerRequestView,
    Response, SnapshotScope, MAX_FRAME,
};
use oisum_service::snapshot::{self, SnapshotError};
use oisum_service::wal::{Wal, WalConfig};
use oisum_service::{
    recovery, serve_with_core, RequestCore, ServerConfig, ServerHandle, ServiceHp, Transport,
};

use crate::membership::Membership;
use crate::peer::{PeerCallConfig, PeerPool};
use crate::placement::Ring;

/// Fault seam: peer connection dropped before a mirror add applies.
const SEAM_MIRROR_DROP_BEFORE: &str = "cluster.mirror.drop_before_apply";
/// Fault seam: peer connection dropped after the apply, before the ACK.
const SEAM_MIRROR_DROP_AFTER: &str = "cluster.mirror.drop_after_apply";
/// Fault seam: connection dropped while serving a subtree partial.
const SEAM_REDUCE_DROP: &str = "cluster.reduce.drop";
/// Fault seam: injected latency before serving a subtree partial.
const SEAM_REDUCE_DELAY: &str = "cluster.reduce.delay";
/// Fault seam: snapshot transfer cut after `keep` bytes.
const SEAM_SNAPSHOT_PARTIAL: &str = "cluster.snapshot.partial";

/// Per-node startup knobs (the shared shape lives in [`Membership`]).
#[derive(Debug, Clone)]
pub struct ClusterNodeConfig {
    /// This node's dense cluster id.
    pub node_id: u32,
    /// Ledger shards for both the primary and the mirror store.
    pub shards: usize,
    /// Where this node persists (and restores) its ledgers; `None`
    /// disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// If set, the node's primary ledger runs behind a local write-ahead
    /// log: tracked deposits group-commit before their ACK, and on boot
    /// the node replays its own segments *before* asking peers for
    /// state, so its dedup watermarks are already advanced when peer
    /// copies are compared for adoption.
    pub wal: Option<WalConfig>,
    /// Peer RPC bounds.
    pub peer: PeerCallConfig,
}

impl ClusterNodeConfig {
    pub fn new(node_id: u32) -> Self {
        ClusterNodeConfig {
            node_id,
            shards: 8,
            snapshot_path: None,
            wal: None,
            peer: PeerCallConfig::default(),
        }
    }
}

/// The mirror-ledger name for `stream` held on behalf of `origin`. The
/// fixed-width hex prefix plus `/` cannot collide with another origin's
/// prefix, and stripping it is position-based, so any client stream name
/// round-trips.
pub fn mirror_stream_name(origin: u32, stream: &str) -> String {
    format!("{origin:08x}/{stream}")
}

fn mirror_prefix(origin: u32) -> String {
    format!("{origin:08x}/")
}

/// Everything the peer handlers and the request core share.
struct NodeState {
    me: u32,
    membership: Arc<Membership>,
    ring: Ring,
    primary: Arc<ShardedLedger>,
    mirrors: Arc<ShardedLedger>,
    pool: PeerPool,
}

impl NodeState {
    /// This node's binomial-subtree partial: its own primary
    /// contribution combined, in increasing-mask order, with the
    /// partials of its subtree children. `limit` is the mask this node
    /// was recruited at (the coordinator passes the node count rounded
    /// up to a power of two).
    fn subtree_sum(&self, stream: &str, root: u32, limit: u32) -> Result<ClusterSumOut, String> {
        let n = self.membership.len() as u32;
        if root >= n {
            return Err(format!("reduce root {root} out of range (cluster of {n})"));
        }
        let vrank = (self.me + n - root) % n;
        let mut acc = local_contribution(&self.primary, stream);
        let mut mask = 1u32;
        while mask < limit {
            if vrank & mask != 0 {
                // The schedule never recruits a node at a limit above
                // its lowest set virtual-rank bit; a frame that claims
                // otherwise is malformed, not a smaller subtree.
                return Err(format!(
                    "tree schedule violation: vrank {vrank} recruited at limit {limit}"
                ));
            }
            let partner = vrank + mask;
            if partner < n {
                let child = (partner + root) % n;
                let sub = self
                    .pool
                    .tree_sum(child, root, mask, stream)
                    .map_err(|e| format!("subtree under node {child}: {e}"))?;
                combine(&mut acc, &sub);
            }
            mask <<= 1;
        }
        Ok(acc)
    }

    /// The streams a `SnapshotPull` ships for `origin`; see
    /// [`SnapshotScope`].
    fn snapshot_for(&self, origin: u32, scope: SnapshotScope) -> Vec<StreamState> {
        match scope {
            SnapshotScope::MirrorOfOrigin => {
                let prefix = mirror_prefix(origin);
                self.mirrors
                    .stream_names()
                    .into_iter()
                    .filter(|name| name.starts_with(&prefix))
                    .filter_map(|name| {
                        self.mirrors.stream_state(&name).map(|mut state| {
                            state.name = name[prefix.len()..].to_owned();
                            state
                        })
                    })
                    .collect()
            }
            SnapshotScope::PrimaryOfPeer => self
                .primary
                .snapshot()
                .into_iter()
                .filter(|state| {
                    self.ring
                        .mirror_targets(&state.name, self.me, self.membership.replication())
                        .contains(&origin)
                })
                .collect(),
        }
    }
}

impl ClusterOps for NodeState {
    fn replicate(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), String> {
        for target in self
            .ring
            .mirror_targets(stream, self.me, self.membership.replication())
        {
            self.pool
                .mirror_add(target, self.me, stream, client_id, seq, value_bytes)
                .map_err(|e| format!("mirror to node {target}: {e}"))?;
        }
        Ok(())
    }

    fn cluster_sum(&self, stream: &str) -> Result<ClusterSumOut, String> {
        let n = self.membership.len() as u32;
        self.subtree_sum(stream, self.me, n.next_power_of_two())
    }
}

/// Merges a subtree partial into the accumulator with the same
/// carry-propagating limb add the ledger uses to fold shards
/// ([`ServiceHp::wrapping_add`]). A naive per-limb add would be exact
/// *as a value* but drop inter-limb carries, so the reduced bit pattern
/// would depend on how the values were partitioned across nodes; the
/// carry-chain add is associative and commutative on the fixed-point
/// representation itself, which is what makes the tree shape, the
/// coordinator, and the node count all invisible in the result.
fn combine(acc: &mut ClusterSumOut, sub: &ClusterSumOut) {
    debug_assert_eq!(acc.limbs.len(), sub.limbs.len(), "limb layout mismatch");
    let a = ServiceHp::from_limbs(acc.limbs.as_slice().try_into().expect("limb layout"));
    let b = ServiceHp::from_limbs(sub.limbs.as_slice().try_into().expect("limb layout"));
    acc.limbs = a.wrapping_add(&b).as_limbs().to_vec();
    acc.poisoned |= sub.poisoned;
    acc.values += sub.values;
    acc.holders += sub.holders;
}

/// `candidate` strictly dominates `current` when its dedup window covers
/// every `(client, seq)` watermark of `current` and extends at least one
/// of them — it provably applied a superset of the batches.
fn strictly_dominates(candidate: &StreamState, current: &StreamState) -> bool {
    let covers = |a: &StreamState, b: &StreamState| {
        b.dedup
            .iter()
            .all(|&(client, seq)| a.dedup.iter().any(|&(c, s)| c == client && s >= seq))
    };
    covers(candidate, current) && !covers(current, candidate)
}

/// Installs a pulled stream copy unless the local copy is at least as
/// advanced. Keeping the local copy on a tie preserves any untracked
/// (node-local, unreplicated) values a restored snapshot contained.
fn adopt(ledger: &ShardedLedger, name: String, mut state: StreamState) {
    state.name = name;
    match ledger.stream_state(&state.name) {
        None => ledger.install(&state),
        Some(current) => {
            if strictly_dominates(&state, &current) {
                ledger.install(&state);
            }
        }
    }
}

/// One running cluster node. Dropping the handle does not stop it; call
/// [`shutdown`](ClusterNode::shutdown) then [`join`](ClusterNode::join).
pub struct ClusterNode {
    state: Arc<NodeState>,
    server: ServerHandle,
    peer_addr: SocketAddr,
    peer_stopping: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl ClusterNode {
    /// Boots a node: restore the local snapshot, bind the peer port
    /// (publishing the real address into the membership book), pull
    /// recovery state from live peers, then open the client server.
    /// Peers that are down during rejoin are skipped — on a cold cluster
    /// boot there is nothing to pull and nobody to pull it from.
    pub fn start(membership: Arc<Membership>, config: ClusterNodeConfig) -> io::Result<ClusterNode> {
        let me = config.node_id;
        if (me as usize) >= membership.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node id {me} outside cluster of {}", membership.len()),
            ));
        }
        let primary = Arc::new(ShardedLedger::new(config.shards));
        let mirrors = Arc::new(ShardedLedger::new(config.shards));
        if let Some(path) = &config.snapshot_path {
            match snapshot::load(path, &primary) {
                Ok(_) => {}
                Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("node {me}: snapshot restore failed: {e}"),
                    ))
                }
            }
        }

        // Local WAL replay runs after the snapshot restore and *before*
        // rejoin: replaying advances this node's dedup watermarks, so
        // the peer copies pulled below only install if they strictly
        // dominate what this node already proved durable on its own.
        let wal = match &config.wal {
            Some(wal_config) => {
                recovery::recover(&wal_config.dir, &primary).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("node {me}: wal replay failed: {e}"),
                    )
                })?;
                Some(Arc::new(Wal::open(wal_config.clone()).map_err(io::Error::from)?))
            }
            None => None,
        };

        let listener = TcpListener::bind(membership.peer_addr(me))?;
        let peer_addr = listener.local_addr()?;
        membership.set_peer_addr(me, peer_addr.to_string());

        let ring = Ring::new(membership.len() as u32);
        let pool = PeerPool::new(me, Arc::clone(&membership), config.peer);
        let state = Arc::new(NodeState {
            me,
            membership: Arc::clone(&membership),
            ring,
            primary: Arc::clone(&primary),
            mirrors,
            pool,
        });

        rejoin(&state);

        let peer_stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let state = Arc::clone(&state);
            let stopping = Arc::clone(&peer_stopping);
            thread::spawn(move || {
                for conn in listener.incoming() {
                    // ORDERING: SeqCst — pairs with the SeqCst store in
                    // `shutdown`; the total order guarantees the load
                    // after the poke connection's accept sees the flag.
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let state = Arc::clone(&state);
                    // Handler threads are detached: they exit on their
                    // connection's EOF (peers drop pooled connections on
                    // shutdown), so joining them would only re-serialize
                    // what the socket teardown already orders.
                    thread::spawn(move || {
                        let _ = serve_peer_connection(conn, &state);
                    });
                }
            })
        };

        let mut core = RequestCore::new(Arc::clone(&primary))
            .with_snapshot_path(config.snapshot_path.clone())
            .with_cluster(Arc::clone(&state) as Arc<dyn ClusterOps>);
        if let Some(wal) = &wal {
            core = core.with_wal(Arc::clone(wal));
        }
        let server = serve_with_core(
            &ServerConfig {
                addr: membership.client_addr(me),
                shards: config.shards,
                snapshot_path: None,
                wal: None,
                transport: Transport::default(),
            },
            Arc::new(core),
        )?;
        membership.set_client_addr(me, server.addr().to_string());

        Ok(ClusterNode { state, server, peer_addr, peer_stopping, acceptor })
    }

    pub fn node_id(&self) -> u32 {
        self.state.me
    }

    /// Where clients connect.
    pub fn client_addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Where peers connect.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// The primary ledger (this node's own ingested partials).
    pub fn primary(&self) -> Arc<ShardedLedger> {
        Arc::clone(&self.state.primary)
    }

    /// The mirror ledger (copies held for peers).
    pub fn mirrors(&self) -> Arc<ShardedLedger> {
        Arc::clone(&self.state.mirrors)
    }

    /// Begins shutdown of both listeners without waiting.
    pub fn shutdown(&self) {
        self.server.shutdown();
        // ORDERING: SeqCst — must be globally ordered before the poke
        // connection below can be accepted, so the peer acceptor's next
        // check observes it without relying on the socket as an edge.
        self.peer_stopping.store(true, Ordering::SeqCst);
        // Poke the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.peer_addr);
    }

    /// Waits until the client server stops — via [`ClusterNode::shutdown`]
    /// or a client `Shutdown` frame — then stops the peer acceptor and
    /// waits for both (including the shutdown snapshot). A standalone
    /// node keeps serving until one of those arrives; `join` never
    /// initiates the stop itself.
    pub fn join(self) -> io::Result<()> {
        let ClusterNode { server, acceptor, peer_stopping, peer_addr, .. } = self;
        let result = server.join();
        // ORDERING: SeqCst — same pairing as `shutdown`; idempotent when
        // `shutdown` already ran.
        peer_stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(peer_addr);
        let _ = acceptor.join();
        result
    }
}

/// Pulls recovery state from every live peer; see the module docs.
fn rejoin(state: &NodeState) {
    let n = state.membership.len() as u32;
    for peer in 0..n {
        if peer == state.me {
            continue;
        }
        // (a) Mirror copies peers hold for this node → primary partials.
        if let Ok(states) = state
            .pool
            .snapshot_pull(peer, state.me, SnapshotScope::MirrorOfOrigin)
        {
            for pulled in states {
                let name = pulled.name.clone();
                adopt(&state.primary, name, pulled);
            }
        }
        // (b) Peer primaries this node is placed to mirror → mirror
        // ledger, under the origin-prefixed name.
        if let Ok(states) = state
            .pool
            .snapshot_pull(peer, state.me, SnapshotScope::PrimaryOfPeer)
        {
            for pulled in states {
                let name = mirror_stream_name(peer, &pulled.name);
                adopt(&state.mirrors, name, pulled);
            }
        }
    }
}

/// Serves one inbound peer connection: a `Hello` gate, then a request
/// loop. Fault seams model the peer dying at the nastiest moments.
fn serve_peer_connection(mut conn: TcpStream, state: &NodeState) -> io::Result<()> {
    conn.set_nodelay(true)?;
    let mut read_buf = Vec::new();
    let mut scratch = String::new();
    let mut reply_buf = Vec::new();
    let mut shard_cursor = state.me as usize;

    // The first frame must be a fingerprint-matching Hello: a node from
    // a differently-shaped cluster computes different placements and
    // must not be allowed to mirror or reduce here.
    match read_peer_request_into(&mut &conn, &mut read_buf)? {
        None => return Ok(()),
        Some(PeerRequestView::Hello { fingerprint, .. }) => {
            let reply = if fingerprint == state.membership.fingerprint() {
                Response::PeerHello { node_id: u64::from(state.me) }
            } else {
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "cluster config fingerprint mismatch (mine {:#018x}, yours {fingerprint:#018x})",
                        state.membership.fingerprint()
                    ),
                }
            };
            let refused = matches!(reply, Response::Error { .. });
            frame_into(&reply, &mut scratch, &mut reply_buf)?;
            conn.write_all(&reply_buf)?;
            if refused {
                return Ok(());
            }
        }
        Some(_) => {
            let reply = Response::Error {
                code: ErrorCode::BadRequest,
                message: "peer connection must open with a hello".to_owned(),
            };
            frame_into(&reply, &mut scratch, &mut reply_buf)?;
            conn.write_all(&reply_buf)?;
            return Ok(());
        }
    }

    loop {
        let Some(view) = read_peer_request_into(&mut &conn, &mut read_buf)? else {
            return Ok(());
        };
        let reply = match view {
            PeerRequestView::Hello { .. } => Response::PeerHello { node_id: u64::from(state.me) },
            PeerRequestView::MirrorAdd { origin, add } => {
                if check(SEAM_MIRROR_DROP_BEFORE).is_some() {
                    return Ok(());
                }
                let name = mirror_stream_name(origin, add.stream);
                let hint = shard_cursor;
                shard_cursor = shard_cursor.wrapping_add(1);
                let (count, applied) = state.mirrors.add_batch_le_bytes_dedup(
                    &name,
                    hint,
                    add.client_id,
                    add.seq,
                    add.value_bytes(),
                );
                if check(SEAM_MIRROR_DROP_AFTER).is_some() {
                    return Ok(());
                }
                Response::Added { count, deduped: !applied }
            }
            PeerRequestView::TreeSum { root, limit, stream } => {
                if let Some(FaultAction::Delay { ms }) = check(SEAM_REDUCE_DELAY) {
                    thread::sleep(Duration::from_millis(ms));
                }
                if check(SEAM_REDUCE_DROP).is_some() {
                    return Ok(());
                }
                match state.subtree_sum(stream, root, limit) {
                    Ok(out) => Response::ClusterSum {
                        limbs: out.limbs,
                        poisoned: out.poisoned,
                        values: out.values,
                        holders: out.holders,
                    },
                    Err(message) => Response::Error { code: ErrorCode::Internal, message },
                }
            }
            PeerRequestView::SnapshotPull { origin, scope } => {
                let states = state.snapshot_for(origin, scope);
                let sealed = snapshot::states_to_sealed(&states)?;
                // A snapshot too large for one frame can never be
                // shipped: refuse it with a typed error (which the puller
                // treats as final) and keep serving this connection.
                if peer_snapshot_data_into(&mut reply_buf, &sealed).is_err() {
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: format!(
                            "sealed snapshot of {} bytes exceeds the {MAX_FRAME}-byte peer frame cap",
                            sealed.len()
                        ),
                    }
                } else {
                    if let Some(FaultAction::PartialWrite { keep }) = check(SEAM_SNAPSHOT_PARTIAL) {
                        let keep = keep.min(reply_buf.len());
                        conn.write_all(&reply_buf[..keep])?;
                        return Ok(());
                    }
                    conn.write_all(&reply_buf)?;
                    continue;
                }
            }
        };
        frame_into(&reply, &mut scratch, &mut reply_buf)?;
        conn.write_all(&reply_buf)?;
    }
}
