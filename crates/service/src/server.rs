//! The TCP summation server: an acceptor and one thread per live
//! connection over a shared [`ShardedLedger`].
//!
//! The acceptor spawns a scoped thread for each connection it accepts;
//! that thread owns the connection for its whole lifetime
//! (length-prefixed frames in, replies out), so every client is served
//! as soon as it connects, however many others hold connections open.
//! Shutdown is graceful by construction: the `Shutdown` frame is
//! acknowledged, the listener stops accepting, and the acceptor's scope
//! waits for every live connection to drain before the final snapshot
//! is written. Because a batch is only ACKed *after* its deposits land
//! in the ledger, "every ACKed batch is in the final snapshot" holds
//! without any extra bookkeeping.

use crate::dispatch::RequestCore;
use crate::ledger::ShardedLedger;
use crate::proto::{
    frame_into, read_client_frame_into, ClientFrameView, ErrorCode, Response,
    INITIAL_FRAME_CAPACITY,
};
use crate::snapshot;
use crate::wal::{Wal, WalConfig};
use crate::recovery::{self, RecoveryReport};
use oisum_faults::FaultAction;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Seeds each connection's private shard cursor so concurrent
/// connections start on different shards; touched once per connection,
/// not per batch. Shared with the epoll reactor so both transports
/// spread connections the same way.
pub(crate) static CONN_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Which connection-serving machinery the server runs. Both transports
/// execute every frame through the same [`RequestCore`], so the choice
/// affects concurrency scaling and latency shape — never a bit of any
/// sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Acceptor + one thread per live connection. Highest
    /// single-connection throughput, for a few hot sockets; every
    /// connection costs a thread.
    #[default]
    Threads,
    /// Single-threaded edge-triggered epoll reactor: tens of thousands
    /// of connections, readiness-driven state machines, WAL parking
    /// without a thread per waiter. linux/x86_64 only (startup fails
    /// with `Unsupported` elsewhere).
    Epoll,
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Transport::Threads),
            "epoll" => Ok(Transport::Epoll),
            other => Err(format!("unknown transport `{other}` (expected threads|epoll)")),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::Threads => "threads",
            Transport::Epoll => "epoll",
        })
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 to let the OS pick.
    pub addr: String,
    /// Shards per ledger stream.
    pub shards: usize,
    /// If set, `Snapshot` requests and graceful shutdown persist the
    /// ledger here (and the server restores from it at startup if the
    /// file exists).
    pub snapshot_path: Option<PathBuf>,
    /// If set, every tracked `Add` is appended to a write-ahead log in
    /// this directory and group-committed before its ACK; at startup the
    /// server replays any existing segments (after the snapshot restore)
    /// so ACKed batches survive a non-graceful death. See
    /// [`WalConfig`].
    pub wal: Option<WalConfig>,
    /// Connection-serving machinery; see [`Transport`].
    pub transport: Transport,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 8,
            snapshot_path: None,
            wal: None,
            transport: Transport::Threads,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — send a
/// `Shutdown` frame (or call [`ServerHandle::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    ledger: Arc<ShardedLedger>,
    acceptor: JoinHandle<io::Result<()>>,
    stopping: Arc<AtomicBool>,
    recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared ledger (for in-process inspection in tests/loadgen).
    pub fn ledger(&self) -> Arc<ShardedLedger> {
        Arc::clone(&self.ledger)
    }

    /// What the startup WAL replay did — records applied and deduped,
    /// torn tails truncated — or `None` when the server runs without a
    /// WAL (or was built by [`serve_with_core`], whose caller owns
    /// recovery).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Requests a stop as if a client had sent `Shutdown`.
    pub fn shutdown(&self) {
        signal_shutdown(&self.stopping, self.addr);
    }

    /// Waits until the acceptor and every connection thread have
    /// finished and the final snapshot (if configured) is on disk.
    ///
    /// Live connections are drained to EOF first, so a client held open
    /// past the shutdown request delays this join until that client
    /// disconnects.
    pub fn join(self) -> io::Result<()> {
        self.acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))?
    }
}

/// Marks the server stopping and wakes the blocking `accept` with a
/// throwaway connection.
fn signal_shutdown(stopping: &AtomicBool, addr: SocketAddr) {
    // ORDERING: SeqCst — the store must be globally ordered before the
    // poke connection below can be accepted, so the acceptor's next
    // check sees it without relying on the socket as a release edge.
    stopping.store(true, Ordering::SeqCst);
    // The acceptor checks `stopping` after every accept; poke it so it
    // does not sit in `accept` forever waiting for a client that never
    // comes.
    drop(TcpStream::connect(addr));
}

/// Binds, restores any existing snapshot, and starts serving in
/// background threads.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let ledger = Arc::new(ShardedLedger::new(config.shards));
    if let Some(path) = &config.snapshot_path {
        if path.exists() {
            snapshot::load(path, &ledger)?;
        }
    }
    let mut core = RequestCore::new(ledger).with_snapshot_path(config.snapshot_path.clone());
    let mut report = None;
    if let Some(wal_config) = &config.wal {
        // Replay order matters: snapshot first (above), then the WAL —
        // the dedup watermarks restored by the snapshot absorb every
        // record it already covers, and the rest re-applies exactly
        // once. Only then is a fresh segment opened for new traffic.
        report = Some(recovery::recover(&wal_config.dir, core.ledger())?);
        core = core.with_wal(Arc::new(Wal::open(wal_config.clone())?));
    }
    let mut handle = serve_with_core(&config, Arc::new(core))?;
    handle.recovery = report;
    Ok(handle)
}

/// Binds and serves over a caller-built [`RequestCore`] — the entry
/// point for embedders (a cluster node) that need to share the ledger
/// with other components or attach
/// [`ClusterOps`](crate::dispatch::ClusterOps). `config.snapshot_path`
/// is ignored here: persistence (including any restore-at-start) belongs
/// to the core's owner.
pub fn serve_with_core(config: &ServerConfig, core: Arc<RequestCore>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let ledger = Arc::clone(core.ledger());
    let stopping = Arc::new(AtomicBool::new(false));

    if config.transport == Transport::Epoll {
        let acceptor = {
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("oisum-reactor".to_owned())
                .spawn(move || crate::reactor::run(listener, core, stopping))?
        };
        return Ok(ServerHandle {
            addr,
            ledger,
            acceptor,
            stopping,
            recovery: None,
        });
    }

    let acceptor = {
        let stopping = Arc::clone(&stopping);
        std::thread::spawn(move || -> io::Result<()> {
            std::thread::scope(|scope| {
                for conn in listener.incoming() {
                    // ORDERING: SeqCst — pairs with signal_shutdown's SeqCst
                    // store; the total order guarantees the load after the
                    // poke connection's accept observes the flag.
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            // A failed spawn drops the closure and with it
                            // `stream`: that one connection closes, and
                            // the acceptor keeps serving the rest.
                            let (core, stopping) = (&core, &stopping);
                            let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                                // Connection-level errors (peer vanished,
                                // malformed frame) only end that one
                                // connection.
                                let _ = serve_connection(stream, core, stopping);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            })?;
            // The scope has joined every connection thread: seal the WAL,
            // write the final snapshot. A poisoned WAL surfaces as an
            // error from join().
            core.close()
        })
    };

    Ok(ServerHandle {
        addr,
        ledger,
        acceptor,
        stopping,
        recovery: None,
    })
}

/// Serves one connection until EOF, protocol error, or shutdown ACK.
///
/// Each connection owns a private shard cursor (seeded from a global
/// counter once at accept time, advanced locally per `Add`), so deposit
/// traffic from unrelated connections never contends on shard
/// selection. Both protocol versions — JSON `OIS\x01` control requests
/// and binary `OIS\x02` Adds — are accepted interleaved on the same
/// connection.
///
/// All per-frame buffers live for the whole connection: frames are read
/// into one reusable payload buffer and parsed in place (a binary Add
/// feeds the ledger straight off that buffer — no `Vec<f64>`), and every
/// reply is formatted into one reusable frame buffer and sent with a
/// single `write_all`. With Nagle disabled below, each reply departs as
/// exactly one immediate segment instead of waiting out a delayed-ACK
/// window against the client's next request.
fn serve_connection(conn: TcpStream, core: &RequestCore, stopping: &AtomicBool) -> io::Result<()> {
    // An accepted socket's local address is the listener's address, so it
    // doubles as the shutdown-poke target.
    let local = conn.local_addr()?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    // Presized so the first full-size batch never pays a realloc ladder
    // (that one-time growth would land on a single request — the p99).
    let mut read_buf: Vec<u8> = Vec::with_capacity(INITIAL_FRAME_CAPACITY);
    let mut reply_json = String::new();
    let mut reply_frame: Vec<u8> = Vec::with_capacity(256);
    // ORDERING: Relaxed — the per-connection seed only spreads
    // connections across ledger shards; uniqueness comes from fetch_add
    // itself and shard choice never affects the sum.
    let mut shard_cursor = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
    loop {
        let frame = match read_client_frame_into(&mut reader, &mut read_buf) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Malformed frame or request: send the typed error
                // best-effort (the peer may already be gone), then close —
                // once framing is suspect the stream cannot be resynced.
                let reply =
                    Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                if frame_into(&reply, &mut reply_json, &mut reply_frame).is_ok() {
                    let _ = writer.write_all(&reply_frame);
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Fault seams (no-ops unless the `failpoints` feature is on).
        // Dropping *before* apply models a crash that loses the batch;
        // the client's retry must deposit it. Dropping *after* apply
        // models a crash that loses only the ACK; the retry must be
        // recognized as a replay and deposit nothing.
        let is_add = matches!(&frame, ClientFrameView::BinaryAdd(_));
        if is_add && matches!(oisum_faults::check("server.add.drop_before_apply"), Some(FaultAction::Disconnect)) {
            return Ok(());
        }
        let (reply, stop_after) = core.handle_frame(frame, &mut shard_cursor);
        if is_add && matches!(oisum_faults::check("server.add.drop_after_apply"), Some(FaultAction::Disconnect)) {
            return Ok(());
        }
        if let Some(FaultAction::Delay { ms }) = oisum_faults::check("server.reply.delay") {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        frame_into(&reply, &mut reply_json, &mut reply_frame)?;
        if let Some(FaultAction::PartialWrite { keep }) = oisum_faults::check("server.reply.partial") {
            // Send a prefix of the (already formatted) reply frame, then
            // hang up mid-frame.
            writer.write_all(&reply_frame[..keep.min(reply_frame.len())])?;
            return Ok(());
        }
        writer.write_all(&reply_frame)?;
        if stop_after {
            signal_shutdown(stopping, local);
            return Ok(());
        }
    }
}

