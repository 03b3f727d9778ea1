//! A blocking client for the summation service, with fault-tolerant
//! retries that are safe to use: every tracked deposit
//! ([`Client::add_binary`], a binary Add frame) carries a
//! `(client_id, seq)` retry identity, so resending a batch whose ACK was
//! lost deposits nothing the second time — the server's per-stream dedup
//! window recognizes the replay. Retrying is therefore *exactly-once*
//! for deposits, not at-least-once.
//!
//! One request/one reply over a persistent connection, every frame
//! binary under the protocol's one header: an Add frame for a deposit, a
//! control frame for every other call, and each reply read through the
//! protocol's one reply decoder. Typed helpers unwrap the reply kind; a
//! mismatched or `Error` reply surfaces as [`ClientError::Server`] with
//! the server's code and message. Transport failures (`ClientError::Io`) trigger reconnect +
//! resend up to [`ClientConfig::retries`] times with exponential backoff
//! and seeded jitter; typed server errors are never retried — the server
//! heard us and said no.

use crate::proto::{
    add_binary_into, read_reply_into, request_into, ErrorCode, ReplyView, Request, Response,
    StreamStatsRepr,
};
use rand::{Rng, SeedableRng, StdRng};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Hands out distinct nonzero default client ids within this process;
/// combined with the process id so two loadgen processes against one
/// server do not collide.
static CLIENT_ID_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_client_id() -> u64 {
    // ORDERING: Relaxed — fetch_add already guarantees uniqueness (one
    // counter value per caller); no other memory is published with it.
    let n = CLIENT_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    // Counter starts at 1, so the low half is nonzero even if the
    // process id is 0 — the result can never alias UNTRACKED_CLIENT.
    ((std::process::id() as u64) << 32) | (n & 0xFFFF_FFFF)
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure (after exhausting any retries).
    Io(io::Error),
    /// The server replied with a typed error. Never retried: the request
    /// was delivered and refused.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server replied with the wrong kind of frame.
    UnexpectedReply(&'static str),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedReply(expected) => {
                write!(f, "unexpected reply kind (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client transport and retry policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout; `None` blocks forever. A server that
    /// accepted a request but never replies (crash, stall) surfaces as
    /// `WouldBlock`/`TimedOut`, which the retry loop treats like any
    /// other transport failure — safe, because the resend carries the
    /// same `(client_id, seq)`.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Reconnect + resend attempts after the first failure. 0 disables
    /// retrying entirely.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Retry identity for deposits. `None` picks a fresh process-unique
    /// id; [`UNTRACKED_CLIENT`](crate::proto::UNTRACKED_CLIENT) opts out of dedup (deposits become
    /// at-least-once under retries, as in PR 2).
    pub client_id: Option<u64>,
    /// Seed for backoff jitter, so tests can fix the retry schedule.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: None,
            write_timeout: None,
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            client_id: None,
            jitter_seed: 0x0015_0D00_5EED,
        }
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Resolved addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    client_id: u64,
    /// Next deposit sequence number; advances once per *logical* batch,
    /// never per attempt — that is the whole exactly-once trick.
    next_seq: u64,
    jitter: StdRng,
    /// Reusable request frame buffer: an Add is formatted once per
    /// logical batch and resent verbatim by every retry; capacity is
    /// kept across requests.
    send_buf: Vec<u8>,
    /// Reusable reply payload buffer.
    reply_buf: Vec<u8>,
}

impl Client {
    /// Connects with the default config (untimed I/O, 3 retries).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit transport/retry policy.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let (reader, writer) = open(&addrs, &config)?;
        let client_id = config.client_id.unwrap_or_else(next_client_id);
        let jitter = StdRng::seed_from_u64(config.jitter_seed);
        Ok(Client {
            reader,
            writer,
            addrs,
            config,
            client_id,
            next_seq: 1,
            jitter,
            // Presized so the first full-size batch never pays a realloc
            // ladder (a one-off latency spike that becomes the p99).
            send_buf: Vec::with_capacity(crate::proto::INITIAL_FRAME_CAPACITY),
            reply_buf: Vec::new(),
        })
    }

    /// The retry identity this client stamps on deposits. Stable across
    /// reconnects for the life of the client.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Tears down the current socket and dials again.
    fn reconnect(&mut self) -> io::Result<()> {
        let (reader, writer) = open(&self.addrs, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Exponential backoff with equal jitter: attempt `k` sleeps
    /// `d/2 + uniform(0..=d/2)` where `d = min(cap, base << k)`.
    fn backoff(&mut self, attempt: u32) {
        let base = self.config.backoff_base.as_millis() as u64;
        let cap = self.config.backoff_cap.as_millis() as u64;
        let d = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let half = d / 2;
        let jittered = half + self.jitter.random_range(0..=half.max(1));
        std::thread::sleep(Duration::from_millis(jittered));
    }

    /// Runs `op` with reconnect-and-retry on transport failures. `op`
    /// must be safe to repeat verbatim — deposits are, because their
    /// retry identity is fixed before the first attempt.
    fn with_retries<T>(
        &mut self,
        op: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Err(ClientError::Io(_)) if attempt < self.config.retries => {
                    self.backoff(attempt);
                    attempt += 1;
                    // A failed reconnect just burns this attempt; the
                    // next op() call will fail fast on the dead socket
                    // and loop back here until attempts run out.
                    let _ = self.reconnect();
                }
                other => return other,
            }
        }
    }

    /// One request/one reply on the current socket, no retry.
    fn call_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        request_into(&mut self.send_buf, req)?;
        self.writer.write_all(&self.send_buf)?;
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Response, ClientError> {
        let reply = match read_reply_into(&mut self.reader, &mut self.reply_buf)? {
            Some(ReplyView::Reply(reply)) => reply,
            Some(ReplyView::SnapshotData(_)) => {
                return Err(ClientError::UnexpectedReply("a client reply"))
            }
            None => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
        };
        if let Response::Error { code, message } = reply {
            return Err(ClientError::Server { code, message });
        }
        Ok(reply)
    }

    /// Claims the next deposit sequence number (identity is per logical
    /// batch; retries of that batch reuse it).
    fn claim_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Deposits a batch exactly once over a binary Add frame
    /// (raw little-endian `f64` bytes, every bit pattern unchanged, no
    /// number formatting or parsing on either side); returns the number
    /// of values the batch accounts for. Under retries, at most one
    /// attempt's deposit lands — replays are ACKed without
    /// double-counting.
    pub fn add_binary(&mut self, stream: &str, values: &[f64]) -> Result<u64, ClientError> {
        let seq = self.claim_seq();
        let client_id = self.client_id;
        // Format the frame once into the client's reusable buffer; every
        // retry resends the identical bytes. Taken out of `self` so the
        // retry closure can borrow the client mutably alongside it.
        let mut buf = std::mem::take(&mut self.send_buf);
        let result = match add_binary_into(&mut buf, stream, client_id, seq, values) {
            Ok(()) => self.with_retries(|c| {
                c.writer.write_all(&buf)?;
                c.writer.flush()?;
                match c.read_reply()? {
                    Response::Added { count, .. } => Ok(count),
                    _ => Err(ClientError::UnexpectedReply("added")),
                }
            }),
            Err(e) => Err(e.into()),
        };
        self.send_buf = buf;
        result
    }

    /// Reads the exact sum of a stream. Idempotent, so retried freely.
    pub fn sum(&mut self, stream: &str) -> Result<SumReply, ClientError> {
        let req = Request::Sum { stream: stream.to_owned() };
        self.with_retries(move |c| match c.call_once(&req)? {
            Response::Sum { limbs, poisoned } => Ok(SumReply { limbs, poisoned }),
            _ => Err(ClientError::UnexpectedReply("sum")),
        })
    }

    /// Reads the exact *cluster-wide* sum of a stream: the connected
    /// node coordinates a binomial-tree reduce over every node's primary
    /// partial (on a server with no cluster attached this is the local
    /// sum). A read, hence idempotent and retried freely; a partitioned
    /// cluster surfaces as a typed `internal` server error, which is
    /// not retried.
    pub fn cluster_sum(&mut self, stream: &str) -> Result<ClusterSumReply, ClientError> {
        let req = Request::ClusterSum { stream: stream.to_owned() };
        self.with_retries(move |c| match c.call_once(&req)? {
            Response::ClusterSum { limbs, poisoned, values, holders } => {
                Ok(ClusterSumReply { limbs, poisoned, values, holders })
            }
            _ => Err(ClientError::UnexpectedReply("cluster_sum")),
        })
    }

    /// Reads ledger statistics: a count that is always 1 (a stream is
    /// one sum, not a bank of shards) and the per-stream counters. The
    /// pair stays until perfbench, which builds against it, stops
    /// reading the count. Idempotent, so retried freely.
    pub fn stats(&mut self) -> Result<(u64, Vec<StreamStatsRepr>), ClientError> {
        self.with_retries(move |c| match c.call_once(&Request::Stats)? {
            Response::Stats { streams } => Ok((1, streams)),
            _ => Err(ClientError::UnexpectedReply("stats")),
        })
    }

    /// Asks the server to persist a snapshot; returns the stream count.
    /// Not retried (re-snapshotting is harmless but the caller should
    /// decide, not a backoff loop).
    pub fn snapshot(&mut self) -> Result<u64, ClientError> {
        match self.call_once(&Request::Snapshot)? {
            Response::Snapshot { streams } => Ok(streams),
            _ => Err(ClientError::UnexpectedReply("snapshot")),
        }
    }

    /// Drops every stream on the server. Not retried: a lost ACK leaves
    /// it ambiguous whether deposits racing the reset came before or
    /// after, and a blind re-reset would erase them.
    pub fn reset(&mut self) -> Result<(), ClientError> {
        match self.call_once(&Request::Reset)? {
            Response::ResetDone => Ok(()),
            _ => Err(ClientError::UnexpectedReply("reset")),
        }
    }

    /// Requests a graceful shutdown (acknowledged before the server
    /// stops accepting). Not retried: reconnecting to a stopping server
    /// races its listener going away.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call_once(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedReply("shutting_down")),
        }
    }
}

/// Dials `addrs` and applies the configured socket timeouts.
fn open(
    addrs: &[SocketAddr],
    config: &ClientConfig,
) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addrs)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    Ok((
        BufReader::new(stream.try_clone()?),
        BufWriter::new(stream),
    ))
}

/// The exact sum of a stream as reported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumReply {
    /// Raw accumulator limbs, most significant first — compare these for
    /// bitwise identity across runs.
    pub limbs: Vec<u64>,
    /// True if the stream's range guarantee was violated at some point.
    pub poisoned: bool,
}

/// The exact cluster-wide sum of a stream, merged across every node's
/// primary partial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSumReply {
    /// Raw merged accumulator limbs, most significant first — bitwise
    /// identical no matter which node coordinates, how many nodes hold
    /// partials, or how the tree reduced them.
    pub limbs: Vec<u64>,
    /// True if any contributing node detected a range overflow.
    pub poisoned: bool,
    /// Total values applied across contributing primaries.
    pub values: u64,
    /// Number of nodes on which the stream exists.
    pub holders: u64,
}

// UNTRACKED_CLIENT is re-exported for callers that want PR-2 semantics:
// `ClientConfig { client_id: Some(UNTRACKED_CLIENT), .. }`.
pub use crate::proto::UNTRACKED_CLIENT as UNTRACKED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_client_ids_are_distinct_and_tracked() {
        let a = next_client_id();
        let b = next_client_id();
        assert_ne!(a, b);
        assert_ne!(a, UNTRACKED);
        assert_ne!(b, UNTRACKED);
    }
}
