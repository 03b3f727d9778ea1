//! Wire protocol: one frame header, one op table, binary bodies.
//!
//! Every frame, client or peer, request or reply, is `b"OIS\x04"`, a
//! `u32` big-endian payload length (at most [`MAX_FRAME`]), then the
//! payload: one op byte from the table below and the op's binary body.
//! Integers are big-endian, stream names are the u16-length-prefixed
//! UTF-8 shared with WAL and snapshot records, and HP sums cross
//! as their six raw `u64` limbs, most significant first, so clients
//! compare results *bitwise* instead of through a lossy `f64`. A batch
//! of summands travels only in an `Add` body: the name, the
//! `(client_id, seq)` retry identity, then raw little-endian `f64`s (see
//! [`add_binary_into`]); a peer `MirrorAdd` carries the same body after
//! its origin id, and the server reads both in place ([`BinaryAddView`]).
//!
//! The magic lets either side refuse a non-protocol peer before parsing
//! anything, and the explicit length keeps framing independent of the
//! body. Versions 1 to 3 (JSON control frames, the first binary Add and
//! the first peer framing) are retired: a frame under one is refused as
//! a bad request naming its version. Each port accepts its own ops
//! alone: the client port refuses a peer op, and the peer port a client
//! op, by the op byte. Every parse consumes its body exactly, so a body
//! with bytes missing or left over is refused, never half-read.

use crate::ledger::SERVICE_LIMBS;
use std::io::{self, Read};

/// Frame magic, the protocol's one header; the final byte is the
/// protocol version.
pub const MAGIC: [u8; 4] = *b"OIS\x04";

/// Hard cap on payload size (16 MiB) so a corrupt or hostile length
/// prefix cannot drive an unbounded allocation.
pub const MAX_FRAME: u32 = 16 << 20;

/// Initial capacity for pooled per-connection frame buffers (client
/// `send_buf`, server `read_buf`/`reply_frame`).
///
/// Sized to hold the largest batch the load generator sweeps (8 Ki
/// values = 64 KiB of payload) plus the binary-Add header, so the first
/// big frame on a fresh connection does not pay a realloc-and-copy
/// ladder. Without this, that one-time growth lands on exactly one
/// batch per connection — which at 100 batches/connection is precisely
/// the p99 — producing a latency cliff that scales with batch size.
/// Buffers still grow past this on demand (up to [`MAX_FRAME`]).
pub const INITIAL_FRAME_CAPACITY: usize = (64 << 10) + 64;

// The op table: the first payload byte of every frame. Client requests
// are 0x0_, peer requests 0x1_, and replies set the top bit.
const OP_ADD: u8 = 0x01;
const OP_SUM: u8 = 0x02;
const OP_CLUSTER_SUM: u8 = 0x03;
const OP_SNAPSHOT: u8 = 0x04;
const OP_RESET: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_HELLO: u8 = 0x11;
const OP_MIRROR_ADD: u8 = 0x12;
const OP_TREE_SUM: u8 = 0x13;
const OP_SNAPSHOT_PULL: u8 = 0x14;
/// Answers `Add` and `MirrorAdd`.
const OP_ADDED: u8 = 0x81;
const OP_SUM_REPLY: u8 = 0x82;
/// Answers `ClusterSum` and `TreeSum`.
const OP_CLUSTER_SUM_REPLY: u8 = 0x83;
const OP_SNAPSHOT_DONE: u8 = 0x84;
const OP_RESET_DONE: u8 = 0x85;
const OP_STATS_REPLY: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;
const OP_PEER_HELLO: u8 = 0x91;
const OP_SNAPSHOT_DATA: u8 = 0x94;
const OP_ERROR: u8 = 0xFF;

/// Machine-readable error categories carried by [`Response::Error`], on
/// the wire as the error body's first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame payload was not a valid request.
    BadRequest = 1,
    /// The named stream has never been written.
    UnknownStream = 2,
    /// The server failed to act on a valid request (e.g. snapshot I/O).
    Internal = 3,
}

/// Sentinel `client_id` meaning "untracked": the deposit bypasses the
/// ledger's dedup window and is applied unconditionally.
pub const UNTRACKED_CLIENT: u64 = 0;

/// A client-to-server control command. Summands never travel here: a
/// batch is deposited with a binary Add frame ([`add_binary_into`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read the exact HP sum of the named stream.
    Sum {
        /// Stream to read.
        stream: String,
    },
    /// Read the exact cluster-wide HP sum of the named stream: the
    /// receiving node coordinates a binomial-tree reduce over every
    /// node's primary partial. On a server with no cluster attached this
    /// degenerates to the local sum (a one-node cluster).
    ClusterSum {
        /// Stream to read.
        stream: String,
    },
    /// Persist all streams to the server's snapshot path.
    Snapshot,
    /// Drop every stream.
    Reset,
    /// Read ledger statistics.
    Stats,
    /// Stop the server gracefully (finishes in-flight connections,
    /// writes a final snapshot if configured).
    Shutdown,
}

/// Per-stream counters inside a [`Response::Stats`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStatsRepr {
    /// Stream name.
    pub name: String,
    /// Batches deposited.
    pub batches: u64,
    /// Values deposited.
    pub values: u64,
    /// Detected top-limb overflows.
    pub overflows: u64,
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The batch was deposited (or recognized as a replay); `count`
    /// values are accounted for.
    Added {
        /// Values covered by this request.
        count: u64,
        /// True when the ledger's dedup window recognized the
        /// `(client_id, seq)` as already applied and deposited nothing —
        /// the ACK a retried batch receives.
        deduped: bool,
    },
    /// The exact sum, as raw HP limbs (most significant first).
    Sum {
        /// The 6 limbs of the service-format accumulator.
        limbs: Vec<u64>,
        /// True if an add to the stream failed the sign test: its sum
        /// left the representable range at least once.
        poisoned: bool,
    },
    /// The exact cluster-wide sum (or a subtree partial, when replying
    /// to a peer `TreeSum`): every field merges exactly under the tree
    /// reduce — limbs by per-limb `wrapping_add`, counters by integer
    /// addition, `poisoned` by OR.
    ClusterSum {
        /// The 6 limbs of the merged accumulator.
        limbs: Vec<u64>,
        /// True if any contributing node detected a range overflow.
        poisoned: bool,
        /// Total values applied across the contributing primaries —
        /// the cluster-wide exactly-once count.
        values: u64,
        /// Number of contributing nodes on which the stream exists; 0
        /// means no node has ever seen it.
        holders: u64,
    },
    /// A peer connection's `Hello` was accepted; the replying node
    /// identifies itself.
    PeerHello {
        /// The replying node's cluster id.
        node_id: u64,
    },
    /// Snapshot written; `streams` entries persisted.
    Snapshot {
        /// Number of streams in the snapshot.
        streams: u64,
    },
    /// All streams dropped.
    ResetDone,
    /// Ledger statistics.
    Stats {
        /// Per-stream counters, sorted by name.
        streams: Vec<StreamStatsRepr>,
    },
    /// The server acknowledges shutdown and will stop.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Starts a frame in `buf` (cleared first): the magic, a length
/// placeholder that [`finish`] patches, and the op byte.
fn start(buf: &mut Vec<u8>, op: u8) {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[0; 4]);
    buf.push(op);
}

/// The refusal of a payload no frame can carry, naming its size and the
/// cap.
fn oversized(len: usize) -> io::Error {
    bad_data(format!("a {len}-byte payload exceeds the {MAX_FRAME}-byte frame cap"))
}

/// Patches the payload length of a frame [`start`] began.
fn finish(buf: &mut [u8]) -> io::Result<()> {
    let len = buf.len() - 8;
    let checked = u32::try_from(len).ok().filter(|&n| n <= MAX_FRAME);
    buf[4..8].copy_from_slice(&checked.ok_or_else(|| oversized(len))?.to_be_bytes());
    Ok(())
}

fn put_name(buf: &mut Vec<u8>, name: &str) -> io::Result<()> {
    let len = u16::try_from(name.len()).map_err(|_| bad_data("stream name too long"))?;
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(name.as_bytes());
    Ok(())
}

fn put_limbs(buf: &mut Vec<u8>, limbs: &[u64]) -> io::Result<()> {
    if limbs.len() != SERVICE_LIMBS {
        return Err(bad_data(format!("a sum of {} limbs, not {SERVICE_LIMBS}", limbs.len())));
    }
    limbs.iter().for_each(|l| buf.extend_from_slice(&l.to_be_bytes()));
    Ok(())
}

/// The head of an Add body, shared by a client `Add` and a peer
/// `MirrorAdd`: the stream name and the retry identity.
fn put_add_head(buf: &mut Vec<u8>, stream: &str, client_id: u64, seq: u64) -> io::Result<()> {
    put_name(buf, stream)?;
    buf.extend_from_slice(&client_id.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    Ok(())
}

/// Serializes a control request into `buf` (cleared first).
pub fn request_into(buf: &mut Vec<u8>, req: &Request) -> io::Result<()> {
    match req {
        Request::Sum { stream } => {
            start(buf, OP_SUM);
            put_name(buf, stream)?;
        }
        Request::ClusterSum { stream } => {
            start(buf, OP_CLUSTER_SUM);
            put_name(buf, stream)?;
        }
        Request::Snapshot => start(buf, OP_SNAPSHOT),
        Request::Reset => start(buf, OP_RESET),
        Request::Stats => start(buf, OP_STATS),
        Request::Shutdown => start(buf, OP_SHUTDOWN),
    }
    finish(buf)
}

fn encode_reply(buf: &mut Vec<u8>, reply: &Response) -> io::Result<()> {
    match reply {
        Response::Added { count, deduped } => {
            start(buf, OP_ADDED);
            buf.extend_from_slice(&count.to_be_bytes());
            buf.push(u8::from(*deduped));
        }
        Response::Sum { limbs, poisoned } => {
            start(buf, OP_SUM_REPLY);
            put_limbs(buf, limbs)?;
            buf.push(u8::from(*poisoned));
        }
        Response::ClusterSum { limbs, poisoned, values, holders } => {
            start(buf, OP_CLUSTER_SUM_REPLY);
            put_limbs(buf, limbs)?;
            buf.push(u8::from(*poisoned));
            buf.extend_from_slice(&values.to_be_bytes());
            buf.extend_from_slice(&holders.to_be_bytes());
        }
        Response::PeerHello { node_id } => {
            start(buf, OP_PEER_HELLO);
            buf.extend_from_slice(&node_id.to_be_bytes());
        }
        Response::Snapshot { streams } => {
            start(buf, OP_SNAPSHOT_DONE);
            buf.extend_from_slice(&streams.to_be_bytes());
        }
        Response::ResetDone => start(buf, OP_RESET_DONE),
        Response::Stats { streams } => {
            start(buf, OP_STATS_REPLY);
            let count = u32::try_from(streams.len()).map_err(|_| bad_data("too many streams"))?;
            buf.extend_from_slice(&count.to_be_bytes());
            for s in streams {
                put_name(buf, &s.name)?;
                for n in [s.batches, s.values, s.overflows] {
                    buf.extend_from_slice(&n.to_be_bytes());
                }
            }
        }
        Response::ShuttingDown => start(buf, OP_SHUTTING_DOWN),
        Response::Error { code, message } => {
            start(buf, OP_ERROR);
            buf.push(*code as u8);
            buf.extend_from_slice(message.as_bytes());
        }
    }
    finish(buf)
}

/// Serializes `reply` into `buf` (cleared first, so a connection formats
/// every reply into one buffer and sends it with one write). A reply no
/// frame can carry, such as a `Stats` reply over [`MAX_FRAME`], becomes
/// a typed `internal` error naming why, so the request is answered and
/// the connection stays in step.
pub fn reply_into(buf: &mut Vec<u8>, reply: &Response) {
    if let Err(e) = encode_reply(buf, reply) {
        let refusal = Response::Error {
            code: ErrorCode::Internal,
            message: format!("reply not sent: {e}"),
        };
        // A short error body always fits a frame.
        let _ = encode_reply(buf, &refusal);
    }
}

/// Splits a complete 8-byte frame header into its magic and payload
/// length, enforcing the [`MAX_FRAME`] cap. This is the one place the
/// header layout is decoded: the blocking reader below and the epoll
/// reactor's incremental header state both call it, so a readiness-driven
/// connection cannot drift from the synchronous framing by even a byte.
pub fn parse_frame_header(header: &[u8; 8]) -> io::Result<([u8; 4], u32)> {
    let [m0, m1, m2, m3, l0, l1, l2, l3] = *header;
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} exceeds cap {MAX_FRAME}")));
    }
    Ok(([m0, m1, m2, m3], len))
}

/// Reads one frame into `buf` (cleared first, capacity reused),
/// returning its magic, or `None` on a clean EOF at a frame boundary.
fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<[u8; 4]>> {
    let mut header = [0u8; 8];
    // A clean close between frames yields 0 bytes; mid-header EOF is an
    // error.
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(bad_data("connection closed mid-header"));
        }
        filled += n;
    }
    let (magic, len) = parse_frame_header(&header)?;
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(Some(magic))
}

/// A cursor over a frame body. Each read names what it wanted when the
/// body runs short, and [`Body::end`] refuses bytes left over.
struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn bytes<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let (head, rest) =
            self.0.split_first_chunk::<N>().ok_or_else(|| bad_data(format!("truncated {what}")))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        self.bytes(what).map(u32::from_be_bytes)
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        self.bytes(what).map(u64::from_be_bytes)
    }

    fn flag(&mut self, what: &str) -> io::Result<bool> {
        match self.bytes(what)? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(bad_data(format!("{what} byte {b} is neither 0 nor 1"))),
        }
    }

    fn name(&mut self) -> io::Result<&'a str> {
        let (name, rest) = split_name(self.0).map_err(bad_data)?;
        self.0 = rest;
        Ok(name)
    }

    fn limbs(&mut self) -> io::Result<Vec<u64>> {
        (0..SERVICE_LIMBS).map(|_| self.u64("sum limbs")).collect()
    }

    /// Ends the body with `value`, refusing any bytes left over.
    fn end<T>(self, value: T) -> io::Result<T> {
        match self.0.len() {
            0 => Ok(value),
            n => Err(bad_data(format!("{n} bytes past the end of the body"))),
        }
    }
}

/// Checks a frame's magic and splits its op byte off the payload.
fn split_op(magic: [u8; 4], payload: &[u8]) -> io::Result<(u8, Body<'_>)> {
    if magic != MAGIC {
        return Err(match magic {
            [b'O', b'I', b'S', v @ 1..=3] => bad_data(format!(
                "retired protocol version {v}: this server speaks only version 4 (magic OIS\\x04)"
            )),
            _ => bad_data(format!("bad frame magic {magic:02x?} (not this protocol)")),
        });
    }
    let (&op, body) = payload.split_first().ok_or_else(|| bad_data("empty payload: no op byte"))?;
    Ok((op, Body(body)))
}

fn unknown_op(op: u8) -> io::Error {
    bad_data(format!("unknown op {op:#04x}"))
}

/// Serializes one binary Add frame into a byte buffer: length-prefixed
/// stream name, the `(client_id, seq)` retry identity, then the summands
/// as raw little-endian `f64` bytes — every bit pattern (signed zeros,
/// subnormals) crosses unchanged, at 8 bytes per value and zero
/// number-formatting cost.
pub fn add_binary_bytes(
    stream: &str,
    client_id: u64,
    seq: u64,
    values: &[f64],
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    add_binary_into(&mut buf, stream, client_id, seq, values)?;
    Ok(buf)
}

/// [`add_binary_bytes`] into a caller-owned buffer (cleared first), so a
/// client's send loop reuses one allocation across batches. Refuses a
/// batch no frame can carry: a stream name over 65,535 bytes, or a
/// payload (`19 + name + 8·n` bytes) over [`MAX_FRAME`]. A WAL record
/// holds the payload less its op byte plus the batch total, so every Add
/// a server parses fits one.
pub fn add_binary_into(
    buf: &mut Vec<u8>,
    stream: &str,
    client_id: u64,
    seq: u64,
    values: &[f64],
) -> io::Result<()> {
    let len = 19 + stream.len() + size_of_val(values);
    if len > MAX_FRAME as usize {
        return Err(oversized(len));
    }
    start(buf, OP_ADD);
    buf.reserve(len - 1);
    put_add_head(buf, stream, client_id, seq)?;
    for v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    finish(buf)
}

/// The little-endian bytes of `values`: the service's one deposit
/// format, as a binary Add frame, a WAL record and a peer `MirrorAdd`
/// carry it.
pub fn le_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A binary Add frame parsed *in place*: the stream name and value bytes
/// borrow the frame payload, so the server's hot path hands the summands
/// straight from its read buffer to the ledger without materializing a
/// `Vec<f64>` (or a `String`) per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryAddView<'a> {
    /// Target stream (created on first use), borrowed from the payload.
    pub stream: &'a str,
    /// Retry identity; [`UNTRACKED_CLIENT`] opts out of dedup.
    pub client_id: u64,
    /// Per-client sequence number of this batch.
    pub seq: u64,
    /// Raw little-endian `f64` bytes, length a multiple of 8.
    value_bytes: &'a [u8],
}

impl<'a> BinaryAddView<'a> {
    /// Number of summands carried by the frame.
    pub fn len(&self) -> usize {
        self.value_bytes.len() / 8
    }

    /// True when the frame carries no summands.
    pub fn is_empty(&self) -> bool {
        self.value_bytes.is_empty()
    }

    /// The raw little-endian `f64` payload bytes. This is what a cluster
    /// node forwards to replicas: the ingested frame's value bytes are
    /// copied verbatim into the peer `MirrorAdd` frame, so a mirrored
    /// batch crosses node boundaries without a decode/re-encode cycle
    /// (and therefore cannot lose a bit in transit).
    pub fn value_bytes(&self) -> &'a [u8] {
        self.value_bytes
    }
}

/// Splits a stream name, u16 length-prefixed and UTF-8, off the front of
/// `bytes`: the one name encoding of every frame that names a stream,
/// WAL records and snapshot records. The error says what is missing or
/// bad.
pub(crate) fn split_name(bytes: &[u8]) -> Result<(&str, &[u8]), &'static str> {
    let (len, rest) = bytes.split_first_chunk::<2>().ok_or("truncated name length")?;
    let (name, rest) = rest
        .split_at_checked(usize::from(u16::from_be_bytes(*len)))
        .ok_or("truncated stream name")?;
    Ok((core::str::from_utf8(name).map_err(|_| "stream name is not UTF-8")?, rest))
}

/// Parses an Add body (after the op byte, and after a `MirrorAdd`'s
/// origin) without copying: the name and value bytes of the returned
/// view borrow `body`.
fn parse_add_binary_view(body: &[u8]) -> io::Result<BinaryAddView<'_>> {
    let mut body = Body(body);
    let stream = body.name()?;
    let (client_id, seq) = (body.u64("retry identity")?, body.u64("retry identity")?);
    let value_bytes = body.0;
    if value_bytes.len() % 8 != 0 {
        return Err(bad_data(format!(
            "binary add: value bytes not a multiple of 8 (got {})",
            value_bytes.len()
        )));
    }
    Ok(BinaryAddView { stream, client_id, seq, value_bytes })
}

/// A client frame parsed out of a caller-owned read buffer. The binary
/// Add arm, the only way a batch arrives, borrows the buffer — see
/// [`BinaryAddView`].
#[derive(Debug)]
pub enum ClientFrameView<'a> {
    /// A control request (every client op but `Add`), decoded from its
    /// binary frame into an owned [`Request`]. Nothing here is JSON: the
    /// arm keeps its old name because perfbench matches it by name.
    Json(Request),
    /// A binary Add, viewed in place over the read buffer.
    BinaryAdd(BinaryAddView<'a>),
}

/// Reads one client frame into `buf` (cleared first, capacity reused
/// across calls) and parses it in place. Returns `None` on a clean EOF
/// at a frame boundary. This is the server's zero-copy ingest path:
/// after warm-up a binary Add performs no allocation between the socket
/// and the ledger.
pub fn read_client_frame_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<ClientFrameView<'a>>> {
    match read_frame_into(r, buf)? {
        Some(magic) => parse_client_frame(magic, buf).map(Some),
        None => Ok(None),
    }
}

/// Parses a complete client frame payload in place — the shared core of
/// [`read_client_frame_into`] and the epoll reactor's readiness-driven
/// connection state machine. The binary Add arm borrows `payload`
/// (zero-copy, see [`BinaryAddView`]); a control op decodes into an
/// owned [`Request`]. A peer op, a reply op or a retired magic is
/// refused.
pub fn parse_client_frame(magic: [u8; 4], payload: &[u8]) -> io::Result<ClientFrameView<'_>> {
    let (op, mut body) = split_op(magic, payload)?;
    let req = match op {
        OP_ADD => return parse_add_binary_view(body.0).map(ClientFrameView::BinaryAdd),
        OP_SUM => Request::Sum { stream: body.name()?.to_owned() },
        OP_CLUSTER_SUM => Request::ClusterSum { stream: body.name()?.to_owned() },
        OP_SNAPSHOT => Request::Snapshot,
        OP_RESET => Request::Reset,
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_HELLO..=OP_SNAPSHOT_PULL => {
            return Err(bad_data(format!("peer op {op:#04x} refused on the client port")))
        }
        _ => return Err(unknown_op(op)),
    };
    body.end(ClientFrameView::Json(req))
}

/// Which streams a `SnapshotPull` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotScope {
    /// Streams the callee *mirrors on behalf of* the pulling node — what
    /// a restarted node pulls to recover its own primary partial.
    MirrorOfOrigin,
    /// The callee's own *primary* streams — what a restarted node pulls
    /// to rebuild the mirror copies it is supposed to hold for peers.
    PrimaryOfPeer,
}

impl SnapshotScope {
    fn as_byte(self) -> u8 {
        match self {
            SnapshotScope::MirrorOfOrigin => 0,
            SnapshotScope::PrimaryOfPeer => 1,
        }
    }

    fn parse(b: u8) -> io::Result<Self> {
        Ok(match b {
            0 => SnapshotScope::MirrorOfOrigin,
            1 => SnapshotScope::PrimaryOfPeer,
            other => return Err(bad_data(format!("unknown snapshot scope {other}"))),
        })
    }
}

/// A peer request parsed *in place* over the read buffer, mirroring
/// [`ClientFrameView`]: the `MirrorAdd` arm wraps the same zero-copy
/// [`BinaryAddView`] the client ingest path uses, so a mirrored batch
/// flows read-buffer → ledger on the mirror node exactly as it did on
/// the ingest node.
#[derive(Debug)]
pub enum PeerRequestView<'a> {
    /// Handshake: first frame on every peer connection. The callee
    /// refuses the connection unless `fingerprint` matches its own
    /// cluster config fingerprint (static membership: both sides must
    /// agree on the node set and replication factor).
    Hello {
        /// The dialing node's cluster id.
        node_id: u32,
        /// FNV-1a 64 fingerprint of the shared cluster config.
        fingerprint: u64,
    },
    /// Replicate one tracked batch: apply into the callee's mirror store
    /// for `origin`, deduplicated by the batch's `(client_id, seq)`.
    MirrorAdd {
        /// Node id that ingested the batch from the client.
        origin: u32,
        /// The batch itself, viewed in place over the read buffer.
        add: BinaryAddView<'a>,
    },
    /// Compute this node's binomial-subtree partial for a cluster sum;
    /// see the cluster crate's tree schedule for the `root`/`limit`
    /// contract.
    TreeSum {
        /// Node id coordinating the reduce (virtual rank 0).
        root: u32,
        /// Exclusive upper bound on this subtree's child masks — the
        /// mask at which this node was recruited.
        limit: u32,
        /// Stream being summed, borrowed from the payload.
        stream: &'a str,
    },
    /// Ask the callee for a sealed snapshot of the streams in `scope`.
    SnapshotPull {
        /// Node id on whose behalf the pull is made (the rejoining
        /// node for `MirrorOfOrigin`; the puller itself for
        /// `PrimaryOfPeer`).
        origin: u32,
        /// Which streams to include.
        scope: SnapshotScope,
    },
}

/// Serializes a peer `Hello` frame into `buf` (cleared first).
pub fn peer_hello_into(buf: &mut Vec<u8>, node_id: u32, fingerprint: u64) -> io::Result<()> {
    start(buf, OP_HELLO);
    buf.extend_from_slice(&node_id.to_be_bytes());
    buf.extend_from_slice(&fingerprint.to_be_bytes());
    finish(buf)
}

/// Serializes a peer `MirrorAdd` frame into `buf` (cleared first). The
/// body after `origin` is laid out exactly like a binary Add body, so
/// `value_bytes` can come verbatim from an ingested frame's
/// [`BinaryAddView::value_bytes`].
pub fn peer_mirror_add_into(
    buf: &mut Vec<u8>,
    origin: u32,
    stream: &str,
    client_id: u64,
    seq: u64,
    value_bytes: &[u8],
) -> io::Result<()> {
    if !value_bytes.len().is_multiple_of(8) {
        return Err(bad_data("mirror add: value bytes not a multiple of 8"));
    }
    start(buf, OP_MIRROR_ADD);
    buf.extend_from_slice(&origin.to_be_bytes());
    put_add_head(buf, stream, client_id, seq)?;
    buf.extend_from_slice(value_bytes);
    finish(buf)
}

/// Serializes a peer `TreeSum` frame into `buf` (cleared first).
pub fn peer_tree_sum_into(
    buf: &mut Vec<u8>,
    root: u32,
    limit: u32,
    stream: &str,
) -> io::Result<()> {
    start(buf, OP_TREE_SUM);
    buf.extend_from_slice(&root.to_be_bytes());
    buf.extend_from_slice(&limit.to_be_bytes());
    put_name(buf, stream)?;
    finish(buf)
}

/// Serializes a peer `SnapshotPull` frame into `buf` (cleared first).
pub fn peer_snapshot_pull_into(
    buf: &mut Vec<u8>,
    origin: u32,
    scope: SnapshotScope,
) -> io::Result<()> {
    start(buf, OP_SNAPSHOT_PULL);
    buf.extend_from_slice(&origin.to_be_bytes());
    buf.push(scope.as_byte());
    finish(buf)
}

/// Serializes a peer `SnapshotData` reply into `buf` (cleared first);
/// `sealed` is a complete sealed snapshot as the snapshot module frames
/// it. Refuses, naming the sizes, a snapshot too large for one frame.
pub fn peer_snapshot_data_into(buf: &mut Vec<u8>, sealed: &[u8]) -> io::Result<()> {
    start(buf, OP_SNAPSHOT_DATA);
    buf.extend_from_slice(sealed);
    finish(buf)
}

/// Reads one peer request frame into `buf` (cleared first, capacity
/// reused) and parses it in place. Returns `None` on a clean EOF at a
/// frame boundary.
pub fn read_peer_request_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<PeerRequestView<'a>>> {
    match read_frame_into(r, buf)? {
        Some(magic) => parse_peer_request(magic, buf).map(Some),
        None => Ok(None),
    }
}

/// Parses a complete peer request payload in place. A client op, a
/// reply op or a retired magic is refused.
pub fn parse_peer_request(magic: [u8; 4], payload: &[u8]) -> io::Result<PeerRequestView<'_>> {
    let (op, mut body) = split_op(magic, payload)?;
    let view = match op {
        OP_HELLO => PeerRequestView::Hello {
            node_id: body.u32("hello node id")?,
            fingerprint: body.u64("hello fingerprint")?,
        },
        OP_MIRROR_ADD => {
            let origin = body.u32("mirror origin")?;
            return Ok(PeerRequestView::MirrorAdd { origin, add: parse_add_binary_view(body.0)? });
        }
        OP_TREE_SUM => PeerRequestView::TreeSum {
            root: body.u32("tree root")?,
            limit: body.u32("tree limit")?,
            stream: body.name()?,
        },
        OP_SNAPSHOT_PULL => PeerRequestView::SnapshotPull {
            origin: body.u32("pull origin")?,
            scope: SnapshotScope::parse(body.bytes::<1>("snapshot scope")?[0])?,
        },
        OP_ADD..=OP_SHUTDOWN => {
            return Err(bad_data(format!("client op {op:#04x} refused on the peer port")))
        }
        _ => return Err(unknown_op(op)),
    };
    body.end(view)
}

/// A reply frame, as every caller reads one: a [`Response`], or the raw
/// sealed snapshot bytes answering a peer `SnapshotPull`.
#[derive(Debug)]
pub enum ReplyView<'a> {
    /// Every reply but the snapshot transfer.
    Reply(Response),
    /// A sealed snapshot file's bytes, borrowed from the read buffer.
    /// Validation is the receiver's job: the snapshot parse refuses
    /// truncated or corrupted transfers.
    SnapshotData(&'a [u8]),
}

/// Reads one reply frame into `buf` (cleared first) and decodes it: the
/// one reply decoder of the client, the peer pool and the load
/// generator. Returns `None` on a clean EOF at a frame boundary.
pub fn read_reply_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<ReplyView<'a>>> {
    match read_frame_into(r, buf)? {
        Some(magic) => parse_reply(magic, buf).map(Some),
        None => Ok(None),
    }
}

/// [`read_reply_into`] for a caller that expects a [`Response`]: a
/// snapshot transfer is refused.
pub fn read_response<R: Read>(r: &mut R) -> io::Result<Option<Response>> {
    let mut buf = Vec::new();
    match read_reply_into(r, &mut buf)? {
        Some(ReplyView::Reply(reply)) => Ok(Some(reply)),
        Some(ReplyView::SnapshotData(_)) => Err(bad_data("unexpected snapshot data reply")),
        None => Ok(None),
    }
}

/// Decodes a complete reply payload. A request op or a retired magic is
/// refused.
pub fn parse_reply(magic: [u8; 4], payload: &[u8]) -> io::Result<ReplyView<'_>> {
    let (op, mut body) = split_op(magic, payload)?;
    let reply = match op {
        OP_SNAPSHOT_DATA => return Ok(ReplyView::SnapshotData(body.0)),
        OP_ERROR => {
            let code = match body.bytes("error code")? {
                [1] => ErrorCode::BadRequest,
                [2] => ErrorCode::UnknownStream,
                [3] => ErrorCode::Internal,
                [b] => return Err(bad_data(format!("unknown error code {b}"))),
            };
            let message = core::str::from_utf8(body.0)
                .map_err(|_| bad_data("error message is not UTF-8"))?
                .to_owned();
            return Ok(ReplyView::Reply(Response::Error { code, message }));
        }
        OP_ADDED => Response::Added { count: body.u64("count")?, deduped: body.flag("deduped")? },
        OP_SUM_REPLY => Response::Sum { limbs: body.limbs()?, poisoned: body.flag("poisoned")? },
        OP_CLUSTER_SUM_REPLY => Response::ClusterSum {
            limbs: body.limbs()?,
            poisoned: body.flag("poisoned")?,
            values: body.u64("value count")?,
            holders: body.u64("holder count")?,
        },
        OP_PEER_HELLO => Response::PeerHello { node_id: body.u64("node id")? },
        OP_SNAPSHOT_DONE => Response::Snapshot { streams: body.u64("stream count")? },
        OP_RESET_DONE => Response::ResetDone,
        OP_STATS_REPLY => {
            let count = body.u32("stream count")?;
            // Not presized: the count is untrusted until every entry reads.
            let mut streams = Vec::new();
            for _ in 0..count {
                streams.push(StreamStatsRepr {
                    name: body.name()?.to_owned(),
                    batches: body.u64("batch count")?,
                    values: body.u64("value count")?,
                    overflows: body.u64("overflow count")?,
                });
            }
            Response::Stats { streams }
        }
        OP_SHUTTING_DOWN => Response::ShuttingDown,
        _ => return Err(bad_data(format!("op {op:#04x} is not a reply"))),
    };
    body.end(ReplyView::Reply(reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every control request.
    fn every_request() -> Vec<Request> {
        vec![
            Request::Sum { stream: "s".into() },
            Request::ClusterSum { stream: "stream/α".into() },
            Request::Snapshot,
            Request::Reset,
            Request::Stats,
            Request::Shutdown,
        ]
    }

    /// One of every reply, with the edge values of each field.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Added { count: 17, deduped: false },
            Response::Added { count: u64::MAX, deduped: true },
            Response::Sum { limbs: vec![1, 2, 3, u64::MAX, 0, 9], poisoned: false },
            Response::ClusterSum {
                limbs: vec![9, 8, 7, 6, 5, u64::MAX],
                poisoned: true,
                values: 1_000_000,
                holders: 3,
            },
            Response::PeerHello { node_id: 2 },
            Response::Snapshot { streams: 2 },
            Response::ResetDone,
            Response::Stats { streams: vec![] },
            Response::Stats {
                streams: vec![
                    StreamStatsRepr { name: "s".into(), batches: 3, values: 90, overflows: 0 },
                    StreamStatsRepr { name: "α".into(), batches: 1, values: 0, overflows: 7 },
                ],
            },
            Response::ShuttingDown,
            Response::Error { code: ErrorCode::BadRequest, message: String::new() },
            Response::Error { code: ErrorCode::UnknownStream, message: "no such stream".into() },
            Response::Error { code: ErrorCode::Internal, message: "wal: ∅".into() },
        ]
    }

    fn reply_bytes(reply: &Response) -> Vec<u8> {
        let mut buf = Vec::new();
        reply_into(&mut buf, reply);
        buf
    }

    #[test]
    fn every_request_roundtrips() {
        for req in every_request() {
            let mut wire = Vec::new();
            request_into(&mut wire, &req).unwrap();
            assert_eq!(&wire[..4], &MAGIC);
            let mut buf = Vec::new();
            let Some(ClientFrameView::Json(back)) =
                read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap()
            else {
                panic!("{req:?} did not parse as a control request")
            };
            assert_eq!(back, req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for reply in every_response() {
            let wire = reply_bytes(&reply);
            assert_eq!(read_response(&mut wire.as_slice()).unwrap(), Some(reply));
        }
    }

    /// An `Added` reply is one 18-byte frame: the header, the op, the
    /// count and the dedup flag.
    #[test]
    fn added_reply_is_eighteen_bytes() {
        let wire = reply_bytes(&Response::Added { count: 5, deduped: true });
        assert_eq!(wire.len(), 18);
        assert_eq!(wire[8], OP_ADDED);
        assert_eq!(wire[9..17], 5u64.to_be_bytes());
        assert_eq!(wire[17], 1);
    }

    /// A reply no frame can carry is answered with a typed `internal`
    /// error naming its size and the cap; so is a sum of the wrong width.
    #[test]
    fn unframeable_replies_become_internal_errors() {
        let name = "n".repeat(65_000);
        let streams: Vec<StreamStatsRepr> = (0..260)
            .map(|_| StreamStatsRepr { name: name.clone(), batches: 1, values: 1, overflows: 0 })
            .collect();
        let size = 5 + 260 * (2 + 65_000 + 24);
        let wire = reply_bytes(&Response::Stats { streams });
        let Some(Response::Error { code, message }) = read_response(&mut wire.as_slice()).unwrap()
        else {
            panic!("an oversized reply was framed")
        };
        assert_eq!(code, ErrorCode::Internal);
        assert!(message.contains(&format!("{size}-byte")), "{message}");
        assert!(message.contains(&format!("{MAX_FRAME}-byte")), "{message}");

        let wire = reply_bytes(&Response::Sum { limbs: vec![1; 5], poisoned: false });
        let Some(Response::Error { code, message }) = read_response(&mut wire.as_slice()).unwrap()
        else {
            panic!("a 5-limb sum was framed")
        };
        assert_eq!(code, ErrorCode::Internal);
        assert!(message.contains("5 limbs"), "{message}");
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_response(&mut { empty }).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let partial: &[u8] = &MAGIC[..3];
        assert!(read_response(&mut { partial }).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_response(&mut buf.as_slice()).is_err());
    }

    /// A frame under a retired version is refused by its magic, naming
    /// the version, whatever its payload: the bytes of a valid request
    /// do not help.
    #[test]
    fn retired_magics_are_refused_naming_the_version() {
        let mut valid = Vec::new();
        request_into(&mut valid, &Request::Stats).unwrap();
        for v in 1..=3u8 {
            let mut wire = valid.clone();
            wire[3] = v;
            let mut buf = Vec::new();
            let errs = [
                read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap_err(),
                read_peer_request_into(&mut wire.as_slice(), &mut buf).unwrap_err(),
                read_reply_into(&mut wire.as_slice(), &mut buf).unwrap_err(),
            ];
            for err in errs {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(&format!("retired protocol version {v}")), "{err}");
            }
        }
    }

    /// A body with a byte missing or a byte left over is refused, and so
    /// is a flag byte other than 0 or 1: a body parses exactly or not
    /// at all.
    #[test]
    fn bodies_parse_exactly() {
        let mut buf = Vec::new();
        let mut frames: Vec<Vec<u8>> =
            every_request().iter().map(|r| {
                let mut f = Vec::new();
                request_into(&mut f, r).unwrap();
                f
            }).collect();
        frames.extend(every_response().iter().map(reply_bytes));
        for frame in frames {
            let mut longer = frame.clone();
            longer.push(0);
            let len = u32::from_be_bytes(longer[4..8].try_into().unwrap()) + 1;
            longer[4..8].copy_from_slice(&len.to_be_bytes());
            let is_request = frame[8] < 0x80;
            let parses = |wire: &[u8], buf: &mut Vec<u8>| {
                if is_request {
                    read_client_frame_into(&mut { wire }, buf).is_ok()
                } else {
                    read_reply_into(&mut { wire }, buf).is_ok()
                }
            };
            // An Error reply's message is the rest of its body.
            let open_ended = frame[8] == OP_ERROR;
            assert_eq!(parses(&longer, &mut buf), open_ended, "trailing byte after {frame:02x?}");
            if frame.len() > 9 && !open_ended {
                let mut shorter = frame[..frame.len() - 1].to_vec();
                shorter[4..8].copy_from_slice(&(frame.len() as u32 - 9).to_be_bytes());
                assert!(!parses(&shorter, &mut buf), "short body {shorter:02x?}");
            }
        }
        let mut wire = reply_bytes(&Response::Added { count: 1, deduped: true });
        wire[17] = 2;
        assert!(read_response(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn binary_add_roundtrips_bit_exactly() {
        let values = vec![
            f64::MIN_POSITIVE,
            2f64.powi(-1074),
            1e308,
            -0.0,
            0.0,
            0.1 + 0.2,
            -1.5e-300,
        ];
        let wire = add_binary_bytes("stream/α", 0xDEAD_BEEF_0BAD_F00D, 41, &values).unwrap();
        let mut buf = Vec::new();
        let Some(ClientFrameView::BinaryAdd(view)) = read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap()
        else {
            panic!("wrong frame kind")
        };
        assert_eq!(view.stream, "stream/α");
        assert_eq!(view.client_id, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(view.seq, 41);
        assert_eq!(view.len(), values.len());
        assert_eq!(view.value_bytes(), &le_bytes(&values)[..]);
    }

    #[test]
    fn binary_add_empty_batch_roundtrips() {
        let wire = add_binary_bytes("s", UNTRACKED_CLIENT, 0, &[]).unwrap();
        let mut buf = Vec::new();
        let Some(ClientFrameView::BinaryAdd(view)) = read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap()
        else {
            panic!("wrong frame kind")
        };
        assert_eq!((view.stream, view.client_id, view.seq), ("s", UNTRACKED_CLIENT, 0));
        assert!(view.is_empty());
    }

    #[test]
    fn client_frame_reader_takes_adds_and_control_requests_interleaved() {
        let mut wire = Vec::new();
        request_into(&mut wire, &Request::Sum { stream: "s".into() }).unwrap();
        wire.extend_from_slice(&add_binary_bytes("s", 7, 1, &[4.25]).unwrap());
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        let Some(ClientFrameView::Json(req)) = read_client_frame_into(&mut r, &mut buf).unwrap() else {
            panic!("expected a control request")
        };
        assert_eq!(req, Request::Sum { stream: "s".into() });
        let Some(ClientFrameView::BinaryAdd(view)) = read_client_frame_into(&mut r, &mut buf).unwrap() else {
            panic!("expected a binary Add")
        };
        assert_eq!((view.stream, view.client_id, view.seq), ("s", 7, 1));
        assert_eq!(view.value_bytes(), &4.25f64.to_le_bytes()[..]);
        assert!(read_client_frame_into(&mut r, &mut buf).unwrap().is_none());
    }

    #[test]
    fn add_binary_into_bounds_name_and_payload() {
        let mut frame = Vec::new();
        // 19 fixed bytes + a 1-byte name leave room for this many values.
        let most = (MAX_FRAME as usize - 20) / 8;
        add_binary_into(&mut frame, "s", 7, 1, &vec![0.5; most]).unwrap();
        assert_eq!(frame[4..8], (20 + 8 * most as u32).to_be_bytes());
        let mut buf = Vec::new();
        let Some(ClientFrameView::BinaryAdd(view)) = read_client_frame_into(&mut frame.as_slice(), &mut buf).unwrap()
        else {
            panic!("the largest frame failed to parse")
        };
        assert_eq!(view.len(), most);
        assert!(add_binary_into(&mut frame, "s", 7, 1, &vec![0.5; most + 1]).is_err());
        assert!(add_binary_into(&mut frame, &"n".repeat(65_535), 7, 1, &[]).is_ok());
        assert!(add_binary_into(&mut frame, &"n".repeat(65_536), 7, 1, &[]).is_err());
    }

    #[test]
    fn malformed_binary_add_is_rejected() {
        let mut scratch = Vec::new();
        let mut rejects = |body: &[u8]| {
            let mut wire = MAGIC.to_vec();
            wire.extend_from_slice(&(body.len() as u32 + 1).to_be_bytes());
            wire.push(OP_ADD);
            wire.extend_from_slice(body);
            read_client_frame_into(&mut wire.as_slice(), &mut scratch).is_err()
        };
        // Truncated name: claims 9 bytes, has 3.
        assert!(rejects(&[0, 9, b'a', b'b', b'c']));
        // Truncated retry identity (fewer than 16 bytes after the name).
        assert!(rejects(&[0, 1, b's', 1, 2, 3]));
        // Value bytes not a multiple of 8.
        let mut body = vec![0, 1, b's'];
        body.extend_from_slice(&[0u8; 16]);
        body.extend_from_slice(&[1, 2, 3]);
        assert!(rejects(&body));
        // Non-UTF-8 stream name.
        assert!(rejects(&[0, 2, 0xFF, 0xFE]));
    }

    #[test]
    fn peer_request_frames_roundtrip() {
        let mut wire = Vec::new();
        let mut frame = Vec::new();
        peer_hello_into(&mut frame, 2, 0xFEED_FACE_CAFE_F00D).unwrap();
        wire.extend_from_slice(&frame);
        let value_bytes = le_bytes(&[0.1, -2.5e-30, 1e15, -0.0]);
        peer_mirror_add_into(&mut frame, 1, "stream/α", 77, 41, &value_bytes).unwrap();
        wire.extend_from_slice(&frame);
        peer_tree_sum_into(&mut frame, 2, 4, "s").unwrap();
        wire.extend_from_slice(&frame);
        peer_snapshot_pull_into(&mut frame, 0, SnapshotScope::MirrorOfOrigin).unwrap();
        wire.extend_from_slice(&frame);
        peer_snapshot_pull_into(&mut frame, 3, SnapshotScope::PrimaryOfPeer).unwrap();
        wire.extend_from_slice(&frame);

        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        let Some(PeerRequestView::Hello { node_id, fingerprint }) =
            read_peer_request_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected hello")
        };
        assert_eq!((node_id, fingerprint), (2, 0xFEED_FACE_CAFE_F00D));
        let Some(PeerRequestView::MirrorAdd { origin, add }) =
            read_peer_request_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected mirror add")
        };
        assert_eq!(origin, 1);
        assert_eq!(add.stream, "stream/α");
        assert_eq!((add.client_id, add.seq), (77, 41));
        assert_eq!(add.value_bytes(), &value_bytes[..]);
        let Some(PeerRequestView::TreeSum { root, limit, stream }) =
            read_peer_request_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected tree sum")
        };
        assert_eq!((root, limit, stream), (2, 4, "s"));
        let Some(PeerRequestView::SnapshotPull { origin, scope }) =
            read_peer_request_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected snapshot pull")
        };
        assert_eq!((origin, scope), (0, SnapshotScope::MirrorOfOrigin));
        let Some(PeerRequestView::SnapshotPull { origin, scope }) =
            read_peer_request_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected snapshot pull")
        };
        assert_eq!((origin, scope), (3, SnapshotScope::PrimaryOfPeer));
        assert!(read_peer_request_into(&mut r, &mut buf).unwrap().is_none());
    }

    #[test]
    fn reply_reader_takes_responses_and_snapshot_data() {
        let mut wire = reply_bytes(&Response::ClusterSum {
            limbs: vec![1; 6],
            poisoned: false,
            values: 5,
            holders: 2,
        });
        let mut frame = Vec::new();
        peer_snapshot_data_into(&mut frame, b"OISSNPv1\xFF not UTF-8").unwrap();
        wire.extend_from_slice(&frame);

        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        let Some(ReplyView::Reply(Response::ClusterSum { values, holders, .. })) =
            read_reply_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected a cluster_sum reply")
        };
        assert_eq!((values, holders), (5, 2));
        let Some(ReplyView::SnapshotData(sealed)) = read_reply_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected snapshot data")
        };
        assert_eq!(sealed, b"OISSNPv1\xFF not UTF-8");
        assert!(read_reply_into(&mut r, &mut buf).unwrap().is_none());
        // A snapshot transfer is no Response.
        assert!(read_response(&mut frame.as_slice()).is_err());
    }

    /// Each port refuses the other's ops by the op byte, and the reply
    /// decoder refuses every request op.
    #[test]
    fn ports_refuse_each_others_ops() {
        let mut buf = Vec::new();
        let mut client_ops = vec![add_binary_bytes("s", 7, 1, &[1.0]).unwrap()];
        for req in every_request() {
            let mut frame = Vec::new();
            request_into(&mut frame, &req).unwrap();
            client_ops.push(frame);
        }
        let mut peer_ops = Vec::new();
        let mut frame = Vec::new();
        peer_hello_into(&mut frame, 0, 1).unwrap();
        peer_ops.push(frame.clone());
        peer_mirror_add_into(&mut frame, 0, "s", 7, 1, &[0; 8]).unwrap();
        peer_ops.push(frame.clone());
        peer_tree_sum_into(&mut frame, 0, 1, "s").unwrap();
        peer_ops.push(frame.clone());
        peer_snapshot_pull_into(&mut frame, 0, SnapshotScope::PrimaryOfPeer).unwrap();
        peer_ops.push(frame);
        for wire in &client_ops {
            let err = read_peer_request_into(&mut wire.as_slice(), &mut buf).unwrap_err();
            assert!(err.to_string().contains("refused on the peer port"), "{err}");
        }
        for wire in &peer_ops {
            let err = read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap_err();
            assert!(err.to_string().contains("refused on the client port"), "{err}");
        }
        for wire in client_ops.iter().chain(&peer_ops) {
            let err = read_reply_into(&mut wire.as_slice(), &mut buf).unwrap_err();
            assert!(err.to_string().contains("is not a reply"), "{err}");
        }
        for reply in every_response() {
            let wire = reply_bytes(&reply);
            assert!(read_client_frame_into(&mut wire.as_slice(), &mut buf).is_err());
            assert!(read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err());
        }
    }

    #[test]
    fn malformed_peer_frames_are_rejected() {
        let mut buf = Vec::new();
        let mut rejects = |payload: &[u8]| {
            let mut wire = MAGIC.to_vec();
            wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            wire.extend_from_slice(payload);
            read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err()
        };
        // Unknown op, empty payload, truncated hello, bad scope.
        assert!(rejects(&[0x7F]));
        assert!(rejects(&[]));
        assert!(rejects(&[OP_HELLO, 0, 0, 0, 2]));
        assert!(rejects(&[OP_SNAPSHOT_PULL, 0, 0, 0, 1, 2]));
    }
}
