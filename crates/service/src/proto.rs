//! Wire protocol: length-prefixed frames with a versioned header.
//!
//! Every frame is `b"OIS" <version byte> <u32 big-endian payload length>
//! <payload>`. A batch of summands travels one way only: the version
//! `0x02` **binary Add** frame — a length-prefixed stream name, the
//! retry identity, then raw little-endian `f64` summands, no JSON
//! anywhere (see [`add_binary_bytes`]). Version `0x01` payloads are
//! JSON-encoded [`Request`]s — every control op (sum, cluster sum,
//! snapshot, reset, stats, shutdown), never an Add — and every
//! [`Response`], the binary Add's `Added` ACK included (replies are tiny;
//! the serialization cost worth eliminating is the request's values, not
//! the acknowledgement). The magic-plus-version prefix lets either side
//! reject a non-protocol peer (or an incompatible revision) before
//! parsing anything, and the explicit length keeps framing independent
//! of the payload encoding. Both versions are accepted on the same port.
//!
//! HP sums cross the wire as their raw limb sequences (most significant
//! first) — exactly the `oisum-core` serde representation — so clients
//! can compare results *bitwise* instead of through a lossy `f64`.

use serde::de::{Error as DeError, MapAccess, Visitor};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io::{self, Read, Write};

/// JSON frame magic (control requests and every reply); the final byte
/// is the protocol version.
pub const MAGIC: [u8; 4] = *b"OIS\x01";

/// Binary Add frame magic (protocol version 2). Payload:
/// `u16 BE name length, name bytes (UTF-8), u64 BE client id, u64 BE
/// sequence number, raw little-endian f64 × n`. A client id of
/// [`UNTRACKED_CLIENT`] opts out of deduplication.
pub const MAGIC_ADD_BIN: [u8; 4] = *b"OIS\x02";

/// Inter-node peer frame magic (protocol version 3). Payload is one
/// opcode byte followed by an op-specific binary body; see
/// [`PeerRequestView`] for the request ops and [`PeerReplyView`] for the
/// one binary reply (`SnapshotData`). Peer frames only travel between
/// cluster nodes on the dedicated peer port — the client-facing port
/// rejects them by magic. Replies to peer requests reuse the ordinary
/// JSON [`Response`] frames (preformatted through [`frame_into`]),
/// except the snapshot transfer, whose sealed snapshot crosses as raw
/// bytes.
pub const MAGIC_PEER: [u8; 4] = *b"OIS\x03";

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

/// Machine-readable error categories carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not a valid request.
    BadRequest,
    /// The named stream has never been written.
    UnknownStream,
    /// The server failed to act on a valid request (e.g. snapshot I/O).
    Internal,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownStream => "unknown_stream",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_stream" => ErrorCode::UnknownStream,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Sentinel `client_id` meaning "untracked": the deposit bypasses the
/// ledger's dedup window and is applied unconditionally.
pub const UNTRACKED_CLIENT: u64 = 0;

/// A client-to-server control command, JSON-framed. Summands never
/// travel as JSON: a batch is deposited with a binary Add frame
/// ([`add_binary_into`]).
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

impl Request {
    /// Every op a JSON request may name, as [`Request::op`] spells it.
    const OPS: [&'static str; 6] = ["sum", "cluster_sum", "snapshot", "reset", "stats", "shutdown"];

    fn op(&self) -> &'static str {
        match self {
            Request::Sum { .. } => "sum",
            Request::ClusterSum { .. } => "cluster_sum",
            Request::Snapshot => "snapshot",
            Request::Reset => "reset",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Serialize for Request {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Request", 2)?;
        s.serialize_field("op", &self.op())?;
        match self {
            Request::Sum { stream } | Request::ClusterSum { stream } => {
                s.serialize_field("stream", stream)?
            }
            Request::Snapshot | Request::Reset | Request::Stats | Request::Shutdown => {}
        }
        s.end()
    }
}

struct RequestVisitor;

impl<'de> Visitor<'de> for RequestVisitor {
    type Value = Request;

    fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("a request object with an `op` field")
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Request, A::Error> {
        let unknown_op = |op: &str| A::Error::custom(format!("unknown op `{op}`"));
        let (mut op, mut stream) = (None::<String>, None::<String>);
        while let Some(key) = map.next_key::<String>()? {
            match key.as_str() {
                // An unknown op is refused before any field it brought
                // along: a JSON `add` is named as the op, not as a stray
                // `values` field.
                "op" => {
                    let name: String = map.next_value()?;
                    if !Request::OPS.contains(&name.as_str()) {
                        return Err(unknown_op(&name));
                    }
                    op = Some(name);
                }
                "stream" => stream = Some(map.next_value()?),
                other => return Err(A::Error::custom(format!("unknown field `{other}`"))),
            }
        }
        let op = op.ok_or_else(|| A::Error::custom("missing field `op`"))?;
        let need_stream = |stream: Option<String>| {
            stream.ok_or_else(|| A::Error::custom(format!("`{op}` requires `stream`")))
        };
        Ok(match op.as_str() {
            "sum" => Request::Sum { stream: need_stream(stream)? },
            "cluster_sum" => Request::ClusterSum { stream: need_stream(stream)? },
            "snapshot" => Request::Snapshot,
            "reset" => Request::Reset,
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => return Err(unknown_op(other)),
        })
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct("Request", &["op", "stream"], RequestVisitor)
    }
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

impl Serialize for StreamStatsRepr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StreamStats", 4)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("batches", &self.batches)?;
        s.serialize_field("values", &self.values)?;
        s.serialize_field("overflows", &self.overflows)?;
        s.end()
    }
}

struct StreamStatsVisitor;

impl<'de> Visitor<'de> for StreamStatsVisitor {
    type Value = StreamStatsRepr;

    fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("a per-stream stats object")
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let (mut name, mut batches, mut values, mut overflows) = (None, None, None, None);
        while let Some(key) = map.next_key::<String>()? {
            match key.as_str() {
                "name" => name = Some(map.next_value()?),
                "batches" => batches = Some(map.next_value()?),
                "values" => values = Some(map.next_value()?),
                "overflows" => overflows = Some(map.next_value()?),
                other => return Err(A::Error::custom(format!("unknown field `{other}`"))),
            }
        }
        Ok(StreamStatsRepr {
            name: name.ok_or_else(|| A::Error::custom("missing `name`"))?,
            batches: batches.ok_or_else(|| A::Error::custom("missing `batches`"))?,
            values: values.ok_or_else(|| A::Error::custom("missing `values`"))?,
            overflows: overflows.ok_or_else(|| A::Error::custom("missing `overflows`"))?,
        })
    }
}

impl<'de> Deserialize<'de> for StreamStatsRepr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct(
            "StreamStats",
            &["name", "batches", "values", "overflows"],
            StreamStatsVisitor,
        )
    }
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
        /// Always 1: a stream is one sum, not a bank of shards. The
        /// field stays on the wire for clients that read it.
        shard_count: u64,
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

impl Response {
    fn kind(&self) -> &'static str {
        match self {
            Response::Added { .. } => "added",
            Response::Sum { .. } => "sum",
            Response::ClusterSum { .. } => "cluster_sum",
            Response::PeerHello { .. } => "peer_hello",
            Response::Snapshot { .. } => "snapshot",
            Response::ResetDone => "reset",
            Response::Stats { .. } => "stats",
            Response::ShuttingDown => "shutting_down",
            Response::Error { .. } => "error",
        }
    }
}

impl Serialize for Response {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Response", 3)?;
        s.serialize_field("kind", &self.kind())?;
        match self {
            Response::Added { count, deduped } => {
                s.serialize_field("count", count)?;
                s.serialize_field("deduped", deduped)?;
            }
            Response::Sum { limbs, poisoned } => {
                s.serialize_field("limbs", limbs)?;
                s.serialize_field("poisoned", poisoned)?;
            }
            Response::ClusterSum { limbs, poisoned, values, holders } => {
                s.serialize_field("limbs", limbs)?;
                s.serialize_field("poisoned", poisoned)?;
                s.serialize_field("values", values)?;
                s.serialize_field("holders", holders)?;
            }
            Response::PeerHello { node_id } => s.serialize_field("node_id", node_id)?,
            Response::Snapshot { streams } => s.serialize_field("streams", streams)?,
            Response::ResetDone | Response::ShuttingDown => {}
            Response::Stats { shard_count, streams } => {
                s.serialize_field("shard_count", shard_count)?;
                s.serialize_field("stream_stats", streams)?;
            }
            Response::Error { code, message } => {
                s.serialize_field("code", &code.as_str())?;
                s.serialize_field("message", message)?;
            }
        }
        s.end()
    }
}

struct ResponseVisitor;

impl<'de> Visitor<'de> for ResponseVisitor {
    type Value = Response;

    fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("a response object with a `kind` field")
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Response, A::Error> {
        let mut kind = None::<String>;
        let mut count = None::<u64>;
        let mut deduped = None::<bool>;
        let mut limbs = None::<Vec<u64>>;
        let mut poisoned = None::<bool>;
        let mut values = None::<u64>;
        let mut holders = None::<u64>;
        let mut node_id = None::<u64>;
        let mut streams = None::<u64>;
        let mut shard_count = None::<u64>;
        let mut stream_stats = None::<Vec<StreamStatsRepr>>;
        let mut code = None::<String>;
        let mut message = None::<String>;
        while let Some(key) = map.next_key::<String>()? {
            match key.as_str() {
                "kind" => kind = Some(map.next_value()?),
                "count" => count = Some(map.next_value()?),
                "deduped" => deduped = Some(map.next_value()?),
                "limbs" => limbs = Some(map.next_value()?),
                "poisoned" => poisoned = Some(map.next_value()?),
                "values" => values = Some(map.next_value()?),
                "holders" => holders = Some(map.next_value()?),
                "node_id" => node_id = Some(map.next_value()?),
                "streams" => streams = Some(map.next_value()?),
                "shard_count" => shard_count = Some(map.next_value()?),
                "stream_stats" => stream_stats = Some(map.next_value()?),
                "code" => code = Some(map.next_value()?),
                "message" => message = Some(map.next_value()?),
                other => return Err(A::Error::custom(format!("unknown field `{other}`"))),
            }
        }
        let kind = kind.ok_or_else(|| A::Error::custom("missing field `kind`"))?;
        let missing = |f: &str| A::Error::custom(format!("`{kind}` reply missing `{f}`"));
        Ok(match kind.as_str() {
            "added" => Response::Added {
                count: count.ok_or_else(|| missing("count"))?,
                // Absent in pre-dedup frames: nothing was deduplicated.
                deduped: deduped.unwrap_or(false),
            },
            "sum" => Response::Sum {
                limbs: limbs.ok_or_else(|| missing("limbs"))?,
                poisoned: poisoned.ok_or_else(|| missing("poisoned"))?,
            },
            "cluster_sum" => Response::ClusterSum {
                limbs: limbs.ok_or_else(|| missing("limbs"))?,
                poisoned: poisoned.ok_or_else(|| missing("poisoned"))?,
                values: values.ok_or_else(|| missing("values"))?,
                holders: holders.ok_or_else(|| missing("holders"))?,
            },
            "peer_hello" => Response::PeerHello {
                node_id: node_id.ok_or_else(|| missing("node_id"))?,
            },
            "snapshot" => Response::Snapshot {
                streams: streams.ok_or_else(|| missing("streams"))?,
            },
            "reset" => Response::ResetDone,
            "stats" => Response::Stats {
                shard_count: shard_count.ok_or_else(|| missing("shard_count"))?,
                streams: stream_stats.ok_or_else(|| missing("stream_stats"))?,
            },
            "shutting_down" => Response::ShuttingDown,
            "error" => {
                let code = code.ok_or_else(|| missing("code"))?;
                Response::Error {
                    code: ErrorCode::parse(&code)
                        .ok_or_else(|| A::Error::custom(format!("unknown code `{code}`")))?,
                    message: message.ok_or_else(|| missing("message"))?,
                }
            }
            other => return Err(A::Error::custom(format!("unknown kind `{other}`"))),
        })
    }
}

impl<'de> Deserialize<'de> for Response {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct(
            "Response",
            &[
                "kind",
                "count",
                "deduped",
                "limbs",
                "poisoned",
                "values",
                "holders",
                "node_id",
                "streams",
                "shard_count",
                "stream_stats",
                "code",
                "message",
            ],
            ResponseVisitor,
        )
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes one JSON frame — header, length, payload — into a byte
/// buffer. The byte form exists so retry loops can resend a frame
/// verbatim and so fault injection can cut one mid-frame.
pub fn frame_bytes<T: Serialize>(msg: &T) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_vec(msg).map_err(|e| bad_data(e.to_string()))?;
    let len = u32::try_from(payload.len()).map_err(|_| bad_data("frame too large"))?;
    if len > MAX_FRAME {
        return Err(bad_data("frame too large"));
    }
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&payload);
    Ok(buf)
}

/// Serializes one JSON frame into `buf` (cleared first), reusing
/// `scratch` for the JSON text. Neither buffer allocates once warm, so a
/// connection loop can format every reply into the same two buffers and
/// land it on the socket with a single `write_all` — no per-reply `Vec`,
/// no `BufWriter` copy.
pub fn frame_into<T: Serialize>(
    msg: &T,
    scratch: &mut String,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    serde_json::to_string_into(msg, scratch).map_err(|e| bad_data(e.to_string()))?;
    let len = u32::try_from(scratch.len()).map_err(|_| bad_data("frame too large"))?;
    if len > MAX_FRAME {
        return Err(bad_data("frame too large"));
    }
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(scratch.as_bytes());
    Ok(())
}

/// Writes one frame: header, length, JSON payload.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    w.write_all(&frame_bytes(msg)?)?;
    w.flush()
}

/// Splits a complete 8-byte frame header into its magic and payload
/// length, enforcing the [`MAX_FRAME`] cap. This is the one place the
/// header layout is decoded: the blocking reader below and the epoll
/// reactor's incremental header state both call it, so a readiness-driven
/// connection cannot drift from the synchronous framing by even a byte.
pub fn parse_frame_header(header: &[u8; 8]) -> io::Result<([u8; 4], u32)> {
    let magic = [header[0], header[1], header[2], header[3]];
    // lint:allow(service-unwrap) -- infallible: header[4..8] is exactly 4 bytes
    let len = u32::from_be_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} exceeds cap {MAX_FRAME}")));
    }
    Ok((magic, len))
}

/// Reads one 8-byte frame header, returning the magic and payload
/// length, or `None` on a clean EOF at a frame boundary.
fn read_header<R: Read>(r: &mut R) -> io::Result<Option<([u8; 4], u32)>> {
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
    parse_frame_header(&header).map(Some)
}

fn read_payload<R: Read>(r: &mut R, len: u32) -> io::Result<Vec<u8>> {
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Reads one JSON frame, returning `None` on a clean EOF at a frame
/// boundary.
pub fn read_frame<R: Read, T: for<'de> Deserialize<'de>>(r: &mut R) -> io::Result<Option<T>> {
    let Some((magic, len)) = read_header(r)? else {
        return Ok(None);
    };
    if magic != MAGIC {
        return Err(bad_data(format!(
            "bad frame magic {:02x?} (speaking a different protocol or version?)",
            magic
        )));
    }
    let payload = read_payload(r, len)?;
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| bad_data(format!("bad frame payload: {e}")))
}

/// Serializes one binary Add frame (`OIS\x02`) into a byte buffer:
/// length-prefixed stream name, the `(client_id, seq)` retry identity,
/// then the summands as raw little-endian `f64` bytes — every bit
/// pattern (signed zeros, subnormals) crosses unchanged, at 8 bytes per
/// value and zero number-formatting cost.
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
/// payload (`18 + name + 8·n` bytes) over [`MAX_FRAME`]. A WAL record
/// has the same payload bound, so every Add a server parses fits one.
pub fn add_binary_into(
    buf: &mut Vec<u8>,
    stream: &str,
    client_id: u64,
    seq: u64,
    values: &[f64],
) -> io::Result<()> {
    let name_len = u16::try_from(stream.len()).map_err(|_| bad_data("stream name too long"))?;
    let len = u32::try_from(2 + stream.len() + 16 + size_of_val(values))
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| bad_data("frame too large"))?;
    buf.clear();
    buf.reserve(8 + len as usize);
    buf.extend_from_slice(&MAGIC_ADD_BIN);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&name_len.to_be_bytes());
    buf.extend_from_slice(stream.as_bytes());
    buf.extend_from_slice(&client_id.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    Ok(())
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
/// `bytes`: the one name encoding of binary Add and peer frames, WAL
/// records and snapshot records. The error says what is missing or bad.
pub(crate) fn split_name(bytes: &[u8]) -> Result<(&str, &[u8]), &'static str> {
    let (len, rest) = bytes.split_first_chunk::<2>().ok_or("truncated name length")?;
    let (name, rest) = rest
        .split_at_checked(usize::from(u16::from_be_bytes(*len)))
        .ok_or("truncated stream name")?;
    Ok((core::str::from_utf8(name).map_err(|_| "stream name is not UTF-8")?, rest))
}

/// Parses the payload of a binary Add frame without copying: the name
/// and value bytes of the returned view borrow `payload`.
fn parse_add_binary_view(payload: &[u8]) -> io::Result<BinaryAddView<'_>> {
    let (stream, rest) = split_name(payload).map_err(|e| bad_data(format!("binary add: {e}")))?;
    let truncated = || bad_data("binary add: truncated retry identity");
    let (client_id, rest) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
    let (seq, body) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
    let (client_id, seq) = (u64::from_be_bytes(*client_id), u64::from_be_bytes(*seq));
    if body.len() % 8 != 0 {
        return Err(bad_data(format!(
            "binary add: value bytes not a multiple of 8 (got {})",
            body.len()
        )));
    }
    Ok(BinaryAddView { stream, client_id, seq, value_bytes: body })
}

// ---------------------------------------------------------------------
// Peer protocol (`OIS\x03`): the inter-node wire format.
//
// Every peer payload is one opcode byte followed by a fixed binary body
// (big-endian integers, like the binary Add identity fields). Requests
// flow node→node on the dedicated peer port; replies reuse the JSON
// `Response` frames — preformatted through `frame_into`, exactly like
// client replies — except `SnapshotPull`, whose sealed snapshot crosses
// as a raw `SnapshotData` peer frame (its record checksums and seal make
// the transfer self-validating: a connection cut mid-transfer is refused
// by the receiver's parse, never silently restored).
// ---------------------------------------------------------------------

/// Peer opcode: connection handshake (`node_id`, config fingerprint).
const PEER_OP_HELLO: u8 = 0x01;
/// Peer opcode: replicate one tracked batch to a mirror node.
const PEER_OP_MIRROR_ADD: u8 = 0x02;
/// Peer opcode: compute a binomial subtree partial of a cluster sum.
const PEER_OP_TREE_SUM: u8 = 0x03;
/// Peer opcode: pull a sealed snapshot of a peer's relevant streams.
const PEER_OP_SNAPSHOT_PULL: u8 = 0x04;
/// Peer opcode (reply): the sealed snapshot bytes for a `SnapshotPull`.
const PEER_OP_SNAPSHOT_DATA: u8 = 0x84;

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
            other => return Err(bad_data(format!("peer frame: unknown snapshot scope {other}"))),
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

/// A reply to a peer request: either an ordinary JSON [`Response`]
/// (`OIS\x01` — hello acks, mirror ACKs, subtree partials, typed errors)
/// or the raw sealed snapshot bytes answering a `SnapshotPull`.
#[derive(Debug)]
pub enum PeerReplyView<'a> {
    /// A JSON response frame.
    Json(Response),
    /// A sealed snapshot file's bytes, borrowed from the read buffer.
    /// Validation is the receiver's job: the snapshot parse refuses
    /// truncated or corrupted transfers.
    SnapshotData(&'a [u8]),
}

/// Starts a peer frame in `buf` (cleared first): magic, a length
/// placeholder, and the opcode. [`peer_frame_finish`] patches the length.
fn peer_frame_start(buf: &mut Vec<u8>, op: u8) {
    buf.clear();
    buf.extend_from_slice(&MAGIC_PEER);
    buf.extend_from_slice(&[0u8; 4]);
    buf.push(op);
}

/// Patches the payload length of a frame started by
/// [`peer_frame_start`].
fn peer_frame_finish(buf: &mut [u8]) -> io::Result<()> {
    let payload_len = buf.len() - 8;
    let len = u32::try_from(payload_len).map_err(|_| bad_data("frame too large"))?;
    if len > MAX_FRAME {
        return Err(bad_data("frame too large"));
    }
    buf[4..8].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Serializes a peer `Hello` frame into `buf` (cleared first).
pub fn peer_hello_into(buf: &mut Vec<u8>, node_id: u32, fingerprint: u64) -> io::Result<()> {
    peer_frame_start(buf, PEER_OP_HELLO);
    buf.extend_from_slice(&node_id.to_be_bytes());
    buf.extend_from_slice(&fingerprint.to_be_bytes());
    peer_frame_finish(buf)
}

/// Serializes a peer `MirrorAdd` frame into `buf` (cleared first). The
/// body after `origin` is laid out exactly like a binary Add payload, so
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
    let name = stream.as_bytes();
    let name_len = u16::try_from(name.len()).map_err(|_| bad_data("stream name too long"))?;
    peer_frame_start(buf, PEER_OP_MIRROR_ADD);
    buf.extend_from_slice(&origin.to_be_bytes());
    buf.extend_from_slice(&name_len.to_be_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&client_id.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(value_bytes);
    peer_frame_finish(buf)
}

/// Serializes a peer `TreeSum` frame into `buf` (cleared first).
pub fn peer_tree_sum_into(
    buf: &mut Vec<u8>,
    root: u32,
    limit: u32,
    stream: &str,
) -> io::Result<()> {
    let name = stream.as_bytes();
    let name_len = u16::try_from(name.len()).map_err(|_| bad_data("stream name too long"))?;
    peer_frame_start(buf, PEER_OP_TREE_SUM);
    buf.extend_from_slice(&root.to_be_bytes());
    buf.extend_from_slice(&limit.to_be_bytes());
    buf.extend_from_slice(&name_len.to_be_bytes());
    buf.extend_from_slice(name);
    peer_frame_finish(buf)
}

/// Serializes a peer `SnapshotPull` frame into `buf` (cleared first).
pub fn peer_snapshot_pull_into(
    buf: &mut Vec<u8>,
    origin: u32,
    scope: SnapshotScope,
) -> io::Result<()> {
    peer_frame_start(buf, PEER_OP_SNAPSHOT_PULL);
    buf.extend_from_slice(&origin.to_be_bytes());
    buf.push(scope.as_byte());
    peer_frame_finish(buf)
}

/// Serializes a peer `SnapshotData` reply into `buf` (cleared first);
/// `sealed` is a complete sealed snapshot as the snapshot module frames
/// it.
pub fn peer_snapshot_data_into(buf: &mut Vec<u8>, sealed: &[u8]) -> io::Result<()> {
    peer_frame_start(buf, PEER_OP_SNAPSHOT_DATA);
    buf.extend_from_slice(sealed);
    peer_frame_finish(buf)
}

fn read_u32(body: &[u8], at: usize, what: &str) -> io::Result<u32> {
    let bytes: [u8; 4] = body
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| bad_data(format!("peer frame: truncated {what}")))?;
    Ok(u32::from_be_bytes(bytes))
}

fn read_u64(body: &[u8], at: usize, what: &str) -> io::Result<u64> {
    let bytes: [u8; 8] = body
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| bad_data(format!("peer frame: truncated {what}")))?;
    Ok(u64::from_be_bytes(bytes))
}

/// Reads one peer request frame into `buf` (cleared first, capacity
/// reused) and parses it in place. Returns `None` on a clean EOF at a
/// frame boundary. Rejects non-peer magics: the peer port speaks only
/// `OIS\x03`.
pub fn read_peer_request_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<PeerRequestView<'a>>> {
    let Some((magic, len)) = read_header(r)? else {
        return Ok(None);
    };
    if magic != MAGIC_PEER {
        return Err(bad_data(format!(
            "bad peer frame magic {magic:02x?} (client protocol on the peer port?)"
        )));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    let (&op, body) = buf
        .split_first()
        .ok_or_else(|| bad_data("peer frame: empty payload"))?;
    Ok(Some(match op {
        PEER_OP_HELLO => PeerRequestView::Hello {
            node_id: read_u32(body, 0, "hello node id")?,
            fingerprint: read_u64(body, 4, "hello fingerprint")?,
        },
        PEER_OP_MIRROR_ADD => {
            let origin = read_u32(body, 0, "mirror origin")?;
            let add = parse_add_binary_view(&body[4..])?;
            PeerRequestView::MirrorAdd { origin, add }
        }
        PEER_OP_TREE_SUM => {
            let root = read_u32(body, 0, "tree root")?;
            let limit = read_u32(body, 4, "tree limit")?;
            let (stream, _) = split_name(body.get(8..).unwrap_or_default())
                .map_err(|e| bad_data(format!("peer frame: {e}")))?;
            PeerRequestView::TreeSum { root, limit, stream }
        }
        PEER_OP_SNAPSHOT_PULL => {
            let origin = read_u32(body, 0, "pull origin")?;
            let scope = SnapshotScope::parse(
                *body
                    .get(4)
                    .ok_or_else(|| bad_data("peer frame: truncated snapshot scope"))?,
            )?;
            PeerRequestView::SnapshotPull { origin, scope }
        }
        other => return Err(bad_data(format!("peer frame: unknown opcode {other:#04x}"))),
    }))
}

/// Reads one peer *reply* into `buf` (cleared first): a JSON `Response`
/// frame or a `SnapshotData` peer frame. Returns `None` on a clean EOF
/// at a frame boundary.
pub fn read_peer_reply_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<PeerReplyView<'a>>> {
    let Some((magic, len)) = read_header(r)? else {
        return Ok(None);
    };
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    match magic {
        m if m == MAGIC => serde_json::from_slice(buf)
            .map(|resp| Some(PeerReplyView::Json(resp)))
            .map_err(|e| bad_data(format!("bad frame payload: {e}"))),
        m if m == MAGIC_PEER => {
            let (&op, body) = buf
                .split_first()
                .ok_or_else(|| bad_data("peer frame: empty payload"))?;
            if op != PEER_OP_SNAPSHOT_DATA {
                return Err(bad_data(format!(
                    "peer reply: unexpected opcode {op:#04x} (request op on the reply path?)"
                )));
            }
            Ok(Some(PeerReplyView::SnapshotData(body)))
        }
        m => Err(bad_data(format!(
            "bad frame magic {m:02x?} (speaking a different protocol or version?)"
        ))),
    }
}

/// A client frame parsed out of a caller-owned read buffer. The JSON
/// arm is an owned control request (small and heterogeneous); the
/// binary Add arm, the only way a batch arrives, borrows the buffer —
/// see [`BinaryAddView`].
#[derive(Debug)]
pub enum ClientFrameView<'a> {
    /// A JSON-framed control request.
    Json(Request),
    /// A binary Add, viewed in place over the read buffer.
    BinaryAdd(BinaryAddView<'a>),
}

/// Reads one client frame of either protocol version into `buf`
/// (cleared first, capacity reused across calls) and parses it in
/// place. Returns `None` on a clean EOF at a frame boundary. This is
/// the server's zero-copy ingest path: after warm-up a binary Add
/// performs no allocation between the socket and the ledger.
pub fn read_client_frame_into<'a, R: Read>(
    r: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<ClientFrameView<'a>>> {
    let Some((magic, len)) = read_header(r)? else {
        return Ok(None);
    };
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    parse_client_frame(magic, buf).map(Some)
}

/// Parses a complete client frame payload in place, dispatching on the
/// header magic — the shared core of [`read_client_frame_into`] and the
/// epoll reactor's readiness-driven connection state machine. The binary
/// Add arm borrows `payload` (zero-copy, see [`BinaryAddView`]); the
/// JSON arm deserializes into an owned [`Request`].
pub fn parse_client_frame(magic: [u8; 4], payload: &[u8]) -> io::Result<ClientFrameView<'_>> {
    match magic {
        m if m == MAGIC => serde_json::from_slice(payload)
            .map(ClientFrameView::Json)
            .map_err(|e| bad_data(format!("bad frame payload: {e}"))),
        m if m == MAGIC_ADD_BIN => Ok(ClientFrameView::BinaryAdd(parse_add_binary_view(payload)?)),
        m => Err(bad_data(format!(
            "bad frame magic {m:02x?} (speaking a different protocol or version?)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_frames_roundtrip() {
        roundtrip_request(Request::Sum { stream: "s".into() });
        roundtrip_request(Request::ClusterSum { stream: "s".into() });
        roundtrip_request(Request::Snapshot);
        roundtrip_request(Request::Reset);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn response_frames_roundtrip() {
        for resp in [
            Response::Added { count: 17, deduped: false },
            Response::Added { count: 9, deduped: true },
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
            Response::Stats {
                shard_count: 8,
                streams: vec![StreamStatsRepr {
                    name: "s".into(),
                    batches: 3,
                    values: 90,
                    overflows: 0,
                }],
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::UnknownStream,
                message: "no such stream".into(),
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &resp).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame::<_, Request>(&mut { empty }).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let partial: &[u8] = &MAGIC[..3];
        assert!(read_frame::<_, Request>(&mut { partial }).is_err());
    }

    #[test]
    fn wrong_magic_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Reset).unwrap();
        buf[3] = 0x02; // future version byte
        assert!(read_frame::<_, Request>(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame::<_, Request>(&mut buf.as_slice()).is_err());
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
    fn client_frame_reader_accepts_both_versions() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Sum { stream: "s".into() }).unwrap();
        wire.extend_from_slice(&add_binary_bytes("s", 7, 1, &[4.25]).unwrap());
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        let Some(ClientFrameView::Json(req)) = read_client_frame_into(&mut r, &mut buf).unwrap() else {
            panic!("expected a JSON frame")
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
        // 18 fixed bytes + a 1-byte name leave room for this many values.
        let most = (MAX_FRAME as usize - 19) / 8;
        add_binary_into(&mut frame, "s", 7, 1, &vec![0.5; most]).unwrap();
        assert_eq!(frame[4..8], (19 + 8 * most as u32).to_be_bytes());
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

    /// A batch travels only as a binary Add: the JSON reader refuses an
    /// `add` op by name, whatever fields it carries.
    #[test]
    fn json_add_is_an_unknown_op() {
        for payload in [
            &br#"{"op":"add","stream":"s","values":[1.5],"client_id":7,"seq":1}"#[..],
            br#"{"op":"add","stream":"s"}"#,
        ] {
            let mut wire = MAGIC.to_vec();
            wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            wire.extend_from_slice(payload);
            let mut buf = Vec::new();
            let err = read_client_frame_into(&mut wire.as_slice(), &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("unknown op `add`"), "{err}");
        }
    }

    #[test]
    fn malformed_binary_add_is_rejected() {
        let mut scratch = Vec::new();
        let mut rejects = |wire: &[u8]| read_client_frame_into(&mut { wire }, &mut scratch).is_err();
        // Truncated name.
        let mut buf = MAGIC_ADD_BIN.to_vec();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(&[0, 9, b'a', b'b', b'c']); // claims 9-byte name, has 3
        assert!(rejects(&buf));
        // Truncated retry identity (fewer than 16 bytes after the name).
        let mut buf = MAGIC_ADD_BIN.to_vec();
        buf.extend_from_slice(&6u32.to_be_bytes());
        buf.extend_from_slice(&[0, 1, b's', 1, 2, 3]);
        assert!(rejects(&buf));
        // Value bytes not a multiple of 8.
        let mut buf = MAGIC_ADD_BIN.to_vec();
        buf.extend_from_slice(&22u32.to_be_bytes());
        buf.extend_from_slice(&[0, 1, b's']);
        buf.extend_from_slice(&[0u8; 16]); // identity
        buf.extend_from_slice(&[1, 2, 3]); // 3 stray value bytes
        assert!(rejects(&buf));
        // Non-UTF-8 stream name.
        let mut buf = MAGIC_ADD_BIN.to_vec();
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[0, 2, 0xFF, 0xFE]);
        assert!(rejects(&buf));
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
    fn peer_reply_reader_accepts_json_and_snapshot_data() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Response::ClusterSum { limbs: vec![1; 6], poisoned: false, values: 5, holders: 2 },
        )
        .unwrap();
        let mut frame = Vec::new();
        peer_snapshot_data_into(&mut frame, b"OISSNPv1\xFF not UTF-8").unwrap();
        wire.extend_from_slice(&frame);

        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        let Some(PeerReplyView::Json(Response::ClusterSum { values, holders, .. })) =
            read_peer_reply_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected json cluster_sum reply")
        };
        assert_eq!((values, holders), (5, 2));
        let Some(PeerReplyView::SnapshotData(sealed)) =
            read_peer_reply_into(&mut r, &mut buf).unwrap()
        else {
            panic!("expected snapshot data")
        };
        assert_eq!(sealed, b"OISSNPv1\xFF not UTF-8");
        assert!(read_peer_reply_into(&mut r, &mut buf).unwrap().is_none());
    }

    #[test]
    fn peer_port_rejects_client_magics_and_malformed_frames() {
        // A client JSON frame on the peer port is refused by magic.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Reset).unwrap();
        let mut buf = Vec::new();
        assert!(read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err());
        // Unknown opcode.
        let mut wire = MAGIC_PEER.to_vec();
        wire.extend_from_slice(&1u32.to_be_bytes());
        wire.push(0x7F);
        assert!(read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err());
        // Empty payload.
        let mut wire = MAGIC_PEER.to_vec();
        wire.extend_from_slice(&0u32.to_be_bytes());
        assert!(read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err());
        // Truncated hello body.
        let mut wire = MAGIC_PEER.to_vec();
        wire.extend_from_slice(&5u32.to_be_bytes());
        wire.push(0x01);
        wire.extend_from_slice(&2u32.to_be_bytes());
        assert!(read_peer_request_into(&mut wire.as_slice(), &mut buf).is_err());
        // A request opcode arriving where a reply is expected.
        let mut frame = Vec::new();
        peer_tree_sum_into(&mut frame, 0, 1, "s").unwrap();
        assert!(read_peer_reply_into(&mut frame.as_slice(), &mut buf).is_err());
    }
}
