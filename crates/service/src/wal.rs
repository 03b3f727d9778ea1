//! A checksummed, segmented write-ahead log with group commit off the
//! hot path.
//!
//! ## Why a WAL at all
//!
//! Snapshots alone leave a loss window: every deposit between the last
//! snapshot and a crash dies with the process. The WAL closes it for
//! *tracked* batches — each `(client_id, seq, exact total, stream, raw
//! LE f64 payload)` is appended here and fsynced (per [`FsyncPolicy`])
//! before the client sees its ACK, so "ACKed ⇒ durable" holds across a
//! kill at any instruction. Untracked batches (client id
//! [`UNTRACKED_CLIENT`](crate::proto::UNTRACKED_CLIENT)) carry no retry
//! identity, so their replay could never be made idempotent; they keep
//! their PR-2 semantics — snapshot-only durability — and are not logged.
//!
//! ## On-disk format
//!
//! The log is a directory of fixed-size segments named
//! `wal-<index:016x>.log`. Each segment is
//!
//! ```text
//! [ 8B magic "OISWALv2" ][ 8B BE segment index ]      <- header
//! [ 4B BE payload len ][ payload ][ 8B BE fnv4 ]      <- record, repeated
//! [ 4B BE 0xFFFFFFFF ][ 8B BE records ][ 8B BE fnv ]  <- seal (rotated/closed segments)
//! ```
//!
//! and a record payload ([`Record`]) is
//!
//! ```text
//! [ 8B BE client_id ][ 8B BE seq ][ 6 × 8B BE total limbs, most significant first ]
//! [ 2B BE name len ][ name ][ raw LE f64 bytes ]
//! ```
//!
//! The total is the exact `ServiceHp` sum of the record's values, the
//! very one its deposit added to the ledger. HP addition is exact
//! integer addition, so adding the logged totals in log order rebuilds
//! the limbs, dedup windows and overflow counts that re-encoding every
//! value would, and recovery never re-encodes a value. The values stay
//! in the record: they are the batch itself, and what a log shipped to
//! another node would carry. A `v1` segment (records without totals,
//! written by an older release) is refused by name, never replayed.
//!
//! Every record carries its own length + checksum, and a finished
//! segment is sealed by a footer checksum. Snapshots use the same
//! framing under their own magic ([`crate::snapshot`]): the header,
//! record and seal bytes come from the functions here, and
//! [`recovery`](crate::recovery)'s walk checks both kinds of file. The
//! record checksum is
//! `fnv4` — FNV-1a 64 striped over four interleaved word-wide lanes.
//! The record path hashes every payload on its way to an ACK, and the
//! serial xor-multiply chain (first byte-at-a-time, then word-wide) was
//! the single largest term in append latency; four independent lanes let
//! the multiplies overlap, keeping the prime/offset discipline at a
//! quarter of the chain depth of the word-wide fold. The
//! seal checksum folds the 16-byte header and each record's *stored
//! checksum* in order — O(1) per record, and equally decisive: a
//! mutated record byte breaks that record's own checksum, and a
//! mutated record checksum (or one snipped out whole) breaks the seal.
//! A torn append is detected by the record checksum; silent corruption
//! inside a sealed segment is detected by record + seal together.
//! Recovery semantics live in [`recovery`](crate::recovery).
//!
//! ## Group commit
//!
//! [`Wal::append`] returns only once the group containing its record is
//! written (and synced, per [`FsyncPolicy`]). No thread exists to do
//! that on an appender's behalf: every group commits on the thread that
//! needs it, leader/follower style. The appender that wins the segment
//! lock commits, and when it also finds the queue empty (the common
//! case at any sane load) its record is a complete group of one, framed
//! *directly into the segment* — no `Vec`, no queue round-trip, no
//! wakeups. An appender that loses the lock queues its framed record
//! and blocks on the segment lock. Once it holds the lock, either the
//! commit it waited out already carried its record, or it commits the
//! whole queue itself as one group under one fsync. Whoever holds the
//! segment lock drains everything queued, so group size tracks the
//! fsync's cost with no timer, no condvar and no hand-off.
//! [`Wal::flush`] and [`Wal::close`] commit on the caller's thread too.
//! [`Wal::submit`], the epoll reactor's non-blocking path, only queues:
//! the reactor's pump thread commits those records in
//! [`Wal::commit_next`]. The server sends an `Added` ACK only once the
//! record's group has committed, which is the whole contract.
//!
//! ## Mapped segments
//!
//! On linux/x86_64, a new segment is mapped `MAP_SHARED` at its full
//! length once, and its file is reserved (`fallocate`) and pre-faulted
//! (`madvise(MADV_POPULATE_WRITE)`) in 2 MiB steps as it fills
//! (`crate::segmap`): creation prepares the first step, and a group
//! that would cross the prepared frontier prepares the next before it
//! is written. An append is then a ~300 ns `memcpy` into the kernel's
//! own page cache — the bytes already have process-crash durability
//! when the store retires, which is exactly the `never` policy's
//! contract — and `fsync` on the descriptor still flushes
//! mapping-dirtied pages, so `group` keeps its power-loss guarantee.
//! The page-dirtying cost hasn't vanished, it has *moved*, and per
//! written byte it is what it was: a server start or a rotation pays
//! for one step rather than a whole segment, and the group that crosses
//! a step's end pays for the next one before its ACK (DESIGN.md §16.3).
//! A failed reservation (a full disk) poisons the log like any other
//! commit failure; no page is touched before its step is reserved, so
//! it never raises SIGBUS. Until a mapped segment is sealed, its file
//! ends in the zero tail of its last prepared step; recovery reads a
//! zero length field followed by only zeros as the clean end of an
//! unsealed segment (a real record can't have length 0), and sealing
//! truncates the tail before the footer goes down so a sealed segment
//! is exactly header + records + seal. Anywhere the mapping can't be
//! had (other targets, exotic filesystems), the WAL falls back to
//! buffered `write(2)` with identical semantics.
//!
//! ## Crash discipline
//!
//! Any commit failure — a real I/O error or an injected fault —
//! *poisons* the log: every pending and future `append` returns
//! [`WalError::Crashed`], so no ACK can ever ride on a write whose
//! durability is in doubt. The fault seams (`wal.append.torn`,
//! `wal.fsync.drop`, `wal.segment.corrupt`) model a crash corrupting the
//! in-flight group and therefore always poison; an in-flight group is by
//! definition un-ACKed, which is what makes "zero ACKed-batch loss"
//! provable rather than probabilistic. The `wal.segment.reserve` seam
//! fails a segment step's reservation as a full disk would; it fires
//! before the group that needed the step is written, so that group is
//! refused and absent from the file.

use crate::ledger::{batch_total, SERVICE_LIMBS};
use crate::segmap::SegmentMap;
use crate::snapshot::sync_parent_dir;
use crate::ServiceHp;
use oisum_core::kernel::first_out_of_range_le;
use oisum_core::{AtomicU64Like, StdSyncShim, SyncShimLike};
use oisum_faults::FaultAction;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// First 8 bytes of every segment file.
pub const WAL_MAGIC: [u8; 8] = *b"OISWALv2";

/// The magic of an older release's segments, whose records carry no
/// total. Recovery refuses them by name.
pub(crate) const WAL_MAGIC_V1: [u8; 8] = *b"OISWALv1";

/// Segment header length: magic + big-endian segment index.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// The length field value that marks a seal footer instead of a record.
/// Real payloads are capped far below it by [`MAX_RECORD_PAYLOAD`].
pub const SEAL_MARKER: u32 = u32::MAX;

/// Seal footer length: marker + record count + whole-prefix checksum.
pub const SEAL_LEN: usize = 20;

/// Framing overhead per record: 4-byte length + 8-byte checksum.
pub const RECORD_OVERHEAD: usize = 12;

/// Bytes of a record's exact total: six big-endian limbs.
pub const RECORD_TOTAL_LEN: usize = 8 * SERVICE_LIMBS;

/// Fixed payload bytes before the stream name: client id + seq + total
/// + name length.
pub const RECORD_FIXED: usize = 16 + RECORD_TOTAL_LEN + 2;

/// Payload ceiling: the wire protocol's frame ceiling plus the total. A
/// binary Add's payload is `18 + name + 8·n` bytes and its record's
/// `66 + name + 8·n`, so a batch that fit in a frame always fits in a
/// record.
pub const MAX_RECORD_PAYLOAD: usize = crate::proto::MAX_FRAME as usize + RECORD_TOTAL_LEN;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// Whether a committed group is synced to disk before its ACKs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` every group before any of its records is ACKed. The
    /// default: ACKs survive power loss, and concurrent appenders still
    /// share syncs, because whatever queues up during one group's fsync
    /// commits as the next group (see the module docs).
    #[default]
    Group,
    /// Commit groups without calling `fsync` (the OS flushes at its
    /// leisure; only a rotation's seal and new segment sync). An ACK
    /// then survives a process kill but not a power cut; the format
    /// still detects whatever made it to disk.
    Never,
}

impl core::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Group => "group",
            FsyncPolicy::Never => "never",
        })
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses the [`Display`](core::fmt::Display) forms: `group` or
    /// `never`.
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "group" => Ok(FsyncPolicy::Group),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err(format!("unknown fsync policy `{s}` (expected group | never)")),
        }
    }
}

/// WAL construction parameters.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate (seal + start a new segment) once the active segment
    /// reaches this many bytes.
    pub segment_bytes: u64,
    /// When groups are synced; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config with default rotation size and fsync policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// Why a WAL operation (append, close, or recovery) failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The log is poisoned (I/O death, injected fault, or a crash
    /// drill): this append's durability cannot be vouched for, so it
    /// must not be ACKed.
    Crashed(String),
    /// Append after `close`.
    Closed,
    /// The batch payload exceeds [`MAX_RECORD_PAYLOAD`].
    RecordTooLarge {
        /// Offending payload length.
        len: usize,
    },
    /// Stream names are length-prefixed with a u16, like the wire
    /// protocol's.
    StreamNameTooLong {
        /// Offending name length.
        len: usize,
    },
    /// The value bytes cannot form a record's exact total: they are not
    /// whole `f64`s, or one is a NaN, an infinity or a magnitude of
    /// 2^191 or more. Nothing was logged.
    BadBatch {
        /// What was wrong.
        detail: String,
    },
    /// A segment file's header is not a valid WAL header, or its
    /// embedded index disagrees with its file name.
    BadHeader {
        /// Segment index (from the file name).
        segment: u64,
        /// What was wrong.
        detail: String,
    },
    /// Structurally impossible bytes protected by a *valid* checksum, a
    /// seal that does not match the bytes it covers, or data after a
    /// seal: not a torn tail but real corruption, so recovery refuses
    /// rather than guessing.
    Corrupt {
        /// Segment index.
        segment: u64,
        /// Byte offset of the corrupt region.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A gap in the segment sequence (files deleted out from under the
    /// log): replay order cannot be reconstructed.
    MissingSegment {
        /// The index that should have followed.
        expected: u64,
        /// The index actually found.
        found: u64,
    },
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Crashed(detail) => write!(f, "wal crashed: {detail}"),
            WalError::Closed => f.write_str("wal is closed"),
            WalError::RecordTooLarge { len } => {
                write!(f, "wal record payload of {len} bytes exceeds {MAX_RECORD_PAYLOAD}")
            }
            WalError::StreamNameTooLong { len } => {
                write!(f, "stream name of {len} bytes exceeds the u16 length prefix")
            }
            WalError::BadBatch { detail } => write!(f, "batch refused: {detail}"),
            WalError::BadHeader { segment, detail } => {
                write!(f, "wal segment {segment:016x}: bad header: {detail}")
            }
            WalError::Corrupt { segment, offset, detail } => {
                write!(f, "wal segment {segment:016x} corrupt at byte {offset}: {detail}")
            }
            WalError::MissingSegment { expected, found } => {
                write!(f, "wal segment sequence gap: expected {expected:016x}, found {found:016x}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The file name of segment `index`.
pub fn segment_file_name(index: u64) -> String {
    format!("wal-{index:016x}.log")
}

/// Every segment in `dir`, sorted by index. Files that do not match the
/// `wal-<16 hex>.log` shape are ignored (they are not ours to interpret
/// or delete).
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) else {
            continue;
        };
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            continue;
        }
        let Ok(index) = u64::from_str_radix(hex, 16) else { continue };
        segments.push((index, entry.path()));
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// The 16-byte header of a framed file: `magic`, then `index` big-endian.
fn file_header(magic: [u8; 8], index: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..8].copy_from_slice(&magic);
    header[8..].copy_from_slice(&index.to_be_bytes());
    header
}

/// The seal footer: marker, record count, and the fold of the header and
/// every record's stored checksum.
fn seal_footer(records: u64, fnv: u64) -> [u8; SEAL_LEN] {
    let mut footer = [0u8; SEAL_LEN];
    footer[..4].copy_from_slice(&SEAL_MARKER.to_be_bytes());
    footer[4..12].copy_from_slice(&records.to_be_bytes());
    footer[12..].copy_from_slice(&fnv.to_be_bytes());
    footer
}

/// Frames one record, `len | payload | fnv4(payload)`, at the end of
/// `buf` around the payload `write` appends, and returns the stored
/// checksum. A payload over [`MAX_RECORD_PAYLOAD`] is refused and cut
/// back off `buf`.
fn frame_record(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> Result<u64, WalError> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    write(buf);
    let payload_len = buf.len() - start - 4;
    if payload_len > MAX_RECORD_PAYLOAD {
        buf.truncate(start);
        return Err(WalError::RecordTooLarge { len: payload_len });
    }
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    let sum = fnv4(&buf[start + 4..]);
    buf.extend_from_slice(&sum.to_be_bytes());
    Ok(sum)
}

/// One tracked batch as its WAL record holds it: the retry identity, the
/// exact total its deposit added, the stream and the raw little-endian
/// `f64` bytes. The writer frames one; recovery reads one back out of
/// each verified record, borrowing the name and the values from the
/// segment.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Stream the batch was deposited into.
    pub stream: &'a str,
    /// Retry identity: the client.
    pub client_id: u64,
    /// Retry identity: the client's sequence number.
    pub seq: u64,
    /// The exact sum of the values, as the ledger deposited it.
    pub total: ServiceHp,
    /// Raw little-endian `f64` bytes.
    pub value_bytes: &'a [u8],
}

impl<'a> Record<'a> {
    /// The record of a batch, its total folded from `value_bytes`. Bytes
    /// that are not whole `f64`s, or a value the sum format cannot hold
    /// (a NaN, an infinity, or a magnitude of 2^191 or more), are refused
    /// with [`WalError::BadBatch`]: they have no exact total.
    pub fn fold(
        stream: &'a str,
        client_id: u64,
        seq: u64,
        value_bytes: &'a [u8],
    ) -> Result<Record<'a>, WalError> {
        if !value_bytes.len().is_multiple_of(8) {
            let detail = format!("{} value bytes are not whole f64s", value_bytes.len());
            return Err(WalError::BadBatch { detail });
        }
        if let Some(i) = first_out_of_range_le::<SERVICE_LIMBS, 3>(value_bytes) {
            let detail = format!("value {i} is not finite or not below 2^191 in magnitude");
            return Err(WalError::BadBatch { detail });
        }
        Ok(Record { stream, client_id, seq, total: batch_total(value_bytes), value_bytes })
    }

    /// The payload's length, or the refusal of a record the format
    /// cannot frame.
    fn payload_len(&self) -> Result<usize, WalError> {
        if self.stream.len() > u16::MAX as usize {
            return Err(WalError::StreamNameTooLong { len: self.stream.len() });
        }
        let len = RECORD_FIXED + self.stream.len() + self.value_bytes.len();
        if len > MAX_RECORD_PAYLOAD {
            return Err(WalError::RecordTooLarge { len });
        }
        Ok(len)
    }

    /// Frames the record into `dst`, which must be exactly
    /// `RECORD_OVERHEAD + payload_len` bytes long: `len | payload |
    /// fnv4(payload)`. Returns the stored checksum.
    fn frame_into(&self, dst: &mut [u8]) -> u64 {
        let (len, rest) = dst.split_at_mut(4);
        let (payload, check) = rest.split_at_mut(rest.len() - 8);
        len.copy_from_slice(&(payload.len() as u32).to_be_bytes());
        let (fixed, rest) = payload.split_at_mut(RECORD_FIXED);
        let (name, values) = rest.split_at_mut(self.stream.len());
        let words = self.total.as_limbs().iter().copied();
        let words = [self.client_id, self.seq].into_iter().chain(words);
        for (dst, word) in fixed.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&word.to_be_bytes());
        }
        fixed[RECORD_FIXED - 2..].copy_from_slice(&(self.stream.len() as u16).to_be_bytes());
        name.copy_from_slice(self.stream.as_bytes());
        values.copy_from_slice(self.value_bytes);
        let sum = fnv4(payload);
        check.copy_from_slice(&sum.to_be_bytes());
        sum
    }
}

/// Encodes one framed record: `len | payload | fnv4(payload)`.
pub fn encode_record(record: &Record<'_>) -> Result<Vec<u8>, WalError> {
    let mut rec = vec![0u8; RECORD_OVERHEAD + record.payload_len()?];
    record.frame_into(&mut rec);
    Ok(rec)
}

/// A framed file assembled in memory and written whole, rather than
/// appended to like a segment: the same header, records and seal, under
/// the caller's magic. A snapshot is one of these.
pub(crate) struct SealedFile {
    bytes: Vec<u8>,
    /// Records framed so far.
    records: u64,
    /// Running fold of the header and each stored record checksum, as
    /// `ActiveSegment` keeps it.
    fnv: u64,
}

impl SealedFile {
    /// A file holding only its header.
    pub(crate) fn new(magic: [u8; 8], index: u64) -> SealedFile {
        let header = file_header(magic, index);
        SealedFile { bytes: header.to_vec(), records: 0, fnv: fnv_wide(&header) }
    }

    /// Frames one record around the payload `write` appends to the buffer
    /// it is handed. A payload over [`MAX_RECORD_PAYLOAD`] is refused and
    /// leaves the file as it was.
    pub(crate) fn record(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), WalError> {
        let sum = frame_record(&mut self.bytes, write)?;
        self.fnv = fnv_wide_update(self.fnv, &sum.to_be_bytes());
        self.records += 1;
        Ok(())
    }

    /// Appends the seal and returns the finished file.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        self.bytes.extend_from_slice(&seal_footer(self.records, self.fnv));
        self.bytes
    }
}

/// Record-payload checksum: four interleaved word-wide FNV-1a 64 lanes.
///
/// The serial `(h ^ x) * prime` chain is latency-bound — one 3-cycle
/// multiply per 8 bytes, back to back — and at 4 KB payloads it was the
/// single largest cost on the append path (~0.8 µs/record). Striping
/// 32-byte blocks across four independent lanes lets the multiplies
/// overlap, quartering the chain depth; the lanes (distinct offset
/// bases, so a block of identical words still feeds distinct states)
/// are folded into one word with the same xor-multiply step, and any
/// sub-block tail runs through the classic serial chain from the fold.
///
/// Detection: a flip confined to one lane survives to the fold because
/// each lane step is a bijection of lane state, and the fold is a
/// bijection in each lane input separately — so any single-bit (indeed
/// any single-lane) corruption is detected with certainty, multi-lane
/// damage with the usual ~2^-64 escape odds. This is the checksum for
/// *record payloads* only; seal footers fold fixed-width record
/// checksums with the streaming [`fnv_wide_update`], whose 8-byte
/// composition property the seal format depends on.
pub(crate) fn fnv4(bytes: &[u8]) -> u64 {
    const P: u64 = 0x100000001b3;
    let mut lanes = [
        FNV_OFFSET ^ 1,
        FNV_OFFSET ^ 2,
        FNV_OFFSET ^ 3,
        FNV_OFFSET ^ 4,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            // lint:allow(service-unwrap) -- chunks_exact(32) yields exactly 32 bytes.
            *lane ^= u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = lane.wrapping_mul(P);
        }
    }
    let folded = ((lanes[0].wrapping_mul(P) ^ lanes[1]).wrapping_mul(P) ^ lanes[2])
        .wrapping_mul(P)
        ^ lanes[3];
    fnv_wide_update(folded, blocks.remainder())
}

/// Streaming word-wide FNV-1a 64: the classic `(h ^ x) * prime` chain
/// fed 8 little-endian bytes per step (byte-at-a-time for a sub-word
/// tail). One multiply per word instead of one per byte — the append
/// path pays this hash before every ACK, and the byte-serial chain
/// dominated its latency. Streaming composes with one-shot only at
/// 8-byte-aligned boundaries, which is why the seal checksum folds
/// fixed-width record *checksums*, never raw variable-length records.
pub(crate) fn fnv_wide_update(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        // lint:allow(service-unwrap) -- chunks_exact(8) yields exactly 8 bytes.
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(0x100000001b3);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One-shot [`fnv_wide_update`] from the FNV offset basis.
pub(crate) fn fnv_wide(bytes: &[u8]) -> u64 {
    fnv_wide_update(FNV_OFFSET, bytes)
}

/// The FNV-1a 64 offset basis (an empty input's checksum).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// The commit queue every thread shares. The queue holds fully framed
/// records; tickets are dense, so `committed >= ticket` is exactly "my
/// group's fsync finished".
struct CommitQueue {
    queue: VecDeque<Vec<u8>>,
    /// Tickets issued (one per accepted append).
    submitted: u64,
    /// Tickets durably committed, in issue order.
    committed: u64,
    /// `close` was requested: appends and submits are refused.
    stopping: bool,
    /// Poison detail; `Some` refuses every pending and future append.
    crashed: Option<String>,
}

/// Where committed groups land: the group-commit protocol's only view
/// of the storage beneath it.
///
/// Production uses the private `ActiveSegment` (mapped or buffered
/// segment files, rotation, sealing); the model checker's WAL scenarios
/// use [`MemSink`], so the *protocol* — locks, the condvar, tickets,
/// watermarks — explores every schedule without dragging the
/// filesystem into the model. The protocol calls every method while
/// holding the `segment` lock, so implementations need no internal
/// synchronization.
pub trait SegmentSink: Send + 'static {
    /// Frames and commits a single record — the inline fast path for a
    /// group of one. `fsync` follows the policy.
    fn commit_one(&mut self, record: &Record<'_>, fsync: bool) -> Result<(), WalError>;
    /// Makes room for `incoming` more bytes (rotating early if the
    /// current segment cannot hold them).
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError>;
    /// Writes one concatenated group of `count` already-framed records
    /// and, when `fsync`, syncs it.
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError>;
    /// Seals and starts the next segment if the rotation threshold has
    /// been reached.
    fn rotate_if_full(&mut self) -> Result<(), WalError>;
    /// Seals the current segment (close path).
    fn seal(&mut self) -> Result<(), WalError>;
    /// The index of the segment currently being appended to.
    fn index(&self) -> u64;
}

/// An in-memory [`SegmentSink`] for the model checker's WAL scenarios:
/// commits append framed bytes to a `Vec`, "fsync" advances a durable
/// watermark, and sealing sets a flag. The fields are deliberately
/// public — the scenarios' invariant checks read them directly.
#[derive(Debug, Default)]
pub struct MemSink {
    /// Concatenated framed record bytes, in commit order.
    pub bytes: Vec<u8>,
    /// Records committed (written, not necessarily synced).
    pub records: u64,
    /// Records covered by a sync — the durable watermark the
    /// ACKed-implies-durable invariant is checked against.
    pub synced_records: u64,
    /// Set by [`SegmentSink::seal`].
    pub sealed: bool,
}

impl SegmentSink for MemSink {
    fn commit_one(&mut self, record: &Record<'_>, fsync: bool) -> Result<(), WalError> {
        let rec = encode_record(record)?;
        self.bytes.extend_from_slice(&rec);
        self.records += 1;
        if fsync {
            self.synced_records = self.records;
        }
        Ok(())
    }

    fn ensure_group_fits(&mut self, _incoming: usize) -> Result<(), WalError> {
        Ok(())
    }

    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        self.bytes.extend_from_slice(buf);
        self.records += count;
        if fsync {
            self.synced_records = self.records;
        }
        Ok(())
    }

    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        Ok(())
    }

    fn seal(&mut self) -> Result<(), WalError> {
        self.sealed = true;
        Ok(())
    }

    fn index(&self) -> u64 {
        0
    }
}

/// The declared lock order of the group-commit protocol, outermost
/// first: `segment` is locked strictly before `state` whenever both
/// are held. `oisum-lint`'s `lock-order` rule checks the static lock
/// graph against the annotation below, and the model-checker scenarios
/// feed this constant to `declare_lock_order`, which fails any explored
/// schedule that acquires against it.
// lint:lock-order(segment < state)
pub const LOCK_ORDER: [&str; 2] = ["segment", "state"];

/// The group-commit protocol, generic over its blocking primitives and
/// its storage.
///
/// This is the *real* WAL commit queue: [`Wal`] instantiates it with
/// [`StdSyncShim`] + segment files (every shim method an `#[inline]`
/// delegation to `std::sync`, so the generic code is the concrete code),
/// and `oisum-loom-lite`'s scenarios instantiate it with model
/// primitives + [`MemSink`] to explore every schedule of the very same
/// functions. The public methods exist for those scenarios; service
/// code goes through [`Wal`].
pub struct Shared<S: SyncShimLike, G: SegmentSink> {
    fsync: FsyncPolicy,
    state: S::Mutex<CommitQueue>,
    /// Signaled when a [`submit`](Self::submit) turns the queue
    /// non-empty, and when the log closes or crashes. Only
    /// [`commit_next`](Self::commit_next) waits on it.
    work: S::Condvar,
    /// Index of the segment currently being appended to — the GC
    /// boundary readers snapshot before persisting the ledger.
    active: S::Atomic,
    /// The sink being appended to. Every commit runs on the thread that
    /// holds this lock, and the queue is only drained while it is held,
    /// which keeps file order equal to enqueue order no matter which
    /// thread commits. Locked BEFORE `state` whenever both are held
    /// ([`LOCK_ORDER`]). `None` once sealed on close.
    segment: S::Mutex<Option<G>>,
    /// Mirror of `CommitQueue::committed`, so a contended appender and
    /// the reactor can read the durable watermark without the state
    /// lock. Only ever written while both locks are held, so it is
    /// monotonic and never ahead of the real watermark.
    commit_mark: S::Atomic,
    /// Non-empty groups written (and, per policy, fsynced) so far.
    /// `committed / groups` is the realized amortization — the number
    /// every group-commit knob exists to raise — so benches read it
    /// rather than guess from throughput deltas.
    groups: S::Atomic,
}

impl<S: SyncShimLike, G: SegmentSink> Shared<S, G> {
    /// A fresh protocol instance over `sink`. `active_index` seeds the
    /// GC-boundary gauge.
    pub fn new(fsync: FsyncPolicy, sink: G, active_index: u64) -> Self {
        // Ordering witness: the labels handed to the shim must match
        // the declared order the lint and the model checker enforce.
        debug_assert_eq!(LOCK_ORDER, ["segment", "state"]);
        Shared {
            fsync,
            state: S::mutex(
                "state",
                CommitQueue {
                    queue: VecDeque::new(),
                    submitted: 0,
                    committed: 0,
                    stopping: false,
                    crashed: None,
                },
            ),
            work: S::condvar("work"),
            active: S::Atomic::new(active_index),
            segment: S::mutex("segment", Some(sink)),
            commit_mark: S::Atomic::new(0),
            groups: S::Atomic::new(0),
        }
    }

    // lint:acquires(state)
    fn lock(&self) -> S::Guard<'_, CommitQueue> {
        // A panic while holding the queue lock (a failing assertion in a
        // chaos drill) must not wedge shutdown; the state is plain data
        // (the std shim recovers poisoned locks with into_inner).
        S::lock(&self.state)
    }

    /// Poisons the log: every pending and future append fails, nothing
    /// more is written, and a [`commit_next`](Self::commit_next) caller
    /// wakes to return `None`.
    pub fn poison(&self, detail: String) {
        let mut s = self.lock();
        if s.crashed.is_none() {
            s.crashed = Some(detail);
        }
        drop(s);
        S::notify_all(&self.work);
    }

    /// Appends one tracked batch and blocks until its group commits
    /// (written and, per policy, fsynced). `Ok(())` is the license to
    /// ACK; any `Err` means the batch must be refused.
    ///
    /// An appender that wins the segment lock outright is the leader:
    /// it commits on its own thread — framed straight into the mapped
    /// segment, with no queue round-trip. Losing the lock means another
    /// commit is in flight; the record joins the queue, and the next
    /// holder of the lock commits it together with everything else
    /// queued behind that commit, under one fsync.
    pub fn append(&self, record: &Record<'_>) -> Result<(), WalError> {
        if let Some(mut seg) = S::try_lock(&self.segment) {
            return self.append_won(&mut seg, record);
        }
        self.append_contended(record)
    }

    /// Inline append holding the segment lock. With an empty queue the
    /// record is a complete group of one and commits with zero copies
    /// (`commit_one`); with a non-empty queue, committing only ours
    /// would advance the dense watermark out of ticket order, so the
    /// record joins the queue and the whole lot drains as one group.
    // lint:holds(segment)
    fn append_won(&self, seg: &mut Option<G>, record: &Record<'_>) -> Result<(), WalError> {
        // Validation first: a ticket, once issued, must eventually be
        // covered by `committed` (the watermark is dense), so nothing
        // refusable may happen between ticket issue and commit.
        record.payload_len()?;
        let mut s = self.lock();
        if let Some(detail) = &s.crashed {
            return Err(WalError::Crashed(detail.clone()));
        }
        if s.stopping {
            return Err(WalError::Closed);
        }
        let Some(segment) = seg.as_mut() else { return Err(WalError::Closed) };
        if !s.queue.is_empty() {
            let rec = encode_record(record)?;
            s.queue.push_back(rec);
            s.submitted += 1;
            let ticket = s.submitted;
            drop(s);
            self.commit_locked(seg);
            return verdict::<S>(self.lock(), ticket);
        }
        s.submitted += 1;
        let ticket = s.submitted;
        debug_assert_eq!(s.committed + 1, ticket, "empty queue means all prior tickets committed");
        drop(s);
        let result = segment
            .commit_one(record, self.fsync == FsyncPolicy::Group)
            .and_then(|()| segment.rotate_if_full());
        // ORDERING: Relaxed — monotonic GC boundary, as in commit_locked.
        self.active.store(segment.index(), Ordering::Relaxed);
        match result {
            Ok(()) => {
                let mut s = self.lock();
                s.committed = ticket;
                // ORDERING: Relaxed — a statistics gauge, as in
                // commit_locked; a group of one is still a group.
                self.groups.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Release — publishes the durable watermark
                // to the contended path's Acquire load; written only
                // under both locks, so it stays monotonic.
                self.commit_mark.store(s.committed, Ordering::Release);
                Ok(())
            }
            Err(e) => {
                let detail = e.to_string();
                self.poison(detail.clone());
                Err(WalError::Crashed(detail))
            }
        }
    }

    /// Append while another commit holds the segment lock: queue the
    /// record, then block on the segment lock. The queue is only
    /// drained under that lock, so once we hold it either the commit we
    /// waited out carried our record (the mark covers our ticket) or
    /// the record is still queued and we commit the whole queue
    /// ourselves.
    fn append_contended(&self, record: &Record<'_>) -> Result<(), WalError> {
        let (ticket, _) = self.enqueue(encode_record(record)?)?;
        let mut seg = S::lock(&self.segment);
        // ORDERING: Acquire — pairs with the Release publishes, which
        // run under the segment lock we now hold: a mark covering our
        // ticket means its group's write (and policy fsync) finished.
        if self.commit_mark.load(Ordering::Acquire) >= ticket {
            return Ok(());
        }
        self.commit_locked(&mut seg);
        drop(seg);
        verdict::<S>(self.lock(), ticket)
    }

    /// Queues one framed record under the next dense ticket, unless the
    /// log is closed or crashed. Returns the ticket and whether the
    /// queue was empty before.
    fn enqueue(&self, rec: Vec<u8>) -> Result<(u64, bool), WalError> {
        let mut s = self.lock();
        if let Some(detail) = &s.crashed {
            return Err(WalError::Crashed(detail.clone()));
        }
        if s.stopping {
            return Err(WalError::Closed);
        }
        s.queue.push_back(rec);
        s.submitted += 1;
        Ok((s.submitted, s.queue.len() == 1))
    }

    /// Commits everything submitted so far on the calling thread (or
    /// finds it committed, or the log crashed). Does not seal or stop
    /// anything.
    pub fn flush(&self) -> Result<(), WalError> {
        let target = self.lock().submitted;
        self.commit_pending();
        verdict::<S>(self.lock(), target)
    }

    /// Enqueues one tracked batch *without committing it*, returning
    /// the batch's dense ticket. The caller parks elsewhere (an epoll
    /// reactor parks the connection, not a thread) and learns of
    /// completion by watching [`commit_mark`](Self::commit_mark): once
    /// the mark reaches the ticket, the group's write — and, per
    /// policy, its fsync — has finished, and the ACK is licensed
    /// exactly as if a blocking [`append`](Self::append) had returned
    /// `Ok`.
    ///
    /// A submitted record commits when a [`commit_next`](Self::commit_next)
    /// caller (or [`flush`](Self::flush), or [`close`](Self::close))
    /// drains the queue. Submit wakes a `commit_next` caller only when
    /// the queue goes empty→1, because a non-empty queue already has its
    /// drain on the way and every drain takes the whole queue. A
    /// blocking append wakes nobody, so a log should be driven by
    /// blocking appends or by submits, never both: a submit queued
    /// behind an appender's record would be committed by that appender,
    /// and the `commit_next` caller would not learn of it until the
    /// next empty→1 submit. The servers keep to this — the threaded
    /// transport only appends, the reactor only submits.
    pub fn submit(&self, record: &Record<'_>) -> Result<u64, WalError> {
        let (ticket, first) = self.enqueue(encode_record(record)?)?;
        if first {
            S::notify_one(&self.work);
        }
        Ok(ticket)
    }

    /// Waits until records are queued or the log closes or crashes,
    /// then commits everything queued as one group on the calling
    /// thread and returns the durable watermark. Returns `None` once
    /// the log is crashed, or closed with nothing left to commit. This
    /// is the epoll reactor's pump: one thread loops here on behalf of
    /// every connection parked on a [`submit`](Self::submit) ticket and
    /// relays each returned mark. Whatever is submitted during one
    /// commit and its fsync forms the next group, so fsync cost
    /// amortizes over a readiness burst with no accumulation window.
    pub fn commit_next(&self) -> Option<u64> {
        let mut s = self.lock();
        while s.queue.is_empty() && !s.stopping && s.crashed.is_none() {
            s = S::wait(&self.work, s);
        }
        if s.crashed.is_some() || s.queue.is_empty() {
            return None;
        }
        drop(s);
        self.commit_pending().then(|| self.commit_mark())
    }

    /// Closes the log on the calling thread: refuses every later append
    /// and submit, commits everything queued, seals the sink and drops
    /// it, then wakes a [`commit_next`](Self::commit_next) caller so it
    /// returns `None`. Idempotent. A crashed log is left unsealed — its
    /// last group may be torn — and `Err` carries the crash detail;
    /// recovery from the segments on disk is then the source of truth.
    pub fn close(&self) -> Result<(), WalError> {
        self.lock().stopping = true;
        let mut seg = S::lock(&self.segment);
        if self.commit_locked(&mut seg) {
            if let Some(mut sink) = seg.take() {
                if let Err(e) = sink.seal() {
                    self.poison(format!("seal on close failed: {e}"));
                }
            }
        }
        drop(seg);
        S::notify_all(&self.work);
        match self.crash_detail() {
            Some(detail) => Err(WalError::Crashed(detail)),
            None => Ok(()),
        }
    }

    /// The durable-watermark mirror: every ticket `<= commit_mark()` has
    /// been written and, per policy, fsynced. Lock-free; written only
    /// under the state lock, so it is monotonic and never ahead of the
    /// real watermark.
    pub fn commit_mark(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release publishes in
        // commit_locked / append_won; a mark covering a ticket means
        // that group's write (and policy fsync) happened-before this
        // load.
        self.commit_mark.load(Ordering::Acquire)
    }

    /// True once the log is poisoned.
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed.is_some()
    }

    /// The poison detail, if the log has crashed.
    pub fn crash_detail(&self) -> Option<String> {
        self.lock().crashed.clone()
    }

    /// The first sink index a snapshot of the ledger taken now does not
    /// cover: the index being appended to while appends may still land
    /// in it, one past it once the close path has sealed and dropped
    /// the sink.
    pub(crate) fn gc_boundary(&self) -> u64 {
        let sealed = S::lock(&self.segment).is_none();
        // ORDERING: Relaxed — a monotonic boundary read; observing a
        // stale (smaller) index only makes GC more conservative.
        self.active.load(Ordering::Relaxed) + u64::from(sealed)
    }

    /// Scenario probe: `(submitted, committed)` under the state lock.
    pub fn queue_snapshot(&self) -> (u64, u64) {
        let s = self.lock();
        (s.submitted, s.committed)
    }

    /// `(records committed, groups written)` — the realized group-commit
    /// amortization. One fsync per group under the `group` policy, so
    /// `records / groups` is also records-per-fsync.
    pub fn group_stats(&self) -> (u64, u64) {
        // ORDERING: Relaxed — statistics reads; the two gauges are not
        // mutually consistent to the record, which a ratio tolerates.
        (self.commit_mark.load(Ordering::Relaxed), self.groups.load(Ordering::Relaxed))
    }

    /// Scenario probe: a consistent view of the sink and the ticket
    /// watermarks, read under both locks in [`LOCK_ORDER`] (`segment`
    /// before `state`).
    pub fn probe<R>(&self, f: impl FnOnce(Option<&G>, u64, u64) -> R) -> R {
        let seg = S::lock(&self.segment);
        let s = self.lock();
        f(seg.as_ref(), s.submitted, s.committed)
    }

    /// Takes the segment lock and commits whatever is queued right now
    /// (a no-op on an empty queue). Returns false once the log is
    /// poisoned.
    fn commit_pending(&self) -> bool {
        let mut seg = S::lock(&self.segment);
        self.commit_locked(&mut seg)
    }

    /// Drains the queue and commits it as one group, for a caller that
    /// holds the segment lock — the queue is only drained while it is
    /// held, so groups reach the file in enqueue order no matter which
    /// thread commits. Writes the group, publishes the new commit
    /// watermark, and rotates when the segment is full.
    ///
    /// Returns false once the log is poisoned, in which case the mark
    /// will never cover a queued ticket.
    // lint:holds(segment)
    fn commit_locked(&self, seg: &mut Option<G>) -> bool {
        let Some(segment) = seg.as_mut() else {
            return true; // sealed on close; stopping already refuses appends
        };
        let mut s = self.lock();
        if s.crashed.is_some() {
            return false;
        }
        if s.queue.is_empty() {
            return true;
        }
        let group: Vec<Vec<u8>> = s.queue.drain(..).collect();
        drop(s);
        let count = group.len() as u64;
        // Coalesce into a thread-local scratch reused across groups: a
        // fresh group-sized Vec crosses glibc's mmap threshold, so every
        // commit would pay an mmap/munmap plus one page fault per
        // written page — on a small box that costs more than the
        // group's actual write. Each committing thread keeps its own
        // (rarely-grown) scratch.
        thread_local! {
            static GROUP_SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let fsync = self.fsync == FsyncPolicy::Group;
        let result = GROUP_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            buf.reserve(group.iter().map(Vec::len).sum());
            for rec in &group {
                buf.extend_from_slice(rec);
            }
            segment
                .ensure_group_fits(buf.len())
                .and_then(|()| segment.commit_group(&mut buf, count, fsync))
                .and_then(|()| segment.rotate_if_full())
        });
        // ORDERING: Relaxed — publishing a monotonic GC boundary (the
        // fit pre-check can also rotate); readers seeing it late only
        // under-collect.
        self.active.store(segment.index(), Ordering::Relaxed);
        match result {
            Ok(()) => {
                let mut s = self.lock();
                s.committed += count;
                // ORDERING: Relaxed — a statistics gauge; readers only
                // ever divide by it.
                self.groups.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Release — publishes the durable watermark
                // to the Acquire loads in append_contended and
                // commit_mark; written only under both locks, so it
                // stays monotonic.
                self.commit_mark.store(s.committed, Ordering::Release);
                true
            }
            Err(e) => {
                self.poison(e.to_string());
                false
            }
        }
    }
}

/// The segmented group-commit write-ahead log. See the module docs.
///
/// `Wal` is `Sync`: many connection threads call [`append`](Wal::append)
/// concurrently and every group commits on one of their threads; it
/// starts no thread of its own. The protocol itself lives in
/// [`Shared`], generic over its blocking primitives so the model
/// checker explores the same code; `Wal` binds it to [`StdSyncShim`] +
/// segment files.
pub struct Wal {
    dir: PathBuf,
    shared: Shared<StdSyncShim, ActiveSegment>,
}

impl Wal {
    /// Opens the log for appending: creates `config.dir` if needed,
    /// fsyncs its parent so the directory's entry is durable, and
    /// starts a fresh segment after the highest existing one. Existing
    /// segments are never appended to (their tails may be torn from a
    /// previous life); replay them with
    /// [`recovery::recover`](crate::recovery::recover) *before* opening.
    pub fn open(config: WalConfig) -> Result<Wal, WalError> {
        fs::create_dir_all(&config.dir)?;
        // The log directory's own entry, durable before any segment in it.
        sync_parent_dir(&config.dir)?;
        let next_index = list_segments(&config.dir)?
            .last()
            .map_or(0, |(index, _)| index + 1);
        let segment = ActiveSegment::create(&config.dir, next_index, config.segment_bytes)?;
        let shared = Shared::new(config.fsync, segment, next_index);
        Ok(Wal { dir: config.dir, shared })
    }

    /// Appends one tracked batch and blocks until its group commits
    /// (written and, per policy, fsynced). `Ok(())` is the license to
    /// ACK; any `Err` means the batch must be refused. The record's total
    /// is folded from `value_bytes` here ([`Record::fold`], which refuses
    /// bytes that have none); a caller that already holds the total
    /// appends through [`append_record`](Wal::append_record).
    pub fn append(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        self.append_record(&Record::fold(stream, client_id, seq, value_bytes)?)
    }

    /// [`append`](Wal::append) of a record whose total the caller
    /// folded: the serving path's, which folds each Add once for both
    /// the ledger and the log.
    pub fn append_record(&self, record: &Record<'_>) -> Result<(), WalError> {
        self.shared.append(record)
    }

    /// Enqueues one tracked batch without committing it, returning its
    /// dense ticket; the ACK is licensed once
    /// [`commit_mark`](Wal::commit_mark) reaches the ticket. See
    /// [`Shared::submit`] — this is the epoll reactor's append path,
    /// where a connection (not a thread) parks on the ticket, and a log
    /// takes either submits or blocking appends, not both. The total is
    /// folded here, as in [`append`](Wal::append).
    pub fn submit(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<u64, WalError> {
        self.submit_record(&Record::fold(stream, client_id, seq, value_bytes)?)
    }

    /// [`submit`](Wal::submit) of a record whose total the caller folded.
    pub fn submit_record(&self, record: &Record<'_>) -> Result<u64, WalError> {
        self.shared.submit(record)
    }

    /// The durable watermark: every ticket `<=` this value has been
    /// written and, per policy, fsynced.
    pub fn commit_mark(&self) -> u64 {
        self.shared.commit_mark()
    }

    /// Waits for submitted records, commits them as one group on the
    /// calling thread and returns the new durable watermark; `None`
    /// once the log is crashed, or closed with nothing left. See
    /// [`Shared::commit_next`].
    pub fn commit_next(&self) -> Option<u64> {
        self.shared.commit_next()
    }

    /// Commits everything submitted so far on the calling thread (or
    /// reports the crash that stops it). Does not seal or stop
    /// anything.
    pub fn flush(&self) -> Result<(), WalError> {
        self.shared.flush()
    }

    /// Poisons the log as a crash would: every pending and future
    /// [`append`](Wal::append) fails and nothing more is written. This
    /// is the crash-drill entry point the chaos and recovery suites
    /// use; production code never calls it.
    pub fn crash(&self) {
        self.shared.poison("crash drill".to_owned());
    }

    /// True once the log is poisoned.
    pub fn is_crashed(&self) -> bool {
        self.shared.is_crashed()
    }

    /// The poison detail, if the log has crashed.
    pub fn crash_detail(&self) -> Option<String> {
        self.shared.crash_detail()
    }

    /// `(records committed, groups written)` so far — `records / groups`
    /// is the realized group-commit amortization (records per fsync
    /// under the `group` policy).
    pub fn group_stats(&self) -> (u64, u64) {
        self.shared.group_stats()
    }

    /// The first segment index a snapshot of the ledger taken now does
    /// not cover: the segment being appended to while the log is open —
    /// segments below it are immutable and fully committed — and one
    /// past it once [`close`](Wal::close) has sealed it.
    pub fn gc_boundary(&self) -> u64 {
        self.shared.gc_boundary()
    }

    /// Deletes every segment with index `< boundary`. Call only after a
    /// *verified* snapshot taken after [`gc_boundary`](Wal::gc_boundary)
    /// returned `boundary`: such segments were fully committed — hence
    /// fully applied, since applies precede commits — before the
    /// snapshot read the ledger, so the snapshot dominates them.
    pub fn gc_below(&self, boundary: u64) -> io::Result<usize> {
        let mut removed = 0;
        for (index, path) in list_segments(&self.dir)? {
            if index < boundary {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Commits every queued record, seals the active segment and
    /// refuses later appends, all on the calling thread. Idempotent. An
    /// `Err` means the log crashed — recovery from the segments on disk
    /// is then the source of truth. See [`Shared::close`].
    pub fn close(&self) -> Result<(), WalError> {
        self.shared.close()
    }

    /// The directory the segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // A drop without close() still commits and seals (errors have
        // nowhere to go here — the segments on disk remain
        // authoritative either way).
        let _ = self.close();
    }
}

/// Extra mapped bytes beyond the rotation target, so groups landing
/// near the threshold rarely force an early rotation.
const MAP_SLACK: usize = 16 << 10;

/// Mappings are refused above this (and the segment falls back to
/// buffered writes) — a guard against absurd `segment_bytes` configs
/// turning into multi-gigabyte `fallocate`s.
const MAX_MAP_LEN: usize = 1 << 31;

/// The file being appended to, owned by the protocol's `segment` lock.
struct ActiveSegment {
    dir: PathBuf,
    file: File,
    index: u64,
    /// Bytes written so far, header included.
    bytes: u64,
    /// Records written so far.
    records: u64,
    /// Running wide-FNV fold of the header and every record's stored
    /// checksum, in write order — the seal checksum.
    fnv: u64,
    /// Rotation threshold.
    target: u64,
    /// Shared mapping of the whole segment, reserved and pre-faulted a
    /// step at a time, when the platform provides one (see
    /// [`crate::segmap`]): appends become page-cache-resident with a
    /// `memcpy` instead of a `write(2)`. `None` runs the buffered
    /// fallback — identical bytes and guarantees, one syscall per group.
    map: Option<SegmentMap>,
}

impl ActiveSegment {
    fn create(dir: &Path, index: u64, target: u64) -> Result<ActiveSegment, WalError> {
        Self::create_sized(dir, index, target, 0)
    }

    /// Creates segment `index`, mapped at least `min_map` bytes long
    /// (for a group bigger than the whole default mapping). The mapping
    /// spans the segment's whole life, but only its first step is
    /// reserved and pre-faulted here; [`ActiveSegment::ensure_group_fits`]
    /// prepares each later one. The prepared tail past the last record
    /// reads as zeros, which recovery reads as the clean end of an
    /// unsealed segment, and which [`ActiveSegment::seal`] trims. `dir`
    /// is fsynced after the create, so the segment's name is durable
    /// before any record in it is ACKed. The header goes down through
    /// the file before anything is reserved, so a file left by a failed
    /// or interrupted reservation still starts with it.
    ///
    /// A failed reservation is an `Err`, as at any later step; only a
    /// mapping the platform or filesystem cannot provide falls back to
    /// buffered writes.
    fn create_sized(
        dir: &Path,
        index: u64,
        target: u64,
        min_map: usize,
    ) -> Result<ActiveSegment, WalError> {
        let path = dir.join(segment_file_name(index));
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // Without it, records ACKed into this segment could vanish with
        // its directory entry on power loss.
        sync_parent_dir(&path)?;
        let header = file_header(WAL_MAGIC, index);
        file.write_all(&header)?;
        let want = (target as usize)
            .saturating_add(SEGMENT_HEADER_LEN + SEAL_LEN + MAP_SLACK)
            .max(min_map);
        let map = if want <= MAX_MAP_LEN { SegmentMap::create(&file, want)? } else { None };
        Ok(ActiveSegment {
            dir: dir.to_owned(),
            file,
            index,
            bytes: SEGMENT_HEADER_LEN as u64,
            records: 0,
            fnv: fnv_wide_update(FNV_OFFSET, &header),
            target,
            map,
        })
    }

    /// Puts raw bytes at the current append offset — a `memcpy` for
    /// mapped segments, `write(2)` for the buffered fallback. Does not
    /// advance the append offset (the seam paths deliberately leave
    /// mangled bytes unaccounted). Mapped callers must have run
    /// [`ActiveSegment::ensure_group_fits`] first: the mapping hands out
    /// only its prepared prefix, so a write past it panics rather than
    /// touching an unreserved page.
    fn write_raw(&mut self, data: &[u8]) -> io::Result<()> {
        match &mut self.map {
            Some(map) => {
                let at = self.bytes as usize;
                map.bytes_mut()[at..at + data.len()].copy_from_slice(data);
                Ok(())
            }
            None => self.file.write_all(data),
        }
    }

    /// Mapped segments are fixed-size: when the incoming group (plus
    /// the seal that must eventually follow it) would overrun the
    /// mapping, rotate first — into a specially sized segment if the
    /// group alone outgrows the default mapping. Sealing early is
    /// format-legal; `target` is a rotation threshold, not an exact
    /// size. Then, when the group would cross the prepared frontier,
    /// the steps it reaches are reserved and pre-faulted before a byte
    /// of it is written, so a failed reservation leaves the group out
    /// of the file. The buffered path has no such limit.
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        let Some(map) = &self.map else { return Ok(()) };
        if self.bytes as usize + incoming + SEAL_LEN > map.len() {
            self.seal()?;
            let min_map = SEGMENT_HEADER_LEN + incoming + SEAL_LEN;
            *self = ActiveSegment::create_sized(&self.dir, self.index + 1, self.target, min_map)?;
        }
        if let Some(map) = &mut self.map {
            map.reserve(&self.file, self.bytes as usize + incoming)?;
        }
        Ok(())
    }

    /// Commits a single record with no group buffer: the record is
    /// framed directly into the mapping — the inline fast path's
    /// commit, for an appender that won the segment lock over an empty
    /// queue. Fault-injection builds route through
    /// [`ActiveSegment::commit_group`] instead, because the seams tear
    /// and corrupt the *framed* bytes, which the zero-copy path never
    /// materializes.
    fn commit_one(&mut self, record: &Record<'_>, fsync: bool) -> Result<(), WalError> {
        let framed = RECORD_OVERHEAD + record.payload_len()?;
        self.ensure_group_fits(framed)?;
        if cfg!(feature = "failpoints") {
            // Route through the seam-bearing group path so the chaos
            // suite's torn/corrupt injections cover inline commits too.
            let mut buf = encode_record(record)?;
            return self.commit_group(&mut buf, 1, fsync);
        }
        let start = self.bytes as usize;
        match &mut self.map {
            Some(map) => {
                let sum = record.frame_into(&mut map.bytes_mut()[start..start + framed]);
                self.fnv = fnv_wide_update(self.fnv, &sum.to_be_bytes());
            }
            None => {
                let rec = encode_record(record)?;
                self.file.write_all(&rec)?;
                self.fnv = fnv_wide_update(self.fnv, &rec[rec.len() - 8..]);
            }
        }
        self.bytes += framed as u64;
        self.records += 1;
        if fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Writes one concatenated group of `count` records and, when the
    /// policy says so, fsyncs it. This is the *only* place record bytes
    /// reach the file, and (with [`ActiveSegment::seal`]) the only place
    /// a segment's bytes are fsynced — the `wal-durability` lint pins
    /// that shape. Directory entries are synced where they are created.
    ///
    /// The fault seams fire here: `wal.append.torn` truncates the group
    /// mid-write, `wal.segment.corrupt` flips a bit in it, and
    /// `wal.fsync.drop` skips the sync. All three model a crash mangling
    /// the in-flight group, so all three poison the log — the group's
    /// appenders get errors, not ACKs.
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        if let Some(FaultAction::Truncate { keep }) = oisum_faults::check("wal.append.torn") {
            let keep = keep.min(buf.len());
            self.write_raw(&buf[..keep])?;
            let _ = self.file.sync_data();
            return Err(WalError::Crashed("injected torn append".to_owned()));
        }
        if let Some(FaultAction::BitFlip { offset, bit }) =
            oisum_faults::check("wal.segment.corrupt")
        {
            if !buf.is_empty() {
                let i = offset % buf.len();
                buf[i] ^= 1 << (bit % 8);
            }
            self.write_raw(buf)?;
            let _ = self.file.sync_data();
            return Err(WalError::Crashed("injected segment corruption".to_owned()));
        }
        self.write_raw(buf)?;
        // Fold each record's stored checksum into the seal hash. The
        // walk re-reads only length fields — O(1) per record, not per
        // byte — and cannot run off the end: `buf` is records we
        // framed ourselves moments ago.
        let mut pos = 0;
        while pos < buf.len() {
            // lint:allow(service-unwrap) -- self-framed record, length prefix is present.
            let len = u32::from_be_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let check = &buf[pos + 4 + len..pos + 4 + len + 8];
            self.fnv = fnv_wide_update(self.fnv, check);
            pos += 4 + len + 8;
        }
        self.bytes += buf.len() as u64;
        self.records += count;
        if fsync {
            if oisum_faults::check("wal.fsync.drop").is_some() {
                return Err(WalError::Crashed("injected fsync drop".to_owned()));
            }
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Writes the seal footer — marker, record count, whole-prefix
    /// checksum — and fsyncs. After this the segment is immutable and
    /// fully self-verifying.
    ///
    /// A mapped segment carries the zero tail of its last prepared
    /// step, which must go before the footer does: recovery reads zeros
    /// after a completed seal as corruption (data past the seal), but
    /// an unsealed file that simply ends is clean. So the order is unmap, truncate to
    /// the append offset, *then* append the footer — a crash between
    /// any two steps leaves an ordinary unsealed segment whose records
    /// all replay.
    fn seal(&mut self) -> Result<(), WalError> {
        let footer = seal_footer(self.records, self.fnv);
        if self.map.take().is_some() {
            self.file.set_len(self.bytes)?;
        }
        self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Seals the current segment and starts the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.seal()?;
        *self = ActiveSegment::create(&self.dir, self.index + 1, self.target)?;
        Ok(())
    }
}

/// The production sink: the inherent methods above, exposed through the
/// protocol's storage seam.
impl SegmentSink for ActiveSegment {
    fn commit_one(&mut self, record: &Record<'_>, fsync: bool) -> Result<(), WalError> {
        ActiveSegment::commit_one(self, record, fsync)
    }

    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        ActiveSegment::ensure_group_fits(self, incoming)
    }

    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        ActiveSegment::commit_group(self, buf, count, fsync)
    }

    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        if self.bytes >= self.target {
            self.rotate()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<(), WalError> {
        ActiveSegment::seal(self)
    }

    fn index(&self) -> u64 {
        self.index
    }
}

/// Resolves an append after its commit attempt: by then `committed`
/// covers the ticket or the log is poisoned, so anything else here is a
/// logic bug surfaced as a crash verdict.
fn verdict<S: SyncShimLike>(s: S::Guard<'_, CommitQueue>, ticket: u64) -> Result<(), WalError> {
    if s.committed >= ticket {
        Ok(())
    } else {
        // lint:allow(service-unwrap) -- a failed commit attempt leaves crashed Some here.
        Err(WalError::Crashed(s.crashed.clone().unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::le_bytes;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-wal-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn streaming_wide_fnv_matches_oneshot_on_aligned_chunks() {
        // Streaming only composes at 8-byte boundaries — exactly how
        // the seal fold uses it (16-byte header, 8-byte checksums).
        let data: Vec<u8> = (0u16..256).flat_map(|i| i.to_le_bytes()).collect();
        let mut h = FNV_OFFSET;
        for chunk in data.chunks(8) {
            h = fnv_wide_update(h, chunk);
        }
        assert_eq!(h, fnv_wide(&data));
    }

    #[test]
    fn fsync_policy_parses_its_display_forms() {
        for policy in [FsyncPolicy::Group, FsyncPolicy::Never] {
            assert_eq!(policy.to_string().parse::<FsyncPolicy>(), Ok(policy));
        }
        assert_eq!("group".parse::<FsyncPolicy>(), Ok(FsyncPolicy::default()));
        // The retired `always` and `group(N,Tus)` spellings are refused,
        // not quietly aliased to `group`.
        for bad in [
            "",
            "Always",
            "always",
            "group(",
            "group(64)",
            "group(64,2000us)",
            "group(64,2ms)",
            "group(x,1us)",
        ] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn lane_fnv_detects_every_single_bit_flip() {
        // The record checksum's whole job: any one flipped payload bit
        // must change the sum, at every lane position and in the
        // sub-block tail. 87 bytes = two full 32-byte blocks + a
        // 23-byte tail that itself spans words and a byte remainder.
        let data: Vec<u8> = (0u8..87).map(|i| i.wrapping_mul(37)).collect();
        let clean = fnv4(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(clean, fnv4(&flipped), "missed flip at byte {byte} bit {bit}");
            }
        }
        // Truncation by one byte must change it too.
        assert_ne!(clean, fnv4(&data[..data.len() - 1]));
        // And the lanes must actually distinguish word positions: a
        // block of one repeated word hashes unlike its rotation.
        let mut a = vec![0u8; 32];
        a[0] = 1;
        let mut b = vec![0u8; 32];
        b[8] = 1;
        assert_ne!(fnv4(&a), fnv4(&b));
    }

    #[test]
    fn wide_fnv_tail_falls_back_to_bytes() {
        // A sub-word tail hashes byte-at-a-time; every byte must count.
        let data = b"order-invariant summation";
        assert_ne!(fnv_wide(data), fnv_wide(&data[..data.len() - 1]));
        let mut flipped = data.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_ne!(fnv_wide(data), fnv_wide(&flipped));
    }

    #[test]
    fn record_encoding_is_length_checksum_framed() {
        let values = le_bytes(&[1.5, -2.0]);
        let record = Record::fold("s", 7, 3, &values).unwrap();
        assert_eq!(record.total, ServiceHp::sum_f64_slice(&[1.5, -2.0]));
        let rec = encode_record(&record).unwrap();
        let payload_len = u32::from_be_bytes(rec[..4].try_into().unwrap()) as usize;
        assert_eq!(payload_len, RECORD_FIXED + 1 + 16);
        assert_eq!(rec.len(), 4 + payload_len + 8);
        let payload = &rec[4..4 + payload_len];
        let words: Vec<u64> = payload[..64]
            .chunks_exact(8)
            .map(|w| u64::from_be_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words[..2], [7, 3]);
        assert_eq!(words[2..], record.total.as_limbs()[..]);
        assert_eq!(payload[64..67], [0, 1, b's']);
        assert_eq!(payload[67..], values[..]);
        let sum = u64::from_be_bytes(rec[4 + payload_len..].try_into().unwrap());
        assert_eq!(sum, fnv4(payload));
    }

    #[test]
    fn oversized_names_and_payloads_are_refused() {
        let record = |stream, value_bytes| Record {
            stream,
            client_id: 1,
            seq: 1,
            total: ServiceHp::ZERO,
            value_bytes,
        };
        let long = "x".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            encode_record(&record(&long, &[])),
            Err(WalError::StreamNameTooLong { .. })
        ));
        let huge = vec![0u8; MAX_RECORD_PAYLOAD];
        assert!(matches!(
            encode_record(&record("s", &huge)),
            Err(WalError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn batches_without_an_exact_total_are_refused_and_not_logged() {
        let dir = temp_dir("bad-batch");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        let two191 = 2f64.powi(191);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, two191, -two191, 1e300] {
            let bytes = le_bytes(&[0.5, -1.0, bad]);
            for submit in [false, true] {
                let refused = if submit {
                    wal.submit("s", 1, 1, &bytes).map(drop)
                } else {
                    wal.append("s", 1, 1, &bytes)
                };
                match refused {
                    Err(WalError::BadBatch { detail }) => {
                        assert!(detail.contains("value 2 "), "{bad:?}: {detail}")
                    }
                    other => panic!("{bad:?} submit={submit}: {other:?}"),
                }
            }
        }
        let ragged = wal.append("s", 1, 1, &[0u8; 12]);
        assert!(matches!(ragged, Err(WalError::BadBatch { .. })), "{ragged:?}");
        wal.flush().unwrap();
        assert_eq!(wal.group_stats(), (0, 0), "a refused batch was logged");
        let edge = f64::from_bits(two191.to_bits() - 1);
        wal.append("s", 1, 1, &le_bytes(&[edge, -edge, 5e-324])).unwrap();
        wal.close().unwrap();
        assert_recovers(&dir, &[edge, -edge, 5e-324], 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_close_produces_a_sealed_segment() {
        let dir = temp_dir("sealed");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.append("s", 1, 2, &le_bytes(&[2.0, 3.0])).unwrap();
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let bytes = fs::read(&segments[0].1).unwrap();
        assert_eq!(&bytes[..8], &WAL_MAGIC);
        // Seal footer: marker, 2 records, fold of header + each
        // record's stored checksum in order.
        let tail = &bytes[bytes.len() - SEAL_LEN..];
        assert_eq!(u32::from_be_bytes(tail[..4].try_into().unwrap()), SEAL_MARKER);
        assert_eq!(u64::from_be_bytes(tail[4..12].try_into().unwrap()), 2);
        let mut expected = fnv_wide(&bytes[..SEGMENT_HEADER_LEN]);
        let mut pos = SEGMENT_HEADER_LEN;
        while pos < bytes.len() - SEAL_LEN {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            expected = fnv_wide_update(expected, &bytes[pos + 4 + len..pos + 4 + len + 8]);
            pos += 4 + len + 8;
        }
        assert_eq!(u64::from_be_bytes(tail[12..].try_into().unwrap()), expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_segments_rotate_and_every_policy_commits() {
        for fsync in [FsyncPolicy::Group, FsyncPolicy::Never] {
            let dir = temp_dir(&format!("rotate-{fsync}"));
            let config = WalConfig { dir: dir.clone(), segment_bytes: 128, fsync };
            let wal = Wal::open(config).unwrap();
            for seq in 1..=20u64 {
                wal.append("stream", 9, seq, &le_bytes(&[seq as f64])).unwrap();
            }
            wal.close().unwrap();
            let segments = list_segments(&dir).unwrap();
            assert!(segments.len() > 1, "128-byte target must rotate ({fsync})");
            // Indices are dense from 0.
            for (want, (got, _)) in segments.iter().enumerate() {
                assert_eq!(*got as usize, want);
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sequential_appends_count_one_group_each() {
        // A lone appender always wins the segment lock over an empty
        // queue, so each record commits inline as its own group — and
        // counts as one, or `records / groups` overstates amortization.
        for fsync in [FsyncPolicy::Group, FsyncPolicy::Never] {
            let dir = temp_dir(&format!("groups-{fsync}"));
            let wal = Wal::open(WalConfig { fsync, ..WalConfig::new(&dir) }).unwrap();
            for seq in 1..=6u64 {
                wal.append("s", 1, seq, &le_bytes(&[seq as f64])).unwrap();
            }
            assert_eq!(wal.group_stats(), (6, 6), "{fsync}");
            wal.close().unwrap();
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn blocking_appends_commit_without_a_committer_thread() {
        // Nothing but the appenders runs here, so an append that waited
        // for some other thread to commit its record would block
        // forever: four racing appenders run on spawned threads, and the
        // test waits for their verdicts with a timeout.
        const THREADS: u64 = 4;
        const APPENDS: u64 = 50;
        let shared = std::sync::Arc::new(Shared::<StdSyncShim, MemSink>::new(
            FsyncPolicy::default(),
            MemSink::default(),
            0,
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        let appenders: Vec<_> = (1..=THREADS)
            .map(|client| {
                let shared = std::sync::Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for seq in 1..=APPENDS {
                        let bytes = le_bytes(&[seq as f64]);
                        let ack = shared.append(&Record::fold("s", client, seq, &bytes).unwrap());
                        let _ = tx.send((client, seq, ack));
                    }
                })
            })
            .collect();
        drop(tx);
        for _ in 0..THREADS * APPENDS {
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok((client, seq, ack)) => {
                    ack.unwrap_or_else(|e| panic!("client {client} seq {seq} refused: {e}"))
                }
                Err(e) => panic!("a blocking append waited on a thread that never came: {e}"),
            }
        }
        for appender in appenders {
            appender.join().expect("appender thread panicked");
        }
        let (records, synced) =
            shared.probe(|sink, _, _| sink.map(|m| (m.records, m.synced_records))).unwrap();
        assert_eq!(shared.group_stats().0, THREADS * APPENDS);
        assert_eq!((records, synced), (200, 200), "every ACK rode on an fsync");
    }

    #[test]
    fn reopen_starts_a_fresh_segment_and_gc_below_keeps_it() {
        let dir = temp_dir("reopen");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.close().unwrap();
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 2, &le_bytes(&[2.0])).unwrap();
        // Open, the fresh segment 1 is still landing records: a snapshot
        // taken now covers only the ones below it.
        assert_eq!(wal.gc_boundary(), 1);
        assert_eq!(wal.gc_below(wal.gc_boundary()).unwrap(), 1);
        wal.close().unwrap();
        // Closed, the last segment is sealed and covered too.
        assert_eq!(wal.gc_boundary(), 2);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_poisons_pending_and_future_appends() {
        let dir = temp_dir("crash");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.crash();
        assert!(wal.is_crashed());
        assert!(matches!(
            wal.append("s", 1, 2, &le_bytes(&[2.0])),
            Err(WalError::Crashed(_))
        ));
        assert!(matches!(wal.close(), Err(WalError::Crashed(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appenders_all_commit() {
        let dir = temp_dir("concurrent");
        let config = WalConfig {
            dir: dir.clone(),
            segment_bytes: 4096,
            fsync: FsyncPolicy::Group,
        };
        let wal = std::sync::Arc::new(Wal::open(config).unwrap());
        std::thread::scope(|scope| {
            for client in 1..=4u64 {
                let wal = std::sync::Arc::clone(&wal);
                scope.spawn(move || {
                    for seq in 1..=50u64 {
                        wal.append("s", client, seq, &le_bytes(&[client as f64, seq as f64]))
                            .unwrap();
                    }
                });
            }
        });
        wal.close().unwrap();
        // Every segment together holds exactly 200 records.
        let mut records = 0u64;
        for (_, path) in list_segments(&dir).unwrap() {
            let bytes = fs::read(path).unwrap();
            let tail = &bytes[bytes.len() - SEAL_LEN..];
            if u32::from_be_bytes(tail[..4].try_into().unwrap()) == SEAL_MARKER {
                records += u64::from_be_bytes(tail[4..12].try_into().unwrap());
            }
        }
        assert_eq!(records, 200);
        fs::remove_dir_all(&dir).ok();
    }

    /// `n` summands of mixed sign and magnitude.
    fn values(n: usize, seed: u64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| {
                let x = (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                (x as f64 - 8.0e6) * 2f64.powi((i % 48) as i32 - 24)
            })
            .collect()
    }

    /// The record count of a sealed segment, asserting that the file is
    /// exactly header + records + seal.
    fn sealed_records(path: &Path) -> u64 {
        let bytes = fs::read(path).unwrap();
        let (mut pos, mut records) = (SEGMENT_HEADER_LEN, 0u64);
        loop {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap());
            if len == SEAL_MARKER {
                break;
            }
            pos += RECORD_OVERHEAD + len as usize;
            records += 1;
        }
        assert_eq!(pos + SEAL_LEN, bytes.len(), "{path:?}: not header + records + seal");
        assert_eq!(u64::from_be_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()), records);
        records
    }

    /// Recovers `dir` into a fresh ledger and checks that stream "s" is
    /// bitwise the sum of `logged`, with every record read and no torn
    /// tail.
    fn assert_recovers(dir: &Path, logged: &[f64], records: u64) {
        let ledger = crate::ShardedLedger::new(1);
        let report = crate::recovery::recover(dir, &ledger).unwrap();
        assert_eq!((report.records, report.torn.len()), (records, 0), "{report}");
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs(),
            crate::ServiceHp::sum_f64_slice(logged).as_limbs()
        );
    }

    fn file_len(path: &Path) -> usize {
        fs::metadata(path).unwrap().len() as usize
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn open_prepares_only_the_first_step() {
        use crate::segmap::STEP;
        let dir = temp_dir("first-step");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(file_len(&path), STEP);
        wal.close().unwrap();
        assert_eq!(sealed_records(&path), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn appends_prepare_step_after_step_and_seal_exactly() {
        use crate::segmap::STEP;
        let dir = temp_dir("steps");
        let segment_bytes = 5 << 20;
        let map_len = segment_bytes as usize + SEGMENT_HEADER_LEN + SEAL_LEN + MAP_SLACK;
        let wal = Wal::open(WalConfig { segment_bytes, ..WalConfig::new(&dir) }).unwrap();
        let mut logged = Vec::new();
        let mut lengths = Vec::new();
        for seq in 1..=100u64 {
            let batch = values(8192, seq);
            wal.append("s", 1, seq, &le_bytes(&batch)).unwrap();
            logged.extend_from_slice(&batch);
            let (index, path) = list_segments(&dir).unwrap().pop().unwrap();
            if index == 0 && lengths.last() != Some(&file_len(&path)) {
                lengths.push(file_len(&path));
            }
        }
        // The first segment grew one step at a time, then rotated.
        assert_eq!(lengths, [STEP, 2 * STEP, map_len]);
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        let records: u64 = segments.iter().map(|(_, path)| sealed_records(path)).sum();
        assert_eq!(records, 100);
        assert_recovers(&dir, &logged, 100);
        fs::remove_dir_all(&dir).ok();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_crash_mid_step_leaves_less_than_a_step_of_zero_tail() {
        use crate::segmap::STEP;
        let dir = temp_dir("crash-mid-step");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        let mut logged = Vec::new();
        let mut end = SEGMENT_HEADER_LEN;
        for seq in 1..=45u64 {
            let batch = values(8192, seq);
            let bytes = le_bytes(&batch);
            wal.append("s", 1, seq, &bytes).unwrap();
            logged.extend_from_slice(&batch);
            end += RECORD_OVERHEAD + RECORD_FIXED + 1 + bytes.len();
        }
        assert!(end > STEP + STEP / 4 && end < 2 * STEP - STEP / 4, "mid-step: {end}");
        wal.crash();
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = file_len(&path);
        assert!(len >= end && len - end < STEP, "{len} bytes for {end} of records");
        assert_recovers(&dir, &logged, 45);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn groups_longer_than_a_step_or_the_mapping_commit_and_recover() {
        // Two 1.5 MiB records submitted together commit as one 3 MiB
        // group: inside a default segment it spans two steps, and past
        // a 1 MiB segment's mapping it takes a segment sized for it.
        for segment_bytes in [DEFAULT_SEGMENT_BYTES, 1 << 20] {
            let dir = temp_dir(&format!("big-group-{segment_bytes}"));
            let wal = Wal::open(WalConfig { segment_bytes, ..WalConfig::new(&dir) }).unwrap();
            let mut logged = Vec::new();
            for seq in 1..=2u64 {
                let batch = values(3 << 16, seq);
                wal.submit("s", 1, seq, &le_bytes(&batch)).unwrap();
                logged.extend_from_slice(&batch);
            }
            wal.flush().unwrap();
            assert_eq!(wal.group_stats(), (2, 1));
            wal.close().unwrap();
            let records: u64 =
                list_segments(&dir).unwrap().iter().map(|(_, path)| sealed_records(path)).sum();
            assert_eq!(records, 2);
            assert_recovers(&dir, &logged, 2);
            fs::remove_dir_all(&dir).ok();
        }
    }
}
