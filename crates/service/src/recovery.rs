//! Replaying WAL segments into a ledger after a crash.
//!
//! The recovery contract, stated as an invariant over the combined
//! snapshot + WAL state:
//!
//! > After `snapshot::load` (latest dominating snapshot) followed by
//! > [`recover`], the ledger's limbs are bitwise-identical to an
//! > uncrashed run over every batch whose ACK the server issued, in any
//! > order — because the accumulator is exactly associative and
//! > commutative, and because an ACK was only ever issued after the
//! > batch's record committed.
//!
//! Three properties make that hold:
//!
//! 1. **Validate everything before applying anything.** Recovery parses
//!    and checksums *all* segments first; a hard error (corrupt sealed
//!    segment, index gap, bad header) aborts with the ledger untouched.
//!    A half-applied recovery is never observable.
//! 2. **Torn tails truncate, corruption rejects.** The last records of
//!    an unsealed segment may be a partially written group from the
//!    crash. The first record whose length/checksum framing does not
//!    verify marks the torn point; everything before it replays,
//!    everything after it is dropped and reported. A record that
//!    *checksums* correctly but is structurally impossible, a sealed
//!    footer that disagrees with its bytes, or data after a seal is not
//!    a torn tail — it is corruption, and recovery refuses rather than
//!    guessing (phantom-applying a damaged record would silently change
//!    an exact sum, the one unforgivable failure here).
//! 3. **Replay is idempotent.** Records are decided against the same
//!    `(client_id, seq)` dedup windows the live server keeps, so
//!    records already covered by the snapshot — or duplicated by a
//!    client retry straddling the crash — absorb into a no-op instead of
//!    double-counting.
//!
//! # How the work is laid out
//!
//! Each segment is mapped read-only (`segmap.rs`), never copied
//! into the heap, and the walk reads records straight out of the
//! mapping. A crash-left segment's zero tail is checked through `pread`,
//! so it never becomes resident. Segments are independent until applied,
//! so a log of at least 8 MiB is walked on every CPU.
//!
//! The apply needs four things of a record: its stream, its
//! `(client_id, seq)`, its logged total and its value count. So the
//! walk keeps only those, in an owned summary per verified record with
//! the stream interned per segment, and never needs a record's pages
//! again. As its cursor passes each 1 MiB window of a mapped segment
//! it releases the pages behind it, and the segment's mapping
//! (or read buffer) is dropped as soon as the segment has verified, on
//! the thread that walked it. A walking thread holds one window and the
//! record it is reading, however long the segment or the log.
//!
//! Once every segment has verified, the tracked summaries are applied in
//! log order, each as the exact total it logged ([`crate::wal::Record`]),
//! through the ledger's one locked add,
//! [`ShardedLedger::add_total_dedup`]. That is the serial record-by-record
//! replay itself: the same dedup decision against the same window, and
//! one sign test per batch, so limbs, counters, windows, overflow counts
//! and the [`RecoveryReport`] are exactly what re-encoding every value
//! would give, and no value is re-encoded. Each stream is looked up by
//! name once per recovery, not once per record.
//!
//! Recovery is strictly read-only on the segment files: it never
//! truncates or deletes, so a recovery interrupted by another crash
//! restarts from the same bytes.
//!
//! The same walk checks snapshots, which share the segment framing under
//! their own magic ([`crate::snapshot`]). One rule differs there: a
//! snapshot is written whole, so it must end in a valid seal, and a
//! torn tail is refused rather than truncated.

use crate::ledger::{ShardedLedger, StreamHandle};
use crate::proto::{split_name, UNTRACKED_CLIENT};
use crate::segmap::SegmentFile;
use crate::wal::{
    fnv4, fnv_wide, fnv_wide_update, list_segments, Record, WalError, MAX_RECORD_PAYLOAD,
    RECORD_TOTAL_LEN, SEAL_LEN, SEAL_MARKER, SEGMENT_HEADER_LEN, WAL_MAGIC, WAL_MAGIC_V1,
};
use crate::ServiceHp;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Logs of at least this many bytes are walked on every CPU; smaller
/// ones on the calling thread. On 2 vCPUs a two-segment log walked in
/// parallel took 4-13% longer than on one thread at 1-4 MiB and 6-10%
/// less from 8 MiB on.
const PAR_WALK_BYTES: usize = 8 << 20;

/// How far the walk gets through a file between releases of the pages
/// behind its cursor ([`Framed::release`]): a mapped segment keeps at
/// most this much of itself resident, plus the record being read. A
/// multiple of the page size.
pub(crate) const RELEASE_WINDOW: usize = 1 << 20;

/// A framed file as [`walk`] reads it: a WAL segment being recovered,
/// or bytes already in memory (a snapshot, a test's copy of a segment).
pub(crate) trait Framed {
    /// The whole file.
    fn bytes(&self) -> &[u8];

    /// Whether every byte from `offset` to the end is zero: the walk's
    /// test for the zero tail of an unsealed mapped segment.
    fn zero_from(&self, offset: usize) -> io::Result<bool>;

    /// Tells the file that the walk is done with `[from, to)`, offsets
    /// that are multiples of [`RELEASE_WINDOW`], so their pages may
    /// leave memory. The bytes must stay readable.
    fn release(&self, from: usize, to: usize);
}

impl Framed for [u8] {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn zero_from(&self, offset: usize) -> io::Result<bool> {
        Ok(self[offset..].iter().all(|&b| b == 0))
    }

    fn release(&self, _from: usize, _to: usize) {}
}

/// What [`recover`] did, for logging and assertions.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files replayed (including empty ones).
    pub segments: u64,
    /// Records parsed and fed to the ledger.
    pub records: u64,
    /// Records that actually deposited (not absorbed by a watermark).
    pub applied: u64,
    /// Records absorbed by dedup (snapshot-covered or client retries).
    pub deduped: u64,
    /// Values contained in applied records.
    pub values: u64,
    /// Records skipped because they carried no retry identity; the
    /// writer never logs those, so nonzero means foreign bytes.
    pub untracked_skipped: u64,
    /// Torn tails detected (at most one per unsealed segment).
    pub torn: Vec<TornTail>,
}

/// One `key=value` line: the counts, then how many torn tails were
/// truncated.
impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segments={} records={} applied={} deduped={} values={} torn={}",
            self.segments,
            self.records,
            self.applied,
            self.deduped,
            self.values,
            self.torn.len()
        )
    }
}

/// A detected partially-written group at the end of an unsealed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment index.
    pub segment: u64,
    /// Byte offset where verified records end.
    pub offset: u64,
    /// Bytes dropped after that offset.
    pub dropped_bytes: u64,
}

/// One framed file after [`walk`]: the decoded payload of every verified
/// record, in file order, and how the file ends.
pub(crate) struct Walk<T> {
    /// Decoded payloads, in file order.
    pub(crate) records: Vec<T>,
    /// The file ends in a seal that covers every record.
    pub(crate) sealed: bool,
    /// The unverifiable suffix of an unsealed file, if any.
    pub(crate) torn: Option<TornTail>,
}

/// What the apply needs of one verified WAL record, owned, so that its
/// segment's pages can go once the segment has verified.
struct Summary {
    /// The stream, as an index into its segment's [`Verified::names`].
    name: u32,
    client_id: u64,
    seq: u64,
    /// The exact total the record logged.
    total: ServiceHp,
    /// How many values the total sums.
    values: u64,
}

/// One verified segment, reduced to what the apply needs.
struct Verified {
    /// Every stream the segment names, once each.
    names: Vec<Box<str>>,
    /// Every verified record, in file order.
    records: Vec<Summary>,
    /// The unverifiable suffix of an unsealed segment, if any.
    torn: Option<TornTail>,
}

/// Replays every WAL segment in `dir` into `ledger`, oldest first. A
/// missing directory is an empty log. See the module docs for the
/// validate-then-apply and torn-vs-corrupt rules; on any `Err` the
/// ledger has not been touched.
pub fn recover(dir: &Path, ledger: &ShardedLedger) -> Result<RecoveryReport, WalError> {
    if !dir.exists() {
        return Ok(RecoveryReport::default());
    }
    let segments = list_segments(dir)?;
    for pair in segments.windows(2) {
        if pair[1].0 != pair[0].0 + 1 {
            return Err(WalError::MissingSegment { expected: pair[0].0 + 1, found: pair[1].0 });
        }
    }
    let mut log_bytes = 0;
    for (_, path) in &segments {
        log_bytes += std::fs::metadata(path)?.len();
    }
    let threads = if log_bytes >= PAR_WALK_BYTES as u64 {
        cpus()
    } else {
        1
    };
    // Pass 1: open, verify and summarize each segment, dropping its bytes
    // as soon as it has verified. Hard errors abort here, before the
    // ledger sees a single value; the first failing segment in log order
    // is the one reported.
    let verified = par_map(&segments, threads, |(index, path)| verify(*index, path))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    // Pass 2: apply each tracked record's logged total, in log order. A
    // stream is resolved on its first tracked record, as a record-by-record
    // replay would create it.
    let mut report = RecoveryReport { segments: segments.len() as u64, ..Default::default() };
    let mut streams: HashMap<&str, StreamHandle> = HashMap::new();
    for segment in &verified {
        let mut handles: Vec<Option<StreamHandle>> = vec![None; segment.names.len()];
        for record in &segment.records {
            report.records += 1;
            if record.client_id == UNTRACKED_CLIENT {
                report.untracked_skipped += 1;
                continue;
            }
            let stream = handles[record.name as usize].get_or_insert_with(|| {
                let name = &*segment.names[record.name as usize];
                streams.entry(name).or_insert_with(|| ledger.handle(name)).clone()
            });
            if stream.add_total(record.client_id, record.seq, &record.total, record.values) {
                report.applied += 1;
                report.values += record.values;
            } else {
                report.deduped += 1;
            }
        }
        report.torn.extend(segment.torn.clone());
    }
    Ok(report)
}

/// Opens, walks and summarizes segment `index`, releasing its pages as
/// the walk passes them; the segment's bytes are dropped on return.
fn verify(index: u64, path: &Path) -> Result<Verified, WalError> {
    let file = SegmentFile::open(path)?;
    let mut ids: HashMap<Box<str>, u32> = HashMap::new();
    let walked = walk(WAL_MAGIC, index, &file, |offset, payload| {
        let record = parse_payload(index, offset, payload)?;
        let name = match ids.get(record.stream) {
            Some(&id) => id,
            None => {
                let id = ids.len() as u32;
                ids.insert(record.stream.into(), id);
                id
            }
        };
        let values = (record.value_bytes.len() / 8) as u64;
        let Record { client_id, seq, total, .. } = record;
        Ok(Summary { name, client_id, seq, total, values })
    })?;
    let mut names = vec![Box::default(); ids.len()];
    for (name, id) in ids {
        names[id as usize] = name;
    }
    Ok(Verified { names, records: walked.records, torn: walked.torn })
}

/// This machine's CPU count, read once: `available_parallelism` reads
/// cgroup files on every call.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `job` on every item, on `threads` threads (the calling thread
/// and `threads - 1` scoped helpers) that take items in order from a
/// shared cursor, and returns the results in item order.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // ORDERING: Relaxed — the counter only hands out distinct
            // indices; the results travel back through the joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, job(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Walks one framed file — a WAL segment, or a snapshot under its own
/// magic — checking the header against `magic` and `index`, then every
/// record's framing and checksum, then the seal. `decode` turns each
/// verified payload, given its record's offset, into a record that may
/// borrow from the file; an `Err` from it, or from the file's zero-tail
/// check, is a hard error. Each time the cursor passes the end of a
/// [`RELEASE_WINDOW`], the file is told it may release the windows
/// behind it. Torn tails (the unverifiable suffix of an unsealed file)
/// truncate; everything else that fails to verify is a hard error.
pub(crate) fn walk<'a, T, F: Framed + ?Sized>(
    magic: [u8; 8],
    index: u64,
    file: &'a F,
    mut decode: impl FnMut(usize, &'a [u8]) -> Result<T, WalError>,
) -> Result<Walk<T>, WalError> {
    let bytes = file.bytes();
    if bytes.len() < SEGMENT_HEADER_LEN {
        // A header-length torn write can only happen to the very first
        // bytes of a brand-new file, before any record committed.
        if bytes.len() < 8 || magic.starts_with(&bytes[..8.min(bytes.len())]) {
            return Ok(Walk {
                records: Vec::new(),
                sealed: false,
                torn: Some(TornTail {
                    segment: index,
                    offset: 0,
                    dropped_bytes: bytes.len() as u64,
                }),
            });
        }
        return Err(WalError::BadHeader {
            segment: index,
            detail: format!("{} bytes is shorter than the header", bytes.len()),
        });
    }
    if bytes[..8] != magic {
        let detail = if magic == WAL_MAGIC && bytes[..8] == WAL_MAGIC_V1 {
            "a v1 log written by an older release, whose records carry no batch totals; \
             replay it with that release and take a snapshot before upgrading"
        } else {
            "bad magic"
        };
        return Err(WalError::BadHeader { segment: index, detail: detail.to_owned() });
    }
    let embedded = u64::from_be_bytes(
        bytes[8..16].try_into().map_err(|_| WalError::BadHeader {
            segment: index,
            detail: "unreadable index".to_owned(),
        })?,
    );
    if embedded != index {
        return Err(WalError::BadHeader {
            segment: index,
            detail: format!("embedded index {embedded:016x} disagrees with the file name"),
        });
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let mut released = 0;
    // Running seal fold: header, then each verified record's stored
    // checksum, mirroring what the writer accumulated (see the format
    // notes in [`crate::wal`]).
    let mut seal_fnv = fnv_wide(&bytes[..SEGMENT_HEADER_LEN]);
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            // Clean unsealed end (the log was between groups).
            return Ok(Walk { records, sealed: false, torn: None });
        }
        if remaining < 4 {
            return torn(index, records, offset, bytes);
        }
        let len_field = u32::from_be_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]);
        if len_field == SEAL_MARKER {
            return parse_seal(index, bytes, records, offset, seal_fnv);
        }
        if len_field == 0 && file.zero_from(offset)? {
            // The reserved, never-written rest of a mapped segment's
            // last prepared step (see `crate::segmap`): a length of 0
            // is unwritable (every payload has an 18-byte fixed head),
            // and nothing but zeros follows, so this is the clean
            // unsealed end of the segment — not a torn tail.
            return Ok(Walk { records, sealed: false, torn: None });
        }
        let payload_len = len_field as usize;
        if payload_len > MAX_RECORD_PAYLOAD {
            // An impossible length field is indistinguishable from a torn
            // group whose garbage happened to land in the length slot.
            return torn(index, records, offset, bytes);
        }
        if remaining < 4 + payload_len + 8 {
            return torn(index, records, offset, bytes);
        }
        let payload = &bytes[offset + 4..offset + 4 + payload_len];
        let stored = u64::from_be_bytes(
            bytes[offset + 4 + payload_len..offset + 4 + payload_len + 8]
                .try_into()
                .map_err(|_| WalError::Corrupt {
                    segment: index,
                    offset: offset as u64,
                    detail: "unreadable record checksum".to_owned(),
                })?,
        );
        if fnv4(payload) != stored {
            return torn(index, records, offset, bytes);
        }
        // The checksum verified: from here on, malformed structure is
        // corruption, not tearing (a torn write failing its checksum is
        // ~2^-64 likely, so a *passing* one was written whole).
        seal_fnv = fnv_wide_update(
            seal_fnv,
            &bytes[offset + 4 + payload_len..offset + 4 + payload_len + 8],
        );
        records.push(decode(offset, payload)?);
        offset += 4 + payload_len + 8;
        if offset - released >= RELEASE_WINDOW {
            let passed = offset - offset % RELEASE_WINDOW;
            file.release(released, passed);
            released = passed;
        }
    }
}

fn torn<T>(
    index: u64,
    records: Vec<T>,
    offset: usize,
    bytes: &[u8],
) -> Result<Walk<T>, WalError> {
    // Tearing only ever eats the *end* of a file. If the file still ends
    // with a seal marker, the segment was sealed and this unverifiable
    // record is mid-file damage — truncating would silently drop
    // committed (possibly ACKed) records, so refuse instead.
    if bytes.len() >= SEGMENT_HEADER_LEN + SEAL_LEN
        && bytes[bytes.len() - SEAL_LEN..bytes.len() - SEAL_LEN + 4] == SEAL_MARKER.to_be_bytes()
    {
        return Err(WalError::Corrupt {
            segment: index,
            offset: offset as u64,
            detail: "unverifiable record inside a sealed file".to_owned(),
        });
    }
    let remaining = bytes.len() - offset;
    Ok(Walk {
        records,
        sealed: false,
        torn: Some(TornTail {
            segment: index,
            offset: offset as u64,
            dropped_bytes: remaining as u64,
        }),
    })
}

/// Verifies a seal footer found at `offset` against everything before
/// it. A seal that does not verify — or bytes after one — is always a
/// hard error: sealed segments are immutable, so any disagreement is
/// corruption, never tearing. (A crash mid-footer leaves a partial
/// marker that fails the record-length parse and truncates as a torn
/// tail instead — the footer is only *interpreted* once all 20 bytes
/// are present.)
fn parse_seal<T>(
    index: u64,
    bytes: &[u8],
    records: Vec<T>,
    offset: usize,
    seal_fnv: u64,
) -> Result<Walk<T>, WalError> {
    let remaining = bytes.len() - offset;
    if remaining < SEAL_LEN {
        // Truncated mid-footer: the seal never finished, so the segment
        // is an unsealed one with a torn tail.
        return torn(index, records, offset, bytes);
    }
    if remaining > SEAL_LEN {
        return Err(WalError::Corrupt {
            segment: index,
            offset: (offset + SEAL_LEN) as u64,
            detail: format!("{} bytes after the seal footer", remaining - SEAL_LEN),
        });
    }
    let count = u64::from_be_bytes(
        bytes[offset + 4..offset + 12]
            .try_into()
            .map_err(|_| WalError::Corrupt {
                segment: index,
                offset: offset as u64,
                detail: "unreadable seal count".to_owned(),
            })?,
    );
    if count != records.len() as u64 {
        return Err(WalError::Corrupt {
            segment: index,
            offset: offset as u64,
            detail: format!("seal says {count} records, parsed {}", records.len()),
        });
    }
    let stored = u64::from_be_bytes(
        bytes[offset + 12..offset + 20]
            .try_into()
            .map_err(|_| WalError::Corrupt {
                segment: index,
                offset: offset as u64,
                detail: "unreadable seal checksum".to_owned(),
            })?,
    );
    if seal_fnv != stored {
        return Err(WalError::Corrupt {
            segment: index,
            offset: offset as u64,
            detail: "seal checksum does not cover the file's records".to_owned(),
        });
    }
    Ok(Walk { records, sealed: true, torn: None })
}

/// Decodes a checksum-verified payload. Failures here are hard errors:
/// the checksum passed, so the bytes are what was written — if they are
/// structurally impossible, the writer (or an editor of the file) was
/// broken, and applying a guess would corrupt an exact sum.
fn parse_payload(index: u64, offset: usize, payload: &[u8]) -> Result<Record<'_>, WalError> {
    let corrupt = |detail: String| WalError::Corrupt { segment: index, offset: offset as u64, detail };
    let short = || corrupt(format!("payload of {} bytes is shorter than the fixed fields", payload.len()));
    let (client_id, rest) = payload.split_first_chunk::<8>().ok_or_else(short)?;
    let (seq, rest) = rest.split_first_chunk::<8>().ok_or_else(short)?;
    let (total, rest) = rest.split_first_chunk::<RECORD_TOTAL_LEN>().ok_or_else(short)?;
    let (client_id, seq) = (u64::from_be_bytes(*client_id), u64::from_be_bytes(*seq));
    let limbs = total.as_chunks::<8>().0;
    let total = ServiceHp::from_limbs(core::array::from_fn(|i| u64::from_be_bytes(limbs[i])));
    let (stream, value_bytes) = split_name(rest).map_err(|e| corrupt(e.to_owned()))?;
    if !value_bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "value payload of {} bytes is not a multiple of 8",
            value_bytes.len()
        )));
    }
    Ok(Record { stream, client_id, seq, total, value_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::StreamState;
    use crate::proto::le_bytes;
    use crate::wal::{FsyncPolicy, Wal, WalConfig};
    use oisum_core::Hp6x3;
    use rand::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-recovery-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    /// The serial record-by-record replay `recover` must match: every
    /// segment read into memory and walked, then every tracked record's
    /// value bytes re-encoded through the ledger's byte deposit, in log
    /// order, so the logged totals are checked against a re-encode.
    fn replay_one_by_one(dir: &Path, ledger: &ShardedLedger) -> Result<RecoveryReport, WalError> {
        let segments = list_segments(dir)?;
        let files = segments
            .iter()
            .map(|(_, path)| fs::read(path))
            .collect::<Result<Vec<_>, _>>()?;
        let mut report = RecoveryReport {
            segments: segments.len() as u64,
            ..Default::default()
        };
        let mut parsed = Vec::new();
        for ((index, _), bytes) in segments.iter().zip(&files) {
            parsed.push(walk(WAL_MAGIC, *index, bytes.as_slice(), |offset, payload| {
                parse_payload(*index, offset, payload)
            })?);
        }
        for segment in &parsed {
            for r in &segment.records {
                report.records += 1;
                if r.client_id == UNTRACKED_CLIENT {
                    report.untracked_skipped += 1;
                    continue;
                }
                let (count, applied) =
                    ledger.add_batch_le_bytes_dedup(r.stream, 0, r.client_id, r.seq, r.value_bytes);
                if applied {
                    report.applied += 1;
                    report.values += count;
                } else {
                    report.deduped += 1;
                }
            }
            report.torn.extend(segment.torn.clone());
        }
        Ok(report)
    }

    /// One summand: mostly ordinary magnitudes of either sign, now and
    /// then zero or below the 2^-192 resolution, and, in the `edge`
    /// stream only, within a factor of two of ±2^191, where deposits
    /// overflow and the sign test counts them.
    fn summand(rng: &mut StdRng, stream: &str) -> f64 {
        let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
        match rng.random_range(0..16) {
            0 if stream == "edge" => sign * (1.0 + 0.999 * rng.random::<f64>()) * 2f64.powi(190),
            1 => 0.0,
            2 => sign * 2f64.powi(-200) * (1.0 + rng.random::<f64>()),
            _ => sign * rng.random::<f64>() * 2f64.powi(rng.random_range(-80..80)),
        }
    }

    /// A random log in `dir`: batches from several clients over several
    /// streams, with retried duplicates, seqs out of order, the same seq
    /// on several streams and untracked foreign records, in segments
    /// small enough to rotate: 8 KiB ones, read into memory, or 96 KiB
    /// ones, mapped. Sometimes a crash-left segment follows, with its
    /// zero tail intact, cut short, or scribbled on just past its
    /// records. Returns the logged batches in log order.
    fn random_log(
        rng: &mut StdRng,
        dir: &Path,
        records: usize,
    ) -> Vec<(String, u64, u64, Vec<f64>)> {
        let streams = ["a", "b", "c", "edge"];
        let mut next_seq = [1u64; 4];
        let mut logged: Vec<(String, u64, u64, Vec<f64>)> = Vec::new();
        let segment_bytes = if rng.random_bool(0.5) {
            8 << 10
        } else {
            96 << 10
        };
        let config = WalConfig {
            segment_bytes,
            ..WalConfig::new(dir)
        };
        let crash_at = if rng.random_bool(0.5) {
            rng.random_range(0..records)
        } else {
            records
        };
        let mut wal = Wal::open(config.clone()).unwrap();
        for i in 0..records {
            if i == crash_at {
                wal.close().unwrap();
                wal = Wal::open(config.clone()).unwrap();
            }
            let stream = streams[rng.random_range(0..streams.len())];
            let client = rng.random_range(0..4u64);
            let seq = match rng.random_range(0..8) {
                // A retry of an earlier batch, whole.
                0 if !logged.is_empty() => {
                    let (stream, client, seq, values) =
                        logged[rng.random_range(0..logged.len())].clone();
                    wal.append(&stream, client, seq, &le_bytes(&values))
                        .unwrap();
                    logged.push((stream, client, seq, values));
                    continue;
                }
                // Behind the client's latest seq.
                1 => rng.random_range(0..next_seq[client as usize] + 1),
                _ => {
                    next_seq[client as usize] += rng.random_range(1..3u64);
                    next_seq[client as usize]
                }
            };
            let n = rng.random_range(1..300);
            let values: Vec<f64> = (0..n).map(|_| summand(rng, stream)).collect();
            wal.append(stream, client, seq, &le_bytes(&values)).unwrap();
            logged.push((stream.to_owned(), client, seq, values));
        }
        if crash_at == records {
            wal.close().unwrap();
            return logged;
        }
        wal.crash();
        drop(wal);
        let (_, last) = list_segments(dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&last).unwrap();
        let end = bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(SEGMENT_HEADER_LEN, |i| i + 1);
        match rng.random_range(0..3) {
            0 => {}
            1 => bytes.truncate(rng.random_range(SEGMENT_HEADER_LEN..=end)),
            _ => bytes[end + rng.random_range(0..40usize)] = 0x5a,
        }
        fs::write(&last, &bytes).unwrap();
        logged
    }

    /// Recovers `dir` into two ledgers restored from the same snapshot,
    /// one through `recover` and one record by record, and demands the
    /// same report and the same state, window and counters included.
    fn assert_replays_match(dir: &Path, snapshot: &[StreamState], what: &str) {
        let (ledger, reference) = (ShardedLedger::new(4), ShardedLedger::new(4));
        ledger.restore(snapshot);
        reference.restore(snapshot);
        let report = recover(dir, &ledger);
        let expected = replay_one_by_one(dir, &reference);
        assert_eq!(
            format!("{report:?}"),
            format!("{expected:?}"),
            "{what}: report"
        );
        assert_eq!(
            ledger.snapshot(),
            reference.snapshot(),
            "{what}: ledger state"
        );
        assert_eq!(ledger.stats(), reference.stats(), "{what}: stats");
    }

    #[test]
    fn recover_matches_a_record_by_record_replay_on_random_logs() {
        let mut overflowed = 0;
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = temp_dir(&format!("equivalence-{seed}"));
            let records = rng.random_range(1..240usize);
            let logged = random_log(&mut rng, &dir, records);
            // A snapshot-restored window: a prefix of the log applied
            // before the crash, so replay must absorb what it covers.
            let prefix = ShardedLedger::new(3);
            for (stream, client, seq, values) in &logged[..rng.random_range(0..=logged.len())] {
                prefix.add_batch_le_bytes_dedup(stream, 0, *client, *seq, &le_bytes(values));
            }
            let snapshot = if rng.random_bool(0.5) {
                prefix.snapshot()
            } else {
                Vec::new()
            };
            assert_replays_match(&dir, &snapshot, &format!("seed {seed}"));
            let ledger = ShardedLedger::new(4);
            ledger.restore(&snapshot);
            recover(&dir, &ledger).ok();
            overflowed += usize::from(ledger.overflows("edge") > 0);
            fs::remove_dir_all(&dir).ok();
        }
        // Overflow counts were compared on streams that really overflowed.
        assert!(overflowed > 0, "no random log overflowed a stream");
    }

    #[test]
    fn a_log_big_enough_to_split_across_cpus_matches_too() {
        // Past the floor of 8 MiB of log, so the walk takes the
        // parallel path.
        let mut rng = StdRng::seed_from_u64(7);
        let dir = temp_dir("equivalence-big");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let wal = Wal::open(config).unwrap();
        for seq in 1..=600u64 {
            let stream = ["a", "b", "c", "d", "e", "edge"][rng.random_range(0..6usize)];
            let values: Vec<f64> = (0..2048).map(|_| summand(&mut rng, stream)).collect();
            wal.append(stream, 1 + seq % 3, seq, &le_bytes(&values))
                .unwrap();
        }
        wal.close().unwrap();
        let log_bytes: u64 = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|(_, path)| fs::metadata(path).unwrap().len())
            .sum();
        assert!(log_bytes as usize >= PAR_WALK_BYTES);
        assert_replays_match(&dir, &[], "big log");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg(unix)]
    fn recovers_more_segments_than_the_open_file_limit() {
        // The test runs again in a child whose soft open-file limit is
        // 64, so holding a descriptor per segment would fail there with
        // EMFILE whatever this process's own limit is.
        const CHILD: &str = "OISUM_RECOVERY_NOFILE_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let child = std::process::Command::new("sh")
                .args([
                    "-c",
                    r#"ulimit -Sn 64 && exec "$0" "$1" --exact --test-threads=1"#,
                ])
                .arg(std::env::current_exe().unwrap())
                .arg("recovery::tests::recovers_more_segments_than_the_open_file_limit")
                .env(CHILD, "1")
                .output()
                .unwrap();
            let out = String::from_utf8_lossy(&child.stdout);
            assert!(
                child.status.success(),
                "recovery under a 64-file limit: {}\n{out}",
                child.status
            );
            return;
        }
        // Every append rotates, and every other record is big enough
        // for its segment to be mapped rather than read.
        let dir = temp_dir("nofile");
        let wal = Wal::open(WalConfig {
            segment_bytes: 64,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        let mut all = Vec::new();
        for seq in 1..=150u64 {
            let n = if seq % 2 == 0 { 9000 } else { 3 };
            let values: Vec<f64> = (0..n).map(|i| (seq * 10_000 + i) as f64 * 0.25).collect();
            wal.append("s", 1, seq, &le_bytes(&values)).unwrap();
            all.extend(values);
        }
        wal.close().unwrap();
        let ledger = ShardedLedger::new(2);
        let report = recover(&dir, &ledger).unwrap();
        assert!(report.segments >= 150, "{report}");
        assert_eq!(report.applied, 150);
        assert_eq!(ledger.sum("s").unwrap(), Hp6x3::sum_f64_slice(&all));
        fs::remove_dir_all(&dir).ok();
    }

    /// This process's peak resident set so far (`VmHWM`), in bytes.
    #[cfg(target_os = "linux")]
    fn peak_resident() -> usize {
        let status = fs::read_to_string("/proc/self/status").unwrap();
        let kb = status.lines().find_map(|line| line.strip_prefix("VmHWM:")).unwrap();
        kb.trim().trim_end_matches("kB").trim().parse::<usize>().unwrap() << 10
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn writing_and_recovering_a_log_hold_a_bounded_part_of_it() {
        // Each phase runs in a child of its own, so each reads the peak
        // resident set of a process that did nothing else: one child
        // writes two 32 MiB segments, the next recovers them.
        use crate::segmap::STEP;
        use crate::wal::{RECORD_FIXED, RECORD_OVERHEAD};
        const PHASE: &str = "OISUM_RESIDENCY_PHASE";
        const DIR: &str = "OISUM_RESIDENCY_DIR";
        const SEGMENT: usize = 32 << 20;
        let Some(phase) = std::env::var_os(PHASE) else {
            if !Path::new("/proc/self/status").exists() {
                return;
            }
            let dir = temp_dir("residency");
            for phase in ["write", "recover"] {
                let child = std::process::Command::new(std::env::current_exe().unwrap())
                    .arg("recovery::tests::writing_and_recovering_a_log_hold_a_bounded_part_of_it")
                    .args(["--exact", "--test-threads=1", "--nocapture"])
                    .env(PHASE, phase)
                    .env(DIR, &dir)
                    .output()
                    .unwrap();
                let out = String::from_utf8_lossy(&child.stdout);
                assert!(child.status.success(), "{phase} phase: {}\n{out}", child.status);
            }
            fs::remove_dir_all(&dir).ok();
            return;
        };
        let dir = PathBuf::from(std::env::var_os(DIR).unwrap());
        // One batch, folded once: every record logs it under a new seq.
        let values: Vec<f64> = (0..1 << 16).map(|i| (i as f64 - 30_000.5) * 0.375).collect();
        let bytes = le_bytes(&values);
        let batch = Record::fold("s", 1, 0, &bytes).unwrap();
        let record_len = RECORD_OVERHEAD + RECORD_FIXED + 1 + bytes.len();
        // The first segment rotates at its target; the second stays under it.
        let records = (2 * SEGMENT / record_len - 1) as u64;
        let before = peak_resident();
        if phase == "write" {
            let config = WalConfig {
                segment_bytes: SEGMENT as u64,
                fsync: FsyncPolicy::Never,
                ..WalConfig::new(&dir)
            };
            let wal = Wal::open(config).unwrap();
            for seq in 1..=records {
                wal.append_record(&Record { seq, ..batch }).unwrap();
            }
            let grew = peak_resident() - before;
            wal.close().unwrap();
            assert_eq!(list_segments(&dir).unwrap().len(), 2);
            // Two steps of the mapping, and the commit queue's two buffers
            // of a record each, with room to spare.
            let bound = 2 * STEP + 8 * record_len;
            println!("write: grew {grew} bytes, bound {bound}");
            assert!(grew < bound, "writing grew the resident set by {grew} bytes, bound {bound}");
        } else {
            let ledger = ShardedLedger::new(1);
            let report = recover(&dir, &ledger).unwrap();
            let grew = peak_resident() - before;
            assert_eq!((report.applied, report.torn.len()), (records, 0), "{report}");
            let total = (0..records).fold(ServiceHp::ZERO, |acc, _| acc.wrapping_add(&batch.total));
            assert_eq!(ledger.sum("s").unwrap(), total);
            // Each walking thread holds one window and the record it
            // reads, with room to spare.
            let threads = cpus().min(2);
            let bound = threads * (RELEASE_WINDOW + 2 * record_len) + STEP;
            println!("recover: grew {grew} bytes, bound {bound}");
            assert!(grew < bound, "recovery grew the resident set by {grew} bytes, bound {bound}");
        }
    }

    /// Every record in `dir`'s segments, in log order, as owned
    /// `(stream, client_id, seq, total, value bytes)`.
    fn logged_records(dir: &Path) -> Vec<(String, u64, u64, ServiceHp, Vec<u8>)> {
        let mut records = Vec::new();
        for (index, path) in list_segments(dir).unwrap() {
            let bytes = fs::read(path).unwrap();
            let file = walk(WAL_MAGIC, index, bytes.as_slice(), |offset, payload| {
                parse_payload(index, offset, payload)
            })
            .unwrap();
            assert!(file.sealed, "segment {index} is not sealed");
            for r in file.records {
                let owned = (r.stream.to_owned(), r.client_id, r.seq, r.total, r.value_bytes.to_vec());
                records.push(owned);
            }
        }
        records
    }

    /// A summand at the edges of the format: within a factor of two of
    /// ±2^191, below the 2^-192 resolution, ±0, or subnormal.
    fn edge_summand(rng: &mut StdRng) -> f64 {
        let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
        let mantissa = rng.random_range(0..1u64 << 52);
        match rng.random_range(0..4) {
            0 => sign * f64::from_bits(2f64.powi(190).to_bits() + mantissa),
            1 => sign * f64::from_bits(rng.random_range(1..830u64) << 52 | mantissa),
            2 => sign * 0.0,
            _ => sign * f64::from_bits(mantissa.max(1)),
        }
    }

    #[test]
    fn every_logged_total_is_the_listing1_fold_of_its_values() {
        use crate::dispatch::{FrameOutcome, RequestCore, WalMode};
        use crate::proto::{add_binary_bytes, parse_client_frame, Response, MAGIC};
        use oisum_core::convert::encode_listing1;
        use std::sync::Arc;
        let listing1 = |bytes: &[u8]| {
            bytes.as_chunks::<8>().0.iter().fold(ServiceHp::ZERO, |acc, &w| {
                let x = f64::from_le_bytes(w);
                acc.wrapping_add(&ServiceHp::from_limbs(encode_listing1::<6, 3>(x)))
            })
        };
        // The four ways a record is written: the log's own blocking and
        // submit calls, which fold the bytes themselves, and a server's
        // blocking and submit dispatch, which log the total it deposited.
        for (path, seed) in ["append", "submit", "block", "pending"].into_iter().zip(11u64..) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = temp_dir(&format!("totals-{path}"));
            let config = WalConfig {
                segment_bytes: 16 << 10,
                fsync: FsyncPolicy::Never,
                ..WalConfig::new(&dir)
            };
            let wal = Arc::new(Wal::open(config).unwrap());
            let core = RequestCore::new(Arc::new(ShardedLedger::new(1))).with_wal(Arc::clone(&wal));
            let mut written = Vec::new();
            for seq in 1..=200u64 {
                let stream = ["a", "bb", "ccc"][rng.random_range(0..3usize)];
                let n = rng.random_range(0..40usize);
                let values: Vec<f64> = (0..n).map(|_| edge_summand(&mut rng)).collect();
                let bytes = le_bytes(&values);
                let frame = add_binary_bytes(stream, 5, seq, &values).unwrap();
                let view = || parse_client_frame(MAGIC, &frame[8..]).unwrap();
                match path {
                    "append" => wal.append(stream, 5, seq, &bytes).unwrap(),
                    "submit" => {
                        wal.submit(stream, 5, seq, &bytes).unwrap();
                        wal.flush().unwrap();
                    }
                    "block" => {
                        let (reply, _) = core.handle_frame(view(), &mut 0);
                        assert!(matches!(reply, Response::Added { .. }), "{reply:?}");
                    }
                    _ => {
                        let outcome = core.handle_frame_with(view(), &mut 0, WalMode::Submit);
                        assert!(matches!(outcome, FrameOutcome::WalPending { .. }), "{outcome:?}");
                        wal.flush().unwrap();
                    }
                }
                written.push((stream.to_owned(), seq, bytes));
            }
            wal.close().unwrap();
            let logged = logged_records(&dir);
            assert!(list_segments(&dir).unwrap().len() > 1, "{path}: the log never rotated");
            assert_eq!(logged.len(), written.len(), "{path}");
            for ((stream, client, seq, total, bytes), want) in logged.iter().zip(&written) {
                assert_eq!((stream, *seq, bytes), (&want.0, want.1, &want.2), "{path}");
                assert_eq!(*client, 5, "{path}");
                assert_eq!(*total, listing1(bytes), "{path}: record {seq}'s total");
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_v1_log_is_refused_by_name_before_anything_applies() {
        // A v1 segment as an older release wrote it: the header, then one
        // record `client_id | seq | name len | name | values` with a
        // valid checksum, and no total.
        let dir = temp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_be_bytes());
        payload.extend_from_slice(&1u64.to_be_bytes());
        payload.extend_from_slice(&1u16.to_be_bytes());
        payload.extend_from_slice(b"s");
        payload.extend_from_slice(&le_bytes(&[1.5, -0.25]));
        let mut segment = b"OISWALv1".to_vec();
        segment.extend_from_slice(&0u64.to_be_bytes());
        segment.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        segment.extend_from_slice(&payload);
        segment.extend_from_slice(&fnv4(&payload).to_be_bytes());
        fs::write(dir.join(crate::wal::segment_file_name(0)), &segment).unwrap();

        let ledger = ShardedLedger::new(1);
        ledger.add_batch_le_bytes_dedup("held", 0, 3, 1, &le_bytes(&[2.0]));
        let before = ledger.snapshot();
        let err = recover(&dir, &ledger).unwrap_err();
        let WalError::BadHeader { segment: 0, detail } = &err else { panic!("{err:?}") };
        assert!(detail.contains("v1 log written by an older release"), "{detail}");
        assert_eq!(ledger.snapshot(), before, "the ledger changed");

        let served = crate::serve(crate::ServerConfig {
            wal: Some(WalConfig::new(&dir)),
            ..Default::default()
        });
        let Err(e) = served else { panic!("a server started on a v1 log") };
        assert!(e.to_string().contains("v1 log written by an older release"), "{e}");
        // The refusal left the log as it was: no v2 segment was started.
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_an_empty_log() {
        let dir = temp_dir("missing");
        let ledger = ShardedLedger::new(2);
        let report = recover(&dir, &ledger).unwrap();
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn roundtrip_restores_bitwise_sums_and_watermarks() {
        let dir = temp_dir("roundtrip");
        let values = [1.0, 1e-30, -3.25, 1e18, 0.015625];
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("a", 7, 1, &le_bytes(&values[..3])).unwrap();
        wal.append("a", 7, 2, &le_bytes(&values[3..])).unwrap();
        wal.append("b", 9, 1, &le_bytes(&values)).unwrap();
        // A duplicate of (7, 2), as a retry straddling a crash would
        // leave behind: replay must absorb it.
        wal.append("a", 7, 2, &le_bytes(&values[3..])).unwrap();
        wal.close().unwrap();

        let ledger = ShardedLedger::new(4);
        let report = recover(&dir, &ledger).unwrap();
        assert_eq!(report.records, 4);
        assert_eq!(report.applied, 3);
        assert_eq!(report.deduped, 1);
        assert_eq!(report.values, 5 + 5);
        assert!(report.torn.is_empty());

        assert_eq!(
            ledger.sum("a").unwrap().as_limbs(),
            Hp6x3::sum_f64_slice(&values).as_limbs()
        );
        assert_eq!(
            ledger.sum("b").unwrap().as_limbs(),
            Hp6x3::sum_f64_slice(&values).as_limbs()
        );
        // Watermarks survived: a post-recovery replay of (9, 1) dedups.
        let (_, applied) = ledger.add_batch_le_bytes_dedup("b", 0, 9, 1, &le_bytes(&values));
        assert!(!applied);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_spanning_rotated_segments_applies_in_order() {
        let dir = temp_dir("rotated");
        let config = WalConfig { dir: dir.clone(), segment_bytes: 96, ..WalConfig::new(&dir) };
        let wal = Wal::open(config).unwrap();
        let mut all = Vec::new();
        for seq in 1..=12u64 {
            let v = [seq as f64 * 0.1, -(seq as f64) * 1e10];
            all.extend_from_slice(&v);
            wal.append("s", 3, seq, &le_bytes(&v)).unwrap();
        }
        wal.close().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 1);

        let ledger = ShardedLedger::new(2);
        let report = recover(&dir, &ledger).unwrap();
        assert_eq!(report.applied, 12);
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs(),
            Hp6x3::sum_f64_slice(&all).as_limbs()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_and_sealed_corruption_rejects() {
        let dir = temp_dir("torn");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.append("s", 1, 2, &le_bytes(&[2.0])).unwrap();
        wal.close().unwrap();
        let (index, path) = list_segments(&dir).unwrap().pop().unwrap();

        // Chop the sealed file mid-way: the seal disappears, the cut
        // record becomes a torn tail, the prefix still replays.
        let sealed = fs::read(&path).unwrap();
        fs::write(&path, &sealed[..sealed.len() - SEAL_LEN - 5]).unwrap();
        let ledger = ShardedLedger::new(2);
        let report = recover(&dir, &ledger).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.torn.len(), 1);
        assert_eq!(report.torn[0].segment, index);
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs(),
            Hp6x3::sum_f64_slice(&[1.0]).as_limbs()
        );

        // Flip a bit inside the still-sealed original: hard reject, and
        // the ledger stays untouched.
        let mut flipped = sealed.clone();
        let mid = SEGMENT_HEADER_LEN + 10;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let ledger = ShardedLedger::new(2);
        let err = recover(&dir, &ledger).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. } | WalError::BadHeader { .. }), "{err}");
        assert!(ledger.sum("s").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_gap_is_a_hard_error() {
        let dir = temp_dir("gap");
        let config = WalConfig { dir: dir.clone(), segment_bytes: 64, ..WalConfig::new(&dir) };
        let wal = Wal::open(config).unwrap();
        for seq in 1..=8u64 {
            wal.append("s", 1, seq, &le_bytes(&[seq as f64])).unwrap();
        }
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        fs::remove_file(&segments[1].1).unwrap();
        let ledger = ShardedLedger::new(2);
        assert!(matches!(
            recover(&dir, &ledger),
            Err(WalError::MissingSegment { .. })
        ));
        assert!(ledger.sum("s").is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
