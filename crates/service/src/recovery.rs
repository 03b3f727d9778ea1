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
//! Once every segment has verified, the tracked records are grouped by
//! stream, in log order. Streams are independent too: each one's records
//! are decided against its restored window in log order, as a
//! record-by-record replay would, and the accepted payloads are summed
//! as one run through a [`StagedAcc`], which hands the kernel's bins a
//! few thousand values per flush rather than one record's 256. The
//! stream then lands whole: its restored state plus the run, installed
//! as a new [`StreamState`] through [`ShardedLedger::install`], the
//! call cluster rejoin uses. Order invariance is what makes the run
//! bitwise equal to the per-record replay. A stream with fewer than
//! [`BINS_MIN_LEN`] values, too few for the bins, gains nothing from a
//! run and replays record by record. Replays of at least 64 Ki values
//! spread the streams over every CPU, largest first.
//!
//! One thing a run would change is the overflow count: the ledger's
//! sign test runs once per deposit, and a run is one add where the
//! serial replay makes one per record. So a stream takes the run only
//! when its restored magnitude, and its value count times its largest
//! magnitude, are each bounded by a power of two no larger than 2^189,
//! so that together they stay below 2^190, half the 2^191 range. Then
//! no partial sum and no record total can come near the range, so the
//! per-record replay would count nothing either. Any other stream,
//! including one with a NaN or an infinity, replays record by record
//! through [`ShardedLedger::add_batch_le_bytes_dedup`]. Limbs, counters,
//! windows, overflow counts and the [`RecoveryReport`] match a serial
//! record-by-record replay either way.
//!
//! Recovery is strictly read-only on the segment files: it never
//! truncates or deletes, so a recovery interrupted by another crash
//! restarts from the same bytes.
//!
//! The same walk checks snapshots, which share the segment framing under
//! their own magic ([`crate::snapshot`]). One rule differs there: a
//! snapshot is written whole, so it must end in a valid seal, and a
//! torn tail is refused rather than truncated.

use crate::ledger::{ShardedLedger, StreamState};
use crate::proto::{split_name, UNTRACKED_CLIENT};
use crate::segmap::SegmentFile;
use crate::wal::{
    fnv4, fnv_wide, fnv_wide_update, list_segments, WalError, MAX_RECORD_PAYLOAD, SEAL_LEN,
    SEAL_MARKER, SEGMENT_HEADER_LEN, WAL_MAGIC,
};
use crate::ServiceHp;
use oisum_core::{StagedAcc, BINS_MIN_LEN};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Logs of at least this many bytes are walked on every CPU; smaller
/// ones on the calling thread. On 2 vCPUs a two-segment log walked in
/// parallel took 4-13% longer than on one thread at 1-4 MiB and 6-10%
/// less from 8 MiB on.
const PAR_WALK_BYTES: usize = 8 << 20;

/// Replays applying at least this many values split their streams
/// across the CPUs; smaller ones run on the calling thread. On 2 vCPUs
/// the split over 16 streams broke even between 32 Ki and 96 Ki values.
const PAR_APPLY_VALUES: u64 = 1 << 16;

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

/// One parsed, checksum-verified record, borrowing its name and values
/// from the segment bytes it was read from.
struct ParsedRecord<'a> {
    client_id: u64,
    seq: u64,
    stream: &'a str,
    /// Raw little-endian f64 payload, length a multiple of 8.
    values: &'a [u8],
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

/// What one stream's replay adds to the report.
#[derive(Default)]
struct Tally {
    applied: u64,
    deduped: u64,
    values: u64,
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
    // Pass 1: map and verify everything. Hard errors abort here, before
    // the ledger sees a single value; the first failing segment in log
    // order is the one reported.
    let files = segments
        .iter()
        .map(|(_, path)| SegmentFile::open(path))
        .collect::<Result<Vec<_>, _>>()?;
    let log_bytes: usize = files.iter().map(|file| file.bytes().len()).sum();
    let threads = if log_bytes >= PAR_WALK_BYTES {
        cpus()
    } else {
        1
    };
    let jobs: Vec<(u64, &SegmentFile)> = segments
        .iter()
        .map(|(index, _)| *index)
        .zip(&files)
        .collect();
    let parsed = par_map(&jobs, threads, |&(index, file)| {
        let zero_from = |at| Ok(file.zero_from(at)?);
        walk(
            WAL_MAGIC,
            index,
            file.bytes(),
            zero_from,
            |offset, payload| parse_payload(index, offset, payload),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    // Pass 2: group the tracked records by stream, each in log order.
    let mut report = RecoveryReport { segments: segments.len() as u64, ..Default::default() };
    let mut runs: BTreeMap<&str, Vec<&ParsedRecord<'_>>> = BTreeMap::new();
    for segment in &parsed {
        for record in &segment.records {
            report.records += 1;
            if record.client_id == UNTRACKED_CLIENT {
                report.untracked_skipped += 1;
                continue;
            }
            runs.entry(record.stream).or_default().push(record);
        }
        if let Some(torn) = &segment.torn {
            report.torn.push(torn.clone());
        }
    }

    // Pass 3: apply, one stream at a time, the largest first.
    let mut runs: Vec<(&str, Vec<&ParsedRecord<'_>>, u64)> = runs
        .into_iter()
        .map(|(name, run)| {
            let values = run.iter().map(|record| (record.values.len() / 8) as u64).sum();
            (name, run, values)
        })
        .collect();
    runs.sort_by_key(|&(_, _, values)| std::cmp::Reverse(values));
    let total: u64 = runs.iter().map(|&(_, _, values)| values).sum();
    let threads = if total >= PAR_APPLY_VALUES { cpus() } else { 1 };
    let apply = |(name, run, values): &(&str, Vec<&ParsedRecord<'_>>, u64)| {
        // Too few values for the bins: staging would gain nothing.
        if *values < BINS_MIN_LEN as u64 {
            replay_records(ledger, name, run)
        } else {
            replay_stream(ledger, name, run)
        }
    };
    for tally in par_map(&runs, threads, apply) {
        report.applied += tally.applied;
        report.deduped += tally.deduped;
        report.values += tally.values;
    }
    Ok(report)
}

/// Replays one stream's tracked records, in log order, against its
/// restored dedup window, and sums what applies as one run; see the
/// module docs for when it falls back to [`replay_records`].
fn replay_stream(ledger: &ShardedLedger, name: &str, run: &[&ParsedRecord<'_>]) -> Tally {
    let restored = ledger.stream_state(name).unwrap_or_else(|| StreamState {
        name: name.to_owned(),
        ..Default::default()
    });
    let mut window: HashMap<u64, u64> = restored.dedup.iter().copied().collect();
    let mut staged = StagedAcc::new();
    let mut tally = Tally::default();
    // The largest raw exponent field applied: every summand is below
    // 2^(widest - 1022), and a NaN or an infinity (field 0x7ff) bounds
    // nothing.
    let mut widest = 0u16;
    for record in run {
        let last = window.entry(record.client_id).or_default();
        if record.seq <= *last {
            tally.deduped += 1;
            continue;
        }
        *last = record.seq;
        let words = record.values.as_chunks::<8>().0;
        let exponents = words
            .iter()
            .map(|&w| (u64::from_le_bytes(w) >> 52) as u16 & 0x7ff);
        widest = widest.max(exponents.max().unwrap_or(0));
        staged.extend_le_bytes(record.values);
        tally.applied += 1;
        tally.values += words.len() as u64;
    }
    if !stays_in_half_range(&restored.sum, tally.values, widest) {
        return replay_records(ledger, name, run);
    }
    let mut dedup: Vec<(u64, u64)> = window.into_iter().filter(|&(_, seq)| seq > 0).collect();
    dedup.sort_unstable();
    ledger.install(&StreamState {
        sum: restored.sum.wrapping_add(&staged.finish()),
        dedup,
        batches: restored.batches + tally.applied,
        values: restored.values + tally.values,
        ..restored
    });
    tally
}

/// Whether `values` summands, each below 2^(widest - 1022) in magnitude
/// (`widest` a raw exponent field), keep every partial sum started from
/// `restored` below 2^190 in magnitude, in any grouping. Both parts are
/// bounded by powers of two, and each must be at most 2^189:
/// |restored| < (|top limb| + 1) · 2^128 < 2^(128 + bits(|top limb| + 1)),
/// and the summands together stay below 2^(bits(values) + widest - 1022).
/// A NaN or an infinity (field 0x7ff) fails.
fn stays_in_half_range(restored: &ServiceHp, values: u64, widest: u16) -> bool {
    let bits = |x: u64| i64::from(u64::BITS - x.leading_zeros());
    let top = restored.as_limbs()[0].cast_signed().unsigned_abs();
    128 + bits(top + 1) <= 189 && bits(values) + i64::from(widest) - 1022 <= 189
}

/// The serial replay for one stream: every record through the ledger's
/// own deposit, in log order.
fn replay_records(ledger: &ShardedLedger, name: &str, run: &[&ParsedRecord<'_>]) -> Tally {
    let mut tally = Tally::default();
    for record in run {
        let (count, applied) =
            ledger.add_batch_le_bytes_dedup(name, 0, record.client_id, record.seq, record.values);
        if applied {
            tally.applied += 1;
            tally.values += count;
        } else {
            tally.deduped += 1;
        }
    }
    tally
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
/// record's framing and checksum, then the seal. `zero_from(offset)`
/// says whether every byte of the file from `offset` on is zero, for
/// the zero-tail rule below. `decode` turns each verified payload,
/// given its record's offset, into a record that may borrow from
/// `bytes`. An `Err` from either is a hard error. Torn tails (the
/// unverifiable suffix of an unsealed file) truncate; everything else
/// that fails to verify is a hard error.
pub(crate) fn walk<'a, T>(
    magic: [u8; 8],
    index: u64,
    bytes: &'a [u8],
    mut zero_from: impl FnMut(usize) -> Result<bool, WalError>,
    mut decode: impl FnMut(usize, &'a [u8]) -> Result<T, WalError>,
) -> Result<Walk<T>, WalError> {
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
        return Err(WalError::BadHeader { segment: index, detail: "bad magic".to_owned() });
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
        if len_field == 0 && zero_from(offset)? {
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
fn parse_payload(index: u64, offset: usize, payload: &[u8]) -> Result<ParsedRecord<'_>, WalError> {
    let corrupt = |detail: String| WalError::Corrupt { segment: index, offset: offset as u64, detail };
    let short = || corrupt(format!("payload of {} bytes is shorter than the fixed fields", payload.len()));
    let (client_id, rest) = payload.split_first_chunk::<8>().ok_or_else(short)?;
    let (seq, rest) = rest.split_first_chunk::<8>().ok_or_else(short)?;
    let (client_id, seq) = (u64::from_be_bytes(*client_id), u64::from_be_bytes(*seq));
    let (stream, values) = split_name(rest).map_err(|e| corrupt(e.to_owned()))?;
    if !values.len().is_multiple_of(8) {
        return Err(corrupt(format!("value payload of {} bytes is not a multiple of 8", values.len())));
    }
    Ok(ParsedRecord { client_id, seq, stream, values })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// segment read into memory and walked, then every tracked record
    /// through the ledger's deposit, in log order.
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
            let zero_from = |at: usize| Ok(bytes[at..].iter().all(|&b| b == 0));
            parsed.push(walk(
                WAL_MAGIC,
                *index,
                bytes,
                zero_from,
                |offset, payload| parse_payload(*index, offset, payload),
            )?);
        }
        for segment in &parsed {
            for r in &segment.records {
                report.records += 1;
                if r.client_id == UNTRACKED_CLIENT {
                    report.untracked_skipped += 1;
                    continue;
                }
                let (count, applied) =
                    ledger.add_batch_le_bytes_dedup(r.stream, 0, r.client_id, r.seq, r.values);
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
    /// overflow and the per-record fallback has to run.
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
        // The range bound's fallback was exercised, not just reachable.
        assert!(overflowed > 0, "no random log overflowed a stream");
    }

    #[test]
    fn a_log_big_enough_to_split_across_cpus_matches_too() {
        // Past both floors: 8 MiB of log and 64 Ki applied values, so
        // the walk and the apply both take the parallel path.
        let mut rng = StdRng::seed_from_u64(7);
        let dir = temp_dir("equivalence-big");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let wal = Wal::open(config).unwrap();
        let mut values_logged = 0;
        for seq in 1..=600u64 {
            let stream = ["a", "b", "c", "d", "e", "edge"][rng.random_range(0..6usize)];
            let values: Vec<f64> = (0..2048).map(|_| summand(&mut rng, stream)).collect();
            wal.append(stream, 1 + seq % 3, seq, &le_bytes(&values))
                .unwrap();
            values_logged += values.len();
        }
        wal.close().unwrap();
        assert!(values_logged as u64 >= PAR_APPLY_VALUES);
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
