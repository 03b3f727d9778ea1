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
//! 3. **Replay is idempotent.** Records are re-applied through the same
//!    `(client_id, seq)` dedup watermarks the live server uses, so
//!    records already covered by the snapshot — or duplicated by a
//!    client retry straddling the crash — absorb into a no-op instead of
//!    double-counting.
//!
//! Recovery is strictly read-only on the segment files: it never
//! truncates or deletes, so a recovery interrupted by another crash
//! restarts from the same bytes.
//!
//! The same walk checks snapshots, which share the segment framing under
//! their own magic ([`crate::snapshot`]). One rule differs there: a
//! snapshot is written whole, so it must end in a valid seal, and a
//! torn tail is refused rather than truncated.

use crate::ledger::ShardedLedger;
use crate::proto::{split_name, UNTRACKED_CLIENT};
use crate::wal::{
    fnv4, fnv_wide, fnv_wide_update, list_segments, WalError, MAX_RECORD_PAYLOAD, RECORD_OVERHEAD,
    SEAL_LEN, SEAL_MARKER, SEGMENT_HEADER_LEN, WAL_MAGIC,
};
use std::fs;
use std::path::Path;

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
    // Pass 1: parse + verify everything. Hard errors abort here, before
    // the ledger sees a single value. The segment bytes stay read for
    // pass 2, which applies the records straight out of them.
    let mut bytes = Vec::with_capacity(segments.len());
    for (index, path) in &segments {
        let mut buf = fs::read(path)?;
        // A pre-sized segment a crash left unsealed ends in its zero
        // tail. Keep only the verified records, so pass 2 holds what the
        // log wrote and not a whole segment per crash; the zeros walk as
        // a clean end, so the walk below reads the same records.
        if buf.ends_with(&[0; 8]) {
            let mut end = SEGMENT_HEADER_LEN;
            let walked = walk(WAL_MAGIC, *index, &buf, |offset, payload| {
                end = offset + RECORD_OVERHEAD + payload.len();
                Ok(())
            })?;
            if !walked.sealed && walked.torn.is_none() && end < buf.len() {
                buf = buf[..end].to_vec();
            }
        }
        bytes.push(buf);
    }
    let mut parsed = Vec::with_capacity(segments.len());
    for ((index, _), bytes) in segments.iter().zip(&bytes) {
        parsed.push(walk(WAL_MAGIC, *index, bytes, |offset, payload| {
            parse_payload(*index, offset, payload)
        })?);
    }
    // Pass 2: apply in order through the dedup watermarks.
    let mut report = RecoveryReport { segments: segments.len() as u64, ..Default::default() };
    let mut hint = 0usize;
    for segment in &parsed {
        for rec in &segment.records {
            report.records += 1;
            if rec.client_id == UNTRACKED_CLIENT {
                report.untracked_skipped += 1;
                continue;
            }
            let (count, applied) =
                ledger.add_batch_le_bytes_dedup(rec.stream, hint, rec.client_id, rec.seq, rec.values);
            hint = hint.wrapping_add(1);
            if applied {
                report.applied += 1;
                report.values += count;
            } else {
                report.deduped += 1;
            }
        }
        if let Some(torn) = &segment.torn {
            report.torn.push(torn.clone());
        }
    }
    Ok(report)
}

/// Walks one framed file — a WAL segment, or a snapshot under its own
/// magic — checking the header against `magic` and `index`, then every
/// record's framing and checksum, then the seal. `decode` turns each
/// verified payload, given its record's offset, into a record that may
/// borrow from `bytes`; its `Err` is a hard error. Torn tails (the
/// unverifiable suffix of an unsealed file) truncate; everything else
/// that fails to verify is a hard error.
pub(crate) fn walk<'a, T>(
    magic: [u8; 8],
    index: u64,
    bytes: &'a [u8],
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
        if len_field == 0 && bytes[offset..].iter().all(|&b| b == 0) {
            // The zero-filled preallocated remainder of a mapped
            // segment (see `crate::segmap`): a length of 0 is
            // unwritable (every payload has an 18-byte fixed head),
            // and nothing but zeros follows, so this is the clean
            // unsealed end of a pre-sized file — not a torn tail.
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
    use crate::wal::{Wal, WalConfig};
    use oisum_core::Hp6x3;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-recovery-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
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
