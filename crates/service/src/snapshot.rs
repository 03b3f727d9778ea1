//! Ledger persistence: a snapshot of exact per-stream state, framed like
//! a WAL segment.
//!
//! A snapshot file is
//!
//! ```text
//! [ 8B magic "OISSNPv1" ][ 8B BE 0 ]                  <- header
//! [ 4B BE payload len ][ payload ][ 8B BE fnv4 ]      <- record, one or more per stream
//! [ 4B BE 0xFFFFFFFF ][ 8B BE records ][ 8B BE fnv ]  <- seal
//! ```
//!
//! and a record payload is one stream's state as raw big-endian words:
//!
//! ```text
//! [ 2B name len ][ name ][ 8B overflows ][ 8B batches ][ 8B values ]
//! [ 6 × 8B limbs, most significant first ][ (8B client_id, 8B seq) × k ]
//! ```
//!
//! The limbs are the accumulator's own, so a restore is bitwise, never
//! routed through `f64`. The `(client_id, seq)` pairs are the stream's
//! exactly-once window: a server restored from a snapshot still
//! recognizes a pre-snapshot batch's retry as a replay. The window is
//! never pruned, so it can outgrow one record (about a million clients):
//! it then continues in the records that follow, each repeating the
//! name, counters and limbs, and a load joins consecutive records of one
//! stream back into one state. Each stream's record is one cut of that
//! stream ([`ShardedLedger::snapshot`]): its window covers exactly the
//! batches in its sum, so WAL replay after a load skips no ACKed batch.
//!
//! This module knows only that payload. The header, records and seal are
//! written by the [`wal`](crate::wal) framing code and checked by the
//! walk [`recovery`](crate::recovery) runs over segments, with one rule
//! changed: a snapshot is written whole, so it must end in a valid seal,
//! and a torn tail is refused, never truncated. Its magic differs from a
//! segment's, so neither kind of file loads as the other, and a JSON
//! snapshot of an older release is refused by its first bytes. Every
//! refusal is a typed [`SnapshotError`] returned before the ledger is
//! touched, and the server refuses to start on one. A cluster node ships
//! the same bytes to a rejoining peer (`SnapshotData`), so a transfer cut
//! mid-way is refused like a truncated file.
//!
//! [`save`] writes a sibling temp file, fsyncs it, renames it over the
//! snapshot and fsyncs the directory, so a crash mid-write cannot leave a
//! torn snapshot where a good one stood; the checksums catch what the
//! rename cannot (media errors, manual edits). A `Checkpointer` runs one
//! checkpoint at a time: save, re-read, and delete the WAL segments the
//! file covers.

use crate::ledger::{ShardedLedger, StreamState, SERVICE_LIMBS};
use crate::proto::split_name;
use crate::recovery::walk;
use crate::wal::{SealedFile, Wal, WalError, MAX_RECORD_PAYLOAD};
use crate::ServiceHp;
use std::fs::{self, File};
use std::io::{self, Write};
use std::iter;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// First 8 bytes of every snapshot file (a WAL segment's are `OISWALv2`,
/// or `OISWALv1` from an older release).
const SNAPSHOT_MAGIC: [u8; 8] = *b"OISSNPv1";

/// Big-endian words after a record's name: overflows, batches, values
/// and the limbs.
const STATE_WORDS: usize = 3 + SERVICE_LIMBS;

/// Why a snapshot could not be saved or loaded. Every variant is a
/// refusal: a failed load leaves the ledger untouched, and a failed save
/// leaves the previous snapshot in place.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with a snapshot header: a JSON snapshot of
    /// an older release, a WAL segment, or any other file.
    NotASnapshot(String),
    /// The header's index is damaged, a record or the seal fails to
    /// verify, a verified record is not a stream state (or repeats its
    /// stream's name with other counters), or bytes follow the seal.
    Corrupt {
        /// Byte offset of the record or seal the damage sits in.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The file ends without its seal: a truncated snapshot, or a
    /// transfer cut mid-way.
    Unsealed {
        /// Byte offset where the verified records end.
        offset: u64,
    },
    /// A stream's name is too long for a record's u16 length prefix;
    /// [`save`] refuses it before it writes anything. No request can
    /// create such a stream: the wire and the WAL carry the same prefix.
    TooLarge {
        /// The stream.
        stream: String,
        /// The record bound it exceeds.
        source: WalError,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::NotASnapshot(detail) => write!(
                f,
                "not a snapshot file ({detail}); JSON snapshots of older releases are not read"
            ),
            SnapshotError::Corrupt { offset, detail } => {
                write!(f, "snapshot corrupt at byte {offset}: {detail}")
            }
            SnapshotError::Unsealed { offset } => {
                write!(f, "snapshot truncated: no seal after byte {offset}")
            }
            SnapshotError::TooLarge { stream, source } => {
                write!(f, "snapshot refused: stream `{stream}` does not fit a record: {source}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::TooLarge { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The temp file [`save`] writes before renaming it over `path`: the full
/// file name with `.tmp` appended. Replacing the extension instead would
/// make a snapshot named `x.tmp` its own temp file, and the save would
/// truncate the live snapshot in place.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Fsyncs the directory holding `path`. A name just created or renamed
/// there is durable only once its directory is synced (POSIX); a bare
/// file name's directory is `.`. Shared by [`save`]'s rename and the
/// log's directory and segment creates.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Persists the ledger to `path` atomically and returns the number of
/// streams written: the bytes go to a sibling temp file, which is
/// fsynced and renamed over `path`, and then the directory is fsynced,
/// since the rename is durable only once its entry is. A stream name too
/// long for a record is refused before any file is touched.
///
/// Failpoint `snapshot.save.corrupt` (feature `failpoints`) mangles the
/// sealed bytes *before* they reach disk — `Truncate` cuts the tail as a
/// crash would, `BitFlip` flips one bit as silent media corruption would
/// — so the corruption-handling path can be driven through the real
/// writer.
pub fn save(path: &Path, ledger: &ShardedLedger) -> Result<usize, SnapshotError> {
    let states = ledger.snapshot();
    let mut bytes = states_to_sealed(&states)?;
    match oisum_faults::check("snapshot.save.corrupt") {
        Some(oisum_faults::FaultAction::Truncate { keep }) => bytes.truncate(keep),
        Some(oisum_faults::FaultAction::BitFlip { offset, bit }) if !bytes.is_empty() => {
            let i = offset % bytes.len();
            bytes[i] ^= 1 << (bit % 8);
        }
        _ => {}
    }
    let tmp = temp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(states.len())
}

/// Frames stream states as a complete sealed snapshot, ready to land on
/// disk *or* cross the wire as a peer `SnapshotData` reply; the cluster
/// rejoin path transfers exactly these bytes, and [`parse_sealed`] reads
/// either back.
pub fn states_to_sealed(states: &[StreamState]) -> Result<Vec<u8>, SnapshotError> {
    let mut file = SealedFile::new(SNAPSHOT_MAGIC, 0);
    for state in states {
        let too_large = |source| SnapshotError::TooLarge { stream: state.name.clone(), source };
        let name_len = u16::try_from(state.name.len())
            .map_err(|_| too_large(WalError::StreamNameTooLong { len: state.name.len() }))?;
        // A window too large for one record continues in the next ones.
        let pairs_per_record = (MAX_RECORD_PAYLOAD - 2 - state.name.len() - 8 * STATE_WORDS) / 16;
        let mut windows = state.dedup.chunks(pairs_per_record);
        for window in iter::once(windows.next().unwrap_or_default()).chain(windows) {
            file.record(|out| {
                out.extend_from_slice(&name_len.to_be_bytes());
                out.extend_from_slice(state.name.as_bytes());
                let counters = [state.overflows, state.batches, state.values];
                for word in counters.iter().chain(state.sum.as_limbs()) {
                    out.extend_from_slice(&word.to_be_bytes());
                }
                for (client_id, seq) in window {
                    out.extend_from_slice(&client_id.to_be_bytes());
                    out.extend_from_slice(&seq.to_be_bytes());
                }
            })
            .map_err(too_large)?;
        }
    }
    Ok(file.seal())
}

/// Checks a complete sealed snapshot — header, every record, then the
/// seal, before anything is trusted — and returns the stream states it
/// carries.
pub fn parse_sealed(bytes: &[u8]) -> Result<Vec<StreamState>, SnapshotError> {
    let mut states = Vec::new();
    let zero_from = |at: usize| Ok(bytes[at..].iter().all(|&b| b == 0));
    let file = walk(SNAPSHOT_MAGIC, 0, bytes, zero_from, |offset, payload| {
        decode_state(&mut states, offset, payload)
    })
    .map_err(|e| match e {
        // Only a foreign magic makes the file something else; a bad index
        // under the snapshot magic is a damaged snapshot.
        WalError::BadHeader { detail, .. } if !bytes.starts_with(&SNAPSHOT_MAGIC) => {
            SnapshotError::NotASnapshot(detail)
        }
        WalError::BadHeader { detail, .. } => SnapshotError::Corrupt { offset: 8, detail },
        WalError::Corrupt { offset, detail, .. } => SnapshotError::Corrupt { offset, detail },
        // The walk refuses only headers and framing; nothing else arises.
        other => SnapshotError::Corrupt { offset: 0, detail: other.to_string() },
    })?;
    if !file.sealed {
        let offset = file.torn.map_or(bytes.len() as u64, |torn| torn.offset);
        return Err(SnapshotError::Unsealed { offset });
    }
    Ok(states)
}

/// Decodes one checksum-verified record payload into `states`: a new
/// stream's state, or more of the window of the stream before it, whose
/// counters and limbs it must repeat. A payload that verifies but breaks
/// these rules was written broken, so it is corruption.
fn decode_state(
    states: &mut Vec<StreamState>,
    offset: usize,
    payload: &[u8],
) -> Result<(), WalError> {
    let corrupt = |detail: &str| WalError::Corrupt {
        segment: 0,
        offset: offset as u64,
        detail: format!("stream record: {detail}"),
    };
    let (name, rest) = split_name(payload).map_err(corrupt)?;
    let (words, tail) = rest.as_chunks::<8>();
    let words: Vec<u64> = words.iter().map(|w| u64::from_be_bytes(*w)).collect();
    if !tail.is_empty()
        || words.len() < STATE_WORDS
        || !(words.len() - STATE_WORDS).is_multiple_of(2)
    {
        return Err(corrupt("not counters, limbs and (client, seq) pairs after the name"));
    }
    let state = StreamState {
        name: name.to_owned(),
        overflows: words[0],
        batches: words[1],
        values: words[2],
        sum: ServiceHp::from_limbs(core::array::from_fn(|i| words[3 + i])),
        dedup: words[STATE_WORDS..].chunks_exact(2).map(|p| (p[0], p[1])).collect(),
    };
    let counters = |s: &StreamState| (s.overflows, s.batches, s.values, s.sum);
    match states.last_mut() {
        Some(last) if last.name == state.name => {
            if counters(last) != counters(&state) {
                return Err(corrupt("repeats the stream before it with other counters"));
            }
            last.dedup.extend(state.dedup);
        }
        _ => states.push(state),
    }
    Ok(())
}

/// Re-reads the snapshot at `path` and checks it seals and parses.
///
/// A checkpoint calls this before deleting segments a snapshot claims to
/// cover: `save` returning `Ok` is not proof the *bytes on disk* are a
/// loadable snapshot (the `snapshot.save.corrupt` seam models exactly
/// that lie), and dropping the log on a bad snapshot's word would turn
/// one corrupt file into real data loss.
pub fn verify(path: &Path) -> bool {
    fs::read(path).is_ok_and(|bytes| parse_sealed(&bytes).is_ok())
}

/// Replaces the ledger's contents with the snapshot at `path`.
///
/// Validation is strictly before mutation: the header, every record and
/// the seal are verified while the ledger is untouched, so a damaged file
/// can never leave a half-restored (or silently zero) ledger behind.
pub fn load(path: &Path, ledger: &ShardedLedger) -> Result<usize, SnapshotError> {
    let states = parse_sealed(&fs::read(path)?)?;
    ledger.restore(&states);
    Ok(states.len())
}

/// A server's snapshot file, and the lock that runs its checkpoints one
/// at a time.
///
/// A checkpoint reads the WAL's GC boundary, saves, re-reads the file and
/// deletes the segments below the boundary. Two running at once could
/// share the temp file, or one could verify the other's older snapshot
/// and then delete segments that only its own covers, losing ACKed
/// batches.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    path: PathBuf,
    serial: Mutex<()>,
}

impl Checkpointer {
    /// Checkpoints to the snapshot at `path`.
    pub(crate) fn new(path: PathBuf) -> Self {
        Checkpointer { path, serial: Mutex::new(()) }
    }

    /// Persists `ledger` to the snapshot path, then deletes the WAL
    /// segments the verified file covers: those below the active segment
    /// while `wal` is open, every segment once it is closed. Returns the
    /// number of streams written. This serves the `Snapshot` request and
    /// the final snapshot of a shutdown.
    pub(crate) fn checkpoint(
        &self,
        ledger: &ShardedLedger,
        wal: Option<&Wal>,
    ) -> Result<usize, SnapshotError> {
        // The lock guards no data, so a poisoned one is as good as new.
        let _serial = self.serial.lock().unwrap_or_else(PoisonError::into_inner);
        // Boundary *before* the save: every record in a segment below it
        // was committed — hence applied, since applies precede commits —
        // before the save reads the ledger, so the snapshot dominates
        // those segments.
        let boundary = wal.map(Wal::gc_boundary);
        let streams = save(&self.path, ledger)?;
        if let (Some(wal), Some(boundary)) = (wal, boundary) {
            // Trust the bytes, not the Ok: only a snapshot that re-reads
            // and re-seals is license to delete its WAL coverage.
            if verify(&self.path) {
                let _ = wal.gc_below(boundary);
            }
        }
        Ok(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{le_bytes, UNTRACKED_CLIENT};
    use crate::wal::{SEAL_LEN, SEGMENT_HEADER_LEN};

    /// An untracked deposit.
    fn add(ledger: &ShardedLedger, name: &str, xs: &[f64]) {
        ledger.add_batch_le_bytes_dedup(name, 0, UNTRACKED_CLIENT, 0, &le_bytes(xs));
    }

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-snapshot-test-{}-{name}.snap", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip_is_bitwise() {
        let path = scratch("roundtrip");
        let ledger = ShardedLedger::new(8);
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 1.7e-8).collect();
        for chunk in xs.chunks(93) {
            add(&ledger, "a", chunk);
        }
        add(&ledger, "b", &[f64::MIN_POSITIVE, -0.0, 1e12]);
        ledger.add_batch_le_bytes_dedup("b", 0, 42, 6, &le_bytes(&[0.5]));
        assert_eq!(save(&path, &ledger).unwrap(), 2);
        assert!(!temp_path(&path).exists(), "the temp file was renamed away");

        let restored = ShardedLedger::new(2);
        assert_eq!(load(&path, &restored).unwrap(), 2);
        assert_eq!(restored.sum("a"), ledger.sum("a"));
        assert_eq!(restored.sum("b"), ledger.sum("b"));
        // The dedup window crossed the snapshot too.
        assert!(!restored.add_batch_le_bytes_dedup("b", 0, 42, 6, &le_bytes(&[0.5])).1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sealed_roundtrip_preserves_counters_and_rejects_truncation() {
        let ledger = ShardedLedger::new(4);
        add(&ledger, "s", &[1.5, -0.25, 1e9]);
        ledger.add_batch_le_bytes_dedup("s", 0, 7, 3, &le_bytes(&[2.0]));
        let sealed = states_to_sealed(&ledger.snapshot()).unwrap();
        // The full transfer parses back bitwise, counters included.
        let states = parse_sealed(&sealed).unwrap();
        assert_eq!(states, ledger.snapshot());
        assert_eq!((states[0].batches, states[0].values), (2, 4));
        assert_eq!(states[0].dedup, vec![(7, 3)]);
        // A transfer cut mid-record or mid-seal (what a dropped peer
        // connection produces) is refused, never partially adopted; the
        // error names where the verified records end.
        let seal_at = sealed.len() - SEAL_LEN;
        for (cut, verified) in [(sealed.len() / 2, SEGMENT_HEADER_LEN), (seal_at + 19, seal_at)] {
            assert!(matches!(
                parse_sealed(&sealed[..cut]),
                Err(SnapshotError::Unsealed { offset }) if offset == verified as u64
            ));
        }
    }

    #[test]
    fn unknown_magic_rejected() {
        let path = scratch("magic");
        let ledger = ShardedLedger::new(1);
        add(&ledger, "s", &[1.0]);
        // A sealed file from a future format version: intact framing,
        // unknown magic.
        let mut bytes = states_to_sealed(&ledger.snapshot()).unwrap();
        bytes[7] = b'2';
        std::fs::write(&path, &bytes).unwrap();
        let fresh = ShardedLedger::new(1);
        match load(&path, &fresh) {
            Err(SnapshotError::NotASnapshot(_)) => {}
            other => panic!("expected NotASnapshot, got {other:?}"),
        }
        assert!(fresh.sum("s").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_file_rejected() {
        let path = scratch("unsealed");
        let ledger = ShardedLedger::new(1);
        add(&ledger, "s", &[1.0]);
        // Every record intact, the seal missing: a WAL segment would
        // replay this, a snapshot is refused.
        let sealed = states_to_sealed(&ledger.snapshot()).unwrap();
        let records_end = sealed.len() - SEAL_LEN;
        std::fs::write(&path, &sealed[..records_end]).unwrap();
        let fresh = ShardedLedger::new(1);
        assert!(matches!(
            load(&path, &fresh),
            Err(SnapshotError::Unsealed { offset }) if offset == records_end as u64
        ));
        assert!(fresh.sum("s").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_rejected_by_checksum_before_parse() {
        let path = scratch("corrupt");
        let ledger = ShardedLedger::new(1);
        add(&ledger, "s", &[1.0]);
        save(&path, &ledger).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER_LEN + 10] ^= 0x04; // one flipped bit in the record
        std::fs::write(&path, &bytes).unwrap();
        let fresh = ShardedLedger::new(1);
        assert!(matches!(
            load(&path, &fresh),
            Err(SnapshotError::Corrupt { offset, .. }) if offset == SEGMENT_HEADER_LEN as u64
        ));
        // The refusal left the target ledger untouched.
        assert!(fresh.sum("s").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_parent_dir_syncs_the_holding_directory() {
        // A bare name's directory is `.`; a path's is its parent, which
        // must exist. The file itself need not.
        sync_parent_dir(Path::new("not-created.snap")).unwrap();
        sync_parent_dir(&scratch("sync-parent")).unwrap();
        let missing = scratch("no-such-dir").join("x.snap");
        assert!(sync_parent_dir(&missing).is_err());
    }

    #[test]
    fn temp_path_appends_to_the_full_name() {
        for (path, tmp) in [
            ("ledger.snap", "ledger.snap.tmp"),
            ("dir/ledger", "dir/ledger.tmp"),
            ("/d/ledger.tmp", "/d/ledger.tmp.tmp"),
            ("ledger.tmp.tmp", "ledger.tmp.tmp.tmp"),
        ] {
            let path = Path::new(path);
            assert_eq!(temp_path(path), Path::new(tmp));
            assert_ne!(temp_path(path), path);
        }
    }

    /// A stream whose window of `clients` tracked clients each sit at seq
    /// `client * 3`.
    fn tracked(name: String, clients: u64) -> StreamState {
        StreamState {
            name,
            sum: ServiceHp::from_limbs([0, 0, 1, 2, 3, u64::MAX]),
            overflows: 1,
            dedup: (1..=clients).map(|client| (client, client * 3)).collect(),
            batches: clients,
            values: clients,
        }
    }

    #[test]
    fn a_window_larger_than_a_record_round_trips_bitwise() {
        let path = scratch("window");
        // 1,048,571 pairs fill one record under a one-byte name.
        let state = tracked("s".to_owned(), 1_100_000);
        let ledger = ShardedLedger::new(1);
        ledger.install(&state);
        assert_eq!(save(&path, &ledger).unwrap(), 1);
        drop(ledger);
        let bytes = std::fs::read(&path).unwrap();
        let records = u64::from_be_bytes(bytes[bytes.len() - 16..][..8].try_into().unwrap());
        assert_eq!(records, 2, "the window continues in a second record");
        drop(bytes);

        let restored = ShardedLedger::new(2);
        assert_eq!(load(&path, &restored).unwrap(), 1);
        assert_eq!(restored.snapshot(), vec![state]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_continuation_record_must_repeat_its_streams_counters() {
        let first = tracked("s".to_owned(), 2);
        let mut next = StreamState { dedup: vec![(10, 1)], ..first.clone() };
        // The same name and counters continue the stream's window.
        let joined = parse_sealed(&states_to_sealed(&[first.clone(), next.clone()]).unwrap());
        let mut whole = first.clone();
        whole.dedup.push((10, 1));
        assert_eq!(joined.unwrap(), vec![whole]);
        // The same name under other counters is corruption, refused at the
        // second record.
        next.batches += 1;
        let next_at = states_to_sealed(core::slice::from_ref(&first)).unwrap().len() - SEAL_LEN;
        assert!(matches!(
            parse_sealed(&states_to_sealed(&[first, next]).unwrap()),
            Err(SnapshotError::Corrupt { offset, .. }) if offset == next_at as u64
        ));
    }

    #[test]
    fn a_damaged_index_is_corrupt_not_foreign() {
        let ledger = ShardedLedger::new(1);
        add(&ledger, "s", &[1.0]);
        let mut bytes = states_to_sealed(&ledger.snapshot()).unwrap();
        bytes[15] ^= 1;
        let err = parse_sealed(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { offset: 8, .. }), "{err:?}");
        assert!(!err.to_string().contains("JSON"), "{err}");
    }

    #[test]
    fn overlong_stream_names_are_refused_before_writing() {
        let path = scratch("overlong");
        // A name the u16 length prefix cannot carry.
        let state = tracked("n".repeat(usize::from(u16::MAX) + 1), 1);
        let ledger = ShardedLedger::new(1);
        ledger.install(&state);
        match save(&path, &ledger) {
            Err(SnapshotError::TooLarge {
                stream,
                source: WalError::StreamNameTooLong { len },
            }) => assert_eq!((stream, len), (state.name.clone(), state.name.len())),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(!path.exists() && !temp_path(&path).exists(), "a file was written");
    }
}
