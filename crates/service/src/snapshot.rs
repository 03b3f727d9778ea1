//! Ledger persistence: a JSON snapshot file of exact per-stream sums,
//! sealed by a checksummed footer.
//!
//! The on-disk format is a JSON body
//!
//! ```json
//! {"version":2,"entries":[{"stream":"s","overflows":0,"dedup":[[7,4]],"batches":3,"values":90,"sum":[l0,l1,l2,l3,l4,l5]}]}
//! ```
//!
//! followed by one newline and a footer line
//!
//! ```text
//! OISUM-SNAPSHOT v2 fnv1a64=<16 hex digits> len=<body bytes>
//! ```
//!
//! `sum` is the `oisum-core` serde representation of the service
//! accumulator — its raw limbs, most significant first — so a restore is
//! bitwise, never routed through `f64`. `dedup` is the stream's
//! exactly-once window (`[client_id, last applied seq]` pairs): a server
//! restored from a snapshot still recognizes a pre-snapshot batch's
//! retry as a replay. Shard structure is not persisted: the shard split
//! is a contention artifact with no effect on the value (HP addition is
//! exactly associative), so a snapshot taken under `--shards 16`
//! restores identically into a server running `--shards 2`.
//!
//! The footer turns silent corruption into a *typed* refusal: [`load`]
//! verifies the body length and FNV-1a 64 checksum before parsing a
//! single byte of JSON, so a truncated, bit-flipped, or
//! concatenated-over file yields [`SnapshotError::Truncated`] /
//! [`SnapshotError::ChecksumMismatch`] / [`SnapshotError::MissingFooter`]
//! instead of reviving a wrong ledger — and the server refuses to start
//! on it. Writes additionally go through a sibling temp file + rename so
//! a crash mid-write cannot leave a torn snapshot where a good one
//! stood; the footer catches the corruption modes rename cannot (media
//! errors, manual edits, a crash that beat the rename on a filesystem
//! without atomic semantics).

use crate::ledger::{ShardedLedger, StreamState};
use crate::ServiceHp;
use oisum_faults::fnv1a64;
use serde::de::{Error as DeError, MapAccess, Visitor};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io::{self, Write};
use std::path::Path;

/// Snapshot format version written by [`save`].
pub const SNAPSHOT_VERSION: u64 = 2;

/// Footer line prefix; the version is part of the literal so a footer
/// from a future incompatible layout never validates.
const FOOTER_PREFIX: &str = "OISUM-SNAPSHOT v2 fnv1a64=";

/// Why a snapshot failed to load. Every variant is a refusal to restore:
/// the ledger is left untouched.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(io::Error),
    /// No (or malformed) checksum footer — not a sealed snapshot, or one
    /// truncated into the footer itself.
    MissingFooter,
    /// The body is shorter or longer than the footer promises (classic
    /// crash-truncation).
    Truncated {
        /// Body length recorded in the footer.
        expected: usize,
        /// Body length actually present.
        actual: usize,
    },
    /// The body checksum does not match the footer (bit rot, manual
    /// edits, torn writes).
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The body is not valid snapshot JSON.
    Parse(String),
    /// The body parsed, but its format version is not supported.
    UnsupportedVersion(u64),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::MissingFooter => {
                write!(f, "snapshot has no valid checksum footer (truncated or not a snapshot)")
            }
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "snapshot truncated: footer promises {expected} body bytes, found {actual}"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot corrupt: body checksum {actual:016x} != recorded {expected:016x}"
            ),
            SnapshotError::Parse(msg) => write!(f, "snapshot body is not valid JSON: {msg}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
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

/// One stream's persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Stream name.
    pub stream: String,
    /// Exact accumulated sum.
    pub sum: ServiceHp,
    /// Detected top-limb overflows at snapshot time.
    pub overflows: u64,
    /// Exactly-once window: `[client_id, last applied seq]` pairs.
    pub dedup: Vec<(u64, u64)>,
    /// Batches applied at snapshot time. Optional on read (absent in
    /// pre-cluster snapshots, which default to 0) so existing v2 files
    /// keep loading.
    pub batches: u64,
    /// Values applied at snapshot time; optional on read like `batches`.
    pub values: u64,
}

impl Serialize for SnapshotEntry {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SnapshotEntry", 6)?;
        s.serialize_field("stream", &self.stream)?;
        s.serialize_field("overflows", &self.overflows)?;
        s.serialize_field("dedup", &self.dedup)?;
        s.serialize_field("batches", &self.batches)?;
        s.serialize_field("values", &self.values)?;
        s.serialize_field("sum", &self.sum)?;
        s.end()
    }
}

struct EntryVisitor;

impl<'de> Visitor<'de> for EntryVisitor {
    type Value = SnapshotEntry;

    fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("a snapshot entry")
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let (mut stream, mut sum, mut overflows, mut dedup) = (None, None, None, None);
        let (mut batches, mut values) = (None, None);
        while let Some(key) = map.next_key::<String>()? {
            match key.as_str() {
                "stream" => stream = Some(map.next_value()?),
                "sum" => sum = Some(map.next_value()?),
                "overflows" => overflows = Some(map.next_value()?),
                "dedup" => dedup = Some(map.next_value()?),
                "batches" => batches = Some(map.next_value()?),
                "values" => values = Some(map.next_value()?),
                other => return Err(A::Error::custom(format!("unknown field `{other}`"))),
            }
        }
        Ok(SnapshotEntry {
            stream: stream.ok_or_else(|| A::Error::custom("missing `stream`"))?,
            sum: sum.ok_or_else(|| A::Error::custom("missing `sum`"))?,
            overflows: overflows.ok_or_else(|| A::Error::custom("missing `overflows`"))?,
            dedup: dedup.ok_or_else(|| A::Error::custom("missing `dedup`"))?,
            // Absent in pre-cluster v2 snapshots: no counters recorded.
            batches: batches.unwrap_or(0),
            values: values.unwrap_or(0),
        })
    }
}

impl<'de> Deserialize<'de> for SnapshotEntry {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct(
            "SnapshotEntry",
            &["stream", "sum", "overflows", "dedup", "batches", "values"],
            EntryVisitor,
        )
    }
}

/// The whole snapshot body.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Format version; [`load`] rejects versions it does not know.
    pub version: u64,
    /// Per-stream entries, sorted by stream name.
    pub entries: Vec<SnapshotEntry>,
}

impl Serialize for SnapshotFile {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SnapshotFile", 2)?;
        s.serialize_field("version", &self.version)?;
        s.serialize_field("entries", &self.entries)?;
        s.end()
    }
}

struct FileVisitor;

impl<'de> Visitor<'de> for FileVisitor {
    type Value = SnapshotFile;

    fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("a snapshot file object")
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let (mut version, mut entries) = (None, None);
        while let Some(key) = map.next_key::<String>()? {
            match key.as_str() {
                "version" => version = Some(map.next_value()?),
                "entries" => entries = Some(map.next_value()?),
                other => return Err(A::Error::custom(format!("unknown field `{other}`"))),
            }
        }
        Ok(SnapshotFile {
            version: version.ok_or_else(|| A::Error::custom("missing `version`"))?,
            entries: entries.ok_or_else(|| A::Error::custom("missing `entries`"))?,
        })
    }
}

impl<'de> Deserialize<'de> for SnapshotFile {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct("SnapshotFile", &["version", "entries"], FileVisitor)
    }
}

/// Seals a JSON body with the checksummed footer: `body \n footer`.
pub fn seal(body: &str) -> String {
    format!(
        "{body}\n{FOOTER_PREFIX}{:016x} len={}",
        fnv1a64(body.as_bytes()),
        body.len()
    )
}

/// Splits a sealed file back into its body, verifying the footer.
fn unseal(contents: &str) -> Result<&str, SnapshotError> {
    let Some(cut) = contents.rfind('\n') else {
        return Err(SnapshotError::MissingFooter);
    };
    let (body, footer) = (&contents[..cut], &contents[cut + 1..]);
    let Some(rest) = footer.strip_prefix(FOOTER_PREFIX) else {
        return Err(SnapshotError::MissingFooter);
    };
    let Some((hex, len)) = rest.split_once(" len=") else {
        return Err(SnapshotError::MissingFooter);
    };
    // Strictly canonical encodings — exactly 16 lowercase hex digits,
    // plain ASCII decimal — so no bit flip inside the footer can survive
    // as an alternate spelling of the same values.
    if hex.len() != 16
        || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        || len.is_empty()
        || !len.bytes().all(|b| b.is_ascii_digit())
    {
        return Err(SnapshotError::MissingFooter);
    }
    let (Ok(expected_sum), Ok(expected_len)) =
        (u64::from_str_radix(hex, 16), len.parse::<usize>())
    else {
        return Err(SnapshotError::MissingFooter);
    };
    if body.len() != expected_len {
        return Err(SnapshotError::Truncated { expected: expected_len, actual: body.len() });
    }
    let actual = fnv1a64(body.as_bytes());
    if actual != expected_sum {
        return Err(SnapshotError::ChecksumMismatch { expected: expected_sum, actual });
    }
    Ok(body)
}

/// Persists the ledger to `path` atomically (temp file + rename), sealed
/// with the checksum footer. Returns the number of streams written.
///
/// Failpoint `snapshot.save.corrupt` (feature `failpoints`) mangles the
/// sealed bytes *before* they reach disk — `Truncate` cuts the tail as a
/// crash would, `BitFlip` flips one bit as silent media corruption would
/// — so the corruption-handling path can be driven through the real
/// writer.
pub fn save(path: &Path, ledger: &ShardedLedger) -> io::Result<usize> {
    let states = ledger.snapshot();
    let count = states.len();
    let mut bytes = states_to_sealed(states)?.into_bytes();
    match oisum_faults::check("snapshot.save.corrupt") {
        Some(oisum_faults::FaultAction::Truncate { keep }) => bytes.truncate(keep),
        Some(oisum_faults::FaultAction::BitFlip { offset, bit }) if !bytes.is_empty() => {
            let i = offset % bytes.len();
            bytes[i] ^= 1 << (bit % 8);
        }
        _ => {}
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(count)
}

/// Serializes stream states into a complete sealed snapshot — JSON body
/// plus checksummed footer — ready to land on disk *or* cross the wire
/// as a peer `SnapshotData` reply. The cluster rejoin path transfers
/// exactly these bytes, so a mid-transfer connection cut is caught by
/// [`parse_sealed`] on the receiving side the same way a crash-truncated
/// file is caught by [`load`].
pub fn states_to_sealed(states: Vec<StreamState>) -> io::Result<String> {
    let file = SnapshotFile {
        version: SNAPSHOT_VERSION,
        entries: states
            .into_iter()
            .map(|s| SnapshotEntry {
                stream: s.name,
                sum: s.sum,
                overflows: s.overflows,
                dedup: s.dedup,
                batches: s.batches,
                values: s.values,
            })
            .collect(),
    };
    let body = serde_json::to_string(&file)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(seal(&body))
}

/// Validates a complete sealed snapshot (footer, checksum, JSON,
/// version — in that order, before anything is trusted) and returns the
/// stream states it carries.
pub fn parse_sealed(contents: &str) -> Result<Vec<StreamState>, SnapshotError> {
    let body = unseal(contents)?;
    let file: SnapshotFile =
        serde_json::from_str(body).map_err(|e| SnapshotError::Parse(e.to_string()))?;
    if file.version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(file.version));
    }
    Ok(file
        .entries
        .into_iter()
        .map(|e| StreamState {
            name: e.stream,
            sum: e.sum,
            overflows: e.overflows,
            dedup: e.dedup,
            batches: e.batches,
            values: e.values,
        })
        .collect())
}

/// Re-reads the snapshot at `path` and checks it seals and parses.
///
/// The WAL GC calls this before deleting segments a snapshot claims to
/// cover: `save` returning `Ok` is not proof the *bytes on disk* are a
/// loadable snapshot (the `snapshot.save.corrupt` seam models exactly
/// that lie), and dropping the log on a bad snapshot's word would turn
/// one corrupt file into real data loss.
pub fn verify(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map_err(SnapshotError::from)
        .and_then(|contents| parse_sealed(&contents))
        .is_ok()
}

/// Replaces the ledger's contents with the snapshot at `path`.
///
/// Validation is strictly before mutation: the footer, checksum, JSON
/// body, and version are all verified while the ledger is untouched, so
/// a corrupt file can never leave a half-restored (or silently zero)
/// ledger behind.
pub fn load(path: &Path, ledger: &ShardedLedger) -> Result<usize, SnapshotError> {
    let contents = std::fs::read_to_string(path)?;
    let entries = parse_sealed(&contents)?;
    let count = entries.len();
    ledger.restore(&entries);
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{le_bytes, UNTRACKED_CLIENT};

    /// An untracked deposit on shard 0.
    fn add(ledger: &ShardedLedger, name: &str, xs: &[f64]) {
        ledger.add_batch_le_bytes_dedup(name, 0, UNTRACKED_CLIENT, 0, &le_bytes(xs));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-snapshot-test-{}-{name}.json", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip_is_bitwise() {
        let path = temp_path("roundtrip");
        let ledger = ShardedLedger::new(8);
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 1.7e-8).collect();
        for chunk in xs.chunks(93) {
            add(&ledger, "a", chunk);
        }
        add(&ledger, "b", &[f64::MIN_POSITIVE, -0.0, 1e12]);
        ledger.add_batch_le_bytes_dedup("b", 0, 42, 6, &le_bytes(&[0.5]));
        assert_eq!(save(&path, &ledger).unwrap(), 2);

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
        let sealed = states_to_sealed(ledger.snapshot()).unwrap();
        // The full transfer parses back bitwise, counters included.
        let states = parse_sealed(&sealed).unwrap();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].sum, ledger.sum("s").unwrap());
        assert_eq!((states[0].batches, states[0].values), (2, 4));
        assert_eq!(states[0].dedup, vec![(7, 3)]);
        // A transfer cut mid-body (what a dropped peer connection
        // produces) is refused, never partially adopted.
        for cut in [sealed.len() / 2, sealed.len() - 1] {
            assert!(parse_sealed(&sealed[..cut]).is_err());
        }
    }

    #[test]
    fn pre_counter_snapshots_still_load() {
        // A v2 body written before the batches/values fields existed.
        let body = r#"{"version":2,"entries":[{"stream":"s","overflows":0,"dedup":[[7,4]],"sum":[0,0,0,0,0,0]}]}"#;
        let states = parse_sealed(&seal(body)).unwrap();
        assert_eq!((states[0].batches, states[0].values), (0, 0));
        assert_eq!(states[0].dedup, vec![(7, 4)]);
    }

    #[test]
    fn unknown_version_rejected() {
        let path = temp_path("version");
        // A properly sealed body with a version from the future.
        std::fs::write(&path, seal(r#"{"version":99,"entries":[]}"#)).unwrap();
        let ledger = ShardedLedger::new(1);
        match load(&path, &ledger) {
            Err(SnapshotError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion(99), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_file_rejected_as_missing_footer() {
        let path = temp_path("unsealed");
        // A valid v1-era body with no footer: refused, not restored.
        std::fs::write(&path, r#"{"version":1,"entries":[]}"#).unwrap();
        let ledger = ShardedLedger::new(1);
        assert!(matches!(load(&path, &ledger), Err(SnapshotError::MissingFooter)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_body_rejected_by_checksum_before_parse() {
        let path = temp_path("corrupt");
        let ledger = ShardedLedger::new(1);
        add(&ledger, "s", &[1.0]);
        save(&path, &ledger).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x04; // one flipped bit in the body
        std::fs::write(&path, &bytes).unwrap();
        let fresh = ShardedLedger::new(1);
        assert!(matches!(
            load(&path, &fresh),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The refusal left the target ledger untouched.
        assert!(fresh.sum("s").is_none());
        std::fs::remove_file(&path).ok();
    }
}
