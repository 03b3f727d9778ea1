//! Snapshot corruption regression suite: every way a snapshot file can
//! rot on disk — any single bit flipped, any truncation point, garbage
//! appended, the file replaced wholesale — must surface as a *typed*
//! [`SnapshotError`], never a panic, and never a silently wrong (or
//! silently empty) restored ledger. A server pointed at a damaged file
//! must refuse to start.
//!
//! Unlike the chaos suite this file needs no `failpoints` feature: it
//! corrupts the bytes directly, so it runs in the default tier-1 pass.

use oisum_service::proto::{le_bytes, UNTRACKED_CLIENT};
use oisum_service::snapshot::{load, save, SnapshotError};
use oisum_service::wal::{list_segments, SEAL_MARKER, SEGMENT_HEADER_LEN};
use oisum_service::{recover, serve, ServerConfig, ShardedLedger, Wal, WalConfig, WalError};
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-corrupt-test-{}-{name}.snap", std::process::id()));
    p
}

/// A snapshot with enough structure to be worth corrupting: two streams,
/// negative limbs, a dedup window.
fn write_reference_snapshot(path: &Path) -> ShardedLedger {
    let ledger = ShardedLedger::new(4);
    ledger.add_batch_le_bytes_dedup("alpha", 0, UNTRACKED_CLIENT, 0, &le_bytes(&[1.5, -2.25, 5e-324, 1e12]));
    ledger.add_batch_le_bytes_dedup("beta", 1, UNTRACKED_CLIENT, 0, &le_bytes(&[-0.5]));
    ledger.add_batch_le_bytes_dedup("alpha", 2, 9, 4, &le_bytes(&[0.125]));
    save(path, &ledger).unwrap();
    ledger
}

/// The same ledger as [`write_reference_snapshot`], byte for byte as the
/// JSON v2 snapshot format (a JSON body behind an fnv1a64 footer) wrote
/// it before snapshots moved onto the WAL framing.
const JSON_V2_SNAPSHOT: &str = concat!(
    r#"{"version":2,"entries":[{"stream":"alpha","overflows":0,"dedup":[[9,4]],"#,
    r#""batches":2,"values":5,"sum":[0,0,999999999999,6917529027641081856,0,0]},"#,
    r#"{"stream":"beta","overflows":0,"dedup":[],"batches":1,"values":1,"sum":"#,
    r#"[18446744073709551615,18446744073709551615,18446744073709551615,"#,
    r#"9223372036854775808,0,0]}]}"#,
    "\nOISUM-SNAPSHOT v2 fnv1a64=efb6d78d69bac42c len=307",
);

/// Byte offsets of each record in a sealed file, then of its seal.
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![SEGMENT_HEADER_LEN];
    loop {
        let at = *starts.last().unwrap();
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
        if len == SEAL_MARKER {
            return starts;
        }
        starts.push(at + 4 + len as usize + 8);
    }
}

/// Asserts a failed load left `ledger` exactly as constructed: empty.
fn assert_untouched(ledger: &ShardedLedger) {
    assert!(ledger.sum("alpha").is_none(), "failed load must not create streams");
    assert!(ledger.sum("beta").is_none(), "failed load must not create streams");
}

/// Every single-bit flip anywhere in the file — header, record lengths,
/// payloads, checksums, seal — is caught. This is the exhaustive version
/// of "checksums work": no bit position exists whose flip restores
/// silently.
#[test]
fn every_single_bit_flip_is_rejected() {
    let path = temp_path("bitflip");
    write_reference_snapshot(&path);
    let pristine = std::fs::read(&path).unwrap();

    for byte in 0..pristine.len() {
        for bit in 0..8u8 {
            let mut mangled = pristine.clone();
            mangled[byte] ^= 1 << bit;
            std::fs::write(&path, &mangled).unwrap();
            let fresh = ShardedLedger::new(2);
            match load(&path, &fresh) {
                Err(
                    SnapshotError::NotASnapshot(_)
                    | SnapshotError::Corrupt { .. }
                    | SnapshotError::Unsealed { .. },
                ) => assert_untouched(&fresh),
                other => panic!(
                    "flip of bit {bit} in byte {byte} (of {}) gave {other:?}",
                    pristine.len()
                ),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Every truncation point — from the empty file up to one byte short of
/// complete — is rejected as a snapshot missing its seal, or as damage
/// before a seal-shaped tail, and never restored.
#[test]
fn every_truncation_point_is_rejected() {
    let path = temp_path("truncate");
    write_reference_snapshot(&path);
    let pristine = std::fs::read(&path).unwrap();

    for keep in 0..pristine.len() {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        let fresh = ShardedLedger::new(2);
        let err = load(&path, &fresh)
            .expect_err(&format!("truncation to {keep}/{} bytes restored", pristine.len()));
        assert!(
            matches!(err, SnapshotError::Unsealed { .. } | SnapshotError::Corrupt { .. }),
            "truncation to {keep} bytes produced the wrong error class: {err}"
        );
        assert_untouched(&fresh);
    }
    std::fs::remove_file(&path).ok();
}

/// Bytes appended after a valid file (log-style concatenation, editor
/// droppings) are refused as data after the seal.
#[test]
fn trailing_garbage_is_rejected() {
    let path = temp_path("trailing");
    write_reference_snapshot(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    let sealed_len = bytes.len() as u64;
    bytes.extend_from_slice(b"\n{\"oops\":1}");
    std::fs::write(&path, &bytes).unwrap();
    let fresh = ShardedLedger::new(2);
    match load(&path, &fresh) {
        Err(SnapshotError::Corrupt { offset, .. }) => assert_eq!(offset, sealed_len),
        other => panic!("trailing garbage gave {other:?}"),
    }
    assert_untouched(&fresh);
    std::fs::remove_file(&path).ok();
}

/// A file that was never a snapshot in this format is refused by its
/// header: empty, plain text, JSON of either old version (sealed exactly
/// as the JSON format wrote it, or not), and a sealed WAL segment copied
/// to the snapshot path. A server refuses to start on the JSON-era file,
/// naming the snapshot.
#[test]
fn non_snapshot_files_are_refused() {
    let path = temp_path("notasnapshot");
    let wal_dir = std::env::temp_dir()
        .join(format!("oisum-corrupt-test-{}-segment", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal = Wal::open(WalConfig::new(&wal_dir)).unwrap();
    wal.append("alpha", 9, 4, &le_bytes(&[0.125])).unwrap();
    wal.close().unwrap();
    let segment = std::fs::read(&list_segments(&wal_dir).unwrap()[0].1).unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();

    for contents in [
        &b""[..],
        b"hello world",
        br#"{"version":1,"entries":[]}"#,
        br#"{"version":2,"entries":[]}"#, // valid body, but unsealed
        JSON_V2_SNAPSHOT.as_bytes(),
        &segment,
    ] {
        std::fs::write(&path, contents).unwrap();
        let fresh = ShardedLedger::new(1);
        match load(&path, &fresh) {
            Err(SnapshotError::NotASnapshot(_)) => {}
            // Shorter than a header's magic: indistinguishable from a
            // snapshot torn before its first byte landed.
            Err(SnapshotError::Unsealed { offset: 0 }) if contents.len() < 8 => {}
            other => panic!("non-snapshot file {contents:?} gave {other:?}"),
        }
        assert_untouched(&fresh);
    }

    std::fs::write(&path, JSON_V2_SNAPSHOT).unwrap();
    match serve(ServerConfig { snapshot_path: Some(path.clone()), ..ServerConfig::default() }) {
        Err(e) => assert!(
            e.to_string().contains("snapshot"),
            "refusal must be attributable: {e}"
        ),
        Ok(handle) => {
            handle.shutdown();
            handle.join().ok();
            panic!("server started from a JSON-era snapshot");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The converse: a snapshot copied into a WAL directory under a segment
/// name is refused by recovery's header check, not replayed.
#[test]
fn a_snapshot_is_refused_as_a_segment() {
    let dir = std::env::temp_dir()
        .join(format!("oisum-corrupt-test-{}-snapshot-as-segment", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_reference_snapshot(&dir.join("wal-0000000000000000.log"));
    let fresh = ShardedLedger::new(1);
    assert!(matches!(recover(&dir, &fresh), Err(WalError::BadHeader { segment: 0, .. })));
    assert_untouched(&fresh);
    std::fs::remove_dir_all(&dir).ok();
}

/// The error carries the evidence: the byte offset of the record the
/// damage sits in, or of where the verified records end.
#[test]
fn errors_carry_forensics() {
    let path = temp_path("forensics");
    write_reference_snapshot(&path);
    let pristine = std::fs::read(&path).unwrap();
    // alpha's record, beta's record, the seal.
    let [alpha, beta, seal] = record_starts(&pristine)[..] else {
        panic!("expected two records and a seal")
    };
    let refusal = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        load(&path, &ShardedLedger::new(1)).unwrap_err()
    };

    // Flip a byte of beta's payload: its record checksum fails inside a
    // sealed file.
    let mut flipped = pristine.clone();
    flipped[beta + 8] ^= 0x10;
    match refusal(&flipped) {
        SnapshotError::Corrupt { offset, .. } => assert_eq!(offset, beta as u64),
        other => panic!("expected Corrupt at {beta}, got {other:?}"),
    }

    // Cut ten bytes out of alpha's payload (seal intact): the damage is
    // placed at alpha's record.
    let mut cut = pristine.clone();
    cut.drain(alpha + 10..alpha + 20);
    match refusal(&cut) {
        SnapshotError::Corrupt { offset, .. } => assert_eq!(offset, alpha as u64),
        other => panic!("expected Corrupt at {alpha}, got {other:?}"),
    }

    // Truncate inside beta's record: alpha verified, then no seal.
    match refusal(&pristine[..beta + 8]) {
        SnapshotError::Unsealed { offset } => assert_eq!(offset, beta as u64),
        other => panic!("expected Unsealed at {beta}, got {other:?}"),
    }

    // Flip a bit of the seal's record count: the seal does not cover
    // the records.
    let mut miscounted = pristine.clone();
    miscounted[seal + 11] ^= 0x01;
    match refusal(&miscounted) {
        SnapshotError::Corrupt { offset, .. } => assert_eq!(offset, seal as u64),
        other => panic!("expected Corrupt at {seal}, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// The server-level guarantee: `serve()` pointed at a corrupt snapshot
/// returns an error mentioning the snapshot instead of starting with a
/// zero ledger.
#[test]
fn server_refuses_to_start_on_corrupt_snapshot() {
    let path = temp_path("refuse");
    write_reference_snapshot(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    let len = bytes.len();
    bytes.truncate(len / 2);
    std::fs::write(&path, &bytes).unwrap();

    match serve(ServerConfig { snapshot_path: Some(path.clone()), ..ServerConfig::default() }) {
        Err(e) => assert!(
            e.to_string().contains("snapshot"),
            "refusal must be attributable: {e}"
        ),
        Ok(handle) => {
            handle.shutdown();
            handle.join().ok();
            panic!("server started from a corrupt snapshot");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Sanity anchor for the whole suite: the pristine file does restore,
/// bitwise, including the dedup window.
#[test]
fn pristine_snapshot_still_restores() {
    let path = temp_path("pristine");
    let original = write_reference_snapshot(&path);
    let fresh = ShardedLedger::new(7);
    assert_eq!(load(&path, &fresh).unwrap(), 2);
    assert_eq!(fresh.sum("alpha"), original.sum("alpha"));
    assert_eq!(fresh.sum("beta"), original.sum("beta"));
    assert_eq!(
        fresh.sum("alpha").unwrap().as_limbs(),
        original.sum("alpha").unwrap().as_limbs()
    );
    // Dedup window survived: replaying (9, 4) deposits nothing.
    let before = fresh.sum("alpha").unwrap();
    assert!(!fresh.add_batch_le_bytes_dedup("alpha", 0, 9, 4, &le_bytes(&[0.125])).1);
    assert_eq!(fresh.sum("alpha").unwrap(), before);
    std::fs::remove_file(&path).ok();
}
