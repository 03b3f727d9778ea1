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
use oisum_service::{serve, ServerConfig, ShardedLedger};
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-corrupt-test-{}-{name}.json", std::process::id()));
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

/// Asserts a failed load left `ledger` exactly as constructed: empty.
fn assert_untouched(ledger: &ShardedLedger) {
    assert!(ledger.sum("alpha").is_none(), "failed load must not create streams");
    assert!(ledger.sum("beta").is_none(), "failed load must not create streams");
}

/// Every single-bit flip anywhere in the file — body, separator, footer
/// — is caught. This is the exhaustive version of "checksums work": no
/// bit position exists whose flip restores silently.
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
                Err(_) => assert_untouched(&fresh),
                Ok(_) => panic!(
                    "flip of bit {bit} in byte {byte} (of {}) restored successfully",
                    pristine.len()
                ),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Every truncation point — from the empty file up to one byte short of
/// complete — is rejected with a typed error, and the error is the
/// *right* type at the boundaries we can name.
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
            matches!(
                err,
                SnapshotError::MissingFooter
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "truncation to {keep} bytes produced the wrong error class: {err}"
        );
        assert_untouched(&fresh);
    }
    std::fs::remove_file(&path).ok();
}

/// Bytes appended after a valid file (log-style concatenation, editor
/// droppings) break the footer position and are rejected.
#[test]
fn trailing_garbage_is_rejected() {
    let path = temp_path("trailing");
    write_reference_snapshot(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"\n{\"oops\":1}");
    std::fs::write(&path, &bytes).unwrap();
    let fresh = ShardedLedger::new(2);
    assert!(load(&path, &fresh).is_err(), "trailing garbage restored successfully");
    assert_untouched(&fresh);
    std::fs::remove_file(&path).ok();
}

/// A file that was never a snapshot (empty, plain text, old v1 JSON
/// without a footer) is refused as `MissingFooter`.
#[test]
fn non_snapshot_files_are_refused() {
    let path = temp_path("notasnapshot");
    for contents in [
        "",
        "hello world",
        r#"{"version":1,"entries":[]}"#,
        r#"{"version":2,"entries":[]}"#, // valid body, but unsealed
    ] {
        std::fs::write(&path, contents).unwrap();
        let fresh = ShardedLedger::new(1);
        match load(&path, &fresh) {
            Err(SnapshotError::MissingFooter) => {}
            other => panic!("unsealed file {contents:?} gave {other:?}"),
        }
        assert_untouched(&fresh);
    }
    std::fs::remove_file(&path).ok();
}

/// The error carries the evidence: a truncated body reports expected vs
/// actual lengths, a flipped body reports both checksums.
#[test]
fn errors_carry_forensics() {
    let path = temp_path("forensics");
    write_reference_snapshot(&path);
    let pristine = std::fs::read(&path).unwrap();
    let body_len = {
        let text = String::from_utf8(pristine.clone()).unwrap();
        text[..text.rfind('\n').unwrap()].len()
    };

    // Cut ten bytes out of the middle of the body (footer intact).
    let mut cut = pristine.clone();
    cut.drain(5..15);
    std::fs::write(&path, &cut).unwrap();
    match load(&path, &ShardedLedger::new(1)) {
        Err(SnapshotError::Truncated { expected, actual }) => {
            assert_eq!(expected, body_len);
            assert_eq!(actual, body_len - 10);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // Flip a body byte (length preserved): checksum mismatch with both
    // values reported.
    let mut flipped = pristine.clone();
    flipped[8] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    match load(&path, &ShardedLedger::new(1)) {
        Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// The server-level guarantee: `serve()` pointed at a corrupt snapshot
/// returns an error mentioning the snapshot instead of starting with a
/// zero ledger (the failure mode this PR exists to prevent).
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
