//! WAL corruption torture: the `snapshot_corruption.rs` discipline
//! extended to log segments. Over a small recorded log — several
//! rotation-sealed segments plus one unsealed tail — every single-bit
//! flip and every truncation must either replay cleanly (damage at or
//! past the torn tail), or be rejected / truncated at the damaged
//! record. Never a panic, never a phantom apply, never a recovered sum
//! outside the prefix set of what was actually logged.
//!
//! The prefix property is the load-bearing invariant: whatever recovery
//! accepts from the damaged segment must be a *prefix* of its records
//! (plus all records of the undamaged segments). Accepting record j+1
//! while dropping record j would re-order ACKed history; accepting a
//! record that was never written would fabricate deposits.

use oisum_core::Hp6x3;
use oisum_service::proto::le_bytes;
use oisum_service::wal::{list_segments, Wal, WalConfig};
use oisum_service::{recovery, ShardedLedger};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-wal-torture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// One batch per (client, seq): 3 values derived from the coordinates
/// so every record's contribution is distinct and reproducible.
fn batch(client: u64, seq: u64) -> Vec<f64> {
    (0..3)
        .map(|i| (client as f64 + 1.0) * 1e3 + seq as f64 + i as f64 * 1e-6)
        .collect()
}

/// Writes the torture fixture: tiny segments so the first 12 records
/// rotate through several sealed files, then 4 more records and a
/// simulated crash so the final segment keeps an unsealed tail. Returns
/// the batches in append order.
fn record_fixture(dir: &Path) -> Vec<(u64, u64, Vec<f64>)> {
    let mut logged = Vec::new();
    let wal = Wal::open(WalConfig {
        segment_bytes: 256, // a couple of records per segment
        ..WalConfig::new(dir)
    })
    .unwrap();
    for seq in 1..=6u64 {
        for client in 1..=2u64 {
            let values = batch(client, seq);
            wal.append("s", client, seq, &le_bytes(&values)).unwrap();
            logged.push((client, seq, values));
        }
    }
    drop(wal); // graceful: seals the active segment

    // Re-open and die without closing: these 4 records sit in an
    // unsealed segment whose only protection is per-record checksums.
    let wal = Wal::open(WalConfig { segment_bytes: 256, ..WalConfig::new(dir) }).unwrap();
    for seq in 7..=8u64 {
        for client in 1..=2u64 {
            let values = batch(client, seq);
            wal.append("s", client, seq, &le_bytes(&values)).unwrap();
            logged.push((client, seq, values));
        }
    }
    wal.crash(); // simulated death before seal
    drop(wal);
    logged
}

/// The exact sums recovery is allowed to produce when `damaged` (by
/// segment index) may lose a suffix of its records: all other segments'
/// records, plus the first `j` records of the damaged one, for every
/// `j` up to its full count. Returned as limb vectors for bitwise
/// comparison.
fn achievable_sums(
    logged: &[(u64, u64, Vec<f64>)],
    per_segment: &[Vec<usize>],
    damaged: usize,
) -> Vec<Vec<u64>> {
    let mut intact: Vec<f64> = Vec::new();
    for (i, records) in per_segment.iter().enumerate() {
        if i != damaged {
            for &r in records {
                intact.extend_from_slice(&logged[r].2);
            }
        }
    }
    (0..=per_segment[damaged].len())
        .map(|j| {
            let mut values = intact.clone();
            for &r in &per_segment[damaged][..j] {
                values.extend_from_slice(&logged[r].2);
            }
            Hp6x3::sum_f64_slice(&values).as_limbs().to_vec()
        })
        .collect()
}

/// Runs recovery over the mutated directory and applies the verdict
/// rules. `mutation` names the case for the panic message.
fn check_one(
    dir: &Path,
    mutation: &str,
    allowed: &[Vec<u64>],
) {
    let ledger = ShardedLedger::new(2);
    match recovery::recover(dir, &ledger) {
        Err(_) => {
            // Rejected outright: nothing may have been applied.
            assert!(
                ledger.sum("s").is_none(),
                "{mutation}: recovery failed but still applied records (phantom apply)"
            );
        }
        Ok(report) => {
            let got = match ledger.sum("s") {
                Some(sum) => sum.as_limbs().to_vec(),
                None => {
                    assert_eq!(report.applied, 0, "{mutation}: applied records but no stream");
                    return;
                }
            };
            assert!(
                allowed.contains(&got),
                "{mutation}: recovered a sum outside the achievable prefix set \
                 ({} records applied, {} torn tails)",
                report.applied,
                report.torn.len()
            );
        }
    }
}

/// Every single-bit flip of every byte of one sealed (middle) segment
/// and of the unsealed tail segment. ~36k recoveries.
#[test]
fn every_bit_flip_is_survived() {
    let dir = temp_dir("bitflip");
    let logged = record_fixture(&dir);
    let segments = list_segments(&dir).unwrap();
    assert!(segments.len() >= 3, "fixture must span several segments");

    // Map each logged record to its segment by replaying the clean log
    // once per segment count — simpler: recompute from the fixture
    // layout by parsing segment sizes is overkill; instead attribute
    // records by recovering each prefix of segments. The fixture is
    // small, so brute force is fine: recover with only the first k
    // segments present and diff applied counts.
    let per_segment = records_per_segment(&dir, &segments, logged.len());

    // A middle sealed segment and the unsealed last segment.
    let targets = [1usize, segments.len() - 1];
    for &t in &targets {
        let (_, path) = &segments[t];
        let pristine = std::fs::read(path).unwrap();
        let allowed = achievable_sums(&logged, &per_segment, t);
        for byte in 0..pristine.len() {
            for bit in 0..8u8 {
                let mut mutated = pristine.clone();
                mutated[byte] ^= 1 << bit;
                std::fs::write(path, &mutated).unwrap();
                check_one(
                    &dir,
                    &format!("segment {t}: flip byte {byte} bit {bit}"),
                    &allowed,
                );
            }
        }
        std::fs::write(path, &pristine).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every truncation length of the same two segments, from empty file to
/// full length.
#[test]
fn every_truncation_is_survived() {
    let dir = temp_dir("truncate");
    let logged = record_fixture(&dir);
    let segments = list_segments(&dir).unwrap();
    assert!(segments.len() >= 3, "fixture must span several segments");
    let per_segment = records_per_segment(&dir, &segments, logged.len());

    let targets = [1usize, segments.len() - 1];
    for &t in &targets {
        let (_, path) = &segments[t];
        let pristine = std::fs::read(path).unwrap();
        let allowed = achievable_sums(&logged, &per_segment, t);
        for len in 0..pristine.len() {
            std::fs::write(path, &pristine[..len]).unwrap();
            check_one(&dir, &format!("segment {t}: truncate to {len} bytes"), &allowed);
        }
        std::fs::write(path, &pristine).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The pristine fixture itself recovers every record bitwise — the
/// baseline that gives the torture verdicts their meaning.
#[test]
fn pristine_fixture_recovers_bitwise() {
    let dir = temp_dir("pristine");
    let logged = record_fixture(&dir);
    let ledger = ShardedLedger::new(2);
    let report = recovery::recover(&dir, &ledger).unwrap();
    assert_eq!(report.applied as usize, logged.len());
    let all: Vec<f64> = logged.iter().flat_map(|(_, _, v)| v.iter().copied()).collect();
    assert_eq!(
        ledger.sum("s").unwrap().as_limbs().to_vec(),
        Hp6x3::sum_f64_slice(&all).as_limbs().to_vec(),
        "pristine replay must be bitwise-identical"
    );
    // The unsealed tail is clean (crash after commit, before seal), so
    // nothing is torn.
    assert!(report.torn.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Attributes the fixture's records (in append order) to their segment
/// by recovering the log with trailing segments removed: the applied
/// count with the first k segments present tells how many records live
/// in segments 0..k. Contiguity checking is satisfied because we only
/// ever drop a suffix.
fn records_per_segment(
    dir: &Path,
    segments: &[(u64, PathBuf)],
    total: usize,
) -> Vec<Vec<usize>> {
    let stash = dir.with_extension("stash");
    let _ = std::fs::remove_dir_all(&stash);
    std::fs::create_dir_all(&stash).unwrap();
    let mut cumulative = Vec::new();
    // Remove suffixes longest-first so each pass sees segments 0..=k.
    for k in (0..segments.len()).rev() {
        let (_, path) = &segments[k];
        let name = path.file_name().unwrap();
        std::fs::rename(path, stash.join(name)).unwrap();
        let ledger = ShardedLedger::new(2);
        let report = recovery::recover(dir, &ledger).unwrap();
        cumulative.push(report.applied as usize);
    }
    cumulative.reverse(); // now cumulative[k] = records in segments 0..k
    // Restore the stashed files.
    for (_, path) in segments {
        let name = path.file_name().unwrap();
        if stash.join(name).exists() {
            std::fs::rename(stash.join(name), path).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&stash);

    let mut out = Vec::new();
    let mut start = 0usize;
    for k in 0..segments.len() {
        let end = if k + 1 < segments.len() { cumulative[k + 1] } else { total };
        out.push((start..end).collect());
        start = end;
    }
    assert_eq!(start, total, "record attribution must cover the whole fixture");
    out
}
