//! Durability across shutdown, with and without snapshots — the
//! regression suite for the shutdown-drain fix: deposits that arrive
//! after the last snapshot used to die with the process unless the
//! graceful path happened to write a final snapshot; with a WAL
//! attached they must survive on the log alone.

use oisum_core::Hp6x3;
use oisum_service::wal::{list_segments, FsyncPolicy, WalConfig, SEAL_LEN};
use oisum_service::{recovery, serve, Client, ClientConfig, ServerConfig, ShardedLedger};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-wal-shutdown-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn dataset(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let m = rng.random_range(-1.0f64..1.0);
            let e = rng.random_range(-12i32..=12);
            m * 10f64.powi(e)
        })
        .collect()
}

fn tracked_client(addr: std::net::SocketAddr, id: u64) -> Client {
    Client::connect_with(
        addr,
        ClientConfig { client_id: Some(id), ..ClientConfig::default() },
    )
    .unwrap()
}

/// The satellite fix, head on: NO snapshot path at all. Every ACKed
/// batch must be reconstructible from the sealed log after a graceful
/// shutdown, because the shutdown path drains the commit group and
/// seals before exiting.
#[test]
fn acked_batches_survive_shutdown_on_the_log_alone() {
    let dir = temp_dir("log-alone");
    let data = dataset(3_000, 41);
    let expected = Hp6x3::sum_f64_slice(&data).as_limbs().to_vec();

    let server = serve(ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = tracked_client(server.addr(), 7);
    for chunk in data.chunks(250) {
        assert_eq!(client.add_binary("s", chunk).unwrap() as usize, chunk.len());
    }
    client.shutdown().unwrap();
    server.join().unwrap();

    // Recover into a fresh ledger straight from the segments.
    let ledger = ShardedLedger::new(4);
    let report = recovery::recover(&dir, &ledger).unwrap();
    assert_eq!(report.applied, 12, "one record per ACKed batch");
    assert!(report.torn.is_empty(), "graceful close must leave no torn tail");
    assert_eq!(
        ledger.sum("s").unwrap().as_limbs().to_vec(),
        expected,
        "recovered limbs diverged from the ACKed deposits"
    );

    // And through the real boot path: a restarted server replays the
    // log, keeps the watermarks (a replayed batch dedups), and serves
    // the same bits.
    let restored = serve(ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut retry = tracked_client(restored.addr(), 7);
    for chunk in data.chunks(250) {
        retry.add_binary("s", chunk).unwrap(); // replays of seqs 1..=12
    }
    let reply = retry.sum("s").unwrap();
    assert_eq!(reply.limbs, expected, "post-restart replays were double-applied");
    retry.shutdown().unwrap();
    restored.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A restart over a torn log keeps what the replay did: the handle's
/// report names the truncated tail and counts only the records before
/// it, and the served sum is exactly theirs.
#[test]
fn a_restart_over_a_torn_log_reports_the_truncation() {
    let dir = temp_dir("torn-report");
    let data = dataset(3_000, 43);
    let server = serve(ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    assert_eq!(
        server.recovery(),
        Some(&recovery::RecoveryReport::default())
    );
    let mut client = tracked_client(server.addr(), 7);
    for chunk in data.chunks(250) {
        client.add_binary("s", chunk).unwrap();
    }
    client.shutdown().unwrap();
    server.join().unwrap();

    // Cut the sealed segment inside its last record: the seal goes, and
    // that record becomes a torn tail.
    let (index, path) = list_segments(&dir).unwrap().pop().unwrap();
    let sealed = std::fs::read(&path).unwrap();
    let cut = sealed.len() - SEAL_LEN - 5;
    std::fs::write(&path, &sealed[..cut]).unwrap();

    let restarted = serve(ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    let report = restarted.recovery().unwrap().clone();
    assert_eq!(
        (report.segments, report.records, report.applied),
        (1, 11, 11)
    );
    assert_eq!((report.deduped, report.values), (0, 11 * 250));
    assert_eq!(report.torn.len(), 1);
    assert_eq!(report.torn[0].segment, index);
    assert_eq!(
        report.torn[0].offset + report.torn[0].dropped_bytes,
        cut as u64
    );
    assert_eq!(
        report.to_string(),
        "segments=1 records=11 applied=11 deduped=0 values=2750 torn=1"
    );
    let mut reader = tracked_client(restarted.addr(), 8);
    assert_eq!(
        reader.sum("s").unwrap().limbs,
        Hp6x3::sum_f64_slice(&data[..11 * 250]).as_limbs().to_vec()
    );
    reader.shutdown().unwrap();
    restarted.join().unwrap();

    // Without a WAL there is no replay to report.
    let bare = serve(ServerConfig::default()).unwrap();
    assert!(bare.recovery().is_none());
    bare.shutdown();
    bare.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot + WAL interplay: a `Snapshot` request GCs the sealed
/// segments it covers, the final shutdown snapshot GCs everything, and
/// a restart from the combined state is bitwise-identical.
#[test]
fn snapshot_requests_gc_covered_segments() {
    let dir = temp_dir("gc");
    let snap = dir.join("ledger.snap");
    let data = dataset(4_000, 42);
    let expected = Hp6x3::sum_f64_slice(&data).as_limbs().to_vec();

    let config = ServerConfig {
        snapshot_path: Some(snap.clone()),
        wal: Some(WalConfig {
            // Tiny segments so the load rotates several times.
            segment_bytes: 4 * 1024,
            ..WalConfig::new(dir.join("wal"))
        }),
        ..ServerConfig::default()
    };
    let server = serve(config.clone()).unwrap();
    let mut client = tracked_client(server.addr(), 9);
    let chunks: Vec<&[f64]> = data.chunks(200).collect();
    for chunk in &chunks[..10] {
        client.add_binary("s", chunk).unwrap();
    }
    let before_gc = list_segments(&dir.join("wal")).unwrap().len();
    assert!(before_gc > 1, "load must have rotated segments (got {before_gc})");
    client.snapshot().unwrap();
    let after_gc = list_segments(&dir.join("wal")).unwrap().len();
    assert!(
        after_gc < before_gc,
        "snapshot must GC covered segments ({before_gc} -> {after_gc})"
    );

    for chunk in &chunks[10..] {
        client.add_binary("s", chunk).unwrap();
    }
    client.shutdown().unwrap();
    server.join().unwrap();
    assert_eq!(
        list_segments(&dir.join("wal")).unwrap().len(),
        0,
        "the verified final snapshot dominates every sealed segment"
    );

    let restored = serve(config).unwrap();
    let ledger = restored.ledger();
    assert_eq!(
        ledger.sum("s").unwrap().as_limbs().to_vec(),
        expected,
        "snapshot + empty log restart diverged"
    );
    restored.shutdown();
    restored.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fsync policy logs one record per Add from a tracked client,
/// and the recovered bits match.
#[test]
fn tracked_adds_log_under_every_policy() {
    for (tag, fsync) in [("group", FsyncPolicy::Group), ("never", FsyncPolicy::Never)] {
        let dir = temp_dir(&format!("policy-{tag}"));
        let data = dataset(1_200, 43);
        let expected = Hp6x3::sum_f64_slice(&data).as_limbs().to_vec();
        let server = serve(ServerConfig {
            wal: Some(WalConfig { fsync, ..WalConfig::new(&dir) }),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = tracked_client(server.addr(), 11);
        for chunk in data.chunks(100) {
            client.add_binary("s", chunk).unwrap();
        }
        client.shutdown().unwrap();
        server.join().unwrap();

        let ledger = ShardedLedger::new(4);
        let report = recovery::recover(&dir, &ledger).unwrap();
        assert_eq!(report.applied, 12, "{tag}: one record per batch");
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs().to_vec(),
            expected,
            "{tag}: recovered limbs diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Untracked batches keep their documented snapshot-only durability:
/// they are never logged (no retry identity means no idempotent
/// replay), so the log alone reconstructs exactly the tracked subset.
#[test]
fn untracked_batches_are_not_logged() {
    let dir = temp_dir("untracked");
    let tracked = dataset(600, 44);
    let untracked = dataset(400, 45);
    let server = serve(ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut t = tracked_client(server.addr(), 5);
    let mut u = Client::connect_with(
        server.addr(),
        ClientConfig { client_id: Some(oisum_service::client::UNTRACKED), ..ClientConfig::default() },
    )
    .unwrap();
    for chunk in tracked.chunks(100) {
        t.add_binary("s", chunk).unwrap();
    }
    for chunk in untracked.chunks(100) {
        u.add_binary("s", chunk).unwrap();
    }
    drop(u); // open connections drain to EOF before join returns
    t.shutdown().unwrap();
    server.join().unwrap();

    let ledger = ShardedLedger::new(4);
    let report = recovery::recover(&dir, &ledger).unwrap();
    assert_eq!(report.applied, 6, "only the tracked batches are in the log");
    assert_eq!(report.untracked_skipped, 0, "the writer never logs untracked batches");
    assert_eq!(
        ledger.sum("s").unwrap().as_limbs().to_vec(),
        Hp6x3::sum_f64_slice(&tracked).as_limbs().to_vec(),
        "log-only recovery is exactly the tracked subset"
    );
    std::fs::remove_dir_all(&dir).ok();
}
