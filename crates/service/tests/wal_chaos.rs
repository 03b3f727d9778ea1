//! WAL crash-point matrix: every durability seam × {before, after}
//! group commit × multiple seeds × both transports, with concurrent
//! retrying clients. The threaded transport commits on its connection
//! threads' blocking appends; the epoll reactor submits and its WAL
//! pump commits, so each seam fires on both commit paths.
//!
//! Each scenario kills the log mid-load at an injected crash point
//! (torn group write, dropped fsync, bit-flipped group, or a process
//! crash on either side of the commit), then recovers from the segments
//! on disk into a fresh ledger and asserts the two headline invariants:
//!
//! 1. **Zero ACKed-batch loss** — every batch a client saw `Ok` for is
//!    covered by the recovered dedup watermarks.
//! 2. **Bitwise identity** — the recovered limbs equal
//!    `Hp6x3::sum_f64_slice` over exactly the watermark-covered batches
//!    (an uncrashed reference computation over the same batch set), bit
//!    for bit. Recovered coverage may exceed the ACKed set (a batch can
//!    commit and then die before its ACK) but never fall short of it.
//!
//! Compiled only under `--features failpoints`; serialized on the
//! global registry lock like `chaos.rs`.

#![cfg(feature = "failpoints")]

use oisum_faults::{registry, FaultAction, FireRule};
use oisum_service::wal::{FsyncPolicy, WalConfig};
use oisum_service::{
    recovery, serve, Client, ClientConfig, ClientError, ServerConfig, ServiceHp, ShardedLedger,
    Transport,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

struct ChaosGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> ChaosGuard {
    let lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    registry().reset(0);
    ChaosGuard { _lock: lock }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        registry().reset(0);
    }
}

fn temp_dir(name: &str, seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-wal-chaos-{}-{name}-{seed}", std::process::id()));
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

fn chaos_client(addr: std::net::SocketAddr, id: u64, seed: u64) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            retries: 16,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            client_id: Some(id),
            jitter_seed: seed,
        },
    )
    .unwrap()
}

/// Every seam test runs once per transport.
const TRANSPORTS: [Transport; 2] = [Transport::Threads, Transport::Epoll];

const CLIENTS: u64 = 3;
const BATCHES_PER_CLIENT: usize = 40;
const BATCH: usize = 25;

/// Drives `CLIENTS` tracked clients against a WAL-backed server on
/// `transport` while the armed seams fire, then recovers from the
/// segments and checks the two invariants. Returns the total fire count
/// across `watch` and the number of batches ACKed.
///
/// Clients stop at the first typed server error (the crash refusal is
/// never retried) or transport failure; every `Ok` batch is recorded as
/// ACKed. The server is then told to shut down — its acceptor surfaces
/// the poisoned WAL as a join error, which the harness tolerates: after
/// a crash the segments on disk are the source of truth, and that is
/// exactly what recovery reads.
fn run_crash_matrix(
    name: &str,
    seed: u64,
    fsync: FsyncPolicy,
    transport: Transport,
    watch: &[&str],
) -> (u64, u64) {
    let name = &format!("{name}-{transport:?}");
    let dir = temp_dir(name, seed);
    let server = serve(ServerConfig {
        wal: Some(WalConfig { segment_bytes: 8 * 1024, fsync, ..WalConfig::new(&dir) }),
        transport,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // chunks[c][s-1] is client c+1's batch with seq s; acked[c] is the
    // highest seq client c+1 saw an Ok for.
    let chunks: Vec<Vec<f64>> = (0..CLIENTS)
        .map(|c| dataset(BATCHES_PER_CLIENT * BATCH, seed ^ (c + 1) << 16))
        .collect();
    let mut acked = vec![0u64; CLIENTS as usize];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let data = &chunks[c as usize];
                s.spawn(move || {
                    let mut client = chaos_client(addr, c + 1, seed ^ c);
                    let mut acked = 0u64;
                    for (i, chunk) in data.chunks(BATCH).enumerate() {
                        match client.add_binary("s", chunk) {
                            Ok(_) => acked = (i + 1) as u64,
                            // A typed refusal or a dead transport: the
                            // server crashed; nothing later is ACKed.
                            Err(ClientError::Server { .. }) | Err(ClientError::Io(_)) => break,
                            Err(e) => panic!("unexpected client failure: {e}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            acked[c] = h.join().unwrap();
        }
    });

    let fired: u64 = watch.iter().map(|n| registry().fired(n)).sum();
    registry().clear();
    // Graceful stop; join errors are expected when the WAL is poisoned.
    server.shutdown();
    let _ = server.join();

    // Recover from disk into a fresh ledger.
    let ledger = ShardedLedger::new(4);
    let report = recovery::recover(&dir, &ledger)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: recovery refused a crash log: {e}"));

    // Invariant 1: zero ACKed-batch loss. The recovered watermark for
    // every client covers everything that client was ACKed.
    let state = ledger.stream_state("s");
    let watermark = |c: u64| -> u64 {
        state
            .as_ref()
            .and_then(|st| st.dedup.iter().find(|&&(id, _)| id == c).map(|&(_, s)| s))
            .unwrap_or(0)
    };
    for c in 1..=CLIENTS {
        let got = watermark(c);
        let want = acked[(c - 1) as usize];
        assert!(
            got >= want,
            "{name} seed {seed}: client {c} lost ACKed batches (watermark {got} < acked {want})"
        );
    }

    // Invariant 2: bitwise identity with an uncrashed reference over the
    // recovered batch set. WAL records per client are appended in seq
    // order, so watermark w means exactly batches 1..=w applied.
    let mut reference: Vec<f64> = Vec::new();
    let mut count = 0u64;
    for c in 1..=CLIENTS {
        let w = watermark(c) as usize;
        let covered = &chunks[(c - 1) as usize][..w * BATCH];
        reference.extend_from_slice(covered);
        count += covered.len() as u64;
    }
    if count == 0 {
        assert!(ledger.sum("s").is_none() || report.applied == 0);
    } else {
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs().to_vec(),
            ServiceHp::sum_f64_slice(&reference).as_limbs().to_vec(),
            "{name} seed {seed}: recovered limbs diverged from the uncrashed reference"
        );
        let stats = ledger.stream_state("s").unwrap();
        assert_eq!(
            stats.values, count,
            "{name} seed {seed}: recovered value count diverged (double- or phantom-apply)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    (fired, acked.iter().sum())
}

/// A torn group write: the commit writes only a prefix of the group
/// and the log poisons. The batches in that group were never ACKed;
/// recovery truncates the torn tail and keeps every ACKed batch.
#[test]
fn torn_group_write_loses_no_acked_batch() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for (seed, keep, nth) in [(1u64, 0usize, 20u64), (2, 7, 15), (3, 40, 8)] {
            registry().reset(seed);
            registry().arm("wal.append.torn", FireRule::Nth(nth), FaultAction::Truncate { keep });
            let (fired, _) = run_crash_matrix(
                "torn",
                seed,
                FsyncPolicy::default(),
                transport,
                &["wal.append.torn"],
            );
            assert!(fired > 0, "{transport:?} seed {seed}: the torn-append seam never fired");
        }
    }
}

/// A dropped fsync: bytes may or may not be durable, so the group is
/// refused and the log poisons. Whatever survives on disk is a superset
/// of nothing ACKed — recovery may see the un-synced group, never less.
#[test]
fn dropped_fsync_refuses_the_group() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for (seed, nth) in [(4u64, 5), (5, 12), (6, 25)] {
            registry().reset(seed);
            registry().arm("wal.fsync.drop", FireRule::Nth(nth), FaultAction::Disconnect);
            let (fired, _) = run_crash_matrix(
                "fsync-drop",
                seed,
                FsyncPolicy::Group,
                transport,
                &["wal.fsync.drop"],
            );
            assert!(fired > 0, "{transport:?} seed {seed}: the fsync-drop seam never fired");
        }
    }
}

/// A bit flipped inside the in-flight group as it hits the disk: the
/// group is refused, the log poisons, and recovery truncates at the
/// first record whose checksum no longer verifies.
#[test]
fn corrupted_group_truncates_at_the_bad_record() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for (seed, offset, bit, nth) in
            [(7u64, 3usize, 1u8, 5u64), (8, 129, 6, 12), (9, 77, 3, 20)]
        {
            registry().reset(seed);
            registry().arm(
                "wal.segment.corrupt",
                FireRule::Nth(nth),
                FaultAction::BitFlip { offset, bit },
            );
            let (fired, _) = run_crash_matrix(
                "bitflip",
                seed,
                FsyncPolicy::default(),
                transport,
                &["wal.segment.corrupt"],
            );
            assert!(fired > 0, "{transport:?} seed {seed}: the segment-corrupt seam never fired");
        }
    }
}

/// Process crash between the ledger apply and the group commit: the
/// batch is in memory but not in the log — and was never ACKed, so
/// recovery (which sees only the log) is allowed to drop it and must
/// keep everything ACKed before it.
#[test]
fn crash_before_commit_drops_only_unacked_batches() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for (seed, nth) in [(10u64, 10), (11, 45), (12, 90)] {
            registry().reset(seed);
            registry().arm(
                "server.crash.before_commit",
                FireRule::Nth(nth),
                FaultAction::Disconnect,
            );
            let (fired, _) = run_crash_matrix(
                "before-commit",
                seed,
                FsyncPolicy::default(),
                transport,
                &["server.crash.before_commit"],
            );
            assert!(fired > 0, "{transport:?} seed {seed}: the before-commit seam never fired");
        }
    }
}

/// Process crash between the group commit and the ACK: the batch is
/// durable but the client never saw the ACK. Recovery replays it —
/// recovered coverage exceeds the ACKed set, which the invariant
/// explicitly permits (durable-but-unACKed, never ACKed-but-lost).
/// Under the reactor the seam fires after the submit, before the pump
/// has committed the record, so the crash may also catch it queued.
#[test]
fn crash_after_commit_keeps_the_durable_batch() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for (seed, nth) in [(13u64, 12), (14, 50), (15, 100)] {
            registry().reset(seed);
            registry().arm(
                "server.crash.after_commit",
                FireRule::Nth(nth),
                FaultAction::Disconnect,
            );
            let (fired, _) = run_crash_matrix(
                "after-commit",
                seed,
                FsyncPolicy::default(),
                transport,
                &["server.crash.after_commit"],
            );
            assert!(fired > 0, "{transport:?} seed {seed}: the after-commit seam never fired");
        }
    }
}

/// The full storm under the `never` policy (no fsync to drop, so the
/// other four seams race probabilistically): whatever fires first
/// poisons the log, and the invariants hold.
#[test]
fn crash_storm_across_all_seams() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        for seed in [16u64, 17, 18] {
            registry().reset(seed);
            registry().arm(
                "wal.append.torn",
                FireRule::Probability(0.04),
                FaultAction::Truncate { keep: 13 },
            );
            registry().arm(
                "wal.segment.corrupt",
                FireRule::Probability(0.04),
                FaultAction::BitFlip { offset: 31, bit: 2 },
            );
            registry().arm(
                "server.crash.before_commit",
                FireRule::Probability(0.02),
                FaultAction::Disconnect,
            );
            registry().arm(
                "server.crash.after_commit",
                FireRule::Probability(0.02),
                FaultAction::Disconnect,
            );
            let (fired, _) = run_crash_matrix(
                "storm",
                seed,
                FsyncPolicy::Never,
                transport,
                &[
                    "wal.append.torn",
                    "wal.segment.corrupt",
                    "server.crash.before_commit",
                    "server.crash.after_commit",
                ],
            );
            assert!(
                fired > 0,
                "{transport:?} seed {seed}: no crash seam fired — the storm proves nothing"
            );
        }
    }
}

/// Uncrashed control: the same load with no seams armed must recover
/// every batch bitwise — if this fails, the harness (not the crash
/// handling) is broken.
#[test]
fn uncrashed_control_recovers_everything() {
    let _g = chaos_guard();
    for transport in TRANSPORTS {
        let seed = 19u64;
        registry().reset(seed);
        let (fired, acked) =
            run_crash_matrix("control", seed, FsyncPolicy::default(), transport, &[]);
        assert_eq!(
            (fired, acked),
            (0, CLIENTS * BATCHES_PER_CLIENT as u64),
            "{transport:?}: an uncrashed run ACKs every batch"
        );
    }
}

/// Snapshot interplay under crash: a snapshot (with its WAL GC) lands
/// mid-load, then the log crashes. The restarted server must serve the
/// union — snapshot-covered batches plus post-snapshot log records —
/// with zero ACKed loss.
#[test]
fn snapshot_mid_load_then_crash_recovers_the_union() {
    let _g = chaos_guard();
    for seed in [20u64, 21, 22] {
        registry().reset(seed);
        let dir = temp_dir("snap-crash", seed);
        let snap = dir.join("ledger.snap");
        let wal_dir = dir.join("wal");
        let config = ServerConfig {
            snapshot_path: Some(snap.clone()),
            wal: Some(WalConfig { segment_bytes: 2 * 1024, ..WalConfig::new(&wal_dir) }),
            ..ServerConfig::default()
        };
        let server = serve(config.clone()).unwrap();
        let data = dataset(30 * BATCH, seed ^ 0xF00D);
        let mut client = chaos_client(server.addr(), 1, seed);
        let mut acked = 0usize;
        registry().arm("server.crash.after_commit", FireRule::Nth(22), FaultAction::Disconnect);
        for (i, chunk) in data.chunks(BATCH).enumerate() {
            if i == 12 {
                client.snapshot().unwrap(); // GCs sealed, covered segments
            }
            match client.add_binary("s", chunk) {
                Ok(_) => acked = i + 1,
                Err(_) => break,
            }
        }
        assert!(registry().fired("server.crash.after_commit") > 0, "seed {seed}: never crashed");
        registry().clear();
        drop(client); // open connections drain to EOF before join returns
        server.shutdown();
        let _ = server.join();

        // Boot the real recovery path: snapshot restore + WAL replay.
        let restored = serve(config).unwrap();
        let ledger = restored.ledger();
        let state = ledger.stream_state("s").expect("recovered stream");
        let w = state
            .dedup
            .iter()
            .find(|&&(id, _)| id == 1)
            .map(|&(_, s)| s)
            .unwrap_or(0) as usize;
        assert!(w >= acked, "seed {seed}: snapshot+log union lost ACKed batches ({w} < {acked})");
        assert_eq!(
            ledger.sum("s").unwrap().as_limbs().to_vec(),
            ServiceHp::sum_f64_slice(&data[..w * BATCH]).as_limbs().to_vec(),
            "seed {seed}: snapshot + log union diverged from the reference"
        );
        restored.shutdown();
        restored.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
