//! Chaos suite: end-to-end runs through every fault-injection seam,
//! asserting the headline invariant survives — the final `Sum` limbs are
//! **bitwise identical** to a clean run's, and every batch is applied
//! **exactly once** (`values` statistic == dataset length), no matter
//! which faults fired.
//!
//! Compiled only under `--features failpoints`:
//!
//! ```sh
//! cargo test -p oisum-service --features failpoints --test chaos
//! ```
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`chaos_guard`] and leaves the registry cleared. Each scenario runs
//! for several fixed seeds; counter rules (`Nth`/`EveryNth`/`Once`) give
//! exact fault schedules, probability rules draw from per-failpoint
//! streams seeded by `registry().reset(seed)`.

#![cfg(feature = "failpoints")]

use oisum_faults::{registry, FaultAction, FireRule};
use oisum_service::{serve, Client, ClientConfig, ServerConfig, ServiceHp};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes chaos tests (the registry is global state) and guarantees
/// a clean registry on entry and exit.
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

fn temp_path(name: &str, seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-chaos-{}-{name}-{seed}.snap", std::process::id()));
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

/// A client config tuned for chaos: tight timeouts, fast backoff, and
/// enough retries to outlast any schedule the scenarios arm.
fn chaos_client(seed: u64) -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_millis(150)),
        write_timeout: Some(Duration::from_millis(500)),
        retries: 64,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        client_id: None,
        jitter_seed: seed,
    }
}

/// Deposits `data` into stream `s` from `clients` retrying clients while
/// the armed faults fire, then disarms everything and reads back
/// `(sum limbs, values statistic, total fires across `watch`)` over a
/// clean connection.
fn run_under_chaos(
    data: &[f64],
    clients: usize,
    batch: usize,
    seed: u64,
    watch: &[&str],
) -> (Vec<u64>, u64, u64) {
    let server = serve(ServerConfig { shards: 4, ..ServerConfig::default() }).unwrap();
    let addr = server.addr();

    let batches: Vec<&[f64]> = data.chunks(batch).collect();
    std::thread::scope(|s| {
        for t in 0..clients {
            let batches = &batches;
            s.spawn(move || {
                let mut client =
                    Client::connect_with(addr, chaos_client(seed ^ (t as u64) << 8)).unwrap();
                for (i, chunk) in batches.iter().enumerate() {
                    if i % clients == t {
                        let n = client.add_binary("s", chunk).unwrap();
                        assert_eq!(n as usize, chunk.len());
                    }
                }
            });
        }
    });

    // Quiet the weather before reading back: the invariant under test is
    // about the deposits, and the readback should not race a Delay fire.
    let fired: u64 = watch.iter().map(|name| registry().fired(name)).sum();
    registry().clear();
    let mut client = Client::connect(addr).unwrap();
    let reply = client.sum("s").unwrap();
    assert!(!reply.poisoned);
    let (_, streams) = client.stats().unwrap();
    let values = streams.iter().find(|st| st.name == "s").map_or(0, |st| st.values);
    client.shutdown().unwrap();
    server.join().unwrap();
    (reply.limbs, values, fired)
}

/// Faults that drop the connection *before* the deposit lands: the batch
/// is lost and the retry must deposit it (a replay that was never
/// applied must NOT be treated as a duplicate).
#[test]
fn drop_before_apply_loses_nothing() {
    let _g = chaos_guard();
    let data = dataset(6_000, 101);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    for seed in [1u64, 2, 3] {
        registry().reset(seed);
        registry().arm(
            "server.add.drop_before_apply",
            FireRule::EveryNth(7),
            FaultAction::Disconnect,
        );
        let (limbs, values, fired) =
            run_under_chaos(&data, 3, 113, seed, &["server.add.drop_before_apply"]);
        assert!(fired > 0, "seed {seed}: the fault never fired — the run proves nothing");
        assert_eq!(limbs, expected, "seed {seed}: sum diverged under drop-before-apply");
        assert_eq!(values as usize, data.len(), "seed {seed}: lost or double-applied batches");
    }
}

/// Faults that drop the connection *after* the deposit lands but before
/// the ACK: the client cannot tell this from the batch being lost, so it
/// retries — and the dedup window must absorb the replay.
#[test]
fn drop_after_apply_double_applies_nothing() {
    let _g = chaos_guard();
    let data = dataset(6_000, 202);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    for seed in [4u64, 5, 6] {
        registry().reset(seed);
        registry().arm(
            "server.add.drop_after_apply",
            FireRule::EveryNth(6),
            FaultAction::Disconnect,
        );
        let (limbs, values, fired) =
            run_under_chaos(&data, 3, 97, seed, &["server.add.drop_after_apply"]);
        assert!(fired > 0, "seed {seed}: the fault never fired — the run proves nothing");
        assert_eq!(limbs, expected, "seed {seed}: sum diverged under drop-after-apply");
        assert_eq!(values as usize, data.len(), "seed {seed}: replay was double-applied");
    }
}

/// Mid-frame disconnects: the server sends only a prefix of the reply
/// frame, then hangs up. The client sees a truncated frame as a
/// transport error and retries; the deposit it is retrying was already
/// applied, so dedup must absorb it.
#[test]
fn mid_frame_reply_cut_is_survivable() {
    let _g = chaos_guard();
    let data = dataset(4_000, 303);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    for (seed, keep) in [(7u64, 0usize), (8, 3), (9, 6)] {
        registry().reset(seed);
        registry().arm(
            "server.reply.partial",
            FireRule::EveryNth(9),
            FaultAction::PartialWrite { keep },
        );
        let (limbs, values, fired) =
            run_under_chaos(&data, 2, 131, seed, &["server.reply.partial"]);
        assert!(fired > 0, "seed {seed}: the fault never fired — the run proves nothing");
        assert_eq!(limbs, expected, "seed {seed}: sum diverged under mid-frame cuts");
        assert_eq!(values as usize, data.len(), "seed {seed}: mid-frame cut broke exactly-once");
    }
}

/// Stalled replies: the server sleeps past the client's read timeout.
/// The deposit was applied before the stall, so the timed-out client's
/// resend must dedup. This is the scenario where timeouts *without*
/// retry identity would silently double-count.
#[test]
fn reply_delay_past_read_timeout_dedups() {
    let _g = chaos_guard();
    let data = dataset(1_500, 404);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    for seed in [10u64, 11, 12] {
        registry().reset(seed);
        // One stall, well past the 150ms chaos read timeout.
        registry().arm(
            "server.reply.delay",
            FireRule::Nth(3),
            FaultAction::Delay { ms: 400 },
        );
        let (limbs, values, fired) =
            run_under_chaos(&data, 1, 157, seed, &["server.reply.delay"]);
        assert!(fired > 0, "seed {seed}: the stall never fired — the run proves nothing");
        assert_eq!(limbs, expected, "seed {seed}: sum diverged under delayed replies");
        assert_eq!(values as usize, data.len(), "seed {seed}: timeout resend double-applied");
    }
}

/// The storm: every network seam armed probabilistically at once, three
/// clients. Whatever fires, the final limbs match the
/// clean sequential sum bitwise and every value counts exactly once.
#[test]
fn probabilistic_storm_keeps_sums_bitwise_identical() {
    let _g = chaos_guard();
    let data = dataset(5_000, 505);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    for seed in [13u64, 14, 15] {
        registry().reset(seed);
        registry().arm(
            "server.add.drop_before_apply",
            FireRule::Probability(0.05),
            FaultAction::Disconnect,
        );
        registry().arm(
            "server.add.drop_after_apply",
            FireRule::Probability(0.05),
            FaultAction::Disconnect,
        );
        registry().arm(
            "server.reply.partial",
            FireRule::Probability(0.03),
            FaultAction::PartialWrite { keep: 2 },
        );
        let (limbs, values, fired) = run_under_chaos(
            &data,
            3,
            89,
            seed,
            &[
                "server.add.drop_before_apply",
                "server.add.drop_after_apply",
                "server.reply.partial",
            ],
        );
        assert!(fired > 0, "seed {seed}: no fault fired — the storm proves nothing");
        assert_eq!(limbs, expected, "seed {seed}: sum diverged in the storm");
        assert_eq!(values as usize, data.len(), "seed {seed}: storm broke exactly-once");
    }
}

/// Snapshot corruption through the real writer: the `snapshot.save.corrupt`
/// failpoint mangles the sealed bytes (truncation and bit-flip), and a
/// server pointed at the damaged file must refuse to start — corruption
/// is a typed startup error, never a silently zeroed ledger.
#[test]
fn corrupted_snapshot_refuses_restart() {
    let _g = chaos_guard();
    let cases = [
        (21u64, FaultAction::Truncate { keep: 40 }),
        (22, FaultAction::BitFlip { offset: 25, bit: 3 }),
        (23, FaultAction::Truncate { keep: 0 }),
    ];
    for (seed, action) in cases {
        registry().reset(seed);
        let path = temp_path("corrupt", seed);
        std::fs::remove_file(&path).ok();

        let server = serve(ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.add_binary("s", &dataset(500, seed)).unwrap();
        // Every save from here on is mangled — including the final one
        // the graceful shutdown writes.
        registry().arm("snapshot.save.corrupt", FireRule::Always, action);
        client.snapshot().unwrap();
        client.shutdown().unwrap();
        server.join().unwrap();
        assert!(registry().fired("snapshot.save.corrupt") >= 1, "seed {seed}: fault never fired");
        registry().clear();

        // The failpoint is gone; the damage is on disk. Restart refuses.
        let err = serve(ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .map(|h| {
            h.shutdown();
            h.join().ok();
        })
        .expect_err(&format!("seed {seed}: server started from a corrupt snapshot"));
        let msg = err.to_string();
        assert!(
            msg.contains("snapshot"),
            "seed {seed}: error is not a typed snapshot refusal: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Exactly-once across a crash-and-restore: deposits land, the snapshot
/// (carrying the dedup window) is written, the server goes away, a new
/// server restores — and a retry of a pre-snapshot batch still dedups.
#[test]
fn dedup_window_survives_snapshot_restart() {
    let _g = chaos_guard();
    for seed in [31u64, 32, 33] {
        let path = temp_path("window", seed);
        std::fs::remove_file(&path).ok();
        let data = dataset(900, seed);
        let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();

        let server = serve(ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let client_id = 0xA11CE ^ seed;
        let mut client = Client::connect_with(
            server.addr(),
            ClientConfig { client_id: Some(client_id), ..chaos_client(seed) },
        )
        .unwrap();
        for chunk in data.chunks(100) {
            client.add_binary("s", chunk).unwrap();
        }
        client.shutdown().unwrap();
        server.join().unwrap(); // final snapshot carries the dedup window

        let restored = serve(ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        // A "retry" of the last pre-crash batch: same client_id, same seq
        // (the 9th batch), same values. Must be absorbed.
        let mut retry = Client::connect_with(
            restored.addr(),
            ClientConfig { client_id: Some(client_id), ..chaos_client(seed) },
        )
        .unwrap();
        // Replay seqs 1..=9 wholesale — every one must dedup.
        for chunk in data.chunks(100) {
            retry.add_binary("s", chunk).unwrap();
        }
        let reply = retry.sum("s").unwrap();
        assert_eq!(
            reply.limbs, expected,
            "seed {seed}: replays after restore were double-applied"
        );
        retry.shutdown().unwrap();
        restored.join().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
