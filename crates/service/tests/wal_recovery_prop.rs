//! Seeded property test over arbitrary interleavings of Add, duplicate
//! retry, apply-without-commit crash, Snapshot (with WAL GC), and
//! crash/restart — driving the ledger + WAL + snapshot machinery
//! directly, no server in the way.
//!
//! The pinned property, checked after every crash/restart and once at
//! the end: the recovered limbs are bitwise-equal to
//! `Hp6x3::sum_f64_slice` over exactly the ACKed batches (a batch is
//! ACKed when both its ledger apply and its WAL append returned `Ok`),
//! and every client's recovered dedup watermark covers its highest
//! ACKed seq. Duplicate and retried seqs across crashes must change
//! nothing — idempotent replay is what makes the WAL honest.

use oisum_core::Hp6x3;
use oisum_service::proto::le_bytes;
use oisum_service::wal::{Wal, WalConfig};
use oisum_service::{recovery, snapshot, FsyncPolicy, ShardedLedger};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-wal-prop-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

const CLIENTS: u64 = 3;
const STREAM: &str = "s";

struct Model {
    dir: PathBuf,
    snap: PathBuf,
    ledger: Arc<ShardedLedger>,
    wal: Option<Wal>,
    fsync: FsyncPolicy,
    /// Next fresh seq per client; an apply-only crash does NOT advance
    /// it, so the retry after restart reuses the seq.
    next_seq: BTreeMap<u64, u64>,
    /// ACKed history: (client, seq) -> values. BTreeMap so the
    /// reference sum is assembled in a deterministic order (irrelevant
    /// to the exact sum, helpful when a failure needs reproducing).
    acked: BTreeMap<(u64, u64), Vec<f64>>,
}

impl Model {
    fn open(seed: u64, fsync: FsyncPolicy) -> Model {
        let dir = temp_dir(seed);
        let snap = dir.join("ledger.snap");
        let wal_dir = dir.join("wal");
        let ledger = Arc::new(ShardedLedger::new(4));
        let wal = Wal::open(WalConfig {
            segment_bytes: 1024, // rotate constantly
            fsync,
            ..WalConfig::new(&wal_dir)
        })
        .unwrap();
        Model {
            dir,
            snap,
            ledger,
            wal: Some(wal),
            fsync,
            next_seq: (1..=CLIENTS).map(|c| (c, 1)).collect(),
            acked: BTreeMap::new(),
        }
    }

    fn wal(&self) -> &Wal {
        self.wal.as_ref().expect("wal is live between restarts")
    }

    fn batch(&self, rng: &mut StdRng) -> Vec<f64> {
        let n = rng.random_range(1..=8);
        (0..n)
            .map(|_| {
                let m = rng.random_range(-1.0f64..1.0);
                let e = rng.random_range(-10i32..=10);
                m * 10f64.powi(e)
            })
            .collect()
    }

    /// Apply + commit + ACK, exactly the server's ordering.
    fn add(&mut self, rng: &mut StdRng) {
        let client = rng.random_range(1..=CLIENTS);
        let seq = self.next_seq[&client];
        let values = self.batch(rng);
        let bytes = le_bytes(&values);
        let hint = rng.random_range(0..4usize);
        let (_, applied) =
            self.ledger.add_batch_le_bytes_dedup(STREAM, hint, client, seq, &bytes);
        assert!(applied, "a fresh seq must always apply");
        self.wal().append(STREAM, client, seq, &bytes).unwrap();
        self.next_seq.insert(client, seq + 1);
        self.acked.insert((client, seq), values);
    }

    /// A client retry of an already-ACKed batch: the apply dedups, the
    /// duplicate record still lands in the log (the server appends
    /// before ACKing replays too), and replay must keep deduping it.
    fn add_duplicate(&mut self, rng: &mut StdRng) {
        let Some((&(client, seq), values)) =
            self.acked.iter().nth(rng.random_range(0..self.acked.len().max(1)))
        else {
            return;
        };
        let bytes = le_bytes(values);
        let (count, applied) =
            self.ledger.add_batch_le_bytes_dedup(STREAM, 0, client, seq, &bytes);
        assert!(!applied, "a replayed seq must dedup");
        assert_eq!(count as usize, values.len(), "dedup still ACKs the batch size");
        self.wal().append(STREAM, client, seq, &bytes).unwrap();
    }

    /// The lost window the WAL exists to shrink to zero ACKs: a batch
    /// applied in memory but never committed, then the process dies.
    /// No ACK was sent, so the batch simply vanishes and the client's
    /// retry (same seq, after restart) must land as a fresh apply.
    fn add_apply_only_then_crash(&mut self, rng: &mut StdRng) {
        let client = rng.random_range(1..=CLIENTS);
        let seq = self.next_seq[&client];
        let values = self.batch(rng);
        let (_, applied) =
            self.ledger.add_batch_le_bytes_dedup(STREAM, 0, client, seq, &le_bytes(&values));
        assert!(applied);
        // No append, no ACK, no next_seq advance: the crash eats it.
        self.crash_restart();
    }

    /// Snapshot + GC, exactly the dispatch ordering: boundary first,
    /// save, verify, GC sealed segments below the boundary.
    fn snapshot(&mut self) {
        let boundary = self.wal().gc_boundary();
        snapshot::save(&self.snap, &self.ledger).unwrap();
        assert!(snapshot::verify(&self.snap), "a clean save must verify");
        self.wal().gc_below(boundary).unwrap();
    }

    /// Poison the log mid-flight, drop it, and boot the recovery path:
    /// snapshot restore, then WAL replay, then a fresh segment.
    fn crash_restart(&mut self) {
        let wal = self.wal.take().expect("wal is live");
        wal.crash();
        drop(wal);

        let ledger = Arc::new(ShardedLedger::new(4));
        if self.snap.exists() {
            snapshot::load(&self.snap, &ledger).unwrap();
        }
        let wal_dir = self.dir.join("wal");
        recovery::recover(&wal_dir, &ledger).unwrap();
        self.ledger = ledger;
        self.wal = Some(
            Wal::open(WalConfig {
                segment_bytes: 1024,
                fsync: self.fsync,
                ..WalConfig::new(&wal_dir)
            })
            .unwrap(),
        );
        self.assert_recovered();
        // Clients whose apply-only batches died re-send the same seq;
        // modelled by next_seq never having advanced for them.
    }

    /// The pinned property.
    fn assert_recovered(&self) {
        let mut reference: Vec<f64> = Vec::new();
        for values in self.acked.values() {
            reference.extend_from_slice(values);
        }
        if reference.is_empty() {
            if let Some(sum) = self.ledger.sum(STREAM) {
                assert_eq!(
                    sum.as_limbs().to_vec(),
                    Hp6x3::default().as_limbs().to_vec(),
                    "nothing ACKed, yet the recovered stream is non-zero"
                );
            }
            return;
        }
        assert_eq!(
            self.ledger.sum(STREAM).expect("ACKed stream survives").as_limbs().to_vec(),
            Hp6x3::sum_f64_slice(&reference).as_limbs().to_vec(),
            "recovered limbs diverged from the ACKed prefix"
        );
        let state = self.ledger.stream_state(STREAM).expect("stream state");
        for client in 1..=CLIENTS {
            let want = self
                .acked
                .range((client, 0)..(client + 1, 0))
                .map(|(&(_, s), _)| s)
                .max()
                .unwrap_or(0);
            let got = state
                .dedup
                .iter()
                .find(|&&(id, _)| id == client)
                .map(|&(_, s)| s)
                .unwrap_or(0);
            assert!(
                got >= want,
                "client {client}: recovered watermark {got} below ACKed {want}"
            );
        }
        let total: u64 = self.acked.values().map(|v| v.len() as u64).sum();
        assert_eq!(
            state.values, total,
            "recovered value count diverged (double- or phantom-apply)"
        );
    }
}

#[test]
fn random_interleavings_pin_the_acked_prefix() {
    for seed in 0..10u64 {
        let fsync = match seed % 3 {
            0 | 1 => FsyncPolicy::Group,
            _ => FsyncPolicy::Never,
        };
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let mut model = Model::open(seed, fsync);
        let ops = 300;
        for _ in 0..ops {
            match rng.random_range(0..100) {
                0..70 => model.add(&mut rng),
                70..80 => model.add_duplicate(&mut rng),
                80..85 => model.add_apply_only_then_crash(&mut rng),
                85..92 => model.snapshot(),
                _ => model.crash_restart(),
            }
        }
        // Final verdict through one last full restart.
        model.crash_restart();
        model.assert_recovered();
        std::fs::remove_dir_all(&model.dir).ok();
    }
}
