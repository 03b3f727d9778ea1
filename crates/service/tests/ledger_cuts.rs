//! The ledger answers only with states a stream really held, and its
//! overflow count follows the values, not how deposits were spread.
//!
//! A stream is one sum, its counters and its dedup window under one
//! lock. These tests pin the wrong answers a bank of lock-free shards
//! gave instead: `Sum` reads torn across limbs, snapshots whose window
//! disagreed with their sum, overflow counts that changed with the
//! shard count, and a wrap the top limb's sign check missed.

use oisum_service::ledger::StreamState;
use oisum_service::proto::{le_bytes, UNTRACKED_CLIENT};
use oisum_service::{ServiceHp, ShardedLedger};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// An untracked deposit of `xs` under shard hint `hint`.
fn add(ledger: &ShardedLedger, hint: usize, xs: &[f64]) {
    ledger.add_batch_le_bytes_dedup("s", hint, UNTRACKED_CLIENT, 0, &le_bytes(xs));
}

/// A stream holding 2^127, the top bit of the second limb, takes a
/// batch totalling 2^191 − 2^127: its top limb is 0x7fff…, and the
/// carry out of the second limb turns that addend into 0x8000…. The sum
/// 2^191 is out of range and wraps to −2^191, and the sign test of the
/// whole add must count it.
#[test]
fn a_wrap_while_the_top_addend_forms_is_counted() {
    let ledger = ShardedLedger::new(1);
    add(&ledger, 0, &[2f64.powi(127)]);
    add(
        &ledger,
        0,
        &[
            2f64.powi(191) - 2f64.powi(138),
            2f64.powi(138) - 2f64.powi(127),
        ],
    );
    assert_eq!(
        ledger.sum("s").unwrap().as_limbs(),
        &[1 << 63, 0, 0, 0, 0, 0]
    );
    assert_eq!(ledger.overflows("s"), 1);
}

/// `[2^191 − ulp, 0.5]` and its negation, alternately, four times each:
/// every running sum is 0 or just below 2^191, so nothing left the
/// range, whatever shard hints the deposits carry.
#[test]
fn an_in_range_stream_is_never_poisoned() {
    let edge = f64::from_bits(2f64.powi(191).to_bits() - 1);
    let ledger = ShardedLedger::new(2);
    for hint in 0..8 {
        let xs = if hint % 2 == 0 {
            [edge, 0.5]
        } else {
            [-edge, -0.5]
        };
        add(&ledger, hint, &xs);
    }
    assert!(ledger.sum("s").unwrap().is_zero());
    assert_eq!(ledger.overflows("s"), 0);
}

/// A value of magnitude in [2^189, 2^191), of either sign.
fn near_the_edge() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0.5f64..2.0).prop_map(|(negative, m)| {
        let x = m * 2f64.powi(190);
        if negative {
            -x
        } else {
            x
        }
    })
}

proptest! {
    /// Two deposits near ±2^191 count one overflow exactly when
    /// `HpFixed::checked_add`, the paper's sign test, refuses the pair.
    #[test]
    fn the_overflow_count_is_the_sign_test_of_the_adds(
        a in near_the_edge(),
        b in near_the_edge(),
    ) {
        let ledger = ShardedLedger::new(2);
        add(&ledger, 0, &[a]);
        add(&ledger, 1, &[b]);
        let (ha, hb) = (ServiceHp::from_f64(a).unwrap(), ServiceHp::from_f64(b).unwrap());
        let refused = ha.checked_add(&hb).is_err();
        prop_assert_eq!(ledger.overflows("s"), u64::from(refused));
        prop_assert_eq!(ledger.sum("s").unwrap(), ha.wrapping_add(&hb));
    }
}

/// Spins until `flag` is set.
fn wait_for(flag: &AtomicBool) {
    // ORDERING: Relaxed — a progress flag; the data it reports on is
    // read under the ledger's locks, and the scope's join orders the
    // rest.
    while !flag.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
}

/// One thread alternates deposits of −2^-192 and +2^-192, so the stream
/// only ever holds 0 or −2^-192. Every `Sum` read meanwhile must be one
/// of the two: a read torn across limbs between an all-ones and an
/// all-zeros state is neither. The writer holds its last deposit until
/// a read has been counted, so at least one read overlaps the deposits
/// however the threads are scheduled.
#[test]
fn concurrent_sums_read_only_states_the_stream_held() {
    const PAIRS: usize = 20_000;
    let tick = 2f64.powi(-192);
    let (down, up) = ([-tick], [tick]);
    let low = ServiceHp::from_f64(-tick).unwrap();
    let ledger = ShardedLedger::new(1);
    let (writing, read) = (AtomicBool::new(true), AtomicBool::new(false));
    let (mut reads, mut torn) = (0u64, 0u64);
    std::thread::scope(|s| {
        s.spawn(|| {
            for pair in 0..PAIRS {
                add(&ledger, 0, &down);
                if pair == PAIRS - 1 {
                    wait_for(&read);
                }
                add(&ledger, 0, &up);
            }
            // ORDERING: Relaxed — a stop flag; the scope's join orders
            // everything read after it.
            writing.store(false, Ordering::Relaxed);
        });
        // ORDERING: Relaxed — see the store above.
        while writing.load(Ordering::Relaxed) {
            if let Some(sum) = ledger.sum("s") {
                reads += 1;
                torn += u64::from(!sum.is_zero() && sum != low);
                // ORDERING: Relaxed — see `wait_for`.
                read.store(true, Ordering::Relaxed);
            }
        }
    });
    assert!(reads > 0, "no read overlapped the deposits");
    assert_eq!(
        torn, 0,
        "{torn} of {reads} sums read a state the stream never held"
    );
}

/// Whether a captured state is a cut of the traffic below: every batch
/// is `[1.0]` from a tracked client with seqs 1, 2, …, so the sum, the
/// sum of the window's seqs, `batches` and `values` are one number.
fn is_a_cut(state: &StreamState) -> bool {
    let seqs: u64 = state.dedup.iter().map(|&(_, seq)| seq).sum();
    let sum = state.sum.to_f64();
    sum == seqs as f64 && state.batches == seqs && state.values == seqs
}

/// Four tracked clients each add `[1.0]` with seqs 1..=n while other
/// threads take `snapshot()`, `stream_state` and `stats()`. A capture
/// whose window ran ahead of its sum would, as a checkpoint, make WAL
/// replay skip ACKed batches after a crash; every capture must be a
/// cut. Each client holds its last add until a capture has been
/// counted, so at least one capture overlaps the adds.
#[test]
fn every_capture_is_a_cut() {
    const CLIENTS: u64 = 4;
    const SEQS: u64 = 16_000;
    let ledger = ShardedLedger::new(8);
    let (adding, captured) = (AtomicBool::new(true), AtomicBool::new(false));
    let (mut captures, mut broken) = (0u64, Vec::new());
    std::thread::scope(|s| {
        let adders: Vec<_> = (1..=CLIENTS)
            .map(|client| {
                let (ledger, captured) = (&ledger, &captured);
                s.spawn(move || {
                    for seq in 1..=SEQS {
                        if seq == SEQS {
                            wait_for(captured);
                        }
                        let (n, applied) =
                            ledger.add_batch_le_bytes_dedup("s", 0, client, seq, &le_bytes(&[1.0]));
                        assert_eq!((n, applied), (1, true));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|kind| {
                let (ledger, adding, captured) = (&ledger, &adding, &captured);
                s.spawn(move || {
                    let (mut captures, mut broken) = (0u64, Vec::new());
                    // ORDERING: Relaxed — a stop flag; the joins order
                    // everything read after them.
                    while adding.load(Ordering::Relaxed) {
                        if captures > 0 {
                            // ORDERING: Relaxed — see `wait_for`.
                            captured.store(true, Ordering::Relaxed);
                        }
                        let states = match kind {
                            0 => ledger.snapshot(),
                            1 => ledger.stream_state("s").into_iter().collect(),
                            _ => {
                                // Stats carry no sum and no window.
                                let stats = ledger.stats();
                                captures += stats.streams.len() as u64;
                                for stream in stats.streams {
                                    if stream.batches != stream.values {
                                        broken.push(format!("stats {stream:?}"));
                                    }
                                }
                                continue;
                            }
                        };
                        for state in states {
                            captures += 1;
                            if !is_a_cut(&state) {
                                broken.push(format!("{state:?}"));
                            }
                        }
                    }
                    (captures, broken)
                })
            })
            .collect();
        for adder in adders {
            adder.join().unwrap();
        }
        // ORDERING: Relaxed — see the loads above.
        adding.store(false, Ordering::Relaxed);
        for reader in readers {
            let (c, b) = reader.join().unwrap();
            captures += c;
            broken.extend(b);
        }
    });
    let last = ledger.stream_state("s").unwrap();
    assert!(is_a_cut(&last) && last.values == CLIENTS * SEQS, "{last:?}");
    assert!(captures > 0, "no capture overlapped the deposits");
    assert!(
        broken.is_empty(),
        "{} of {captures} captures were not a cut, the first: {}",
        broken.len(),
        broken[0]
    );
}
