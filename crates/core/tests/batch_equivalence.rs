//! Cross-path equivalence property tests for the batched accumulation
//! pipeline: every way of summing a batch — the carry-deferred
//! [`BatchAcc`] kernel, `Hp6x3::sum_f64_slice`, the parallel
//! `par_sum_f64_slice`, the atomic `AtomicHp::add_batch`, and the naive
//! per-value encode-and-`+=` fold — must produce bitwise-identical
//! limbs for arbitrary `f64` batches, including signed zeros,
//! denormals, and sign-mixed cancellation.

use oisum_core::{
    encode_f64_batch, encode_f64_le_batch, AtomicHp, BatchAcc, Hp6x3, HpFixed, BINS_MIN_LEN,
    ENCODE_CHUNK, LANES,
};
use proptest::prelude::*;

/// The pre-batching reference: encode each value, carry-propagating add.
fn per_value_sum(xs: &[f64]) -> Hp6x3 {
    let mut acc = Hp6x3::ZERO;
    for &x in xs {
        acc.add_assign(&HpFixed::from_f64_unchecked(x));
    }
    acc
}

/// An `f64` strategy biased toward the values that break summation
/// schemes: wide dynamic range, signed zeros, denormals, and exact
/// cancellation pairs are all reachable.
fn summand() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0f64..1.0, -300i32..300).prop_map(|(kind, m, e)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE * m,          // denormals
        3 => 5e-324 * (1.0 + m.abs() * 4.0), // smallest denormals
        4 => m * 1e15,
        5 => m * 10f64.powi(e / 20),         // ~30 orders of magnitude
        _ => m,
    })
}

/// In-range `f64`s assembled from raw bit fields so *every* admissible
/// exponent of the `Hp6x3` format is reachable: raw exponents below
/// 1214 are exactly the finite values with magnitude under the format's
/// `2^191` range bound (1214 − 1023 = 191), including all denormals at
/// raw exponent 0.
fn full_exponent_range_summand() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0u64..1214, any::<u64>()).prop_map(|(neg, raw, man)| {
        f64::from_bits(((neg as u64) << 63) | (raw << 52) | (man & ((1u64 << 52) - 1)))
    })
}

proptest! {
    #[test]
    fn all_sum_paths_agree_bitwise(
        xs in proptest::collection::vec(summand(), 0..500),
        batch in 1usize..97,
    ) {
        let reference = per_value_sum(&xs);

        // Slice sum (BatchAcc under the hood).
        prop_assert_eq!(Hp6x3::sum_f64_slice(&xs), reference);

        // Explicit BatchAcc, split into sub-batches then merged.
        let mut merged = BatchAcc::<6, 3>::new();
        for chunk in xs.chunks(batch) {
            let mut part = BatchAcc::<6, 3>::new();
            part.extend_f64(chunk);
            merged.merge(&part);
        }
        prop_assert_eq!(merged.finish(), reference);

        // Parallel sum.
        prop_assert_eq!(Hp6x3::par_sum_f64_slice(&xs), reference);

        // Atomic batched deposits, one batch at a time.
        let atomic = AtomicHp::<6, 3>::zero();
        for chunk in xs.chunks(batch) {
            prop_assert_eq!(atomic.add_batch(chunk), 6);
        }
        prop_assert_eq!(atomic.load(), reference);
    }

    /// Pins the branchless chunk encode kernel bitwise to the per-value
    /// Listing-1 reference across the format's whole admissible domain:
    /// signed zeros, denormals, cancellation ladders, and raw-bit values
    /// spanning every in-range exponent.
    #[test]
    fn encode_fast_path_matches_reference(
        xs in proptest::collection::vec(
            (any::<bool>(), summand(), full_exponent_range_summand())
                .prop_map(|(pick, a, b)| if pick { a } else { b }),
            0..600,
        ),
        ladder_exp in -1074i32..150,
        ladder_len in 0usize..40,
    ) {
        // A cancellation ladder: ascending powers of two, each paired
        // with its negation — the exact sum of the ladder is zero, but
        // every rung exercises a different limb/shift in the kernel.
        let mut xs = xs;
        for k in 0..ladder_len {
            let rung = 2f64.powi(ladder_exp + k as i32);
            xs.push(rung);
            xs.push(-rung);
        }

        let reference = per_value_sum(&xs);

        // The kernel entry point itself.
        let mut acc = BatchAcc::<6, 3>::new();
        encode_f64_batch(&mut acc, &xs);
        prop_assert_eq!(acc.finish(), reference);

        // The per-value BatchAcc ingest path must agree too (both feed
        // the same carry-deferred lanes, by different encoders).
        let mut scalar = BatchAcc::<6, 3>::new();
        for &x in &xs {
            scalar.encode_deposit(x);
        }
        prop_assert_eq!(scalar.finish(), reference);
    }

    #[test]
    fn cancellation_pairs_sum_to_exact_zero_on_every_path(
        xs in proptest::collection::vec(summand(), 0..200),
        seed in 0u64..1000,
    ) {
        // Each value paired with its negation, dealt in a shuffled
        // order: the exact sum is zero no matter how the pairs
        // interleave.
        let mut both: Vec<f64> = xs.iter().flat_map(|&x| [x, -x]).collect();
        // Deterministic shuffle without rand: Fisher–Yates on an LCG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..both.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            both.swap(i, (state >> 33) as usize % (i + 1));
        }
        prop_assert!(Hp6x3::sum_f64_slice(&both).is_zero());
        prop_assert!(Hp6x3::par_sum_f64_slice(&both).is_zero());
        let atomic = AtomicHp::<6, 3>::zero();
        atomic.add_batch(&both);
        prop_assert!(atomic.load().is_zero());
    }

    /// Pins the multi-lane kernel across every length class the lane
    /// loop can see: tails shorter than one chunk, non-multiples of the
    /// lane width, multi-chunk runs, degenerate single-value batches,
    /// and the zero-copy LE-byte wire entry — all bitwise equal to the
    /// per-value Listing-1 reference.
    #[test]
    fn chunk_tails_and_lane_remainders_are_bitwise_exact(
        pool in proptest::collection::vec(
            (any::<bool>(), summand(), full_exponent_range_summand())
                .prop_map(|(pick, a, b)| if pick { a } else { b }),
            2 * ENCODE_CHUNK + LANES,
        ),
        len in 0usize..=2 * ENCODE_CHUNK,
    ) {
        let xs = &pool[..len];
        let reference = per_value_sum(xs);

        // The lane kernel on the exact length.
        let mut acc = BatchAcc::<6, 3>::new();
        encode_f64_batch(&mut acc, xs);
        prop_assert_eq!(acc.finish(), reference);

        // The zero-copy wire entry (LE payload bytes straight in).
        let wire: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut bacc = BatchAcc::<6, 3>::new();
        encode_f64_le_batch(&mut bacc, &wire);
        prop_assert_eq!(bacc.finish(), reference);
        let atomic = AtomicHp::<6, 3>::zero();
        // Like `add_batch`, the byte entry costs exactly N RMWs per batch.
        prop_assert_eq!(atomic.add_batch_le_bytes(&wire), 6);
        prop_assert_eq!(atomic.load(), reference);

        // Single-value batches: the most degenerate chunking.
        let mut singles = BatchAcc::<6, 3>::new();
        for x in xs {
            encode_f64_batch(&mut singles, core::slice::from_ref(x));
        }
        prop_assert_eq!(singles.finish(), reference);
    }
}

proptest! {
    /// Slices past the crossover take the exponent-indexed bins behind
    /// every slice entry; all of them must stay bitwise equal to the
    /// per-value reference and to the lane kernel, from just past the
    /// crossover to past a bins flush.
    #[test]
    fn long_slices_through_the_bins_match_the_reference(
        pool in proptest::collection::vec(
            (any::<bool>(), summand(), full_exponent_range_summand())
                .prop_map(|(pick, a, b)| if pick { a } else { b }),
            BINS_MIN_LEN + 8200,
        ),
        extra in 0usize..8200,
        threads in 1usize..4,
    ) {
        let xs = &pool[..BINS_MIN_LEN + extra];
        let reference = per_value_sum(xs);

        let mut lane = BatchAcc::<6, 3>::new();
        encode_f64_batch(&mut lane, xs);
        prop_assert_eq!(lane.finish(), reference);
        prop_assert_eq!(Hp6x3::sum_f64_slice(xs), reference);
        let workers = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        prop_assert_eq!(workers.install(|| Hp6x3::par_sum_f64_slice(xs)), reference);
        let atomic = AtomicHp::<6, 3>::zero();
        atomic.add_batch(xs);
        prop_assert_eq!(atomic.load(), reference);
    }
}

/// Out-of-range magnitudes take the `#[cold]` Listing-1 fallback; the
/// encode of such values trips debug assertions inside the reference
/// codec by design (the unchecked paths document the range contract),
/// so the fallback equivalence properties run in release mode only —
/// mirroring the release-only unit tests in `core::kernel`.
#[cfg(not(debug_assertions))]
mod release_only {
    use super::*;

    /// Finite values whose raw exponent is at or past the `Hp6x3`
    /// threshold (1214): every one routes to the slow path.
    fn beyond_range_summand() -> impl Strategy<Value = f64> {
        (any::<bool>(), 1214u64..2046, any::<u64>()).prop_map(|(neg, raw, man)| {
            f64::from_bits(((neg as u64) << 63) | (raw << 52) | (man & ((1u64 << 52) - 1)))
        })
    }

    proptest! {
        /// All-fallback chunks and fallback values spliced into in-range
        /// runs (exercising the mixed-group path) stay bitwise equal to
        /// the per-value reference.
        #[test]
        fn fallback_and_mixed_chunks_match_the_reference(
            in_range in proptest::collection::vec(full_exponent_range_summand(), 0..300),
            beyond in proptest::collection::vec(beyond_range_summand(), 1..100),
            stride in 1usize..17,
        ) {
            // Pure fallback: every value screened out.
            let reference = per_value_sum(&beyond);
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut acc, &beyond);
            prop_assert_eq!(acc.finish(), reference);

            // Mixed: a fallback value every `stride` positions, so lane
            // groups contain both classes and take the mixed path.
            let mut xs = in_range;
            for (k, &b) in beyond.iter().enumerate() {
                xs.insert((k * stride) % (xs.len() + 1), b);
            }
            let reference = per_value_sum(&xs);
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut acc, &xs);
            prop_assert_eq!(acc.finish(), reference);

            // The same mix past the crossover, through the bins.
            let long: Vec<f64> = xs.iter().cycle().take(BINS_MIN_LEN + stride).copied().collect();
            prop_assert_eq!(Hp6x3::sum_f64_slice(&long), per_value_sum(&long));
        }
    }
}
