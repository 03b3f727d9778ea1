//! Pins `Hp6x3`'s f64 conversions to the shared golden vectors in
//! `tests/vectors/hp_codec.json`.
//!
//! `from_f64_trunc` takes the paper's Listing-1 float path while the raw
//! codec's truncating encode takes the integer path, so this test and
//! `oisum-bignum`'s golden test together also pin that the two paths
//! stay bit-identical on every vector case.

use oisum_bignum::testvec;
use oisum_core::{encode_f64_le_batch, BatchAcc, Hp6x3, BINS_MIN_LEN};

#[test]
fn hp6x3_matches_golden_vectors() {
    let cases = testvec::hp_codec_cases(env!("CARGO_MANIFEST_DIR"));
    assert!(!cases.is_empty());
    for case in &cases {
        let name = case.req("name").as_str().unwrap();
        let x = f64::from_bits(case.req("bits").hex_u64());
        let hp = case.req("hp6x3");

        let trunc = Hp6x3::from_f64_trunc(x).ok().map(|v| v.as_limbs().to_vec());
        assert_eq!(trunc, hp.req("trunc").hex_u64_arr(), "case `{name}`: from_f64_trunc mismatch");

        // The multi-lane encode kernel must land every vector case on
        // the same limbs as the truncating Listing-1 path — through the
        // f64-slice entry and the zero-copy LE-byte wire entry alike.
        if let Some(expected) = hp.req("trunc").hex_u64_arr() {
            let mut acc = BatchAcc::<6, 3>::new();
            acc.extend_f64(&[x]);
            assert_eq!(
                acc.finish().as_limbs().to_vec(),
                expected,
                "case `{name}`: lane kernel mismatch"
            );

            // Past the crossover `extend_f64` takes the exponent-indexed
            // bins: the case padded with signed zeros must still land on
            // the same limbs.
            let mut padded: Vec<f64> =
                (0..BINS_MIN_LEN).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect();
            padded[BINS_MIN_LEN / 2 + 1] = x;
            let mut acc = BatchAcc::<6, 3>::new();
            acc.extend_f64(&padded);
            assert_eq!(
                acc.finish().as_limbs().to_vec(),
                expected,
                "case `{name}`: bins mismatch"
            );

            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_le_batch(&mut acc, &x.to_le_bytes());
            assert_eq!(
                acc.finish().as_limbs().to_vec(),
                expected,
                "case `{name}`: LE-byte wire entry mismatch"
            );
        }

        let nearest = Hp6x3::from_f64_nearest(x).ok().map(|v| v.as_limbs().to_vec());
        assert_eq!(
            nearest,
            hp.req("nearest").hex_u64_arr(),
            "case `{name}`: from_f64_nearest mismatch"
        );

        let exact = Hp6x3::from_f64(x).ok().map(|v| v.as_limbs().to_vec());
        assert_eq!(exact, hp.req("exact").hex_u64_arr(), "case `{name}`: from_f64 mismatch");

        if let Some(limbs) = hp.req("nearest").hex_u64_arr() {
            let mut arr = [0u64; 6];
            arr.copy_from_slice(&limbs);
            let got = Hp6x3::from_limbs(arr).to_f64();
            assert_eq!(
                got.to_bits(),
                hp.req("decode").hex_u64(),
                "case `{name}`: to_f64 mismatch (got {got})"
            );
        }
    }
}
