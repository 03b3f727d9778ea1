//! Iterator ergonomics for order-invariant summation.
//!
//! [`HpSumExt`] lets any `f64` iterator terminate in an exact HP sum the
//! way `.sum::<f64>()` terminates in a rounded one:
//!
//! ```
//! use oisum_core::sum::HpSumExt;
//!
//! let exact = (0..1000)
//!     .map(|i| (i as f64 - 500.0) * 1e-6)
//!     .hp_sum::<6, 3>();
//! println!("{}", exact.to_f64());
//! ```

use crate::batch::StagedAcc;
use crate::error::HpError;
use crate::fixed::HpFixed;

/// Terminal adapters converting `f64` iterators into HP sums.
pub trait HpSumExt: Iterator<Item = f64> + Sized {
    /// Sums the iterator exactly with the fast truncating conversion
    /// (Listing 1). The caller owns the range precondition, as with
    /// [`HpFixed::sum_f64_slice`].
    ///
    /// Runs on a [`StagedAcc`], so a long iterator reaches the
    /// kernel's exponent-indexed bins as a slice sum does; bitwise
    /// identical to an encode-and-`+=` fold.
    fn hp_sum<const N: usize, const K: usize>(self) -> HpFixed<N, K> {
        let mut acc = StagedAcc::<N, K>::new();
        acc.extend(self);
        acc.finish()
    }

    /// Checked exact sum: fails fast on the first value that does not
    /// convert exactly or on accumulator overflow.
    fn try_hp_sum<const N: usize, const K: usize>(self) -> Result<HpFixed<N, K>, HpError> {
        let mut acc = HpFixed::<N, K>::ZERO;
        for x in self {
            acc = acc.checked_add(&HpFixed::from_f64(x)?)?;
        }
        Ok(acc)
    }
}

impl<I: Iterator<Item = f64>> HpSumExt for I {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Hp2x1, Hp3x2, Hp6x3};

    #[test]
    fn iterator_sum_matches_slice_sum() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 - 250.0) * 0.001).collect();
        let via_iter: Hp3x2 = xs.iter().copied().hp_sum();
        assert_eq!(via_iter, Hp3x2::sum_f64_slice(&xs));
    }

    #[test]
    fn iterator_sum_matches_slice_sum_across_the_staging_boundaries() {
        // Mixed magnitudes and signs, so both kernels carry and borrow
        // across limbs; every length that changes which kernel a flush
        // takes, or how many flushes there are.
        let xs: Vec<f64> = (0..(1usize << 20))
            .map(|i| {
                let m = ((i * 7919) % 1000) as f64 - 500.0;
                m * 2f64.powi((i % 97) as i32 - 48)
            })
            .collect();
        let bins = crate::kernel::BINS_MIN_LEN;
        let stage = crate::batch::STAGE_LEN;
        for n in [
            0,
            1,
            bins - 1,
            bins,
            bins + 1,
            stage - 1,
            stage,
            stage + 1,
            1 << 20,
        ] {
            let via_iter: Hp6x3 = xs[..n].iter().copied().hp_sum();
            assert_eq!(via_iter, Hp6x3::sum_f64_slice(&xs[..n]), "{n} values");
        }
    }

    #[test]
    fn checked_sum_propagates_conversion_errors() {
        let err = [1.0, f64::NAN].into_iter().try_hp_sum::<3, 2>();
        assert_eq!(err, Err(HpError::NonFinite));
        let err = [1.0, 1e40].into_iter().try_hp_sum::<2, 1>();
        assert_eq!(err, Err(HpError::ConvertOverflow));
    }

    #[test]
    fn checked_sum_propagates_accumulator_overflow() {
        let big = 2f64.powi(62);
        let err = [big, big].into_iter().try_hp_sum::<2, 1>();
        assert_eq!(err, Err(HpError::AddOverflow));
        let ok = [big, -big].into_iter().try_hp_sum::<2, 1>().unwrap();
        assert!(ok.is_zero());
    }

    #[test]
    fn empty_iterator_sums_to_zero() {
        let z: Hp2x1 = std::iter::empty().hp_sum();
        assert!(z.is_zero());
        assert!(std::iter::empty().try_hp_sum::<2, 1>().unwrap().is_zero());
    }

    #[test]
    fn works_with_adapters() {
        let total = (0..100)
            .map(|i| i as f64)
            .filter(|x| x % 2.0 == 0.0)
            .hp_sum::<3, 2>();
        assert_eq!(total.to_f64(), (0..100).filter(|i| i % 2 == 0).sum::<i32>() as f64);
    }
}
