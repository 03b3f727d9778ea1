//! `HpFixed<N, K>` — the HP method's number type.
//!
//! A `Copy` array of `N` 64-bit limbs interpreted as one `64·N`-bit
//! two's-complement fixed-point value with `64·K` fractional bits (Eq. 2 of
//! the paper). Addition is plain limb addition with carries (Listing 2), so
//! sums of `HpFixed` values are exactly associative and commutative —
//! **invariant to summation order and to the architecture executing them**
//! (§III.B.3).

use crate::convert::{decode_float_path, encode_listing1};
use crate::error::HpError;
use crate::format::HpFormat;
use oisum_bignum::codec::{self, pow2_f64};
use oisum_bignum::{fmt as bfmt, limbs};

/// An HP fixed-point number with `N` total limbs, `K` of them fractional.
///
/// Construct with [`HpFixed::from_f64`] (checked) or
/// [`HpFixed::from_f64_trunc`] (the paper's fast Listing-1 path), combine
/// with `+` / `+=` / [`HpFixed::checked_add`], and read back with
/// [`HpFixed::to_f64`].
///
/// ```
/// use oisum_core::Hp3x2;
///
/// let vals = [0.1, 0.2, 0.3, -0.6];
/// let mut forward = Hp3x2::ZERO;
/// let mut reverse = Hp3x2::ZERO;
/// for v in vals {
///     forward += Hp3x2::from_f64(v).unwrap();
/// }
/// for v in vals.iter().rev() {
///     reverse += Hp3x2::from_f64(*v).unwrap();
/// }
/// // Bitwise identical regardless of order — f64 cannot promise this.
/// assert_eq!(forward, reverse);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HpFixed<const N: usize, const K: usize> {
    limbs: [u64; N],
}

/// 128-bit format: range ±9.22·10^18, resolution 5.42·10^-20 (Table 1).
pub type Hp2x1 = HpFixed<2, 1>;
/// 192-bit format: range ±9.22·10^18, resolution 2.94·10^-39 (Table 1).
pub type Hp3x2 = HpFixed<3, 2>;
/// 384-bit format: range ±3.14·10^57, resolution 1.59·10^-58 (Table 1; the
/// paper's Figs. 5–8 use this format).
pub type Hp6x3 = HpFixed<6, 3>;
/// 512-bit format: range ±5.79·10^76, resolution 8.64·10^-78 (Table 1; the
/// paper's Fig. 4 uses this format).
pub type Hp8x4 = HpFixed<8, 4>;

impl<const N: usize, const K: usize> HpFixed<N, K> {
    /// The additive identity.
    pub const ZERO: Self = HpFixed { limbs: [0; N] };

    /// The runtime format descriptor for this type.
    pub const fn format() -> HpFormat {
        assert!(N >= 1 && K <= N && N - K <= 16);
        HpFormat { n: N, k: K }
    }

    /// Exclusive magnitude bound: `2^(64·(N−K)−1)`.
    pub fn max_range() -> f64 {
        pow2_f64(64 * (N as i64 - K as i64) - 1)
    }

    /// Smallest positive representable value: `2^(−64·K)`.
    pub fn smallest() -> f64 {
        pow2_f64(-64 * K as i64)
    }

    /// Checked conversion from `f64` (exact or error).
    ///
    /// Returns [`HpError::ConvertOverflow`] when `|x|` exceeds the range,
    /// [`HpError::ConvertUnderflow`] when `x` has bits below the
    /// resolution, and [`HpError::NonFinite`] for NaN/∞. Use
    /// [`Self::from_f64_trunc`] to truncate instead of failing.
    #[inline]
    pub fn from_f64(x: f64) -> Result<Self, HpError> {
        let mut out = [0u64; N];
        codec::encode_f64(x, K, &mut out)?;
        Ok(HpFixed { limbs: out })
    }

    /// The paper's fast conversion (Listing 1): one pass of error-free
    /// floating-point operations, truncating bits below `2^(−64·K)` toward
    /// zero.
    ///
    /// Returns [`HpError::NonFinite`] / [`HpError::ConvertOverflow`] for
    /// unrepresentable inputs; within range it is bit-identical to the
    /// integer-path encoder.
    #[inline]
    pub fn from_f64_trunc(x: f64) -> Result<Self, HpError> {
        if !x.is_finite() {
            return Err(HpError::NonFinite);
        }
        if x.abs() >= Self::max_range() {
            return Err(HpError::ConvertOverflow);
        }
        Ok(HpFixed {
            limbs: encode_listing1::<N, K>(x),
        })
    }

    /// Conversion rounding sub-resolution bits to nearest (ties to even)
    /// instead of truncating.
    ///
    /// Truncation biases every inexact conversion toward zero, which
    /// accumulates linearly over same-signed sub-resolution inputs;
    /// round-to-nearest centers the conversion error. Order-invariance is
    /// unaffected — the rounding is per input value, before accumulation.
    #[inline]
    pub fn from_f64_nearest(x: f64) -> Result<Self, HpError> {
        let mut out = [0u64; N];
        codec::encode_f64_nearest(x, K, &mut out)?;
        Ok(HpFixed { limbs: out })
    }

    /// Unchecked fast conversion for hot loops where the input range is
    /// established in advance (e.g. bounded workloads in a reduction).
    ///
    /// Debug builds assert the range; release builds saturate the top limb
    /// for out-of-range magnitudes, producing an implementation-defined
    /// (but still deterministic) value.
    #[inline]
    pub fn from_f64_unchecked(x: f64) -> Self {
        HpFixed {
            limbs: encode_listing1::<N, K>(x),
        }
    }

    /// Converts to the nearest `f64`, rounding ties to even.
    ///
    /// Overflow point 3 of §III.B.1: values beyond `f64`'s range decode to
    /// `±∞`; use [`Self::try_to_f64`] to surface that as an error.
    pub fn to_f64(&self) -> f64 {
        codec::decode_f64(&self.limbs, K)
    }

    /// Converts to `f64`, reporting [`HpError::DecodeOverflow`] when the
    /// value exceeds the `f64` range.
    pub fn try_to_f64(&self) -> Result<f64, HpError> {
        let v = self.to_f64();
        if v.is_infinite() {
            Err(HpError::DecodeOverflow)
        } else {
            Ok(v)
        }
    }

    /// The paper's float-path inverse of Listing 1 (Horner fold). Subject
    /// to double rounding; retained for fidelity and comparison.
    pub fn to_f64_float_path(&self) -> f64 {
        decode_float_path::<N, K>(&self.limbs)
    }

    /// Wrapping addition (Listing 2): limb-wise with carry propagation,
    /// least significant limb first.
    #[inline]
    pub fn wrapping_add(mut self, rhs: &Self) -> Self {
        limbs::add(&mut self.limbs, &rhs.limbs);
        self
    }

    /// Addition with the paper's sign-test overflow detection (§III.B.1).
    #[inline]
    pub fn checked_add(mut self, rhs: &Self) -> Result<Self, HpError> {
        if limbs::add_detect_overflow(&mut self.limbs, &rhs.limbs) {
            Err(HpError::AddOverflow)
        } else {
            Ok(self)
        }
    }

    /// In-place wrapping accumulation; the hot-loop primitive behind
    /// `+=`.
    #[inline]
    pub fn add_assign(&mut self, rhs: &Self) {
        limbs::add(&mut self.limbs, &rhs.limbs);
    }

    /// Two's-complement negation. The format minimum (`1000…0`) negates to
    /// itself, as with `i64::MIN`.
    #[inline]
    pub fn negate(mut self) -> Self {
        limbs::negate(&mut self.limbs);
        self
    }

    /// `true` when the sign bit is set.
    #[inline]
    pub fn is_negative(&self) -> bool {
        limbs::is_negative(&self.limbs)
    }

    /// `true` when the value is exactly zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        limbs::is_zero(&self.limbs)
    }

    /// Raw limbs, most significant first (the paper's index order).
    #[inline]
    pub fn as_limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Constructs directly from raw limbs (most significant first).
    #[inline]
    pub fn from_limbs(limbs: [u64; N]) -> Self {
        HpFixed { limbs }
    }

    /// Sums a slice of `f64` values exactly.
    ///
    /// Equivalent to converting each element with
    /// [`Self::from_f64_unchecked`] and folding with `+`; the result is
    /// independent of element order. The caller is responsible for the
    /// range precondition (see [`HpFormat::guaranteed_summands`]).
    ///
    /// Internally runs on the carry-deferred
    /// [`BatchAcc`](crate::batch::BatchAcc) kernel, which skips the
    /// per-addition carry ripple; the bits are identical to the naive
    /// encode-and-`+=` fold.
    pub fn sum_f64_slice(xs: &[f64]) -> Self {
        let mut acc = crate::batch::BatchAcc::<N, K>::new();
        acc.extend_f64(xs);
        acc.finish()
    }

    /// Sums a slice exactly across worker threads: one carry-deferred
    /// [`BatchAcc`](crate::batch::BatchAcc) per worker over a contiguous
    /// chunk, merged once at the join.
    ///
    /// Bitwise identical to [`Self::sum_f64_slice`] for every chunk
    /// split and worker count — partial sums reassociate only integer
    /// additions. Worker count follows `rayon::current_num_threads()`
    /// (scoped by `ThreadPool::install`).
    pub fn par_sum_f64_slice(xs: &[f64]) -> Self {
        use rayon::prelude::*;
        // One chunk per worker; a floor keeps thread spawn cost off tiny
        // inputs.
        let workers = rayon::current_num_threads().max(1);
        let chunk = xs.len().div_ceil(workers).max(4096);
        if xs.len() <= chunk {
            return Self::sum_f64_slice(xs);
        }
        xs.par_chunks(chunk)
            .map(|c| {
                let mut acc = crate::batch::BatchAcc::<N, K>::new();
                acc.extend_f64(c);
                acc.finish()
            })
            .reduce(|| Self::ZERO, |a, b| a.wrapping_add(&b))
    }
}

impl<const N: usize, const K: usize> Default for HpFixed<N, K> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize, const K: usize> core::ops::Add for HpFixed<N, K> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(&rhs)
    }
}

impl<const N: usize, const K: usize> core::ops::AddAssign for HpFixed<N, K> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        HpFixed::add_assign(self, &rhs);
    }
}

impl<const N: usize, const K: usize> core::ops::Sub for HpFixed<N, K> {
    type Output = Self;
    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        limbs::sub(&mut self.limbs, &rhs.limbs);
        self
    }
}

impl<const N: usize, const K: usize> core::ops::Neg for HpFixed<N, K> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.negate()
    }
}

impl<const N: usize, const K: usize> PartialOrd for HpFixed<N, K> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize, const K: usize> Ord for HpFixed<N, K> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        limbs::cmp(&self.limbs, &other.limbs)
    }
}

impl<const N: usize, const K: usize> core::iter::Sum for HpFixed<N, K> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        let mut acc = Self::ZERO;
        for v in iter {
            acc.add_assign(&v);
        }
        acc
    }
}

impl<'a, const N: usize, const K: usize> core::iter::Sum<&'a HpFixed<N, K>> for HpFixed<N, K> {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        let mut acc = Self::ZERO;
        for v in iter {
            acc.add_assign(v);
        }
        acc
    }
}

impl<const N: usize, const K: usize> core::fmt::Debug for HpFixed<N, K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HpFixed<{N},{K}>({})", bfmt::describe(&self.limbs, K))
    }
}

impl<const N: usize, const K: usize> core::fmt::Display for HpFixed<N, K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_identity() {
        let x = Hp3x2::from_f64(0.125).unwrap();
        assert_eq!(x + Hp3x2::ZERO, x);
        assert_eq!(Hp3x2::ZERO + x, x);
        assert!(Hp3x2::ZERO.is_zero());
    }

    #[test]
    fn addition_is_exact() {
        let a = Hp3x2::from_f64(0.1).unwrap();
        let b = Hp3x2::from_f64(0.2).unwrap();
        let c = Hp3x2::from_f64(0.3).unwrap();
        // HP: (a+b)+c == a+(b+c) bitwise — f64 cannot promise this.
        assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn associativity_where_f64_fails() {
        // Summing a small value against a large cancelling pair: f64 loses
        // the small contributions in one order, HP never does.
        let vals = [1.0e15, 0.001, -1.0e15, 0.002];
        let f64_fwd: f64 = vals.iter().sum();
        // f64 loses the 0.001 against 1e15 (ulp(1e15) = 0.125): the forward
        // sum is visibly wrong.
        assert!((f64_fwd - 0.003).abs() > 1e-4);
        // HP sums are bitwise equal in both orders and exact.
        let hp_fwd: Hp3x2 = vals.iter().map(|&v| Hp3x2::from_f64(v).unwrap()).sum();
        let hp_rev: Hp3x2 = vals
            .iter()
            .rev()
            .map(|&v| Hp3x2::from_f64(v).unwrap())
            .sum();
        assert_eq!(hp_fwd, hp_rev);
        // The HP result is the exact sum of the four f64 inputs, which is
        // within one f64 rounding step of 0.003.
        assert!((hp_fwd.to_f64() - 0.003).abs() < 1e-15);
    }

    #[test]
    fn subtraction_and_negation() {
        let a = Hp3x2::from_f64(5.5).unwrap();
        let b = Hp3x2::from_f64(2.25).unwrap();
        assert_eq!((a - b).to_f64(), 3.25);
        assert_eq!((-a).to_f64(), -5.5);
        assert_eq!((-(-a)), a);
        assert_eq!((a - a).to_f64(), 0.0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        let max = Hp2x1::from_f64(Hp2x1::max_range() / 2.0).unwrap();
        assert!(max.checked_add(&max).is_err());
        let small = Hp2x1::from_f64(1.0).unwrap();
        assert!(small.checked_add(&small).is_ok());
        // Negative overflow: −2^62 + −2^62 = −2^63 is exactly the format
        // minimum and does NOT overflow; one more step below it does.
        let nmax = -max;
        assert!(nmax.checked_add(&nmax).is_ok());
        let below = nmax.checked_add(&nmax).unwrap(); // −2^63 == MIN
        assert!(below.checked_add(&(-small)).is_err());
        // Mixed signs never overflow.
        assert!(max.checked_add(&nmax).is_ok());
    }

    #[test]
    fn conversion_errors() {
        assert_eq!(Hp2x1::from_f64(f64::NAN), Err(HpError::NonFinite));
        assert_eq!(Hp2x1::from_f64(1e40), Err(HpError::ConvertOverflow));
        assert_eq!(Hp2x1::from_f64(2f64.powi(-100)), Err(HpError::ConvertUnderflow));
        assert_eq!(Hp2x1::from_f64_trunc(1e40), Err(HpError::ConvertOverflow));
        assert_eq!(Hp2x1::from_f64_trunc(f64::INFINITY), Err(HpError::NonFinite));
        // Truncating conversion accepts below-resolution values.
        assert_eq!(Hp2x1::from_f64_trunc(2f64.powi(-100)).unwrap(), Hp2x1::ZERO);
    }

    #[test]
    fn ordering_matches_f64() {
        let xs = [-100.0, -0.5, 0.0, 1e-18, 3.25, 9.9e17];
        let hp: Vec<Hp2x1> = xs.iter().map(|&x| Hp2x1::from_f64_trunc(x).unwrap()).collect();
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                assert_eq!(
                    hp[i].cmp(&hp[j]),
                    xs[i].partial_cmp(&xs[j]).unwrap(),
                    "{} vs {}",
                    xs[i],
                    xs[j]
                );
            }
        }
    }

    #[test]
    fn sum_f64_slice_order_invariant() {
        let mut xs: Vec<f64> = (0..100).map(|i| (i as f64 - 50.0) * 0.001).collect();
        let fwd = Hp3x2::sum_f64_slice(&xs);
        xs.reverse();
        let rev = Hp3x2::sum_f64_slice(&xs);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn par_sum_matches_sequential_bitwise() {
        let xs: Vec<f64> = (0..50_000)
            .map(|i| (i as f64 - 25_000.0) * 7.7e-8 * if i % 7 == 0 { -3.0 } else { 1.0 })
            .collect();
        assert_eq!(Hp6x3::par_sum_f64_slice(&xs), Hp6x3::sum_f64_slice(&xs));
        // Different worker counts must not change a bit, and every
        // worker's chunk is long enough to take the kernel's bins: hold
        // them to the per-value encode-and-add fold.
        let mut want = Hp6x3::ZERO;
        for &x in &xs {
            want.add_assign(&Hp6x3::from_f64_unchecked(x));
        }
        for threads in 1..=3 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| Hp6x3::par_sum_f64_slice(&xs));
            assert_eq!(got, want, "{threads} workers");
        }
        // Tiny inputs take the sequential path.
        assert_eq!(Hp6x3::par_sum_f64_slice(&xs[..10]), Hp6x3::sum_f64_slice(&xs[..10]));
    }

    #[test]
    fn display_and_debug() {
        let x = Hp3x2::from_f64(-2.5).unwrap();
        assert_eq!(format!("{x}"), "-2.5");
        let dbg = format!("{x:?}");
        assert!(dbg.contains("HpFixed<3,2>"), "{dbg}");
    }

    #[test]
    fn nearest_conversion_centers_the_error() {
        // 10k copies of a value 0.7 resolution-units above a representable
        // point: truncation loses 0.7u per element (bias 7000u); RN gains
        // 0.3u per element (bias 3000u) — and per-element error ≤ 0.5u.
        let u = Hp2x1::smallest();
        let x = 5.0 * u + 0.7 * u;
        let t = Hp2x1::from_f64_trunc(x).unwrap().to_f64();
        let r = Hp2x1::from_f64_nearest(x).unwrap().to_f64();
        assert!((r - x).abs() <= 0.5 * u + f64::EPSILON * x.abs());
        assert!((r - x).abs() < (t - x).abs());
        // Exact inputs are untouched.
        let e = Hp2x1::from_f64_nearest(3.0 * u).unwrap();
        assert_eq!(e.to_f64(), 3.0 * u);
    }

    #[test]
    fn max_range_and_smallest_match_format() {
        assert_eq!(Hp6x3::max_range(), Hp6x3::format().max_range());
        assert_eq!(Hp6x3::smallest(), Hp6x3::format().smallest());
    }
}
