//! `BatchAcc<N, K>` — a carry-deferred batch accumulator.
//!
//! The plain accumulation loop (`acc.add_assign(&encode(x))`) propagates
//! carries on every addition: each limb's add consumes the carry out of
//! the limb below it, making the whole limb pass one serial dependency
//! chain. Following Neal's small-superaccumulator design (*Fast exact
//! summation using small and large superaccumulators*, arXiv:1505.05571),
//! this accumulator **defers** carry propagation instead: each limb is an
//! independent wrapping `u64` lane, and a wrap is *counted* in a per-limb
//! deferred-carry counter rather than rippled upward immediately. The N
//! lane additions of one deposit then have no data dependencies between
//! them, so the compiler can schedule them in parallel, and the hot loop
//! is branch-light (the only per-deposit branch is the flush check).
//!
//! Exactness is untouched: a lane wrap loses exactly `2^64` lane units,
//! which is exactly one unit of the limb above — the counter records it,
//! and [`BatchAcc::propagate`] deposits the counts upward. Every
//! reassociation this performs is an integer reassociation, so the final
//! bits equal the sequential HP sum of the same multiset (the library's
//! order-invariance guarantee, inherited wholesale).
//!
//! # Why carries cannot be lost between flushes
//!
//! Each deposit wraps a given lane at most once, so after `M` deposits a
//! deferred-carry counter holds at most `M`. Counters are `u64`, so the
//! representation is exact for any `M < 2^64`; the accumulator flushes
//! every `M = 2^16` deposits purely to keep the counters far from any
//! bound (and the flush cost amortized to noise: one `O(N)` pass per
//! 65 536 deposits). See `DESIGN.md` §10 for the full bound.
//!
//! # Where the values come from
//!
//! [`BatchAcc::extend_f64`] routes by length: slices of at least
//! [`BINS_MIN_LEN`](crate::kernel::BINS_MIN_LEN) values go through the
//! kernel's exponent-indexed bins, shorter ones through the lane kernel
//! (`DESIGN.md` §15.6). Both hand the accumulator canonical per-limb
//! partials through the same deposit, so the route changes no bit.

use crate::fixed::HpFixed;

/// Deposits between automatic carry-propagation flushes (`M = 2^16`).
///
/// Any value below `2^64` is exact (each deposit adds at most 1 to each
/// deferred-carry counter); `2^16` keeps the counters 48 bits away from
/// their bound while making the flush cost unmeasurable.
pub const FLUSH_INTERVAL: u32 = 1 << 16;

/// A carry-deferred accumulator for high-throughput batch summation.
///
/// Feed it values with [`BatchAcc::deposit`] (pre-encoded) or
/// [`BatchAcc::encode_deposit`] / [`BatchAcc::extend_f64`] (raw `f64`s),
/// then read the exact total with [`BatchAcc::finish`]. Partial
/// accumulators built on different threads combine with
/// [`BatchAcc::merge`]; the result is bitwise the sequential sum of the
/// union of their inputs.
///
/// ```
/// use oisum_core::{BatchAcc, Hp6x3};
///
/// let xs: Vec<f64> = (0..10_000).map(|i| (i as f64 - 5000.0) * 1e-7).collect();
/// let mut acc = BatchAcc::<6, 3>::new();
/// acc.extend_f64(&xs);
/// assert_eq!(acc.finish(), Hp6x3::sum_f64_slice(&xs));
/// ```
#[derive(Debug, Clone)]
pub struct BatchAcc<const N: usize, const K: usize> {
    /// Per-limb wrapping partial sums (most significant first, the
    /// paper's index order).
    lanes: [u64; N],
    /// Deferred carries: `carries[i]` counts wraps of `lanes[i]`, each
    /// worth one unit of limb `i - 1`. `carries[0]` counts wraps out of
    /// the top limb — the mod-`2^(64·N)` two's-complement wrap — and is
    /// discarded at propagation, matching `HpFixed::wrapping_add`.
    carries: [u64; N],
    /// Deposits since the last propagation.
    pending: u32,
}

impl<const N: usize, const K: usize> Default for BatchAcc<N, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize, const K: usize> BatchAcc<N, K> {
    /// An empty accumulator.
    #[inline]
    pub fn new() -> Self {
        BatchAcc { lanes: [0; N], carries: [0; N], pending: 0 }
    }

    /// Deposits one pre-encoded value: `N` independent lane additions,
    /// no carry ripple.
    #[inline(always)]
    pub fn deposit(&mut self, v: &HpFixed<N, K>) {
        // Const-N loop: monomorphization fully unrolls it, and the lane
        // updates carry no cross-iteration dependency.
        for (i, &limb) in v.as_limbs().iter().enumerate() {
            let (sum, wrapped) = self.lanes[i].overflowing_add(limb);
            self.lanes[i] = sum;
            self.carries[i] += wrapped as u64;
        }
        self.pending += 1;
        // `>=`, not `==`: the chunked deposit paths advance `pending` by
        // more than one between checks.
        if self.pending >= FLUSH_INTERVAL {
            self.propagate();
        }
    }

    /// Deposits a slice of pre-encoded values, eight per iteration: each
    /// limb's eight addends are summed in `u128` (carrying the lane's own
    /// wrap in the same adds) before one lane store and one carry-counter
    /// update — an eighth of the scalar path's lane traffic, and eight
    /// independent addends per limb for the scheduler to overlap. Bitwise
    /// identical to calling [`Self::deposit`] per value: `u128` limb sums
    /// are exact (8 · (2^64 − 1) ≪ 2^128), so regrouping the additions
    /// changes nothing.
    pub fn deposit_chunk(&mut self, vs: &[HpFixed<N, K>]) {
        const WIDE: usize = 8;
        let mut groups = vs.chunks_exact(WIDE);
        for g in groups.by_ref() {
            // chunks_exact guarantees the group length; the array view
            // keeps the inner loop free of bounds checks.
            // lint:allow(service-unwrap) -- infallible: chunks_exact(WIDE) yields WIDE-length slices
            let g: &[HpFixed<N, K>; WIDE] = g.try_into().unwrap();
            for i in 0..N {
                let mut s = self.lanes[i] as u128;
                for v in g {
                    s += v.as_limbs()[i] as u128;
                }
                self.lanes[i] = s as u64;
                // The high word is the group's carry out of lane i (≤ 8),
                // the same units a per-value wrap would have counted.
                self.carries[i] += (s >> 64) as u64;
            }
            self.pending += WIDE as u32;
            if self.pending >= FLUSH_INTERVAL {
                self.propagate();
            }
        }
        for v in groups.remainder() {
            self.deposit(v);
        }
    }

    /// Folds one encode-kernel chunk into the accumulator: each partial
    /// is the non-negative `u128` sum of `count` values' contributions
    /// to one limb (see [`crate::kernel`]), split into a lane add and a
    /// deferred-carry update.
    pub(crate) fn absorb_partials(&mut self, partials: &[i128; N], count: u32) {
        for (i, &p) in partials.iter().enumerate() {
            debug_assert!(p >= 0, "kernel partial must be completed non-negative");
            let p = p as u128;
            let (sum, wrapped) = self.lanes[i].overflowing_add(p as u64);
            self.lanes[i] = sum;
            // High word: carries out of lane i accumulated across the
            // chunk (≤ count + 1 with the wrap) — identical units to the
            // per-value wrap counting.
            self.carries[i] += (p >> 64) as u64 + wrapped as u64;
        }
        self.pending += count;
        if self.pending >= FLUSH_INTERVAL {
            self.propagate();
        }
    }

    /// Encodes `x` (fast Listing-1 conversion, truncating) and deposits
    /// it. The caller owns the range precondition, as with
    /// [`HpFixed::sum_f64_slice`].
    #[inline(always)]
    pub fn encode_deposit(&mut self, x: f64) {
        self.deposit(&HpFixed::<N, K>::from_f64_unchecked(x));
    }

    /// Encodes and deposits every element of `xs`; bitwise identical to
    /// [`Self::encode_deposit`] per value, at a fraction of the
    /// per-summand cost. Slices of at least
    /// [`BINS_MIN_LEN`](crate::kernel::BINS_MIN_LEN) values take the
    /// kernel's exponent-indexed bins, shorter ones the lane kernel
    /// ([`crate::kernel::encode_f64_batch`]).
    #[inline]
    pub fn extend_f64(&mut self, xs: &[f64]) {
        if xs.len() >= crate::kernel::BINS_MIN_LEN {
            crate::kernel::encode_f64_bins(self, xs);
        } else {
            crate::kernel::encode_f64_batch(self, xs);
        }
    }

    /// Folds the deferred-carry counters into the lanes, restoring the
    /// invariant `value == lanes` (all counters zero).
    ///
    /// One pass from the least significant limb upward suffices: the
    /// carry count of limb `i` lands in lane `i - 1` *before* lane
    /// `i - 1`'s own counter is consumed, so a wrap caused by the landing
    /// is picked up in the same pass. The count out of the top limb is
    /// the mod-`2^(64·N)` wrap and is dropped (two's-complement
    /// semantics, identical to `HpFixed::wrapping_add`).
    pub fn propagate(&mut self) {
        for i in (1..N).rev() {
            let c = core::mem::take(&mut self.carries[i]);
            let (sum, wrapped) = self.lanes[i - 1].overflowing_add(c);
            self.lanes[i - 1] = sum;
            self.carries[i - 1] += wrapped as u64;
        }
        self.carries[0] = 0;
        self.pending = 0;
    }

    /// Absorbs another accumulator: lane-wise wrapping adds plus counter
    /// merges. Bitwise equivalent to depositing every value `other` saw.
    pub fn merge(&mut self, other: &Self) {
        for i in 0..N {
            let (sum, wrapped) = self.lanes[i].overflowing_add(other.lanes[i]);
            self.lanes[i] = sum;
            // Counters stay far below u64::MAX (each side flushes every
            // 2^16 deposits), so the sum cannot wrap.
            self.carries[i] += other.carries[i] + wrapped as u64;
        }
        self.pending = 0;
    }

    /// Propagates all deferred carries and returns the exact total.
    #[inline]
    pub fn finish(mut self) -> HpFixed<N, K> {
        self.propagate();
        HpFixed::from_limbs(self.lanes)
    }

    /// The exact total without consuming the accumulator.
    pub fn total(&self) -> HpFixed<N, K> {
        self.clone().finish()
    }
}

/// Values a [`StagedAcc`] buffers per flush: twice
/// [`BINS_MIN_LEN`](crate::kernel::BINS_MIN_LEN), so every full flush
/// takes the bins and their fixed per-call cost is spread over 4096
/// values.
pub(crate) const STAGE_LEN: usize = 2 * crate::kernel::BINS_MIN_LEN;

/// A [`BatchAcc`] fed through a buffer of 4096 values, twice
/// [`BINS_MIN_LEN`](crate::kernel::BINS_MIN_LEN), so values that
/// arrive a few at a time still reach the kernel's exponent-indexed
/// bins: one by one from an iterator
/// ([`crate::sum::HpSumExt::hp_sum`]), or as many short little-endian
/// records that together make one long run (the service's WAL replay).
/// Staging only regroups the values, so the total is bitwise
/// [`HpFixed::sum_f64_slice`] of everything fed, in any order.
///
/// ```
/// use oisum_core::{Hp6x3, StagedAcc};
///
/// let xs: Vec<f64> = (0..5000).map(|i| (i as f64 - 2500.0) * 1e-3).collect();
/// let mut acc = StagedAcc::<6, 3>::new();
/// acc.extend(xs.iter().copied());
/// assert_eq!(acc.finish(), Hp6x3::sum_f64_slice(&xs));
/// ```
#[derive(Debug)]
pub struct StagedAcc<const N: usize, const K: usize> {
    acc: BatchAcc<N, K>,
    /// Staged values, never more than `STAGE_LEN`: a full buffer is
    /// flushed at once.
    buf: Vec<f64>,
}

impl<const N: usize, const K: usize> Default for StagedAcc<N, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize, const K: usize> StagedAcc<N, K> {
    /// An empty accumulator. The buffer is allocated, not cleared: a
    /// short sum pays for the values it stages and nothing more.
    pub fn new() -> Self {
        StagedAcc {
            acc: BatchAcc::new(),
            buf: Vec::with_capacity(STAGE_LEN),
        }
    }

    /// Stages raw little-endian `f64` bytes (the service's wire and log
    /// payload), decoding them straight into the buffer. Trailing bytes
    /// beyond the last whole `f64` are ignored, as
    /// [`crate::kernel::encode_f64_le_batch`] ignores them.
    pub fn extend_le_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.as_chunks::<8>().0;
        while !words.is_empty() {
            let (head, rest) = words.split_at(words.len().min(STAGE_LEN - self.buf.len()));
            self.buf.extend(head.iter().map(|&w| f64::from_le_bytes(w)));
            if self.buf.len() == STAGE_LEN {
                self.flush();
            }
            words = rest;
        }
    }

    fn flush(&mut self) {
        self.acc.extend_f64(&self.buf);
        self.buf.clear();
    }

    /// Flushes what is staged and returns the exact total.
    pub fn finish(mut self) -> HpFixed<N, K> {
        self.flush();
        self.acc.finish()
    }
}

/// Stages an iterator's values. Each fill is one `Vec::extend` of at
/// most the buffer's free room, which measured faster than a push and a
/// length check per value.
impl<const N: usize, const K: usize> Extend<f64> for StagedAcc<N, K> {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        let mut values = values.into_iter();
        loop {
            let room = STAGE_LEN - self.buf.len();
            self.buf.extend(values.by_ref().take(room));
            if self.buf.len() < STAGE_LEN {
                return;
            }
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Hp2x1, Hp3x2};

    /// The pre-BatchAcc reference path: encode + carry-propagating add
    /// per value.
    fn per_value_sum<const N: usize, const K: usize>(xs: &[f64]) -> HpFixed<N, K> {
        let mut acc = HpFixed::<N, K>::ZERO;
        for &x in xs {
            acc.add_assign(&HpFixed::from_f64_unchecked(x));
        }
        acc
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert!(BatchAcc::<6, 3>::new().finish().is_zero());
    }

    #[test]
    fn matches_per_value_path_on_mixed_signs() {
        let xs: Vec<f64> = (0..4_000)
            .map(|i| (i as f64 - 2000.0) * 1.37e-9 * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let mut acc = BatchAcc::<6, 3>::new();
        acc.extend_f64(&xs);
        assert_eq!(acc.finish(), per_value_sum::<6, 3>(&xs));
    }

    #[test]
    fn deferred_carries_survive_heavy_lane_wrapping() {
        // Values a hair under the Hp2x1 range bound wrap the low lane on
        // nearly every deposit and exercise the top-limb mod wrap on
        // cancellation.
        let xs: Vec<f64> = (0..3_000)
            .map(|i| {
                let m = if i % 2 == 0 { 1.0 } else { -1.0 };
                m * (i as f64 + 0.5) * 1e15
            })
            .collect();
        let mut acc = BatchAcc::<2, 1>::new();
        acc.extend_f64(&xs);
        assert_eq!(acc.finish(), per_value_sum::<2, 1>(&xs));
    }

    #[test]
    fn automatic_flush_beyond_interval_is_exact() {
        // More deposits than FLUSH_INTERVAL forces at least one automatic
        // mid-stream propagation.
        let n = FLUSH_INTERVAL as usize + 12_345;
        let xs: Vec<f64> = (0..n).map(|i| ((i % 1000) as f64 - 500.0) * 1e12).collect();
        let mut acc = BatchAcc::<3, 2>::new();
        acc.extend_f64(&xs);
        assert_eq!(acc.finish(), per_value_sum::<3, 2>(&xs));
    }

    #[test]
    fn raw_limb_deposits_propagate_like_wrapping_add() {
        // All-ones limbs wrap every lane on the second deposit.
        let v = Hp3x2::from_limbs([u64::MAX; 3]);
        let mut acc = BatchAcc::<3, 2>::new();
        acc.deposit(&v);
        acc.deposit(&v);
        acc.deposit(&v);
        assert_eq!(acc.finish(), v.wrapping_add(&v).wrapping_add(&v));
    }

    #[test]
    fn merge_equals_sequential_union() {
        let xs: Vec<f64> = (0..1_500).map(|i| (i as f64 - 750.0) * 3.3e-5).collect();
        let (lo, hi) = xs.split_at(700);
        let mut a = BatchAcc::<6, 3>::new();
        a.extend_f64(lo);
        let mut b = BatchAcc::<6, 3>::new();
        b.extend_f64(hi);
        a.merge(&b);
        assert_eq!(a.finish(), per_value_sum::<6, 3>(&xs));
    }

    #[test]
    fn merge_with_unpropagated_carries_on_both_sides() {
        let v = Hp2x1::from_limbs([1, u64::MAX]);
        let mut a = BatchAcc::<2, 1>::new();
        let mut b = BatchAcc::<2, 1>::new();
        for _ in 0..5 {
            a.deposit(&v);
            b.deposit(&v);
        }
        a.merge(&b);
        let mut want = Hp2x1::ZERO;
        for _ in 0..10 {
            want = want.wrapping_add(&v);
        }
        assert_eq!(a.finish(), want);
    }

    #[test]
    fn total_is_nondestructive() {
        let mut acc = BatchAcc::<3, 2>::new();
        acc.extend_f64(&[0.1, -0.25, 7.5]);
        let snap = acc.total();
        acc.encode_deposit(1.0);
        assert_eq!(snap, per_value_sum::<3, 2>(&[0.1, -0.25, 7.5]));
        assert_eq!(acc.finish(), per_value_sum::<3, 2>(&[0.1, -0.25, 7.5, 1.0]));
    }

    #[test]
    fn deposit_chunk_matches_per_value_deposits() {
        // 4-wide groups plus a remainder, with all-ones limbs so every
        // group wraps lanes multiple times.
        let vs: Vec<Hp3x2> = (0..23)
            .map(|i| {
                Hp3x2::from_limbs([u64::MAX - i, i << 60, u64::MAX / (i + 1)])
            })
            .collect();
        let mut chunked = BatchAcc::<3, 2>::new();
        chunked.deposit_chunk(&vs);
        let mut scalar = BatchAcc::<3, 2>::new();
        for v in &vs {
            scalar.deposit(v);
        }
        assert_eq!(chunked.finish(), scalar.finish());
    }

    #[test]
    fn deposit_chunk_flushes_past_the_interval() {
        let vs: Vec<Hp2x1> = (0..(FLUSH_INTERVAL as usize + 7))
            .map(|i| Hp2x1::from_limbs([i as u64, u64::MAX - i as u64]))
            .collect();
        let mut chunked = BatchAcc::<2, 1>::new();
        chunked.deposit_chunk(&vs);
        let mut scalar = BatchAcc::<2, 1>::new();
        for v in &vs {
            scalar.deposit(v);
        }
        assert_eq!(chunked.finish(), scalar.finish());
    }

    #[test]
    fn staged_values_match_the_slice_sum_however_they_are_split() {
        // Pieces that straddle a flush, land on one exactly, and are
        // longer than the buffer; odd trailing bytes are ignored.
        let xs: Vec<f64> = (0..(3 * STAGE_LEN + 777))
            .map(|i| (i as f64 - 6000.0) * 3.7e-5 * if i % 5 == 0 { -1e9 } else { 1.0 })
            .collect();
        let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        let want = per_value_sum::<6, 3>(&xs);
        for piece in [1, 256, STAGE_LEN - 1, STAGE_LEN, 2 * STAGE_LEN + 3] {
            let mut acc = StagedAcc::<6, 3>::new();
            for chunk in bytes.chunks(piece * 8) {
                acc.extend_le_bytes(chunk);
            }
            assert_eq!(acc.finish(), want, "pieces of {piece} values");
        }
        // Iterator pieces and byte pieces mix in one accumulator.
        let mut acc = StagedAcc::<6, 3>::new();
        for (i, piece) in xs.chunks(STAGE_LEN - 5).enumerate() {
            if i % 2 == 0 {
                acc.extend(piece.iter().copied());
            } else {
                acc.extend_le_bytes(&bytes[8 * i * (STAGE_LEN - 5)..][..8 * piece.len()]);
            }
        }
        assert_eq!(acc.finish(), want);
        let mut acc = StagedAcc::<6, 3>::new();
        acc.extend_le_bytes(&bytes[..8 * 3 + 5]);
        assert_eq!(acc.finish(), per_value_sum::<6, 3>(&xs[..3]));
        assert!(StagedAcc::<6, 3>::new().finish().is_zero());
    }

    #[test]
    fn signed_zeros_and_denormals_are_absorbed() {
        let xs = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, -5e-324, 1.5, -1.5];
        let mut acc = BatchAcc::<6, 3>::new();
        acc.extend_f64(&xs);
        assert_eq!(acc.finish(), per_value_sum::<6, 3>(&xs));
    }
}
