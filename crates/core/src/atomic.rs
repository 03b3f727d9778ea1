//! Lock-free atomic HP accumulation (§III.B.2 of the paper).
//!
//! The paper observes that HP addition needs only *one atomic operation per
//! limb*: add the addend limb (plus the carry propagated from the limb
//! below) with an atomic read-modify-write, and derive the carry-out from
//! the returned old value. Because integer addition is commutative and
//! associative, and every carry is eventually deposited into its target
//! limb, the accumulator converges to the exact sum **regardless of how
//! concurrent updates interleave** — the very property that makes the HP
//! method order-invariant also makes it atomic-update friendly.
//!
//! Two adders are provided:
//!
//! * [`AtomicHp::add`] uses `fetch_add` (a native atomic add; `LOCK XADD`
//!   on x86).
//! * [`AtomicHp::add_cas`] is the paper's construction for targets whose
//!   only 64-bit primitive is compare-and-swap ("The HP method can
//!   guarantee atomicity of addition using only the compare-and-swap (CAS)
//!   synchronization primitive", e.g. CUDA `atomicCAS`).
//!
//! Both are linearizable per limb and produce identical final sums; the
//! test suite hammers them from many threads and checks bitwise equality
//! with the sequential sum.
//!
//! # Snapshot semantics
//!
//! Reading all `N` limbs is not a single atomic action. [`AtomicHp::load`]
//! is exact only at quiescence (no concurrent writers) — the normal pattern
//! of "accumulate in parallel, then read after the join" used by every
//! substrate in this workspace. A torn intermediate read can be off by a
//! not-yet-deposited carry. [`AtomicHp::load_exclusive`] borrows `&mut
//! self` to prove quiescence statically.

use crate::fixed::HpFixed;
use core::sync::atomic::{AtomicU64, Ordering};

/// The atomic-cell operations [`AtomicHpImpl`] needs from a 64-bit word.
///
/// Production code uses the blanket implementation on
/// [`core::sync::atomic::AtomicU64`]; the `oisum-loom-lite` model checker
/// substitutes a virtual atomic whose every operation is a scheduling
/// point, letting it exhaustively enumerate thread interleavings of the
/// *real* accumulator code below. Nothing in this trait is
/// model-checker-specific — it is exactly the subset of the `AtomicU64`
/// API the accumulator uses.
pub trait AtomicU64Like: Send + Sync {
    /// A cell holding `v`.
    fn new(v: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, v: u64, order: Ordering);
    /// Atomic wrapping add; returns the previous value.
    fn fetch_add(&self, v: u64, order: Ordering) -> u64;
    /// Atomic wrapping subtract; returns the previous value. Defaulted
    /// to a wrapping-add of the two's complement, which is what the
    /// hardware instruction does anyway.
    fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
        self.fetch_add(v.wrapping_neg(), order)
    }
    /// Atomic compare-exchange (weak: spurious failure permitted).
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
    /// Plain access through exclusive borrow (no atomics needed).
    fn get_mut(&mut self) -> &mut u64;
}

impl AtomicU64Like for AtomicU64 {
    #[inline]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }
    #[inline]
    fn store(&self, v: u64, order: Ordering) {
        AtomicU64::store(self, v, order)
    }
    #[inline]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, v, order)
    }
    #[inline]
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        AtomicU64::compare_exchange_weak(self, current, new, success, failure)
    }
    #[inline]
    fn get_mut(&mut self) -> &mut u64 {
        AtomicU64::get_mut(self)
    }
}

/// A shared HP accumulator updatable concurrently from many threads.
///
/// ```
/// use oisum_core::{AtomicHp, Hp3x2};
/// use std::sync::Arc;
///
/// let acc = Arc::new(AtomicHp::<3, 2>::zero());
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let acc = Arc::clone(&acc);
///         s.spawn(move || {
///             for i in 0..1000 {
///                 let v = ((t * 1000 + i) as f64 - 2000.0) * 1e-6;
///                 acc.add(&Hp3x2::from_f64_trunc(v).unwrap());
///             }
///         });
///     }
/// });
/// let total = acc.load(); // quiescent: all threads joined
/// let serial: Hp3x2 = (0..4000)
///     .map(|i| Hp3x2::from_f64_trunc((i as f64 - 2000.0) * 1e-6).unwrap())
///     .sum();
/// assert_eq!(total, serial);
/// ```
#[derive(Debug)]
pub struct AtomicHpImpl<A, const N: usize, const K: usize> {
    limbs: [A; N],
    /// Saturating count of detected top-limb signed overflows. Non-zero
    /// means the accumulated value left the representable range at some
    /// point and the current contents cannot be trusted ("poisoned").
    overflows: A,
}

/// The production accumulator: [`AtomicHpImpl`] over the real
/// [`AtomicU64`]. Monomorphizes to exactly the pre-abstraction code.
pub type AtomicHp<const N: usize, const K: usize> = AtomicHpImpl<AtomicU64, N, K>;

impl<A: AtomicU64Like, const N: usize, const K: usize> Default for AtomicHpImpl<A, N, K> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<A: AtomicU64Like, const N: usize, const K: usize> AtomicHpImpl<A, N, K> {
    /// A zeroed accumulator.
    pub fn zero() -> Self {
        AtomicHpImpl {
            limbs: core::array::from_fn(|_| A::new(0)),
            overflows: A::new(0),
        }
    }

    /// An accumulator initialized to `v`.
    pub fn new(v: HpFixed<N, K>) -> Self {
        AtomicHpImpl {
            limbs: core::array::from_fn(|i| A::new(v.as_limbs()[i])),
            overflows: A::new(0),
        }
    }

    /// Records one detected top-limb signed overflow, saturating at
    /// `u64::MAX` so the sticky poison flag can never wrap back to
    /// "clean" under sustained overflow traffic.
    #[cold]
    fn note_overflow(&self) {
        // ORDERING: Relaxed throughout — the counter is a monotonic event
        // tally with no data published under it; the CAS loop only needs
        // the per-cell modification order, which every ordering provides.
        let mut cur = self.overflows.load(Ordering::Relaxed);
        while cur != u64::MAX {
            match self.overflows.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Detects signed overflow of the top-limb deposit: the sum left the
    /// representable range iff `old` and `addend` share a sign that `new`
    /// does not (standard two's-complement overflow predicate).
    #[inline]
    fn check_top_limb(&self, old: u64, addend: u64) {
        let new = old.wrapping_add(addend);
        if ((old ^ new) & (addend ^ new)) >> 63 != 0 {
            self.note_overflow();
        }
    }

    /// True if a top-limb signed overflow has ever been detected.
    ///
    /// The flag is *sticky*: once set it stays set until
    /// [`Self::clear_poison`]. Detection is conservative under
    /// concurrency — a transient excursion outside the representable
    /// range (e.g. a large positive deposit landing before the negative
    /// one that cancels it) is flagged even though the final value is
    /// exact. A poisoned accumulator therefore means "the range margin
    /// was exhausted at least momentarily; widen K or shard the stream",
    /// not necessarily that the final bits are wrong. What it guarantees
    /// is the converse: an unpoisoned accumulator never wrapped, so its
    /// value is unconditionally exact.
    pub fn poisoned(&self) -> bool {
        // ORDERING: Relaxed — sticky flag; readers act on "ever non-zero",
        // which no reordering can un-happen. Quiescent reads see the final
        // value via the caller's join/synchronizes-with edge.
        self.overflows.load(Ordering::Relaxed) != 0
    }

    /// Number of detected top-limb overflows (saturating).
    pub fn overflow_count(&self) -> u64 {
        // ORDERING: Relaxed — same monotonic-tally argument as `poisoned`.
        self.overflows.load(Ordering::Relaxed)
    }

    /// Clears the sticky poison flag through exclusive access.
    pub fn clear_poison(&mut self) {
        *self.overflows.get_mut() = 0;
    }

    /// Atomically adds `b`, one `fetch_add` per limb, rippling carries
    /// upward as separate atomic deposits.
    ///
    /// `Relaxed` ordering is sufficient: the final value depends only on
    /// the per-location modification orders, which atomics guarantee, not
    /// on cross-limb visibility ordering. Thread joins (or any
    /// synchronizes-with edge before the read) make the result visible.
    #[inline]
    pub fn add(&self, b: &HpFixed<N, K>) {
        let limbs = b.as_limbs();
        let mut carry = 0u64;
        for i in (0..N).rev() {
            let (addend, wrapped) = limbs[i].overflowing_add(carry);
            if addend == 0 && i > 0 {
                // Nothing to deposit in this limb; a wrapped addend
                // (b = MAX, carry = 1) still carries one out.
                carry = wrapped as u64;
                continue;
            }
            // ORDERING: Relaxed — the sum depends only on each limb's
            // modification order (integer adds commute); cross-limb
            // visibility is established by the reader's join edge, not
            // here. See the method docs.
            let old = self.limbs[i].fetch_add(addend, Ordering::Relaxed);
            if i == 0 {
                self.check_top_limb(old, addend);
            }
            // Carry out of this limb: the deposit wrapped the cell, or the
            // addend itself wrapped while being formed. At most one of the
            // two can be 1 (if the addend wrapped it is 0, and depositing 0
            // cannot wrap the cell).
            let deposited_wrap = old.wrapping_add(addend) < addend;
            carry = (deposited_wrap as u64) + (wrapped as u64);
        }
        // A carry out of limb 0 wraps mod 2^(64·N): two's-complement
        // semantics, same as the non-atomic adder — except that a *signed*
        // overflow of limb 0 is detected and recorded; see
        // [`Self::poisoned`].
    }

    /// The paper's CAS-only atomic adder: each limb deposit is a
    /// compare-exchange retry loop, as required on architectures whose only
    /// wide atomic is CAS.
    #[inline]
    pub fn add_cas(&self, b: &HpFixed<N, K>) {
        let limbs = b.as_limbs();
        let mut carry = 0u64;
        for i in (0..N).rev() {
            let (addend, wrapped) = limbs[i].overflowing_add(carry);
            if addend == 0 && i > 0 {
                carry = wrapped as u64;
                continue;
            }
            // ORDERING: Relaxed — the CAS loop re-reads on failure, so the
            // deposit lands on *some* point of the limb's modification
            // order; that is all order-invariance needs (same argument as
            // the fetch_add path).
            let mut cur = self.limbs[i].load(Ordering::Relaxed);
            let old = loop {
                match self.limbs[i].compare_exchange_weak(
                    cur,
                    cur.wrapping_add(addend),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(prev) => break prev,
                    Err(now) => cur = now,
                }
            };
            if i == 0 {
                self.check_top_limb(old, addend);
            }
            let deposited_wrap = old.wrapping_add(addend) < addend;
            carry = (deposited_wrap as u64) + (wrapped as u64);
        }
    }

    /// Adds an `f64` via the fast Listing-1 conversion (thread-local) and
    /// one atomic deposit per limb.
    #[inline]
    pub fn add_f64(&self, x: f64) {
        self.add(&HpFixed::<N, K>::from_f64_unchecked(x));
    }

    /// Deposits `v` with **exactly one `fetch_add` per limb** — no
    /// zero-limb skipping, no extra carry deposits (the carry out of each
    /// cell folds into the next limb's addend before that limb's single
    /// RMW). Returns the number of atomic RMWs performed, which is always
    /// `N`.
    ///
    /// This is the deposit primitive behind [`Self::add_batch`]; the
    /// deterministic RMW count is what the batched pipeline's cost model
    /// (and its regression test) relies on.
    #[inline]
    pub fn add_dense(&self, v: &HpFixed<N, K>) -> usize {
        let limbs = v.as_limbs();
        let mut carry = 0u64;
        for i in (0..N).rev() {
            let (addend, wrapped) = limbs[i].overflowing_add(carry);
            // ORDERING: Relaxed — identical argument to `add`: only the
            // per-limb modification order matters.
            let old = self.limbs[i].fetch_add(addend, Ordering::Relaxed);
            if i == 0 {
                self.check_top_limb(old, addend);
            }
            // See [`Self::add`]: at most one of the two wraps can be 1.
            let deposited_wrap = old.wrapping_add(addend) < addend;
            carry = (deposited_wrap as u64) + (wrapped as u64);
        }
        N
    }

    /// Folds a whole batch into a thread-local carry-deferred
    /// [`BatchAcc`](crate::batch::BatchAcc), then lands the total with a
    /// single dense deposit: **exactly `N` atomic RMWs per batch**
    /// instead of up to `N` per value. Returns the RMW count (always
    /// `N`).
    ///
    /// Top-limb overflow poisoning still fires on the deposit, with one
    /// caveat inherent to batching: the check sees the batch's *net*
    /// contribution, so an excursion outside the range that cancels
    /// *within* the batch is not flagged (value-at-a-time deposits would
    /// only have caught it under an unlucky interleaving anyway — the
    /// unpoisoned-implies-exact guarantee is unchanged).
    #[inline]
    pub fn add_batch(&self, xs: &[f64]) -> usize {
        let mut acc = crate::batch::BatchAcc::<N, K>::new();
        acc.extend_f64(xs);
        self.add_dense(&acc.finish())
    }

    /// [`Self::add_batch`] over raw little-endian `f64` bytes — the
    /// service's binary Add payload — fed straight into the lane kernel
    /// ([`crate::kernel::encode_f64_le_batch`]) with no per-value
    /// iterator in between. Bitwise identical to decoding the values and
    /// calling [`Self::add_batch`]; still exactly `N` RMWs per batch.
    /// `bytes.len()` must be a multiple of 8.
    #[inline]
    pub fn add_batch_le_bytes(&self, bytes: &[u8]) -> usize {
        let mut acc = crate::batch::BatchAcc::<N, K>::new();
        crate::kernel::encode_f64_le_batch(&mut acc, bytes);
        self.add_dense(&acc.finish())
    }

    /// Reads the current value limb by limb.
    ///
    /// Exact only at quiescence; see the module docs. Prefer
    /// [`Self::load_exclusive`] when you hold `&mut`.
    pub fn load(&self) -> HpFixed<N, K> {
        // ORDERING: Acquire — pairs with any release edge the writers
        // published their quiescence through (channel send, thread join,
        // a release-stored "done" flag), so a reader that learned of
        // quiescence that way reads the final limbs. Under contention the
        // read can still tear across limbs; see the module docs.
        HpFixed::from_limbs(core::array::from_fn(|i| {
            self.limbs[i].load(Ordering::Acquire)
        }))
    }

    /// Exact read through exclusive access (no concurrent writers can
    /// exist while `&mut self` is held).
    pub fn load_exclusive(&mut self) -> HpFixed<N, K> {
        HpFixed::from_limbs(core::array::from_fn(|i| *self.limbs[i].get_mut()))
    }

    /// Resets the accumulator to zero (and clears the poison flag)
    /// through exclusive access.
    pub fn reset(&mut self) {
        for l in &mut self.limbs {
            *l.get_mut() = 0;
        }
        self.clear_poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Hp2x1, Hp3x2};
    use std::sync::Arc;

    #[test]
    fn single_thread_matches_sequential() {
        let acc = AtomicHp::<3, 2>::zero();
        let mut seq = Hp3x2::ZERO;
        for i in 0..1000 {
            let v = Hp3x2::from_f64_trunc((i as f64 - 500.0) * 0.001).unwrap();
            acc.add(&v);
            seq += v;
        }
        assert_eq!(acc.load(), seq);
    }

    #[test]
    fn cas_adder_matches_fetch_add_adder() {
        let a1 = AtomicHp::<3, 2>::zero();
        let a2 = AtomicHp::<3, 2>::zero();
        for i in 0..500 {
            let v = Hp3x2::from_f64_trunc((i as f64) * -0.37 + 11.1).unwrap();
            a1.add(&v);
            a2.add_cas(&v);
        }
        assert_eq!(a1.load(), a2.load());
    }

    #[test]
    fn carry_ripples_between_limbs() {
        // Adding 2^-64 twice to 0xFFFF…F in the low limb must carry into
        // the middle limb.
        let acc = AtomicHp::<3, 2>::zero();
        let just_below = Hp3x2::from_limbs([0, 0, u64::MAX]);
        let tick = Hp3x2::from_limbs([0, 0, 1]);
        acc.add(&just_below);
        acc.add(&tick);
        assert_eq!(acc.load(), Hp3x2::from_limbs([0, 1, 0]));
    }

    #[test]
    fn carry_chain_through_saturated_middle_limb() {
        // [0, MAX, MAX] + [0, 0, 1] → [1, 0, 0]: the carry must ripple
        // through two limbs via two extra deposits.
        let acc = AtomicHp::<3, 2>::new(Hp3x2::from_limbs([0, u64::MAX, u64::MAX]));
        acc.add(&Hp3x2::from_limbs([0, 0, 1]));
        assert_eq!(acc.load(), Hp3x2::from_limbs([1, 0, 0]));
    }

    #[test]
    fn addend_wrap_edge_case() {
        // b limb = MAX with an incoming carry forms addend 0 with carry
        // out; the cell must receive exactly MAX + 1 in total.
        let acc = AtomicHp::<2, 1>::zero();
        // value = MAX·2^-64 + (MAX + 1·2^-64): craft via raw limbs.
        acc.add(&Hp2x1::from_limbs([0, u64::MAX]));
        acc.add(&Hp2x1::from_limbs([u64::MAX, 1]));
        // Sum: low: MAX+1 → 0 carry 1; high: MAX + 1 = 0 carry (wraps).
        assert_eq!(acc.load(), Hp2x1::from_limbs([0, 0]));
    }

    #[test]
    fn negative_values_accumulate() {
        let acc = AtomicHp::<3, 2>::zero();
        acc.add(&Hp3x2::from_f64(-1.5).unwrap());
        acc.add(&Hp3x2::from_f64(0.25).unwrap());
        acc.add(&Hp3x2::from_f64(1.5).unwrap());
        assert_eq!(acc.load().to_f64(), 0.25);
    }

    #[test]
    fn concurrent_adds_match_sequential_bitwise() {
        const THREADS: usize = 8;
        const PER: usize = 2000;
        let acc = Arc::new(AtomicHp::<3, 2>::zero());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let acc = Arc::clone(&acc);
                s.spawn(move || {
                    for i in 0..PER {
                        let v = ((t * PER + i) as f64 - (THREADS * PER / 2) as f64) * 1e-5;
                        if i % 2 == 0 {
                            acc.add(&Hp3x2::from_f64_trunc(v).unwrap());
                        } else {
                            acc.add_cas(&Hp3x2::from_f64_trunc(v).unwrap());
                        }
                    }
                });
            }
        });
        let mut seq = Hp3x2::ZERO;
        for j in 0..THREADS * PER {
            seq += Hp3x2::from_f64_trunc((j as f64 - (THREADS * PER / 2) as f64) * 1e-5).unwrap();
        }
        assert_eq!(acc.load(), seq);
    }

    #[test]
    fn concurrent_carry_storm() {
        // All adds are ±(2^-64): maximal carry traffic across the low limb
        // boundary around zero crossings.
        const THREADS: usize = 4;
        const PER: usize = 5000;
        let acc = Arc::new(AtomicHp::<2, 1>::zero());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let acc = Arc::clone(&acc);
                s.spawn(move || {
                    let tick = Hp2x1::from_limbs([0, 1]);
                    let ntick = -tick;
                    for i in 0..PER {
                        if (i + t) % 2 == 0 {
                            acc.add(&tick);
                        } else {
                            acc.add(&ntick);
                        }
                    }
                });
            }
        });
        // Equal numbers of +1 and −1 ticks per thread → exact zero.
        assert!(acc.load().is_zero());
    }

    #[test]
    fn overflow_poisons_single_limb_accumulator_from_four_threads() {
        // A 1-limb accumulator holds only ±2^62 (one sign bit + integer
        // bits); four threads depositing i64::MAX-sized limbs wrap it many
        // times over. The wraps must be detected, sticky, and counted.
        let acc = Arc::new(AtomicHp::<1, 1>::zero());
        let big = HpFixed::<1, 1>::from_limbs([i64::MAX as u64]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let acc = Arc::clone(&acc);
                s.spawn(move || {
                    for _ in 0..100 {
                        acc.add(&big);
                        acc.add_cas(&big);
                    }
                });
            }
        });
        assert!(acc.poisoned());
        assert!(acc.overflow_count() >= 1);
        // Poison survives further (non-overflowing) traffic: sticky.
        acc.add(&HpFixed::<1, 1>::from_limbs([0]));
        assert!(acc.poisoned());
    }

    #[test]
    fn in_range_concurrent_traffic_never_poisons() {
        // The converse guarantee: values far inside the representable
        // range must not trip the detector, however the threads interleave.
        let acc = Arc::new(AtomicHp::<2, 1>::zero());
        std::thread::scope(|s| {
            for t in 0..4 {
                let acc = Arc::clone(&acc);
                s.spawn(move || {
                    for i in 0..2000 {
                        let v = ((i + t) as f64 - 1000.0) * 1e-3;
                        acc.add(&Hp2x1::from_f64_trunc(v).unwrap());
                    }
                });
            }
        });
        assert!(!acc.poisoned());
        assert_eq!(acc.overflow_count(), 0);
    }

    #[test]
    fn reset_clears_poison() {
        let mut acc = AtomicHp::<1, 1>::zero();
        let big = HpFixed::<1, 1>::from_limbs([i64::MAX as u64]);
        acc.add(&big);
        acc.add(&big);
        assert!(acc.poisoned());
        acc.reset();
        assert!(!acc.poisoned());
        assert!(acc.load_exclusive().is_zero());
    }

    #[test]
    fn add_batch_is_bitwise_the_sequential_sum() {
        let acc = AtomicHp::<6, 3>::zero();
        let xs: Vec<f64> = (0..2_000)
            .map(|i| (i as f64 - 1000.0) * 1.9e-7 * if i % 5 == 0 { -1e12 } else { 1.0 })
            .collect();
        for chunk in xs.chunks(333) {
            acc.add_batch(chunk);
        }
        assert_eq!(acc.load(), crate::fixed::Hp6x3::sum_f64_slice(&xs));
    }

    #[test]
    fn add_batch_performs_exactly_n_rmws() {
        // The whole point of the batched pipeline: the RMW count is N per
        // batch, independent of batch length (including empty batches).
        let acc = AtomicHp::<6, 3>::zero();
        assert_eq!(acc.add_batch(&[]), 6);
        assert_eq!(acc.add_batch(&[1.0]), 6);
        let big: Vec<f64> = (0..10_000).map(|i| i as f64 * 1e-6).collect();
        assert_eq!(acc.add_batch(&big), 6);
        let acc2 = AtomicHp::<2, 1>::zero();
        assert_eq!(acc2.add_batch(&big), 2);
    }

    #[test]
    fn add_dense_matches_add() {
        let a = AtomicHp::<3, 2>::zero();
        let b = AtomicHp::<3, 2>::zero();
        for i in 0..300 {
            let v = Hp3x2::from_f64_trunc((i as f64) * -7.77 + 3.21).unwrap();
            a.add(&v);
            assert_eq!(b.add_dense(&v), 3);
        }
        assert_eq!(a.load(), b.load());
    }

    #[test]
    fn concurrent_add_batch_matches_sequential_bitwise() {
        const THREADS: usize = 4;
        const PER: usize = 50;
        const BATCH: usize = 64;
        let acc = Arc::new(AtomicHp::<3, 2>::zero());
        let value = |t: usize, b: usize, i: usize| {
            ((t * PER * BATCH + b * BATCH + i) as f64 - 6000.0) * 1e-5
        };
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let acc = Arc::clone(&acc);
                s.spawn(move || {
                    for b in 0..PER {
                        let batch: Vec<f64> = (0..BATCH).map(|i| value(t, b, i)).collect();
                        acc.add_batch(&batch);
                    }
                });
            }
        });
        let mut seq = Hp3x2::ZERO;
        for t in 0..THREADS {
            for b in 0..PER {
                for i in 0..BATCH {
                    seq += Hp3x2::from_f64_trunc(value(t, b, i)).unwrap();
                }
            }
        }
        assert_eq!(acc.load(), seq);
    }

    #[test]
    fn add_batch_poisons_when_deposit_crosses_the_range() {
        // N = K = 1: signed range is ±0.5. Each batch is fine on its own;
        // the second *deposit* pushes the shared total past the bound and
        // must trip the sticky poison flag.
        let acc = AtomicHp::<1, 1>::zero();
        acc.add_batch(&[0.2, 0.25]);
        assert!(!acc.poisoned());
        acc.add_batch(&[0.3]);
        assert!(acc.poisoned());
        assert!(acc.overflow_count() >= 1);
    }

    #[test]
    fn load_exclusive_and_reset() {
        let mut acc = AtomicHp::<2, 1>::zero();
        acc.add(&Hp2x1::from_f64(7.0).unwrap());
        assert_eq!(acc.load_exclusive().to_f64(), 7.0);
        acc.reset();
        assert!(acc.load_exclusive().is_zero());
    }
}
